"""Betti tables, twisted cohomology, the rescaling map, periodicity."""

import pathlib
import random
from itertools import combinations

import pytest

from dgcalc import cli, presets
from dgcalc.cohomology import (
    CochainSpace,
    CohomologyError,
    betti,
    circle_quasi_iso_check,
    complex_of,
    degree_cap,
    periodicity_check,
    twisted_betti,
    validate_formal_dimension,
)
from dgcalc.derivations import Derivation, DgBundle, gauge_transform
from dgcalc.graded import Model
from dgcalc.sampling import random_element
from oracles import (
    _differential,
    bareiss_rank,
    coordinates,
    rescale_to_twisted,
    twist_operator,
    twisted_dims_reference,
)

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # without the dev extra only the random-nilmanifold property test is left out
    st = None

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


def test_betti_s3_volume_bundle(s3):
    bundle = DgBundle.line(s3, s3.gen("c"), "t", 2)
    table = betti(bundle, 0, 6)
    assert list(table.items()) == [(0, 1), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0)]


def test_betti_point_with_polynomial_fiber():
    pt = presets.point()
    bundle = DgBundle.line(pt, pt.zero(), "t", 2)
    table = betti(bundle, 0, 8)
    assert all(table[2 * k] == 1 for k in range(5))
    assert all(table[2 * k + 1] == 0 for k in range(4))


def test_betti_torus_bundle_stabilizes_at_two(t2):
    bundle = DgBundle.line(t2, t2.zero(), "t", 2)
    table = betti(bundle, 0, 8)
    assert all(table[j] == 2 for j in range(3, 9))
    assert list(table.items())[:3] == [(0, 1), (1, 2), (2, 2)]


def test_d_matrix_composes_to_zero(s2):
    bundle = DgBundle.line(s2, s2.zero(), "t", 2)
    nonzero = 0
    for k in range(7):
        here = CochainSpace(bundle, k)
        there = CochainSpace(bundle, k + 1)
        for column in here.columns:
            nonzero += len(column)
            composed = {}
            for l, c in column.items():
                for i, x in there.columns[l].items():
                    composed[i] = composed.get(i, 0) + c * x
            assert not any(composed.values())
    assert nonzero


def _spaces(s2, s3, nil):
    f = nil.gen("x1") * nil.gen("x2") + nil.gen("x3") * nil.gen("x4")
    h = -2 * (nil.gen("z") * nil.gen("x3") * nil.gen("x4"))
    return [
        s2,
        nil,
        DgBundle.line(s3, s3.gen("c"), "t", 2),
        DgBundle.two_step(s2, s2.gen("a"), s2.zero(), s2.zero()),
        DgBundle.two_step(nil, f, f, h),
    ]


def test_columns_are_the_coordinates_of_d(s2, s3, nil):
    for space in _spaces(s2, s3, nil):
        model, q = space.total if isinstance(space, DgBundle) else space, _differential(space)
        for k in range(degree_cap(space) + 1):
            cs = CochainSpace(space, k)
            target = model.basis(k + 1)
            assert len(cs.columns) == len(cs.basis)
            for m, column in zip(cs.basis, cs.columns):
                dense = [column.get(i, 0) for i in range(len(target))]
                assert dense == coordinates(q(model.monomial_element(m)), target)
                assert all(column.values())


def _assert_twisted_matches_reference(model, h, top_cap):
    """At every cap 0..top_cap: the reference's answer where it is stable, else an error."""
    reference = [twisted_dims_reference(model, h, cap) for cap in range(top_cap + 2)]
    for cap, (here, above) in enumerate(zip(reference, reference[1:])):
        if here == above:
            assert twisted_betti(model, h, cap=cap) == here
        else:
            with pytest.raises(CohomologyError, match="did not stabilize"):
                twisted_betti(model, h, cap=cap)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_twisted_matches_dense_reference_on_tori(n):
    t = presets.torus(n)
    vol = t.gen("th1") * t.gen("th2") * t.gen("th3") if n >= 3 else t.zero()
    for h in (t.zero(), vol):
        _assert_twisted_matches_reference(t, h, degree_cap(t) + 1)


def test_twisted_matches_dense_reference_with_polynomial_generator(s2, s3):
    assert degree_cap(s2) == 10  # 2 x formal dimension + 6
    _assert_twisted_matches_reference(s2, s2.zero(), degree_cap(s2) + 1)
    _assert_twisted_matches_reference(s3, s3.gen("c"), degree_cap(s3) + 1)


if st is not None:

    @st.composite
    def nilmanifolds_with_twist(draw):
        """A 2-step nilmanifold x1..xn, z1..zm with dz a sum of x products, and
        a closed 3-form: triple products of x plus d of a random 2-form."""
        n, m = draw(st.integers(3, 4)), draw(st.integers(1, 2))
        xs = [f"x{i}" for i in range(1, n + 1)]
        coeff = st.sampled_from([-2, -1, 1, 2])
        dz = {
            f"z{j}": draw(st.lists(st.tuples(coeff, st.sampled_from(list(combinations(xs, 2)))),
                                   min_size=1, max_size=3))
            for j in range(1, m + 1)
        }
        model = Model(
            [(x, 1) for x in xs] + [(z, 1) for z in dz],
            formal_dimension=n + m,
            differential=lambda mm: {
                z: sum((c * mm.gen(a) * mm.gen(b) for c, (a, b) in terms), mm.zero())
                for z, terms in dz.items()
            },
            name="nil",
        )
        h = model.zero()
        for c, (a, b, e) in draw(st.lists(st.tuples(coeff, st.sampled_from(list(combinations(xs, 3)))),
                                          max_size=2)):
            h = h + c * model.gen(a) * model.gen(b) * model.gen(e)
        names = st.sampled_from(list(model.index))
        for c, a, b in draw(st.lists(st.tuples(coeff, names, names), max_size=2)):
            h = h + c * model.d(model.gen(a) * model.gen(b))
        return model, h

    @settings(max_examples=12, deadline=None)
    @given(nilmanifolds_with_twist())
    def test_twisted_matches_dense_reference_on_random_nilmanifolds(case):
        model, h = case
        _assert_twisted_matches_reference(model, h, degree_cap(model) + 1)


@pytest.mark.parametrize("cap", [-1, -3])
def test_twisted_rejects_a_cap_that_checks_nothing(t2, cap):
    with pytest.raises(CohomologyError, match=f"degree cap {cap} checks no degree"):
        twisted_betti(t2, t2.zero(), cap=cap)


def test_twisted_s3_volume_vanishes(s3):
    assert twisted_betti(s3, s3.gen("c")) == (0, 0)


def test_twisted_torus_untwisted(t2):
    assert twisted_betti(t2, t2.zero()) == (2, 2)


def test_twisted_sphere_untwisted(s2):
    assert twisted_betti(s2, s2.zero()) == (2, 0)


def test_twisted_torus3_volume():
    t3 = presets.torus(3)
    vol = t3.gen("th1") * t3.gen("th2") * t3.gen("th3")
    assert twisted_betti(t3, vol) == (3, 3)
    assert twisted_betti(t3, t3.zero()) == (4, 4)


def test_twisted_product_with_volume_twist():
    # S2 x S3 with the S3 volume as twist: polynomial generator plus a real
    # twist is the hardest case for the degree-cap stabilization
    m = Model(
        [("a", 2), ("b", 3), ("c", 3)],
        formal_dimension=5,
        differential=lambda mm: {"b": mm.gen("a") * mm.gen("a")},
        name="S2xS3",
    )
    assert list(betti(m, 0, 5).items()) == [(0, 1), (1, 0), (2, 1), (3, 1), (4, 0), (5, 1)]
    assert twisted_betti(m, m.gen("c")) == (0, 0)
    assert twisted_betti(m, m.zero()) == (2, 2)
    bundle = DgBundle.line(m, m.gen("c"), "t", 2)
    high = betti(bundle, 6, 9)
    assert not any(high.values())


def test_twisted_requires_closed_form(s2):
    with pytest.raises(CohomologyError):
        twisted_betti(s2, s2.gen("b"))


def test_twisted_invariant_under_exact_shift(nil):
    rng = random.Random(21)
    h = nil.gen("x1") * nil.gen("x3") * nil.gen("x4")
    base = twisted_betti(nil, h)
    for _ in range(3):
        b = random_element(nil, 2, rng)
        assert twisted_betti(nil, h + nil.d(b)) == base


def test_rescaling_values(s3):
    bundle = DgBundle.line(s3, s3.gen("c"), "t", 2)
    t = bundle.total.gen("t")
    w = bundle.include_base(s3.gen("c"))
    assert rescale_to_twisted(bundle, w * t * t) == 2 * s3.gen("c")
    assert rescale_to_twisted(bundle, w) == s3.gen("c")
    assert rescale_to_twisted(bundle, bundle.total.one()) == s3.one()


def test_rescaling_intertwines_on_positive_powers(s3, s2):
    # phi((d + H dt)(w t^k)) == (d + H wedge)(phi(w t^k)) for k >= 1
    for base, h_el in ((s3, s3.gen("c")), (s2, s2.zero())):
        bundle = DgBundle.line(base, h_el, "t", 2)
        twist = twist_operator(base, h_el)
        rng = random.Random(22)
        for k in (1, 2, 3):
            for deg in range(0, 4):
                w = bundle.include_base(random_element(base, deg, rng))
                el = w * bundle.total.gen("t") ** k
                lhs = rescale_to_twisted(bundle, bundle.q(el))
                rhs = twist(rescale_to_twisted(bundle, el))
                assert lhs == rhs


def test_betti_agrees_with_twisted_above_dimension(t2, s2, s3):
    for base, h_el in ((t2, t2.zero()), (s2, s2.zero()), (s3, s3.gen("c"))):
        bundle = DgBundle.line(base, h_el, "t", 2)
        ev, od = twisted_betti(base, h_el)
        m = base.formal_dimension
        even_degree = m + 1 if (m + 1) % 2 == 0 else m + 2
        table = betti(bundle, even_degree, even_degree + 3)
        assert table[even_degree] == ev
        assert table[even_degree + 1] == od
        assert table[even_degree + 2] == ev


def test_periodicity(s3, t2):
    s3_bundle = DgBundle.line(s3, s3.gen("c"), "t", 2)
    assert periodicity_check(s3_bundle, 4, 1)
    t2_bundle = DgBundle.line(t2, t2.zero(), "t", 2)
    assert periodicity_check(t2_bundle, 3, 2)
    assert periodicity_check(t2_bundle, 3, 0)
    with pytest.raises(CohomologyError):
        periodicity_check(t2_bundle, 1, 1)


def test_hopf_quasi_isomorphism(s2, s3):
    ok, pairs = circle_quasi_iso_check(s2, s2.gen("a"), s3, hi=6)
    assert ok
    assert [p[1] for p in pairs] == [1, 0, 0, 1, 0, 0, 0]


def test_trivial_circle_bundle_quasi_iso(t2):
    total = Model([("th1", 1), ("th2", 1), ("q", 1)], formal_dimension=3)
    ok, _ = circle_quasi_iso_check(t2, t2.zero(), total, hi=5)
    assert ok


def test_circle_bundle_over_line_torus():
    t1 = presets.torus(1)
    t2 = presets.torus(2)
    ok, pairs = circle_quasi_iso_check(t1, t1.zero(), t2, hi=4)
    assert ok
    assert [p[1] for p in pairs][:3] == [1, 2, 1]


def test_quasi_iso_detects_mismatch(s2, s3):
    # forgetting the curvature breaks the comparison
    ok, _ = circle_quasi_iso_check(s2, s2.zero(), s3, hi=6)
    assert not ok


def test_betti_gauge_invariance(nil):
    f = nil.gen("x1") * nil.gen("x2") + nil.gen("x3") * nil.gen("x4")
    h = -2 * (nil.gen("z") * nil.gen("x3") * nil.gen("x4"))
    bundle = DgBundle.two_step(nil, f, f, h)
    rng = random.Random(23)
    b = random_element(nil, 2, rng)
    v = Derivation(bundle.total, 0, {"t": bundle.include_base(b)})
    moved = gauge_transform(bundle.q, v)
    lo, hi = 0, 7
    plain = betti(bundle, lo, hi)
    for k in range(lo, hi + 1):
        basis_k = bundle.total.basis(k)
        basis_k1 = bundle.total.basis(k + 1)
        cols = []
        for m in basis_k:
            img = moved(bundle.total.monomial_element(m))
            col = [img.terms.get(mm, 0) for mm in basis_k1]
            cols.append(col)
        mat = [[cols[j][i] for j in range(len(cols))] for i in range(len(basis_k1))]
        prev_basis = bundle.total.basis(k - 1) if k else []
        prev_cols = []
        for m in prev_basis:
            img = moved(bundle.total.monomial_element(m))
            prev_cols.append([img.terms.get(mm, 0) for mm in basis_k])
        prev = [[prev_cols[j][i] for j in range(len(prev_cols))] for i in range(len(basis_k))]
        dim = len(basis_k) - bareiss_rank(mat) - bareiss_rank(prev)
        assert dim == plain[k]


def test_validate_formal_dimension(nil, s2):
    validate_formal_dimension(nil)
    validate_formal_dimension(s2)
    bad = Model([("c", 3)], formal_dimension=1, name="bad")
    with pytest.raises(Exception):
        validate_formal_dimension(bad)


def test_validate_formal_dimension_returns_its_complex(nil, monkeypatch):
    # the audit returns nothing and leaves its slices on the model's one complex
    assert validate_formal_dimension(nil) is None

    def no_rebuild(self, space, degree):
        raise AssertionError(f"slice {degree} built again")

    monkeypatch.setattr(CochainSpace, "__init__", no_rebuild)
    fd = nil.formal_dimension
    cx = complex_of(nil)
    assert cx is complex_of(nil) and cx.model is nil
    assert all(cx[k].degree == k for k in range(fd + 1, fd + 5))
    assert betti(nil, fd + 1, fd + 4) == {k: 0 for k in range(fd + 1, fd + 5)}


@pytest.mark.parametrize("argv", [
    ["betti", "s2_sphere.dgm"],
    ["betti", "s2_sphere.dgm", "--lo", "2", "--hi", "5"],
    ["ses-verify", "hopf_pair.dgm"],
    ["iso-check", "hopf_pair.dgm"],
])
def test_no_slice_is_built_twice(argv, monkeypatch, capsys):
    # every build by (space, degree); keeping the spaces keeps their ids unique
    builds = []
    original = CochainSpace.__init__

    def counting(self, space, degree):
        builds.append((space, degree))
        original(self, space, degree)

    monkeypatch.setattr(CochainSpace, "__init__", counting)
    assert cli.main([argv[0], str(MODELS / argv[1])] + argv[2:]) == 0
    keys = [(id(space), degree) for space, degree in builds]
    assert builds and len(keys) == len(set(keys))
