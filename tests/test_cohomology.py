"""Betti tables, twisted cohomology, the rescaling map, periodicity."""

import pathlib
import random
from itertools import combinations

import pytest

from dgcalc import cli, linalg, presets
from dgcalc.cohomology import (
    TWIST_LIFT,
    CochainSpace,
    CohomologyError,
    _twisted_dims_at,
    _twisted_images,
    betti,
    circle_quasi_iso_check,
    cochains,
    degree_cap,
    induced_rank,
    periodicity_check,
    twisted_betti,
    validate_formal_dimension,
)
from dgcalc.derivations import Derivation, DgBundle, gauge_transform
from dgcalc.graded import Element, Model
from dgcalc.parser import load_path
from dgcalc.sampling import random_element
from oracles import (
    _differential,
    _parity_basis,
    _twisted_columns,
    bareiss_rank,
    cocycle_vectors,
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


HALF_PAIR = pathlib.Path(__file__).resolve().parent / "nil_pair_half.dgm"


def _finite_case(name):
    """A model with only odd generators, so finite, and a closed twist on it:
    tori with zero and volume twists, fixed nilmanifolds, and models whose
    d, halved, has denominator 2, with twists over 3."""
    from test_kernel import dg_model, halved  # test_kernel imports this module

    kind, _, arg = name.partition("-")
    if kind == "torus":
        t = presets.torus(int(arg[0]))
        return t, t.gen("th1") * t.gen("th2") * t.gen("th3") if arg.endswith("vol") else t.zero()
    if kind == "nil5":
        nil = presets.nilmanifold()
        k3 = nil.gen("x1") * nil.gen("x3") * nil.gen("x4")
        return nil, {"zero": nil.zero(), "k3": k3, "shifted": k3 / 3 + nil.d(nil.gen("z") * nil.gen("x3"))}[arg]
    if kind == "nil6":
        # two z's over four x's, and a twist with terms of both kinds
        nil = Model(
            [(f"x{i}", 1) for i in range(1, 5)] + [("z1", 1), ("z2", 1)],
            formal_dimension=6,
            differential=lambda m: {
                "z1": m.gen("x1") * m.gen("x2"),
                "z2": m.gen("x1") * m.gen("x3") - 2 * m.gen("x2") * m.gen("x4"),
            },
        )
        x1, x3, x4, z2 = (nil.gen(g) for g in ("x1", "x3", "x4", "z2"))
        return nil, x1 * x3 * x4 - nil.d(z2 * x4) / 2 + 2 * nil.d(nil.gen("z1") * z2)
    if kind == "half":
        model = load_path(str(HALF_PAIR)).model
        k3 = model.gen("x1") * model.gen("x3") * model.gen("x4")
        return model, k3 / 3 + model.d(model.gen("z") * model.gen("x3"))
    seed, degrees = {"dg0": (0, [1, 1, 1, 1, 3]), "dg1": (1, [1, 1, 3, 1]), "dg2": (2, [1, 1, 3, 1])}[arg]
    model = halved(dg_model(degrees, random.Random(seed)))
    assert model.d_table.den == 2
    vectors, basis = cocycle_vectors(model, 3)
    h = sum((Element(model, dict(zip(basis, v))) * (k + 1) for k, v in enumerate(vectors)), model.zero()) / 3
    return model, h


FINITE_CASES = [
    "torus-2", "torus-3", "torus-3vol", "torus-4", "torus-4vol", "torus-5", "torus-5vol",
    "nil5-zero", "nil5-k3", "nil5-shifted", "nil6-twist", "half-pair", "halved-dg0", "halved-dg1", "halved-dg2",
]


@pytest.mark.parametrize("name", FINITE_CASES)
def test_the_two_rank_path_is_the_windowed_path_on_finite_models(name, monkeypatch):
    model, h = _finite_case(name)
    assert model.d(h).is_zero() and (h.is_zero() or h.degree() == 3)
    top = model._reach[0]
    kernels, ranks = [], []
    kernel_basis, rank = linalg.kernel_basis, linalg.rank
    monkeypatch.setattr(linalg, "kernel_basis", lambda *a: kernels.append(a) or kernel_basis(*a))
    monkeypatch.setattr(linalg, "rank", lambda *a: ranks.append(a) or rank(*a))
    for cap in (top, top + 3):
        kernels.clear()
        ranks.clear()
        got = twisted_betti(model, h, cap=cap)
        assert (len(kernels), len(ranks)) == (0, 2), "one rank per parity and no kernel"
        # the windowed assembly at this cap and the next: the stabilisation
        # check the two ranks skip would have passed
        images, upto = _twisted_images(model, h, cap + 1 + TWIST_LIFT)
        assert _twisted_dims_at(images, upto, cap) == _twisted_dims_at(images, upto, cap + 1) == got
    # one degree short of the top, the windowed path runs: a kernel per cap and parity
    kernels.clear()
    try:
        twisted_betti(model, h, cap=top - 1)
    except CohomologyError as err:
        assert "did not stabilize" in str(err)
    assert len(kernels) == 4


@pytest.mark.parametrize("name", ["torus-3vol", "nil5-shifted", "nil6-twist", "half-pair", "halved-dg0"])
def test_finite_twisted_images_are_the_oracle_columns(name):
    # h*m from the monomial's side, with the sign (-1)^{|m|}, against h * m
    model, h = _finite_case(name)
    top = model._reach[0]
    images, _ = _twisted_images(model, h, top)
    scale = model.d_table.den * h.den
    for parity in (0, 1):
        source, target = _parity_basis(model, parity, top), _parity_basis(model, 1 - parity, top)
        assert [k for k, _, _ in images[parity]] == [k for k, _ in source]
        want = _twisted_columns(model, h, source, target, top)
        for (k, _, whole), column in zip(images[parity], want):
            assert [whole.get(i, 0) for i in range(len(target))] == [scale * c for c in column], k


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
    # the audit returns nothing and leaves its slices on the model, where
    # every later reader finds them; nil's degrees past fd are empty, so the
    # audit indexes no degree above them and builds no slice below them, and
    # they lie past the reach of its five degree-1 generators, so no basis of
    # them is stored either
    assert validate_formal_dimension(nil) is None
    fd = nil.formal_dimension
    audited = list(range(fd + 1, fd + 5))
    assert sorted(nil._slices) == audited
    assert not nil._suffixes[0].keys() & set(audited)
    kept = {k: nil._slices[k] for k in audited}

    def no_rebuild(self, space, degree):
        raise AssertionError(f"slice {degree} built again")

    monkeypatch.setattr(CochainSpace, "__init__", no_rebuild)
    assert all(cochains(nil, k) is kept[k] and kept[k].degree == k for k in audited)
    assert betti(nil, fd + 1, fd + 4) == {k: 0 for k in audited}
    assert sorted(nil._slices) == audited
    assert not nil._suffixes[0].keys() & set(audited)


def test_an_empty_degree_builds_no_neighbour():
    # a and b fill even degrees only: an odd degree far up is empty by the
    # gcd of their degrees, and its empty basis is read as H^k = 0 without
    # the slices, or even the bases, of the degrees on either side
    model = Model([("a", 2), ("b", 4)])
    k = 2000001
    assert betti(model, k, k) == {k: 0}
    assert cochains(model, k).columns == []
    assert k - 1 not in model._slices and k + 1 not in model._slices
    assert k - 1 not in model._suffixes[0] and k + 1 not in model._suffixes[0]


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


def test_a_map_of_the_wrong_degree_names_the_monomial_that_leaves_the_basis(s2):
    # the class of a in H^2(S^2) goes to a^2 b, of degree 7, not into degree 2
    with pytest.raises(CohomologyError) as err:
        induced_rank(s2, 2, lambda z: z * z * s2.gen("b"), s2, 2)
    assert str(err.value) == "element leaves the span of the degree basis: a^2*b"
