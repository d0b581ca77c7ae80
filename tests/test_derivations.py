"""Derivations: commutators, Maurer-Cartan checks, gauge transformations."""

import pathlib
import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest

from dgcalc import presets
from dgcalc.derivations import (
    BUNDLE_SHAPES,
    BundleError,
    Derivation,
    DerivationError,
    DgBundle,
    commutator,
    gauge_transform,
    maurer_cartan_check,
    model_differential,
)
from dgcalc.graded import Element, Model, apply_values, format_element, pack, unpack
from dgcalc.parser import load_path
from dgcalc.sampling import random_derivation, random_element
from oracles import literal_commutator, mc_fail_field

try:
    from hypothesis import HealthCheck, example, given, settings, strategies as st
except ImportError:  # without the dev extra the property tests below are left out
    st = None

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"
# the field of every model file that declares a bundle; no bundle carries
# mc_fail's, so the oracle writes it out on the bare algebra
FIELDS = {
    path.stem: mf.bundle.q
    for path in sorted(MODELS.glob("*.dgm"))
    if (mf := load_path(path, validate=False)).bundle is not None
}
FIELDS["mc_fail"] = mc_fail_field()


def weighted(model, name, el):
    """The derivation  el * d/d(name)."""
    g = model.generator_named(name)
    return Derivation(model, (el.degree() or 0) - g.degree, {name: el})


def test_commutator_of_d_with_itself(s2):
    d = model_differential(s2)
    assert commutator(d, d).is_zero()


def test_commutator_contraction_with_d_on_torus(t2):
    # iota(th1)=1, iota(th2)=0; all generators closed, so [iota, d] = 0
    iota = Derivation(t2, -1, {"th1": t2.one()})
    d = model_differential(t2)
    assert commutator(iota, d).is_zero()


def test_bracket_with_fiber_scaling_reproduces_differential(s2):
    # [Q, eta dt] = (d eta) dt on a line bundle: take eta = b, d eta = a^2
    bundle = DgBundle.line(s2, s2.zero(), "t", 2)
    eta = bundle.include_base(s2.gen("b"))
    deta = bundle.include_base(s2.d(s2.gen("b")))
    got = commutator(bundle.q, weighted(bundle.total, "t", eta))
    assert got == weighted(bundle.total, "t", deta)


@pytest.mark.parametrize("zero_degree", [-2, -1, 0, 1, 3])
def test_a_zero_operand_brackets_to_the_two_pass_result(s2, zero_degree):
    # the early return must give what both Leibniz passes give, degree included
    d = model_differential(s2)
    contraction = Derivation(s2, -2, {"a": s2.one()})
    zero = Derivation.zero(s2, zero_degree)
    for d1, d2 in [(zero, d), (d, zero), (zero, contraction), (contraction, zero), (zero, zero)]:
        negate = not (d1.degree % 2 and d2.degree % 2)
        passes = [(d1.table, d2.table, False), (d2.table, d1.table, negate)]
        two_pass = Derivation._of_table(s2, apply_values(s2, passes))
        got = commutator(d1, d2)
        assert got == two_pass and got.is_zero()
        assert got.degree == got.table.degree == two_pass.degree == d1.degree + d2.degree


def test_commutator_degree_and_ambient_checks(t2, s2):
    with pytest.raises(DerivationError):
        commutator(Derivation.zero(t2, 0), Derivation.zero(s2, 0))


def test_constructor_rejects_bad_values(s2):
    with pytest.raises(DerivationError, match="must be homogeneous of degree 2"):
        Derivation(s2, 0, {"a": s2.gen("b")})
    with pytest.raises(DerivationError, match="must be homogeneous"):
        Derivation(s2, 0, {"a": s2.gen("a") + s2.gen("a") * s2.gen("a")})
    with pytest.raises(DerivationError, match="unknown generator 'x'"):
        Derivation(s2, 0, {"x": s2.gen("a")})
    with pytest.raises(DerivationError, match="ambient model"):
        Derivation(Model([("a", 2)]), 0, {"a": s2.gen("a")})
    with pytest.raises(DerivationError, match="ambient model"):  # a zero of another model too
        Derivation(s2, 0, {"a": Model([("a", 2)]).zero()})


def test_value_reads_one_entry_and_is_zero_off_the_table(s2):
    # b has a value, a has none, and x is no generator of the model at all
    d = Derivation(s2, 1, {"b": s2.gen("a") ** 2})
    assert d.value("b") == s2.gen("a") ** 2
    assert d.value("a").is_zero() and d.value("x").is_zero()


def test_internal_results_match_the_checked_constructor(mixed):
    # sums, multiples and commutators skip the degree checks; rebuilding them
    # through the checked constructor must give the same derivation, zeros dropped
    rng = random.Random(12)
    for _ in range(15):
        da, db = rng.choice([-1, 0, 1]), rng.choice([-1, 0, 1])
        a, b = random_derivation(mixed, da, rng), random_derivation(mixed, db, rng)
        for out in (commutator(a, b), a + a, a - a, a * 3, a * 0):
            assert Derivation(mixed, out.degree, out.values) == out
            assert all(not v.is_zero() for v in out.values.values())
    assert (a - a).is_zero() and (a * 0).is_zero()


def test_jacobi_identity_randomized(mixed):
    rng = random.Random(11)
    for _ in range(20):
        degs = [rng.choice([-2, -1, 0, 1]) for _ in range(3)]
        a, b, c = (random_derivation(mixed, d, rng) for d in degs)
        sign_ab = -1 if (degs[0] % 2 and degs[1] % 2) else 1
        sign_ac = -1 if (degs[0] % 2 and degs[2] % 2) else 1
        lhs = commutator(a, commutator(b, c))
        rhs = commutator(commutator(a, b), c) + sign_ab * commutator(b, commutator(a, c))
        assert lhs == rhs, (degs, sign_ab, sign_ac)


def test_leibniz_rule_randomized(mixed):
    rng = random.Random(12)
    for _ in range(20):
        deg = rng.choice([-2, -1, 0, 1, 2])
        d = random_derivation(mixed, deg, rng)
        da, db = rng.randint(1, 4), rng.randint(1, 4)
        a = random_element(mixed, da, rng)
        b = random_element(mixed, db, rng)
        sign = -1 if (deg % 2 and da % 2) else 1
        assert d(a * b) == d(a) * b + sign * (a * d(b))


def test_mc_closed_curvature_passes(s2):
    # d + F dq with F closed is homological
    DgBundle.line(s2, s2.gen("a"), "q", 1)


def test_mc_failure_witness_on_sphere(s2):
    a = s2.gen("a")
    with pytest.raises(BundleError) as err:
        DgBundle.two_step(s2, a, a, s2.zero())
    res = err.value.result
    assert not res and not hasattr(err.value, "bundle")
    assert res.witness == "t"
    # the residue lives on the failed total model, the one model the build made
    total = res.residue.model
    assert [g.name for g in total.generators] == [g.name for g in s2.generators] + ["q", "t"]
    assert total.name == "S2-bundle"
    assert res.residue == total.gen("a") ** 2


def test_mc_failure_with_wrong_degrees_carries_no_bundle(s2):
    # F of degree 4 cannot be the value of Q on a degree-1 fiber
    with pytest.raises(BundleError) as err:
        DgBundle.two_step(s2, s2.gen("a") ** 2, s2.zero(), s2.zero())
    assert err.value.result is None and not hasattr(err.value, "bundle")


def test_mc_pass_on_sphere3_volume(s3):
    q = DgBundle.two_step(s3, s3.zero(), s3.zero(), s3.gen("c")).q
    assert maurer_cartan_check(q)


def mc_case(model, f, fbar, h):
    try:
        return bool(maurer_cartan_check(DgBundle.two_step(model, f, fbar, h).q))
    except BundleError as err:
        return bool(err.result)


def test_mc_equivalent_to_structural_equations(nil):
    """Sweep all eight closed / non-closed combinations of (F, Fbar, H-coupling)."""
    m = nil
    x1, x2, x3, x4, z = (m.gen(n) for n in ("x1", "x2", "x3", "x4", "z"))
    closed_f = x1 * x2
    closed_fbar = x3 * x4
    bad = z * x3  # d(z x3) = x1 x2 x3
    bad_h = z * x3 * x4  # d = x1 x2 x3 x4, the volume monomial
    cases = [
        # (F, Fbar, H, eq1, eq2, eq3)
        (closed_f, closed_fbar, -bad_h, True, True, True),
        (closed_f, closed_fbar, m.zero(), True, True, False),
        (m.zero(), bad, m.zero(), True, False, True),
        (m.zero(), bad, bad_h, True, False, False),
        (bad, m.zero(), m.zero(), False, True, True),
        (bad, m.zero(), bad_h, False, True, False),
        (bad, bad, m.zero(), False, False, True),
        (bad, bad, bad_h, False, False, False),
    ]
    for f, fbar, h, e1, e2, e3 in cases:
        assert m.d(f).is_zero() == e1
        assert m.d(fbar).is_zero() == e2
        assert (m.d(h) + f * fbar).is_zero() == e3
        assert mc_case(m, f, fbar, h) == (e1 and e2 and e3)


def test_gauge_shift_of_three_form(s2):
    # with ad_V = [V, .], the familiar twist shift H -> H + dB comes from V = -B dt
    bundle = DgBundle.line(s2, s2.zero(), "t", 3)
    b_form = s2.gen("b")
    v = Derivation(bundle.total, 0, {"t": bundle.include_base(b_form)})
    assert gauge_transform(bundle.q, -1 * v).value("t") == bundle.include_base(s2.d(b_form))
    assert gauge_transform(bundle.q, v).value("t") == -bundle.include_base(s2.d(b_form))
    assert maurer_cartan_check(gauge_transform(bundle.q, v))


def test_gauge_on_correspondence_swaps_twist(t2):
    # e^{ad of qbar q dt} carries H + q Fbar to H + qbar F
    f = t2.gen("th1") * t2.gen("th2")
    fbar = t2.zero()
    corr = DgBundle.correspondence(t2, f, fbar, t2.zero())
    total = corr.total
    v = weighted(total, "t", total.gen("qbar") * total.gen("q"))
    moved = gauge_transform(corr.q, v)
    expected = corr.include_base(t2.zero()) + total.gen("qbar") * corr.include_base(f)
    assert moved.value("t") == expected
    assert moved.value("q") == corr.include_base(f)
    assert maurer_cartan_check(moved)


def test_gauge_identity_for_zero_field(s3):
    bundle = DgBundle.line(s3, s3.gen("c"), "t", 2)
    assert gauge_transform(bundle.q, Derivation.zero(bundle.total, 0)) == bundle.q


def test_gauge_rejects_non_nilpotent(s3):
    # the fiber scaling t d/dt acts on d + c dt with an adjoint orbit that never dies
    bundle = DgBundle.line(s3, s3.gen("c"), "t", 2)
    euler = Derivation(bundle.total, 0, {"t": bundle.total.gen("t")})
    with pytest.raises(DerivationError):
        gauge_transform(bundle.q, euler, nilpotency_cap=6)


def test_gauge_outputs_stay_maurer_cartan(nil):
    rng = random.Random(6)
    f = nil.gen("x1") * nil.gen("x2")
    bundle = DgBundle.two_step(nil, f, nil.zero(), nil.zero())
    for _ in range(10):
        a = random_element(nil, 1, rng)
        b = random_element(nil, 2, rng)
        abar = random_element(nil, 1, rng)
        v = (
            weighted(bundle.total, "q", bundle.include_base(a))
            + Derivation(
                bundle.total,
                0,
                {"t": bundle.include_base(b) + bundle.total.gen("q") * bundle.include_base(abar)},
            )
        )
        assert maurer_cartan_check(gauge_transform(bundle.q, v))


def test_homologous_shift_structural_transformation(nil):
    """Q + [Q, X0] transforms (F, Fbar, H) exactly like the fiber-wise move."""
    rng = random.Random(7)
    m = nil
    f = m.gen("x1") * m.gen("x2")
    fbar = m.gen("x3") * m.gen("x4")
    h = -(m.gen("z") * m.gen("x3") * m.gen("x4"))
    bundle = DgBundle.two_step(m, f, fbar, h)
    for _ in range(10):
        a = random_element(m, 1, rng)
        b = random_element(m, 2, rng)
        abar = random_element(m, 1, rng)
        x0 = Derivation(
            bundle.total,
            0,
            {
                "q": bundle.include_base(a),
                "t": bundle.include_base(b) + bundle.total.gen("q") * bundle.include_base(abar),
            },
        )
        moved = bundle.q + commutator(bundle.q, x0)
        new_f = f + m.d(a)
        new_h = h + m.d(b) + f * abar - a * fbar
        new_fbar = fbar - m.d(abar)
        assert moved.value("q") == bundle.include_base(new_f)
        assert moved.value("t") == bundle.include_base(new_h) + bundle.total.gen(
            "q"
        ) * bundle.include_base(new_fbar)
        assert maurer_cartan_check(moved)


def test_homologous_shift_closed_a_keeps_f(t2):
    bundle = DgBundle.two_step(t2, t2.gen("th1") * t2.gen("th2"), t2.zero(), t2.zero())
    a = t2.gen("th1")  # closed
    x0 = Derivation(bundle.total, 0, {"q": bundle.include_base(a)})
    moved = bundle.q + commutator(bundle.q, x0)
    assert moved.value("q") == bundle.q.value("q")


def test_homologous_shift_zero_is_identity(s3):
    bundle = DgBundle.two_step(s3, s3.zero(), s3.zero(), s3.gen("c"))
    assert bundle.q + commutator(bundle.q, Derivation.zero(bundle.total, 0)) == bundle.q


# -- the bundle-shape table -------------------------------------------------------

# per shape: the constructor with renamed fibers, the fibers it must append as
# (name, degree), and Q on each fiber as the DgBundle docstring writes it, from
# the forms f and the fiber generators g
BUNDLE_CASES = {
    "line": (
        lambda base, f: DgBundle.line(base, f["Theta"], fiber="s", degree=3),
        [("s", 3)],
        lambda f, g: {"s": f["Theta"]},
    ),
    "two_step": (
        lambda base, f: DgBundle.two_step(base, f["F"], f["Fbar"], f["H"], q="u", t="v"),
        [("u", 1), ("v", 2)],
        lambda f, g: {"u": f["F"], "v": f["H"] + g("u") * f["Fbar"]},
    ),
    "correspondence": (
        lambda base, f: DgBundle.correspondence(
            base, f["F"], f["Fbar"], f["H"], q="u", qbar="w", t="v"
        ),
        [("u", 1), ("w", 1), ("v", 2)],
        lambda f, g: {"u": f["F"], "w": f["Fbar"], "v": f["H"] + g("u") * f["Fbar"]},
    ),
    "flux": (
        lambda base, f: DgBundle.flux(base, f["F4"], f["F7"], q="u", t="v"),
        [("u", 3), ("v", 6)],
        lambda f, g: {"u": f["F4"], "v": f["F7"] + g("u") * f["F4"] * Fraction(1, 2)},
    ),
}


@pytest.mark.parametrize("shape", sorted(BUNDLE_SHAPES))
def test_each_shape_appends_its_fibers_and_field_as_the_table_says(shape):
    base = presets.torus(7)
    th = [base.gen(f"th{i}") for i in range(1, 8)]
    # closed forms with F Fbar = F4 F4 = 0, so every shape is Maurer-Cartan
    forms = {
        "Theta": th[0] * th[1] * th[2] * th[3],
        "F": th[0] * th[1],
        "Fbar": th[0] * th[2] - th[1] * th[0],
        "H": th[3] * th[4] * th[5],
        "F4": th[0] * th[1] * th[2] * th[3],
        "F7": reduce(mul, th),
    }
    build, fibers, field = BUNDLE_CASES[shape]
    bundle = build(base, forms)
    assert bundle.shape == shape
    assert bundle.fiber_names == tuple(name for name, _ in fibers)
    table = [3 if degree is None else degree for _, degree, _ in BUNDLE_SHAPES[shape][0]]
    assert [degree for _, degree in fibers] == table
    layout = [(g.name, g.degree) for g in bundle.total.generators]
    assert layout == [(g.name, g.degree) for g in base.generators] + fibers

    def lift(el):  # padded by hand on exponent tuples, not by include_base
        n, pad = len(base.generators), (0,) * len(fibers)
        return Element(bundle.total, {pack(unpack(m, n) + pad): c for m, c in el.terms.items()})

    lifted = {key: lift(form) for key, form in forms.items()}
    expected = field(lifted, bundle.total.gen)
    assert {name: bundle.q.value(name) for name, _ in fibers} == expected
    assert all(not value.is_zero() for value in expected.values())
    assert maurer_cartan_check(bundle.q)


# -- the two-pass commutator against the generator-by-generator loop --------------


def test_mc_check_reports_the_first_literal_residue():
    q = mc_fail_field()
    literal = [(g.name, q(q(q.model.gen(g.name)))) for g in q.model.generators]
    witness, residue = next((name, r) for name, r in literal if not r.is_zero())
    result = maurer_cartan_check(q)
    assert not result
    assert (result.witness, result.residue) == (witness, residue)
    # the failed build reports the same first residue, on its own total model
    base = load_path(MODELS / "mc_fail.dgm", validate=False).model
    a = base.gen("a")
    with pytest.raises(BundleError) as err:
        DgBundle.two_step(base, a, a, base.zero())
    got = err.value.result
    assert (got.witness, format_element(got.residue)) == (witness, format_element(residue))


if st is not None:

    # the `mixed` model is never changed, so one instance serves every example
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        degrees=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
        densities=st.tuples(st.sampled_from([0.0, 0.3, 1.0]), st.sampled_from([0.0, 0.3, 1.0])),
        same=st.booleans(),
    )
    @example(seed=0, degrees=(1, -1), densities=(1.0, 1.0), same=False)
    @example(seed=1, degrees=(1, 1), densities=(0.3, 0.3), same=True)
    @example(seed=2, degrees=(-1, 0), densities=(0.0, 1.0), same=False)
    def test_commutator_matches_the_literal_loop(mixed, seed, degrees, densities, same):
        rng = random.Random(seed)
        d1 = random_derivation(mixed, degrees[0], rng, densities[0])
        d2 = d1 if same else random_derivation(mixed, degrees[1], rng, densities[1])
        # a zero value given to the checked constructor is dropped, like a missing one
        zeros = Derivation(mixed, d2.degree, {"r": mixed.zero(), **d2.values})
        for a, b in ((d1, d2), (d2, d1), (d1, zeros), (zeros, d1)):
            got = commutator(a, b)
            assert got == literal_commutator(a, b)
            assert got.degree == a.degree + b.degree
            assert all(value.terms for value in got.values.values())

    @pytest.mark.parametrize("name", sorted(FIELDS))
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_commutator_with_each_bundle_field_matches_the_literal_loop(name, seed):
        q = FIELDS[name]
        field = random_derivation(q.model, -1, random.Random(seed))
        for a, b in ((q, field), (field, q), (q, q), (field, field)):
            assert commutator(a, b) == literal_commutator(a, b)
