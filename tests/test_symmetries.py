"""Structured symmetries: displays vs oracles, dg-Leibniz laws, duality, B/E structures."""

import random
from fractions import Fraction

import pytest

from dgcalc import presets
from dgcalc.derivations import Derivation, DgBundle, commutator
from dgcalc.graded import Model
from dgcalc.sampling import random_contraction, random_element
from dgcalc.symmetries import (
    Brackets,
    SymmetryError,
    bn_bracket,
    bn_element,
    bn_one_form_action,
    bn_pairing,
    bn_two_form_action,
    courant_embed,
    decompose,
    derivation_residue,
    derived_bracket,
    dual_symmetry,
    e6_element,
    e6_pairing,
    e6_six_form_action,
    e6_three_form_action,
    is_selfdual_fixed,
    is_symmetry,
    jacobi_residue,
    lie_derivative,
    selfdual_fixed_part,
    selfdual_phi,
    sym0_dimensions,
    sym_bracket,
    sym_differential,
    symmetry,
    symmetry_residues,
)
from dgcalc.tduality import dualize
from oracles import courant_reference_bracket, sphere4_times_torus3, vector_bracket


# -- bundles under test -------------------------------------------------------


@pytest.fixture
def ts(nil):
    # two-step bundle with every structural form nonzero
    f = nil.gen("x1") * nil.gen("x2")
    fbar = nil.gen("x3") * nil.gen("x4")
    h = -(nil.gen("z") * nil.gen("x3") * nil.gen("x4"))
    return DgBundle.two_step(nil, f, fbar, h)


@pytest.fixture
def selfdual(nil):
    f = nil.gen("x1") * nil.gen("x2") + nil.gen("x3") * nil.gen("x4")
    h = -2 * (nil.gen("z") * nil.gen("x3") * nil.gen("x4"))
    return DgBundle.two_step(nil, f, f, h)


@pytest.fixture
def cd_bundle():
    # degree-2 line bundle over T3 twisted by the volume form
    t3 = presets.torus(3)
    vol = t3.gen("th1") * t3.gen("th2") * t3.gen("th3")
    return DgBundle.line(t3, vol, "t", 2)


@pytest.fixture
def t7_flux():
    t7 = presets.torus(7)
    g = t7.gen
    f4 = g("th1") * g("th2") * g("th3") * g("th4")
    f7 = g("th1") * g("th2") * g("th3") * g("th4") * g("th5") * g("th6") * g("th7")
    return DgBundle.flux(t7, f4, f7)


@pytest.fixture
def s4_flux():
    base = sphere4_times_torus3()
    return DgBundle.flux(base, base.gen("a"), base.gen("b") * Fraction(-1, 2))


def rand_ts1(bundle, rng):
    base = bundle.base
    return symmetry(
        bundle,
        -1,
        iota=random_contraction(base, rng),
        f=rng.randint(-2, 2),
        c=random_element(base, 1, rng),
        fbar=rng.randint(-2, 2),
    )


def rand_ts0(bundle, rng):
    base = bundle.base
    return symmetry(
        bundle,
        0,
        iota=random_contraction(base, rng),
        a=random_element(base, 1, rng),
        b=random_element(base, 2, rng),
        abar=random_element(base, 1, rng),
    )


def rand_flux1(bundle, rng):
    base = bundle.base
    return e6_element(
        bundle,
        iota=random_contraction(base, rng),
        s2=random_element(base, 2, rng),
        s5=random_element(base, 5, rng),
    )


# -- structured constructors and decomposition --------------------------------


def test_decompose_round_trips(ts, rng):
    for maker in (rand_ts0, rand_ts1):
        for _ in range(5):
            x = maker(ts, rng)
            again = decompose(ts, x.realized)
            assert again == x
            assert again.realized == x.realized


def test_decompose_rejects_unstructured(ts):
    # t-dependence in the fiber value falls outside the structured family
    euler = Derivation(ts.total, 0, {"t": ts.total.gen("t")})
    with pytest.raises(SymmetryError):
        decompose(ts, euler)


def test_degree_guards(ts):
    with pytest.raises(SymmetryError):
        symmetry(ts, 1)
    with pytest.raises(SymmetryError):
        sym_differential(symmetry(ts, 0))


def test_an_inhomogeneous_part_is_rejected_whichever_term_comes_first(ts):
    # b is a 2-form in degree 0; one order puts the 2-form term first, so a
    # check of the first term alone passes one of them
    nil = ts.base
    two_form, one_form = nil.gen("x1") * nil.gen("x2"), nil.gen("x3")
    for part in (two_form + one_form, one_form + two_form):
        with pytest.raises(SymmetryError, match=r"^part must be homogeneous of degree 2$"):
            symmetry(ts, 0, b=part)


# -- differential displays ------------------------------------------------------


def test_line_differential_displays(cd_bundle, rng):
    base = cd_bundle.base
    theta = cd_bundle.structural["Theta"]
    # [Q, eta dt] = (d eta) dt: on the torus every eta is closed, so extend to
    # a sphere model where the differential acts
    s2 = presets.sphere2()
    sphere_line = DgBundle.line(s2, s2.zero(), "t", 4)
    eta = symmetry(sphere_line, -1, a=s2.gen("b"))
    out = sym_differential(eta)
    assert out.part("b") == s2.d(s2.gen("b"))
    # [Q, iota_X + A dt] = L_X + (dA + iota_X Theta) dt
    for _ in range(6):
        a = symmetry(cd_bundle, -1, iota=random_contraction(base, rng), a=random_element(base, 1, rng))
        got = sym_differential(a)
        exp = symmetry(
            cd_bundle,
            0,
            lie=lie_derivative(base, a.part("iota")),
            b=base.d(a.part("a")) + a.part("iota")(theta),
        )
        assert got == exp


def test_two_step_differential_display(ts, rng):
    base = ts.base
    f, fbar, h = (ts.structural[k] for k in ("F", "Fbar", "H"))
    for _ in range(6):
        a = rand_ts1(ts, rng)
        iy, fv, cv, fbv = (a.part(k) for k in ("iota", "f", "c", "fbar"))
        got = sym_differential(a)
        exp = symmetry(
            ts,
            0,
            lie=lie_derivative(base, iy),
            a=base.d(fv) + iy(f),
            b=base.d(cv) + iy(h) + f * fbv + fv * fbar,
            abar=-(base.d(fbv) + iy(fbar)),
        )
        assert got == exp


def test_two_step_h_differential(ts):
    # [Q, h dt] = (dh) dt; h is a rational constant here, so this is zero
    out = sym_differential(symmetry(ts, -2, h=3))
    assert out.realized.is_zero()


def test_differential_squares_to_zero(ts, t7_flux, rng):
    for bundle, maker in ((ts, rand_ts1), (t7_flux, rand_flux1)):
        for _ in range(4):
            a = maker(bundle, rng)
            dd = commutator(bundle.q, commutator(bundle.q, a.realized))
            assert dd.is_zero()


def test_flux_differential_closes_lower_degrees(s4_flux, t7_flux, rng):
    # [Q, .] keeps the half-coupled family at every structured degree
    for bundle in (s4_flux, t7_flux):
        base = bundle.base
        low2 = symmetry(
            bundle, -2, eta1=random_element(base, 1, rng), c4=random_element(base, 4, rng)
        )
        low3 = symmetry(bundle, -3, f=rng.randint(-2, 2), d3=random_element(base, 3, rng))
        out2 = sym_differential(low2)
        out3 = sym_differential(low3)
        assert out2.degree == -1 and "s2" in out2.parts
        assert out3.degree == -2 and "eta1" in out3.parts
        dd = commutator(bundle.q, commutator(bundle.q, low2.realized))
        assert dd.is_zero()


def test_flux_differential_keeps_shape(s4_flux, rng):
    a = rand_flux1(s4_flux, rng)
    out = sym_differential(a)
    assert out.degree == 0
    base = s4_flux.base
    f4, f7 = s4_flux.structural["F4"], s4_flux.structural["F7"]
    iy, s2v, s5v = (a.part(k) for k in ("iota", "s2", "s5"))
    assert out.part("a3") == base.d(s2v) + iy(f4)
    assert out.part("b6") == base.d(s5v) + iy(f7) + f4 * s2v


# -- bracket displays -----------------------------------------------------------


def test_line_bracket_table(cd_bundle, rng):
    base = cd_bundle.base
    for _ in range(5):
        x0 = symmetry(cd_bundle, 0, iota=random_contraction(base, rng), b=random_element(base, 2, rng))
        x1 = symmetry(cd_bundle, 0, iota=random_contraction(base, rng), b=random_element(base, 2, rng))
        y0 = symmetry(cd_bundle, -1, iota=random_contraction(base, rng), a=random_element(base, 1, rng))
        y1 = symmetry(cd_bundle, -1, iota=random_contraction(base, rng), a=random_element(base, 1, rng))
        eta = symmetry(cd_bundle, -2, eta=random_element(base, 0, rng))
        l0, l1 = x0.part("lie"), x1.part("lie")
        got = sym_bracket(x0, x1)
        assert got == symmetry(
            cd_bundle, 0, lie=commutator(l0, l1), b=l0(x1.part("b")) - l1(x0.part("b"))
        )
        got = sym_bracket(x0, y1)
        assert got == symmetry(
            cd_bundle,
            -1,
            iota=commutator(l0, y1.part("iota")),
            a=l0(y1.part("a")) - y1.part("iota")(x0.part("b")),
        )
        got = sym_bracket(x0, eta)
        assert got == symmetry(cd_bundle, -2, eta=l0(eta.part("eta")))
        got = sym_bracket(y0, y1)
        assert got == symmetry(
            cd_bundle,
            -2,
            eta=y0.part("iota")(y1.part("a")) + y1.part("iota")(y0.part("a")),
        )
        got = sym_bracket(y0, eta)
        assert got.realized == Derivation(
            cd_bundle.total,
            -3,
            {"t": cd_bundle.include_base(y0.part("iota")(eta.part("eta")))},
        )


def test_two_step_bracket_displays(ts, rng):
    base = ts.base
    for _ in range(5):
        x, y = rand_ts0(ts, rng), rand_ts0(ts, rng)
        lx, ly = x.part("lie"), y.part("lie")
        got = sym_bracket(x, y)
        assert got == symmetry(
            ts,
            0,
            lie=commutator(lx, ly),
            a=lx(y.part("a")) - ly(x.part("a")),
            b=lx(y.part("b"))
            - ly(x.part("b"))
            + x.part("a") * y.part("abar")
            - y.part("a") * x.part("abar"),
            abar=lx(y.part("abar")) - ly(x.part("abar")),
        )
        u, v = rand_ts1(ts, rng), rand_ts1(ts, rng)
        got = sym_bracket(u, v)
        assert got == symmetry(
            ts,
            -2,
            h=u.part("iota")(v.part("c"))
            + v.part("iota")(u.part("c"))
            + u.part("f") * v.part("fbar")
            + v.part("f") * u.part("fbar"),
        )
        got = sym_bracket(x, u)
        assert got == symmetry(
            ts,
            -1,
            iota=commutator(lx, u.part("iota")),
            f=lx(u.part("f")) - u.part("iota")(x.part("a")),
            c=lx(u.part("c"))
            - u.part("iota")(x.part("b"))
            + x.part("a") * u.part("fbar")
            - u.part("f") * x.part("abar"),
            fbar=lx(u.part("fbar")) + u.part("iota")(x.part("abar")),
        )
        h_el = symmetry(ts, -2, h=rng.randint(-2, 2))
        got = sym_bracket(x, h_el)
        assert got == symmetry(ts, -2, h=lx(h_el.part("h")))


def test_bracket_with_zero_is_zero(ts, rng):
    a = rand_ts1(ts, rng)
    zero = symmetry(ts, -1)
    assert sym_bracket(a, zero).realized.is_zero()
    assert derived_bracket(a, zero).realized.is_zero()


def test_pure_form_degree0_bracket(ts, rng):
    # with both vector parts zero the bracket collapses to (A0 Abar1 - A1 Abar0) dt
    base = ts.base
    for _ in range(5):
        a0, a1 = random_element(base, 1, rng), random_element(base, 1, rng)
        b0, b1 = random_element(base, 2, rng), random_element(base, 2, rng)
        ab0, ab1 = random_element(base, 1, rng), random_element(base, 1, rng)
        x = symmetry(ts, 0, a=a0, b=b0, abar=ab0)
        y = symmetry(ts, 0, a=a1, b=b1, abar=ab1)
        got = sym_bracket(x, y)
        assert got == symmetry(ts, 0, b=a0 * ab1 - a1 * ab0)


# -- derived bracket: displays and laws -------------------------------------------


def test_derived_bracket_displays_agree(ts, cd_bundle, t7_flux, s4_flux, rng):
    # the display comparison runs inside derived_bracket and raises on mismatch
    for _ in range(6):
        derived_bracket(rand_ts1(ts, rng), rand_ts1(ts, rng))
    base = cd_bundle.base
    for _ in range(6):
        a = symmetry(cd_bundle, -1, iota=random_contraction(base, rng), a=random_element(base, 1, rng))
        b = symmetry(cd_bundle, -1, iota=random_contraction(base, rng), a=random_element(base, 1, rng))
        eta = symmetry(cd_bundle, -2, eta=random_element(base, 0, rng))
        derived_bracket(a, b)
        derived_bracket(a, eta)
        derived_bracket(eta, a)
        derived_bracket(eta, eta)
    for bundle in (t7_flux, s4_flux):
        for _ in range(4):
            derived_bracket(rand_flux1(bundle, rng), rand_flux1(bundle, rng))


def test_derived_bracket_table_values():
    # |mu dt, eta dt| = 0 and |eta dt, iota+A dt| = -(iota d eta) dt, on a model
    # where d eta is nonzero: degree-4 line bundle over the sphere model
    s2 = presets.sphere2()
    line = DgBundle.line(s2, s2.zero(), "t", 4)
    eta = symmetry(line, -1, a=s2.gen("b"))
    mu = symmetry(line, -2, eta=s2.gen("a"))
    out = derived_bracket(mu, eta)
    assert out.realized.is_zero()
    iota = Derivation(s2, -1, {"b": s2.gen("a")})
    ia = symmetry(line, -1, iota=iota, a=s2.gen("b"))
    out = derived_bracket(mu, ia)
    assert out == symmetry(line, -2, eta=-iota(s2.d(s2.gen("a"))))


def test_r1_derived_bracket_is_curvature_twisted_lie(nil, rng):
    # on a degree-1 line bundle the derived bracket is [X,Y] + (X g - Y f - iota iota F)
    f_curv = nil.gen("x1") * nil.gen("x2")
    r1 = DgBundle.line(nil, f_curv, "q", 1)
    for _ in range(6):
        ix, iy = random_contraction(nil, rng), random_contraction(nil, rng)
        f, g = nil.scalar(rng.randint(-2, 2)), nil.scalar(rng.randint(-2, 2))
        a = symmetry(r1, -1, iota=ix, a=f)
        b = symmetry(r1, -1, iota=iy, a=g)
        got = derived_bracket(a, b)
        lie_x = lie_derivative(nil, ix)
        expected = symmetry(
            r1,
            -1,
            iota=vector_bracket(nil, ix, iy),
            a=lie_x(g) - iy(nil.d(f)) - iy(ix(f_curv)),
        )
        assert got == expected


def test_courant_dorfman_on_volume_twisted_torus(cd_bundle, rng):
    # the structured formula here is the H-twisted Courant-Dorfman bracket
    base = cd_bundle.base
    h = cd_bundle.structural["Theta"]
    for _ in range(6):
        ix, iy = random_contraction(base, rng), random_contraction(base, rng)
        a_form, b_form = random_element(base, 1, rng), random_element(base, 1, rng)
        a = symmetry(cd_bundle, -1, iota=ix, a=a_form)
        b = symmetry(cd_bundle, -1, iota=iy, a=b_form)
        got = derived_bracket(a, b)
        expected = symmetry(
            cd_bundle,
            -1,
            iota=vector_bracket(base, ix, iy),
            a=lie_derivative(base, ix)(b_form) - iy(base.d(a_form)) - iy(ix(h)),
        )
        assert got == expected


def _shape_samples(bundle, rng):
    if bundle.shape == "two_step":
        return [rand_ts1(bundle, rng), rand_ts1(bundle, rng), symmetry(bundle, -2, h=rng.randint(-2, 2))]
    if bundle.shape == "flux":
        base = bundle.base
        return [
            rand_flux1(bundle, rng),
            symmetry(bundle, -2, eta1=random_element(base, 1, rng), c4=random_element(base, 4, rng)),
            symmetry(bundle, -3, f=rng.randint(-2, 2), d3=random_element(base, 3, rng)),
        ]
    base = bundle.base
    n = bundle.total.generator_named(bundle.fiber_names[0]).degree
    out = [
        symmetry(bundle, -1, iota=random_contraction(base, rng), a=random_element(base, n - 1, rng))
    ]
    for k in range(2, n + 1):
        out.append(symmetry(bundle, -k, eta=random_element(base, n - k, rng)))
    return out


def test_dg_leibniz_laws_all_shapes(nil, ts, t7_flux, rng):
    r1 = DgBundle.line(nil, nil.gen("x1") * nil.gen("x2"), "q", 1)
    r2 = DgBundle.line(nil, nil.gen("x1") * nil.gen("x3") * nil.gen("x4"), "t", 2)
    for bundle in (r1, r2, ts, t7_flux):
        for _ in range(8):
            picks = _shape_samples(bundle, rng)
            a, b, c = (rng.choice(picks) for _ in range(3))
            br = Brackets(bundle.q)
            assert derivation_residue(br, br.q, a.realized, b.realized).is_zero()
            assert jacobi_residue(br.derived, 1, a.realized, b.realized, c.realized).is_zero()


def test_sym0_acts_by_derivations(ts, rng):
    nil = ts.base
    members = [
        symmetry(ts, 0, a=nil.gen("x3")),
        symmetry(ts, 0, b=nil.gen("x1") * nil.gen("x3")),
        symmetry(ts, 0, abar=nil.gen("x3"), b=-(nil.gen("z") * nil.gen("x3"))),
    ]
    for actor in members:
        assert is_symmetry(actor)
        for _ in range(4):
            b, c = rand_ts1(ts, rng), rand_ts1(ts, rng)
            br = Brackets(ts.q)
            assert derivation_residue(br, actor.realized, b.realized, c.realized).is_zero()


# -- degree-0 membership ----------------------------------------------------------


def test_membership_iff_three_equations(nil):
    # dials touching exactly one residue each, on a bundle with F = Fbar = 0
    bundle = DgBundle.two_step(
        nil, nil.zero(), nil.zero(), nil.gen("x1") * nil.gen("x3") * nil.gen("x4")
    )
    z = nil.gen("z")
    closed_a, bad_a = nil.gen("x3"), z
    closed_b, bad_b = nil.gen("x1") * nil.gen("x3"), z * nil.gen("x3")
    closed_ab, bad_ab = nil.gen("x4"), z
    for pick_a, e1 in ((closed_a, True), (bad_a, False)):
        for pick_b, e2 in ((closed_b, True), (bad_b, False)):
            for pick_ab, e3 in ((closed_ab, True), (bad_ab, False)):
                el = symmetry(bundle, 0, a=pick_a, b=pick_b, abar=pick_ab)
                res = symmetry_residues(el)
                assert res["curvature"].is_zero() == e1
                assert res["twist"].is_zero() == e2
                assert res["dual_curvature"].is_zero() == e3
                assert is_symmetry(el) == (e1 and e2 and e3)


def test_membership_cross_term_cancellation(ts):
    nil = ts.base
    # F wedge Abar is exact here and the twist part of B cancels it
    member = symmetry(ts, 0, abar=nil.gen("x3"), b=-(nil.gen("z") * nil.gen("x3")))
    assert is_symmetry(member)
    broken = symmetry(ts, 0, abar=nil.gen("x3"))
    res = symmetry_residues(broken)
    assert res["twist"] == ts.structural["F"] * nil.gen("x3")


def test_line_membership_residue_formula(cd_bundle, rng):
    # on a single-fiber bundle the only obstruction is dB - L_X Theta
    base = cd_bundle.base
    theta = cd_bundle.structural["Theta"]
    for _ in range(5):
        iota = random_contraction(base, rng)
        b_form = random_element(base, 2, rng)
        el = symmetry(cd_bundle, 0, iota=iota, b=b_form)
        res = symmetry_residues(el)
        lie = lie_derivative(base, iota)
        assert set(res) == {"twist"}
        assert res["twist"] == base.d(b_form) - lie(theta)
        assert is_symmetry(el) == res["twist"].is_zero()


def test_flux_family_closed_under_brackets(t7_flux, rng):
    # plain and derived brackets keep the half-coupled shape at lower degrees;
    # decompose would reject anything outside it
    base = t7_flux.base
    a = rand_flux1(t7_flux, rng)
    b = symmetry(
        t7_flux, -2, eta1=random_element(base, 1, rng), c4=random_element(base, 4, rng)
    )
    plain = sym_bracket(a, b)
    assert plain.degree == -3 and "f" in plain.parts
    derived = derived_bracket(a, b)
    assert derived.degree == -2 and "eta1" in derived.parts


def test_sym0_dimensions_reports_both(t2):
    bundle = DgBundle.two_step(t2, t2.gen("th1") * t2.gen("th2"), t2.zero(), t2.zero())
    structured, kernel = sym0_dimensions(bundle)
    assert structured <= kernel
    # regression-pinned values for this bundle; the extra kernel directions are
    # fiber scalings and base rotations outside the structured family
    assert (structured, kernel) == (5, 10)


# -- the duality isomorphism -------------------------------------------------------


@pytest.fixture
def pair(nil):
    f = nil.gen("x1") * nil.gen("x2")
    fbar = nil.gen("x3") * nil.gen("x4")
    h = -(nil.gen("z") * nil.gen("x3") * nil.gen("x4"))
    return dualize(DgBundle.two_step(nil, f, fbar, h))


def test_phi_displays(pair, rng):
    nil = pair.base
    a = symmetry(pair.p, -1, iota=random_contraction(nil, rng), f=2, c=nil.gen("x2"), fbar=5)
    out = dual_symmetry(pair, a)
    assert out.part("f") == nil.scalar(5)
    assert out.part("fbar") == nil.scalar(2)
    assert out.part("c") == nil.gen("x2")
    x = symmetry(pair.p, 0, a=nil.gen("x1"), b=nil.gen("x1") * nil.gen("x3"), abar=nil.gen("x4"))
    out = dual_symmetry(pair, x)
    assert out.part("a") == -nil.gen("x4")
    assert out.part("abar") == -nil.gen("x1")
    assert out.part("b") == nil.gen("x1") * nil.gen("x3")
    h_el = symmetry(pair.p, -2, h=7)
    assert dual_symmetry(pair, h_el).part("h") == nil.scalar(7)


def test_phi_intertwines_differential_and_bracket(pair, rng):
    for _ in range(6):
        a = rand_ts1(pair.p, rng)
        b = rand_ts1(pair.p, rng)
        lhs = dual_symmetry(pair, sym_differential(a)).realized
        rhs = commutator(pair.pbar.q, dual_symmetry(pair, a).realized)
        assert lhs == rhs
        assert dual_symmetry(pair, sym_bracket(a, b)) == sym_bracket(
            dual_symmetry(pair, a), dual_symmetry(pair, b)
        )
        x = rand_ts0(pair.p, rng)
        assert dual_symmetry(pair, sym_bracket(x, a)) == sym_bracket(
            dual_symmetry(pair, x), dual_symmetry(pair, a)
        )


def test_phi_respects_derived_bracket(pair, rng):
    for _ in range(6):
        a, b = rand_ts1(pair.p, rng), rand_ts1(pair.p, rng)
        assert dual_symmetry(pair, derived_bracket(a, b)) == derived_bracket(
            dual_symmetry(pair, a), dual_symmetry(pair, b)
        )


def test_selfdual_phi_is_involution(selfdual, rng):
    for maker in (rand_ts0, rand_ts1):
        for _ in range(5):
            x = maker(selfdual, rng)
            assert selfdual_phi(selfdual_phi(x)) == x
    h_el = symmetry(selfdual, -2, h=4)
    assert selfdual_phi(h_el) == h_el


def test_selfdual_projection_examples(selfdual, rng):
    nil = selfdual.base
    iy = random_contraction(nil, rng)
    c = nil.gen("x2")
    fixed = symmetry(selfdual, -1, iota=iy, f=3, c=c, fbar=3)
    assert is_selfdual_fixed(fixed)
    assert selfdual_fixed_part(fixed) == fixed
    anti = symmetry(selfdual, -1, iota=iy, f=3, c=c, fbar=-3)
    projected = selfdual_fixed_part(anti)
    assert projected == symmetry(selfdual, -1, iota=iy, c=c)
    h_el = symmetry(selfdual, -2, h=5)
    assert selfdual_fixed_part(h_el) == h_el


def test_fixed_set_matches_part_conditions(selfdual, rng):
    for _ in range(6):
        x = rand_ts1(selfdual, rng)
        assert is_selfdual_fixed(x) == (x.part("f") == x.part("fbar"))
        y = rand_ts0(selfdual, rng)
        assert is_selfdual_fixed(y) == (y.part("abar") == -y.part("a"))


# -- Courant translation ------------------------------------------------------------


def test_courant_embedding_is_leibniz_map(pair, rng):
    for _ in range(8):
        a = courant_embed(
            pair.p,
            iota=random_contraction(pair.base, rng),
            f=rng.randint(-2, 2),
            c=random_element(pair.base, 1, rng),
            fbar=rng.randint(-2, 2),
        )
        b = courant_embed(
            pair.p,
            iota=random_contraction(pair.base, rng),
            f=rng.randint(-2, 2),
            c=random_element(pair.base, 1, rng),
            fbar=rng.randint(-2, 2),
        )
        assert courant_reference_bracket(pair.p, a, b) == derived_bracket(a, b)


def test_courant_zero_tuple(pair):
    zero = courant_embed(pair.p)
    assert zero.realized.is_zero()


def test_composite_swaps_scalar_slots(pair, rng):
    nil = pair.base
    a = courant_embed(pair.p, iota=random_contraction(nil, rng), f=3, c=nil.gen("x2"), fbar=5)
    moved = dual_symmetry(pair, a)
    # reading the image back as invariant-section data swaps the two functions
    assert moved.part("f") == nil.scalar(5)
    assert moved.part("fbar") == nil.scalar(3)
    assert moved.part("c") == a.part("c")
    assert moved.part("iota") == a.part("iota")


# -- B-type structure -----------------------------------------------------------------


def rand_bn(bundle, rng):
    return bn_element(
        bundle,
        iota=random_contraction(bundle.base, rng),
        f=rng.randint(-2, 2),
        c=random_element(bundle.base, 1, rng),
    )


def test_bn_bracket_display_and_closure(selfdual, rng):
    for _ in range(8):
        a, b = rand_bn(selfdual, rng), rand_bn(selfdual, rng)
        out = bn_bracket(a, b)
        assert out.part("f") == out.part("fbar")
        assert is_selfdual_fixed(out)


def test_bn_bracket_specializes_without_twist(nil, rng):
    bundle = DgBundle.two_step(nil, nil.zero(), nil.zero(), nil.zero())
    for _ in range(5):
        a, b = rand_bn(bundle, rng), rand_bn(bundle, rng)
        out = bn_bracket(a, b)
        ix, iy = a.part("iota"), b.part("iota")
        lie_x = lie_derivative(nil, ix)
        assert out.part("c") == lie_x(b.part("c")) - iy(nil.d(a.part("c")))
        assert out.part("iota") == vector_bracket(nil, ix, iy)


def test_bn_pairing(selfdual, rng):
    for _ in range(6):
        a, b = rand_bn(selfdual, rng), rand_bn(selfdual, rng)
        value = bn_pairing(a, b)
        expected = (
            a.part("iota")(b.part("c"))
            + b.part("iota")(a.part("c"))
            + 2 * (a.part("f") * b.part("f"))
        )
        assert value == expected


def test_bn_actions(selfdual, rng):
    nil = selfdual.base
    one_form = nil.gen("x1")
    two_form = nil.gen("x1") * nil.gen("x3")
    for _ in range(5):
        t = rand_bn(selfdual, rng)
        moved = bn_one_form_action(selfdual, one_form, t)
        assert moved.part("f") == -t.part("iota")(one_form)
        assert moved.part("c") == 2 * (one_form * t.part("f"))
        moved = bn_two_form_action(selfdual, two_form, t)
        assert moved.part("f").is_zero()
        assert moved.part("c") == -t.part("iota")(two_form)


def test_form_actions_reject_open_forms(nil, selfdual, rng):
    g = nil.gen
    # a 7-dimensional nilmanifold carries a non-closed 6-form, z x3 .. x7
    gens = [(f"x{i}", 1) for i in range(1, 8)] + [("z", 1)]
    nil8 = Model(gens, 8, lambda m: {"z": m.gen("x1") * m.gen("x2")})
    flux = DgBundle.flux(nil8, nil8.zero(), nil8.zero())
    h = nil8.gen
    cases = [
        (bn_one_form_action, selfdual, g("z"), 1),
        (bn_two_form_action, selfdual, g("z") * g("x3"), 2),
        (e6_three_form_action, flux, h("z") * h("x3") * h("x4"), 3),
        (e6_six_form_action, flux, h("z") * h("x3") * h("x4") * h("x5") * h("x6") * h("x7"), 6),
    ]
    for action, bundle, form, degree in cases:
        target = rand_bn(bundle, rng) if bundle is selfdual else rand_flux1(bundle, rng)
        with pytest.raises(SymmetryError, match=f"^the acting {degree}-form must be closed$"):
            action(bundle, form, target)


def test_bn_fixed_set_closed_under_derived_bracket(selfdual, rng):
    for _ in range(6):
        a = selfdual_fixed_part(rand_ts1(selfdual, rng))
        b = selfdual_fixed_part(rand_ts1(selfdual, rng))
        assert is_selfdual_fixed(derived_bracket(a, b))


# -- flux structure ---------------------------------------------------------------------


def test_flux_derived_bracket_displays(t7_flux, s4_flux, rng):
    for bundle in (t7_flux, s4_flux):
        for _ in range(5):
            a, b = rand_flux1(bundle, rng), rand_flux1(bundle, rng)
            derived_bracket(a, b)
            e6_pairing(a, b)


def test_flux_derived_bracket_pure_forms():
    # with X = Y = 0 and no flux, only d(sigma2) ^ tau2 survives in the 5-slot
    t7 = presets.torus(7)
    bundle = DgBundle.flux(t7, t7.zero(), t7.zero())
    rng = random.Random(5)
    s2v = random_element(t7, 2, rng)
    t2v = random_element(t7, 2, rng)
    a = e6_element(bundle, s2=s2v, s5=random_element(t7, 5, rng))
    b = e6_element(bundle, s2=t2v, s5=random_element(t7, 5, rng))
    out = derived_bracket(a, b)
    assert out.part("s2").is_zero()
    assert out.part("s5") == t7.d(s2v) * t2v
    assert out.part("iota").is_zero()


def test_e6_actions(t7_flux, rng):
    t7 = t7_flux.base
    g = t7.gen
    closed3 = g("th5") * g("th6") * g("th7")
    closed6 = g("th1") * g("th2") * g("th3") * g("th5") * g("th6") * g("th7")
    for _ in range(4):
        t = rand_flux1(t7_flux, rng)
        moved = e6_three_form_action(t7_flux, closed3, t)
        assert moved.part("s2") == -t.part("iota")(closed3)
        assert moved.part("s5") == closed3 * t.part("s2")
        moved = e6_six_form_action(t7_flux, closed6, t)
        assert moved.part("s2").is_zero()
        assert moved.part("s5") == -t.part("iota")(closed6)


def test_e6_membership_equations(s4_flux, t7_flux):
    # oracle-honest equations: dA3 = L_X F4 and dB6 = L_X F7 + F4 ^ A3;
    # the wedge term is forced by the double commutator
    base = s4_flux.base
    member = symmetry(s4_flux, 0, b6=base.gen("a") * base.gen("x1") * base.gen("x2"))
    assert all(v.is_zero() for v in symmetry_residues(member).values())
    x123 = base.gen("x1") * base.gen("x2") * base.gen("x3")
    broken = symmetry(s4_flux, 0, a3=x123)
    res = symmetry_residues(broken)
    assert res["curvature"].is_zero()
    assert res["twist"] == -(s4_flux.structural["F4"] * x123)
    # on the 7-torus a closed a3 with F4 ^ a3 = 0 is a genuine member
    g = t7_flux.base.gen
    member = symmetry(t7_flux, 0, a3=g("th1") * g("th2") * g("th5"))
    assert all(v.is_zero() for v in symmetry_residues(member).values())


def test_flux_zero_s2_torus_check():
    # d sigma2 = 0 on the torus makes the bracket antisymmetric part vanish doubly:
    # frozen spot check of the displayed 5-slot
    t7 = presets.torus(7)
    g = t7.gen
    bundle = DgBundle.flux(
        t7,
        g("th1") * g("th2") * g("th3") * g("th4"),
        g("th1") * g("th2") * g("th3") * g("th4") * g("th5") * g("th6") * g("th7"),
    )
    iota = Derivation(t7, -1, {"th1": t7.one()})
    a = e6_element(bundle, iota=iota, s2=g("th5") * g("th6"))
    b = e6_element(bundle, s2=g("th6") * g("th7"))
    out = derived_bracket(a, b)
    f4 = bundle.structural["F4"]
    expected_s5 = -(iota(f4) * (g("th6") * g("th7")) * (-1)) * (-1)
    # iota_X F4 ^ tau2 is the only survivor
    assert out.part("s5") == iota(f4) * (g("th6") * g("th7"))
    assert out.part("s2").is_zero()
