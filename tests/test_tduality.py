"""Dual pairs, the comparison map, exact sequences, high-degree isomorphism."""

import itertools
import pathlib
import random
import re

import pytest

from dgcalc import presets
from dgcalc.cohomology import CochainSpace, betti, complex_of, degree_cap
from dgcalc.derivations import DgBundle
from dgcalc.cli import main
from dgcalc.graded import Element, Model, format_element, monomial_degree
from dgcalc.parser import load_path
from dgcalc.sampling import random_element
from dgcalc.symmetries import sym0_dimensions
from dgcalc.tduality import (
    ChainMap,
    TDualPair,
    TDualityError,
    dualize,
    les_check,
    les_node_ranks,
    ses_verify,
    tduality_chain_map,
    tduality_iso_check,
    tmap_matrix,
)
import oracles

try:
    from hypothesis import HealthCheck, given, settings, strategies as st
except ImportError:  # without the dev extra only the generated-pair property test is left out
    st = None

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"
# every model pair, nil_pair with a fractional d on both sides, and nil_pair
# whose base d is integral while its total Q is not
PAIR_FILES = sorted(MODELS.glob("*_pair.dgm")) + [
    MODELS.parent / "tests" / name for name in ("nil_pair_half.dgm", "nil_pair_f_half.dgm")
]
FROZEN_SIGN = 1  # intertwining sign of T under this package's conventions


def t2_pair():
    t2 = presets.torus(2)
    return dualize(DgBundle.two_step(t2, t2.gen("th1") * t2.gen("th2"), t2.zero(), t2.zero()))


def s3_pair():
    s3 = presets.sphere3()
    return dualize(DgBundle.two_step(s3, s3.zero(), s3.zero(), s3.gen("c")))


def hopf_pair():
    s2 = presets.sphere2()
    return dualize(DgBundle.two_step(s2, s2.gen("a"), s2.zero(), s2.zero()))


def trivial_pair():
    t2 = presets.torus(2)
    return dualize(DgBundle.two_step(t2, t2.zero(), t2.zero(), t2.zero()))


ALL_PAIRS = [t2_pair, s3_pair, hopf_pair, trivial_pair]


def rename(el, target):
    """Positional renaming between total models with identical generator layout."""
    return Element(target, el.terms)


# -- dualization ----------------------------------------------------------


def test_dualize_swaps_curvatures():
    s2 = presets.sphere2()
    pair = dualize(DgBundle.two_step(s2, s2.gen("a"), s2.zero(), s2.zero()))
    assert pair.pbar.structural["F"].is_zero()
    assert pair.pbar.structural["Fbar"] == s2.gen("a")
    assert pair.pbar.structural["H"].is_zero()


def test_dualize_torus_twist():
    pair = t2_pair()
    t2 = pair.base
    vol = t2.gen("th1") * t2.gen("th2")
    # dual bundle: dqbar = 0 and twist qbar * F
    assert pair.pbar.q.value("qbar").is_zero()
    expected = pair.pbar.total.gen("qbar") * pair.pbar.include_base(vol)
    assert pair.pbar.q.value("t") == expected


def test_dualize_self_dual_renames_to_itself(nil):
    f = nil.gen("x1") * nil.gen("x2") + nil.gen("x3") * nil.gen("x4")
    h = -2 * (nil.gen("z") * nil.gen("x3") * nil.gen("x4"))
    pair = dualize(DgBundle.two_step(nil, f, f, h))
    for g in pair.p.total.generators:
        mirror = pair.pbar.total.generators[pair.p.total.index[g.name]]
        assert rename(pair.pbar.q.value(mirror.name), pair.p.total) == pair.p.q.value(g.name)


def test_dualize_rejects_wrong_shape(s3):
    bundle = DgBundle.line(s3, s3.gen("c"), "t", 2)
    with pytest.raises(TDualityError):
        dualize(bundle)


def test_double_dual_agrees_up_to_renaming():
    pair = hopf_pair()
    pair2 = dualize(pair.pbar)
    assert pair2.p is pair.pbar
    assert pair2.pbar.structural["F"] == pair.p.structural["F"]
    assert pair2.pbar.structural["Fbar"] == pair.p.structural["Fbar"]
    for k in range(7):
        for m in pair.pbar.total.basis(k):
            y = pair.pbar.total.monomial_element(m)
            back = rename(pair2.tmap(y), pair.p.total)
            # in normalized monomial order the action strips the source fiber
            # without signs and trades t-powers for the dual fiber
            t_idx = pair.pbar.total.index["t"]
            q_idx = pair.pbar.total.index["qbar"]
            expected = pair.p.total.zero()
            if m[q_idx]:
                ex = list(m)
                ex[q_idx] = 0
                expected = Element(pair.p.total, {tuple(ex): 1})
            elif m[t_idx]:
                j = m[t_idx]
                ex = list(m)
                ex[t_idx] -= 1
                ex[q_idx] = 1
                expected = Element(pair.p.total, {tuple(ex): j})
            assert back == expected


# -- pushforward ----------------------------------------------------------


def test_pushforward_strips_fiber(s2):
    bundle = DgBundle.line(s2, s2.gen("a"), "q", 1)
    w = s2.gen("b")
    assert oracles.pushforward(bundle, bundle.include_base(w) * bundle.total.gen("q")) == w
    assert oracles.pushforward(bundle, bundle.include_base(w)).is_zero()


def test_pushforward_is_chain_map(s2, nil):
    for base, theta in ((s2, s2.gen("a")), (nil, nil.gen("x1") * nil.gen("x3"))):
        bundle = DgBundle.line(base, theta, "q", 1)
        chain = oracles.pushforward_chain_map(bundle)
        for k in range(8):
            for m in bundle.total.basis(k):
                el = bundle.total.monomial_element(m)
                assert oracles.apply_rule(chain, el) == oracles.pushforward(bundle, el), m
        assert chain.verify(7) == 1
        _assert_signs_match_oracle(chain, 7)


def test_pushforward_randomized_chain_identity(s2):
    bundle = DgBundle.line(s2, s2.gen("a"), "q", 1)
    rng = random.Random(31)
    for _ in range(15):
        w = random_element(s2, rng.randint(0, 4), rng)
        el = bundle.include_base(w) * bundle.total.gen("q")
        pushed = oracles.pushforward(bundle, el)
        assert oracles.pushforward(bundle, bundle.q(el)) == s2.d(pushed)


def test_dual_pair_pushforward_relations(nil):
    # integrating the twisted 3-form along either circle recovers the other
    # side's curvature
    f = nil.gen("x1") * nil.gen("x2")
    fbar = nil.gen("x3") * nil.gen("x4")
    h = -(nil.gen("z") * nil.gen("x3") * nil.gen("x4"))
    e_bundle = DgBundle.line(nil, f, "q", 1)
    twist = e_bundle.include_base(h) + e_bundle.total.gen("q") * e_bundle.include_base(fbar)
    assert oracles.pushforward(e_bundle, twist) == fbar
    ebar_bundle = DgBundle.line(nil, fbar, "qbar", 1)
    mirror = ebar_bundle.include_base(h) + ebar_bundle.total.gen("qbar") * ebar_bundle.include_base(f)
    assert oracles.pushforward(ebar_bundle, mirror) == f


def test_pushforward_degree_and_kernel_counts(s3):
    bundle = DgBundle.line(s3, s3.zero(), "q", 3)
    for k in range(3, 8):
        images = set()
        killed = 0
        for m in bundle.total.basis(k):
            out = oracles.pushforward(bundle, bundle.total.monomial_element(m))
            if out.is_zero():
                killed += 1
            else:
                assert out.degree() == k - 3
        q_free = sum(
            1 for m in bundle.total.basis(k) if not m[bundle.total.index["q"]]
        )
        assert killed == q_free


# -- the comparison map -----------------------------------------------------


def test_tmap_action_on_t_powers():
    pair = t2_pair()
    w = pair.p.include_base(pair.base.gen("th1"))
    t = pair.p.total.gen("t")
    q = pair.p.total.gen("q")
    # w t^2 -> 2 w qbar t in normalized order
    assert pair.tmap(w * t * t) == 2 * (rename_to_pbar(pair, w * t) * pair.pbar.total.gen("qbar"))
    # w q t -> w t with no sign in normalized order
    assert pair.tmap(w * q * t) == rename_to_pbar(pair, w * t)
    # base forms die
    assert pair.tmap(w).is_zero()


def rename_to_pbar(pair, el):
    """Move a fiberless-in-q element of C(P) over to C(Pbar) by name/position."""
    q_idx = pair.p.total.index[pair.p.q_name]
    terms = {}
    for m, c in el.terms.items():
        assert not m[q_idx]
        terms[m] = c
    return Element(pair.pbar.total, terms)


def test_tmap_signed_spelling_of_the_action():
    # signed spelling: T(w t^j) = (-1)^{|w|} j qbar w t^{j-1},
    # T(q eta t^l) = (-1)^{|eta|} eta t^l; both normalize to the sign-free rules
    pair = t2_pair()
    th1 = pair.base.gen("th1")
    w = pair.p.include_base(th1)
    t = pair.p.total.gen("t")
    q = pair.p.total.gen("q")
    qbar = pair.pbar.total.gen("qbar")
    tbar = pair.pbar.total.gen("t")
    wbar = pair.pbar.include_base(th1)
    assert pair.tmap(w * t * t) == -2 * (qbar * wbar * tbar)
    assert pair.tmap(q * w * t) == -(wbar * tbar)


def test_tmap_chain_sign_frozen():
    for make in ALL_PAIRS:
        assert tduality_chain_map(make()).verify(6) == FROZEN_SIGN


def _scaled_tmap(pair, scale):
    """m -> scale(|m|) T(m) on monomials, scale(|m|) an int."""

    def rule(m):
        image = pair.rule(m)
        return image and (image[0], scale(monomial_degree(pair.p.total, m)) * image[1])

    return ChainMap(pair.p, pair.pbar, -1, rule)


def test_chain_map_sign_minus_one_and_first_failing_degree():
    pair = dualize(load_path(str(MODELS / "nil_pair.dgm")).bundle)
    # (-1)^{|x|} T(x) anticommutes with Q where T commutes
    assert _scaled_tmap(pair, lambda k: (-1) ** k).verify(6) == -1
    # doubling T from degree 3 on first breaks a square at some x of degree 2
    # with Q T(x) != 0, where the map sends Q x to 2 T(Q x) = 2 Q T(x)
    total, dual_q = pair.p.total, pair.pbar.total.d
    assert any(not dual_q(pair.tmap(total.monomial_element(m))).is_zero() for m in total.basis(2))
    with pytest.raises(TDualityError, match=r"^not a chain map up to sign \(degree 2\)$"):
        _scaled_tmap(pair, lambda k: 2 if k >= 3 else 1).verify(6)


def test_section_inverts_tmap():
    for make in ALL_PAIRS:
        pair = make()
        for k in range(8):
            for m in pair.pbar.total.basis(k):
                el = pair.pbar.total.monomial_element(m)
                assert pair.tmap(pair.section(el)) == el
            # the other way round, up to the kernel of T: the base forms
            for m in pair.p.total.basis(k + 1):
                x = pair.p.total.monomial_element(m)
                assert pair.p.is_base_valued(x - pair.section(pair.tmap(x)))


@pytest.mark.parametrize("path", sorted(MODELS.glob("*_pair.dgm")), ids=lambda p: p.stem)
def test_tmap_matches_literal_oracle_on_model_pairs(path):
    pair = dualize(load_path(str(path)).bundle)
    assert _assert_tmap_matches_oracle(pair, degree_cap(pair.p))


# -- the slice check against the per-monomial loop -------------------------


def _signs_or_degree(chain_map, cap):
    """signs(cap), or the degree that its error names."""
    try:
        return chain_map.signs(cap)
    except TDualityError as err:
        match = re.fullmatch(r"not a chain map up to sign \(degree (\d+)\)", str(err))
        assert match, str(err)
        return int(match.group(1))


def _assert_signs_match_oracle(chain_map, cap):
    assert _signs_or_degree(chain_map, cap) == oracles.literal_chain_signs(chain_map, cap)


def _pair_chain_maps(pair):
    """T, T rescaled and regraded, T broken from degree 3 on, and the base
    inclusion: the maps whose signs the slice check must find as the loop does."""
    return [
        tduality_chain_map(pair),
        _scaled_tmap(pair, lambda k: 3),
        _scaled_tmap(pair, lambda k: (-1) ** k),
        _scaled_tmap(pair, lambda k: 2 if k >= 3 else 1),
        ChainMap(pair.base, pair.p, 0, pair.include_rule),
    ]


@pytest.mark.parametrize("path", PAIR_FILES, ids=lambda p: p.stem)
def test_chain_signs_match_the_per_monomial_loop_on_model_pairs(path):
    pair = dualize(load_path(str(path)).bundle)
    chains = _pair_chain_maps(pair)
    for chain in chains:
        _assert_signs_match_oracle(chain, degree_cap(pair.p))
    inclusion = chains[-1]
    for k in range(degree_cap(pair.p) + 1):
        for m in pair.base.basis(k):
            w = pair.base.monomial_element(m)
            assert oracles.apply_rule(inclusion, w) == pair.p.include_base(w), m


def test_ses_verify_fails_an_inclusion_that_anticommutes(monkeypatch):
    # nil_pair's base d is nonzero, so (-1)^{|x|} i(x) leaves only the sign -1
    pair = dualize(load_path(str(MODELS / "nil_pair.dgm")).bundle)
    assert ses_verify(pair, 6)[0]
    include = TDualPair.include_rule

    def anticommuting(self, m):
        e, c = include(self, m)
        return e, (-1) ** monomial_degree(self.base, m) * c

    monkeypatch.setattr(TDualPair, "include_rule", anticommuting)
    assert not ses_verify(pair, 6)[0]


def test_ses_verify_fails_a_tmap_that_moves_a_base_form(monkeypatch):
    # T(x1) = T(q) and T(q) = 0 in degree 1 keeps every rank and dimension,
    # but the base form x1 no longer dies
    pair = dualize(load_path(str(MODELS / "nil_pair.dgm")).bundle)
    assert ses_verify(pair, 4)[0]
    rule = TDualPair.rule

    def swapped(self, m):
        (x1,), (q,) = self.p.total.gen("x1").terms, self.p.total.gen(self.p.q_name).terms
        if m == x1:
            return rule(self, q)
        if m == q:
            return None
        return rule(self, m)

    monkeypatch.setattr(TDualPair, "rule", swapped)
    ok, rows = ses_verify(pair, 4)
    assert all(row.ok for row in rows)
    assert not ok


def two_form(m, terms):
    """sum c x_a x_b over the terms ((a, b), c)."""
    return sum((c * m.gen(f"x{a}") * m.gen(f"x{b}") for (a, b), c in terms), m.zero())


def nilmanifold_base(n, dz):
    """The nilmanifold model x1..xn, z of dimension n + 1, all of degree 1,
    with the x's closed and d z the 2-form of the terms dz."""
    gens = [(f"x{i}", 1) for i in range(1, n + 1)] + [("z", 1)]
    return Model(gens, n + 1, lambda m: {"z": two_form(m, dz)}, name=f"nil{n}")


if st is not None:

    def two_form_terms(draw, n, size):
        """1..size distinct products x_a x_b of x1..xn with coefficients in +-1, +-2."""
        term = st.tuples(
            st.sampled_from(list(itertools.combinations(range(1, n + 1), 2))),
            st.sampled_from((-2, -1, 1, 2)),
        )
        return draw(st.lists(term, min_size=1, max_size=size, unique_by=lambda t: t[0]))

    @st.composite
    def generated_pairs(draw):
        """Two-step pairs over a nilmanifold base x1..xn, z with d z a 2-form in the
        x's: F = d z, Fbar closed, H = -z Fbar; or self-dual, F = Fbar = d z + w for
        one product w, H = -z (d z + 2 w)."""
        n = draw(st.integers(3, 5))
        products = list(itertools.combinations(range(1, n + 1), 2))
        dz = two_form_terms(draw, n, 3)
        base = nilmanifold_base(n, dz)
        f, z = two_form(base, dz), base.gen("z")
        if draw(st.booleans()):
            w = two_form(base, [(draw(st.sampled_from(products)), 1)])
            bundle = DgBundle.two_step(base, f + w, f + w, -(z * (f + 2 * w)))
        else:
            fbar = two_form(base, two_form_terms(draw, n, 3))
            bundle = DgBundle.two_step(base, f, fbar, -(z * fbar))
        return dualize(bundle)

    @settings(max_examples=15, deadline=None)
    @given(generated_pairs())
    def test_tmap_matches_literal_oracle_on_generated_pairs(pair):
        assert _assert_tmap_matches_oracle(pair, degree_cap(pair.p))
        assert tduality_chain_map(pair).verify(5) == FROZEN_SIGN


    @settings(max_examples=20, deadline=None)
    @given(generated_pairs())
    def test_chain_signs_match_the_per_monomial_loop_on_generated_pairs(pair):
        for chain in _pair_chain_maps(pair):
            _assert_signs_match_oracle(chain, 6)

    @settings(max_examples=10, deadline=None)
    @given(generated_pairs())
    def test_generated_dual_pairs_have_equal_structured_symmetry_counts(pair):
        assert sym0_dimensions(pair.p)[0] == sym0_dimensions(pair.pbar)[0]


# structured degree-0 symmetry counts of the model pairs; the full kernels of
# [Q, .] differ between the two sides (t2_pair 10 vs 12, nil_pair 30 vs 27)
STRUCTURED_SYM0 = {"t2_pair": 5, "hopf_pair": 1, "s3_pair": 0, "nil_pair": 16}


@pytest.mark.parametrize("name, count", sorted(STRUCTURED_SYM0.items()))
def test_dual_pairs_have_equal_structured_symmetry_counts(name, count):
    """The symmetry algebras of a T-dual pair are isomorphic: the structured
    degree-0 symmetries of P and of its dual have one dimension."""
    pair = dualize(load_path(str(MODELS / f"{name}.dgm")).bundle)
    assert sym0_dimensions(pair.p)[0] == sym0_dimensions(pair.pbar)[0] == count


def _model_lines(base):
    """The .dgm lines of a model: its name, dimension, generators and d."""
    lines = [f"model {base.name}", f"dim {base.formal_dimension}"]
    lines += [f"gen {g.name} : {g.degree}" for g in base.generators]
    return lines + [f"d {g} = {format_element(v)}" for g, v in base.differential.items()]


def _dgm(bundle):
    """The .dgm text of a two-step bundle: its base with d, its fibers and
    its three structural forms, with no let, vec or sym lines."""
    total = bundle.total
    lines = _model_lines(bundle.base)
    lines += [f"fiber {f} : {total.generator_named(f).degree}" for f in bundle.fiber_names]
    lines += [f"{key} = {format_element(value)}" for key, value in bundle.structural.items()]
    return "\n".join(lines) + "\n"


def _structured_sym0_through_cli(source, pair, tmp_path):
    """sym0.structured of `sym --report` on the source file and on the dual
    bundle written next to it, which must parse back exactly."""
    dual = tmp_path / "dual.dgm"
    dual.write_text(_dgm(pair.pbar))
    parsed = load_path(str(dual)).bundle
    for key, swapped in (("F", "Fbar"), ("Fbar", "F"), ("H", "H")):
        text = format_element(pair.pbar.structural[key])
        assert text == format_element(pair.p.structural[swapped])
        assert format_element(parsed.structural[key]) == text
    assert _dgm(parsed) == dual.read_text()
    counts = []
    for path in (source, dual):
        report = tmp_path / "report.txt"
        assert main(["sym", str(path), "--report", str(report)]) == 0
        records = report.read_text().splitlines()
        counts.append(next(r for r in records if r.startswith("sym0.structured=")))
    return counts


@pytest.mark.parametrize("name, count", sorted(STRUCTURED_SYM0.items()))
def test_cli_sym_counts_agree_across_the_model_pairs(name, count, tmp_path):
    source = MODELS / f"{name}.dgm"
    pair = dualize(load_path(str(source)).bundle)
    assert _structured_sym0_through_cli(source, pair, tmp_path) == [f"sym0.structured={count}"] * 2


if st is not None:

    @settings(
        max_examples=5, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(pair=generated_pairs())
    def test_cli_sym_counts_agree_across_generated_pairs(pair, tmp_path):
        source = tmp_path / "source.dgm"
        source.write_text(_dgm(pair.p))
        primal, dual = _structured_sym0_through_cli(source, pair, tmp_path)
        assert primal == dual


if st is not None:

    @settings(
        max_examples=8,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(pair=generated_pairs())
    def test_cli_law_suites_pass_on_generated_pairs(pair, tmp_path):
        """Each law of `identities`, and of `bn-check` on a self-dual pair, is a
        theorem for any Maurer-Cartan Q, so every one must pass."""
        path, report = tmp_path / "pair.dgm", tmp_path / "report.txt"
        path.write_text(_dgm(pair.p))
        commands = ["identities"]
        if pair.p.structural["F"] == pair.p.structural["Fbar"]:
            commands.append("bn-check")
        for command in commands:
            assert main([command, str(path), "--trials", "2", "--report", str(report)]) == 0
            laws = [r for r in report.read_text().splitlines() if r.startswith("law.")]
            assert laws and all(r.endswith("=pass") for r in laws), (command, laws)

    @settings(
        max_examples=8,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(pair=generated_pairs())
    def test_cli_pair_commands_pass_on_generated_pairs(pair, tmp_path):
        """T induces H^{k+1}(P) = H^k(Pbar) from the base dimension on, the short
        and long exact sequences are exact, and T intertwines the differentials
        with sign +1 (Bouwknegt, Evslin & Mathai, CMP 249, 2004)."""
        path, report = tmp_path / "pair.dgm", tmp_path / "report.txt"
        path.write_text(_dgm(pair.p))

        def records(command):
            report.unlink(missing_ok=True)
            code = main([command, str(path), "--report", str(report)])
            return code, dict(line.split("=", 1) for line in report.read_text().splitlines())

        code, iso = records("iso-check")
        assert iso["dim_source"] == iso["dim_target"] == iso["induced_rank"], iso
        assert code == 0
        code, ses = records("ses-verify")
        rows = {k: v for k, v in ses.items() if k.startswith("ses.") or k == "les"}
        assert rows and set(rows.values()) == {"pass"}, rows
        assert code == 0
        code, tmap = records("tmap-verify")
        assert (code, tmap["sign"]) == (0, "1")


if st is not None:

    @st.composite
    def nilmanifold_bases(draw):
        n = draw(st.integers(3, 5))
        return nilmanifold_base(n, two_form_terms(draw, n, 3))

    @settings(
        max_examples=10,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(base=nilmanifold_bases())
    def test_cli_betti_of_nilmanifold_bases_has_poincare_duality(base, tmp_path):
        """A nilmanifold is a closed orientable manifold of dimension n + 1 that
        fibers over a torus, so its Betti numbers are symmetric and sum to an
        Euler characteristic of 0."""
        path, report = tmp_path / "base.dgm", tmp_path / "report.txt"
        path.write_text("\n".join(_model_lines(base)) + "\n")
        assert main(["betti", str(path), "--report", str(report)]) == 0
        records = dict(line.split("=", 1) for line in report.read_text().splitlines())
        betti = {int(k[6:]): int(v) for k, v in records.items() if k.startswith("betti.")}
        top = base.formal_dimension
        assert all(betti[k] == betti[top - k] for k in range(top + 1)), betti
        assert not any(b for k, b in betti.items() if k > top), betti
        assert sum((-1) ** k * b for k, b in betti.items()) == 0, betti


def _assert_tmap_matches_oracle(pair, cap):
    """T, and its `tmap_matrix` column, equal the literal map on every basis
    monomial of degrees 0..cap; returns how many of them have a nonzero image."""
    nonzero = 0
    for k in range(cap + 1):
        columns, source, target = tmap_matrix(pair, k)
        index = {m: i for i, m in enumerate(target)}
        for m, column in zip(source, columns):
            el = pair.p.total.monomial_element(m)
            image = oracles.literal_tmap(pair, el)
            assert pair.tmap(el) == image, (k, m)
            assert column == {index[e]: c for e, c in image.terms.items()}, (k, m)
            nonzero += not image.is_zero()
    return nonzero


def test_tmap_and_section_reject_foreign_elements():
    pair, other = hopf_pair(), hopf_pair()
    for el in (pair.pbar.total.gen("t"), other.p.total.gen("t"), pair.base.gen("a")):
        with pytest.raises(TDualityError):
            pair.tmap(el)
    for el in (pair.p.total.gen("t"), other.pbar.total.gen("t"), pair.base.gen("a")):
        with pytest.raises(TDualityError):
            pair.section(el)


def _count_builds(monkeypatch):
    """Record the (model, degree) of every CochainSpace built from now on; the
    list keeps each model alive, so its id stays unique."""
    built = []
    init = CochainSpace.__init__

    def counting(self, space, degree):
        built.append((oracles._total(space), degree))
        init(self, space, degree)

    monkeypatch.setattr(CochainSpace, "__init__", counting)
    return built


def _built_once(built):
    """Something was built, and no (model, degree) twice."""
    keys = [(id(model), degree) for model, degree in built]
    return bool(keys) and len(keys) == len(set(keys))


def test_pair_shares_a_given_base_complex_of_its_own_base(monkeypatch):
    # the load-time audit builds the base slices fd..fd+4 on the model's own complex
    mf = load_path(str(MODELS / "hopf_pair.dgm"))
    fd = mf.model.formal_dimension
    built = _count_builds(monkeypatch)
    for k in range(fd + 1, fd + 5):
        complex_of(mf.model)[k]
    assert built == []
    les_check(dualize(mf.bundle), 0, fd + 3)
    assert _built_once(built)
    assert not [k for model, k in built if model is mf.model and k in range(fd, fd + 5)]


# -- exact sequences --------------------------------------------------------


@pytest.mark.parametrize("make", ALL_PAIRS)
def test_ses_exactness(make):
    pair = make()
    ok, rows = ses_verify(pair, 7)
    assert ok
    for row in rows:
        assert row.dim_kernel == row.dim_base
        assert row.rank_t == row.dim_target


@pytest.mark.parametrize("cap", [-1, -3])
def test_ses_verify_rejects_a_cap_that_checks_nothing(cap):
    with pytest.raises(TDualityError, match=f"degree cap {cap} checks no degree"):
        ses_verify(t2_pair(), cap)


def test_connecting_on_unit_cocycle():
    pair = hopf_pair()
    one = pair.pbar.total.one()
    # beta(1) = F for the unit cocycle
    assert pair.connecting(one) == pair.p.structural["F"]


def test_connecting_zero_cocycle():
    pair = hopf_pair()
    assert pair.connecting(pair.pbar.total.zero()).is_zero()


def test_connecting_requires_cocycle():
    pair = hopf_pair()
    # t is not a cocycle of the dual bundle: Q(t) = qbar * a != 0
    with pytest.raises(TDualityError):
        pair.connecting(pair.pbar.total.gen("t"))


def test_connecting_includes_twist_term():
    # with F = 0 the display formula would vanish identically, but exactness
    # requires beta(qbar) = H; the snake construction supplies it
    pair = s3_pair()
    qbar = pair.pbar.total.gen("qbar")
    assert pair.connecting(qbar) == pair.base.gen("c")


def test_connecting_class_invariance():
    pair = hopf_pair()
    rng = random.Random(33)
    qbar = pair.pbar.total.gen("qbar")
    cocycle = pair.pbar.include_base(pair.base.gen("a")) * qbar
    assert pair.pbar.q(cocycle).is_zero()
    base_value = pair.connecting(cocycle)
    for deg in (2,):
        for m in pair.pbar.total.basis(deg):
            shift = pair.pbar.q(pair.pbar.total.monomial_element(m))
            moved = pair.connecting(cocycle + shift)
            diff = moved - base_value
            # difference must be exact in the base model
            if diff.is_zero():
                continue
            candidates = pair.base.basis(diff.degree() - 1)
            span = [pair.base.d(pair.base.monomial_element(c)) for c in candidates]
            target = pair.base.basis(diff.degree())
            vecs = [oracles.coordinates(s, target) for s in span]
            with_diff = vecs + [oracles.coordinates(diff, target)]
            assert oracles.bareiss_rank(vecs) == oracles.bareiss_rank(with_diff)


@pytest.mark.parametrize("make", ALL_PAIRS)
def test_les_rank_bookkeeping(make):
    pair = make()
    ok, rows = les_check(pair, 0, 5)
    assert ok, rows


@pytest.mark.parametrize("lo,hi", [(3, 1), (-2, -1), (-1, 2)])
def test_les_check_rejects_a_window_that_checks_nothing(lo, hi):
    with pytest.raises(TDualityError, match=f"degree window {lo}..{hi} needs 0 <= lo <= hi"):
        les_check(t2_pair(), lo, hi)


def test_les_alternating_sum_vanishes():
    # ranks around the long exact sequence cancel over any closed window:
    # dim H^k(P) - dim H^{k-1}(Pbar) + dim H^{k+1}(M) alternates to zero once
    # the connecting ranks are subtracted; equivalent node-wise identities
    pair = hopf_pair()
    hi = 5
    hp = betti(pair.p, 0, hi + 1)
    hpb = betti(pair.pbar, 0, hi + 1)
    hm = betti(pair.base, 0, hi + 2)
    for k in range(0, hi + 1):
        rank_i, rank_t, rank_beta = les_node_ranks(pair, k)
        rank_i_up = les_node_ranks(pair, k + 1)[0]
        assert rank_i + rank_t == hp[k]
        if k >= 1:
            assert rank_t + rank_beta == hpb[k - 1]
        assert rank_beta + rank_i_up == hm[k + 1]
        # the window sum telescopes to zero
        assert (hp[k] - rank_i - rank_t) == 0


@pytest.mark.parametrize("make", ALL_PAIRS)
def test_high_degree_isomorphism(make):
    pair = make()
    fd = pair.base.formal_dimension
    for k in (fd, fd + 1):
        ok, info = tduality_iso_check(pair, k)
        assert ok, info


@pytest.mark.parametrize("make", ALL_PAIRS)
def test_each_cochain_slice_is_built_once(make, monkeypatch):
    built = _count_builds(monkeypatch)
    pair = make()
    les_check(pair, 0, 5)
    tduality_iso_check(pair)
    assert _built_once(built)


@pytest.mark.parametrize("make", ALL_PAIRS)
def test_les_node_ranks_match_dense_oracle(make):
    pair = make()
    for k in range(6):
        assert les_node_ranks(pair, k) == oracles.les_node_ranks(pair, k), k


@pytest.mark.parametrize("make", ALL_PAIRS)
def test_betti_and_les_build_each_model_slice_once(make, monkeypatch):
    built = _count_builds(monkeypatch)
    pair = make()
    betti(pair.p, 0, 4)
    betti(pair.p.total, 2, 6)
    les_check(pair, 0, 5)
    assert _built_once(built)


def _fresh_betti(space, lo, hi):
    """Betti numbers from Bareiss ranks of newly built slices that no complex holds."""
    slices = {k: CochainSpace(space, k) for k in range(max(lo - 1, 0), hi + 1)}
    model = oracles._total(space)

    def rank(k):
        if k < 0:
            return 0
        width = len(model.basis(k + 1))
        return oracles.bareiss_rank(
            [[col.get(i, 0) for i in range(width)] for col in slices[k].columns]
        )

    return {k: len(slices[k].basis) - rank(k) - rank(k - 1) for k in range(lo, hi + 1)}


@pytest.mark.parametrize("windows", [[(2, 4), (0, 6)], [(0, 6), (2, 4)]])
@pytest.mark.parametrize("make", ALL_PAIRS)
def test_betti_on_a_shared_complex_matches_a_fresh_space(make, windows):
    pair = make()
    spaces = {"base": pair.base, "p": pair.p, "pbar": pair.pbar}
    for lo, hi in windows:
        for key, space in spaces.items():
            assert betti(space, lo, hi) == _fresh_betti(space, lo, hi), (key, lo, hi)


def test_iso_check_guards_range():
    pair = t2_pair()
    with pytest.raises(TDualityError):
        tduality_iso_check(pair, 0)


def test_dimension_threshold_is_sharp():
    # below the formal dimension the comparison genuinely fails: H^1(P) has the
    # two torus classes while H^0(dual) is just the constants
    pair = t2_pair()
    assert betti(pair.p, 1, 1)[1] == 2
    assert betti(pair.pbar, 0, 0)[0] == 1


def test_twisted_parity_matches_across_pair(nil):
    # the circle-level twisted cohomologies of a dual pair match with parities
    # exchanged; here both sides are computed as honest parity complexes
    from dgcalc.cohomology import twisted_betti

    f = nil.gen("x1") * nil.gen("x2")
    fbar = nil.gen("x3") * nil.gen("x4")
    h = -(nil.gen("z") * nil.gen("x3") * nil.gen("x4"))
    e_bundle = DgBundle.line(nil, f, "q", 1)
    ebar_bundle = DgBundle.line(nil, fbar, "qbar", 1)
    twist = e_bundle.include_base(h) + e_bundle.total.gen("q") * e_bundle.include_base(fbar)
    mirror = ebar_bundle.include_base(h) + ebar_bundle.total.gen("qbar") * ebar_bundle.include_base(f)
    ev_e, od_e = twisted_betti(e_bundle.total, twist)
    ev_eb, od_eb = twisted_betti(ebar_bundle.total, mirror)
    assert (ev_e, od_e) == (od_eb, ev_eb)
    assert ev_e == 18  # pinned: nontrivial twisted dimensions on the nil pair
