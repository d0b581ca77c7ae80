"""The monomial core and the Leibniz kernel against independent oracles.

Monomials are packed ints and signs come from their odd masks;
`oracles.merge_sign` works on exponent tuples and re-sums the odd
tail per factor instead.  `Model.d`, every `Derivation`, `commutator` and
every cochain slice run through one Leibniz loop over cached value tables of
integer numerators over one denominator; `oracles.apply_derivation` expands
the Leibniz rule as products of Fraction elements instead, and `oracles.brute_basis` filters the whole exponent box where
`Model.basis` extends memoized suffixes.  `oracles.fiber_coefficients`
counts the odd generators after the one it splits off, so multiplying the
pieces back through the product's sign rule must rebuild the element.  The
bracket-law residues keep each bracket of one trial by operand identity, in
one memo that the trial's laws share; `oracles.literal_leibniz_residue` and
its siblings take every bracket anew.  `sampling.random_element` draws with
`choice`, and `oracles.randint_random_element` with `randint`, from the same
stream.
"""

import pathlib
import random
import tracemalloc
from fractions import Fraction
from functools import partial
from math import gcd
from types import SimpleNamespace

import pytest

from dgcalc import presets
from dgcalc.cohomology import _twisted_images, cochains
from dgcalc.derivations import Derivation, DgBundle, commutator, model_differential
from dgcalc.graded import Element, Model, ValueTable, apply_values, leibniz, pack, unpack
from dgcalc.parser import load_path
from dgcalc.sampling import random_derivation, random_element
from dgcalc.symmetries import Brackets, derivation_residue, jacobi_residue
from dgcalc.tduality import dualize
from oracles import (
    _parity_basis,
    _twisted_columns,
    apply_derivation,
    brute_basis,
    cocycle_vectors,
    coordinates,
    fiber_coefficients,
    literal_action_residue,
    literal_commutator,
    literal_commutator_jacobi_residue,
    literal_jacobi_residue,
    literal_leibniz_residue,
    literal_tmap,
    merge_sign,
    primitive,
    randint_random_element,
)
from test_cohomology import _assert_twisted_matches_reference

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

DEGREES = st.lists(st.sampled_from([1, 3, 2, 4]), min_size=1, max_size=9)
SEEDS = st.integers(0, 2**32 - 1)
SHAPES = st.sampled_from(["line", "two_step", "correspondence", "flux"])


def graded_model(degrees):
    return Model([(f"x{i}", deg) for i, deg in enumerate(degrees)])


def exponents(model, rng):
    return tuple(rng.randint(0, 1 if g.is_odd else 3) for g in model.generators)


def dg_model(degrees, rng):
    """A model over `degrees` whose differential squares to zero by construction.

    Generator k gets d x_k = (a polynomial in the closed generators before it)
    + d(a random element of the generators before it): a cocycle either way.
    """
    gens = [(f"x{i}", deg) for i, deg in enumerate(degrees)]
    n = len(gens)
    # generator name -> {monomial: coefficient}; a monomial of the generators
    # before k is the same int in every model that extends them
    diff = {}

    def prefix(k):
        return Model(
            gens[:k],
            differential=lambda m: {name: Element(m, terms) for name, terms in diff.items()},
        )

    for k, (name, deg) in enumerate(gens):
        before = prefix(k)
        closed = [i for i in range(k) if gens[i][0] not in diff]
        terms = {
            m: Fraction(rng.randint(-2, 2))
            for m in before.basis(deg + 1)
            if all(e == 0 or i in closed for i, e in enumerate(unpack(m, k)))
            and rng.random() < 0.5
        }
        value = Element(before, terms)
        if rng.random() < 0.5:
            value = value + before.d(random_element(before, deg, rng))
        if not value.is_zero():
            diff[name] = value.terms
    return prefix(n)


def random_mixed(model, rng):
    """A random inhomogeneous element over degrees 0..4."""
    out = model.zero()
    for degree in rng.sample(range(5), 2):
        out = out + random_element(model, degree, rng)
    return out


def assert_coefficients_are_fractions(el):
    for c in el.terms.values():
        assert type(c) is Fraction and c != 0, el.terms


def assert_keys_are_packed_monomials(el):
    """Every monomial is a plain int that packs one exponent per generator,
    odd ones at most 1, and nothing else: no guard bit and no higher field."""
    gens = el.model.generators
    for m in el.terms:
        assert type(m) is int and m >= 0, m
        exps = unpack(m, len(gens))
        assert pack(exps) == m, m
        assert all(e <= 1 for g, e in zip(gens, exps) if g.is_odd), m


# -- signs ---------------------------------------------------------------------


def monomial_product(model, left, right):
    """(sign, exponents) of the product of the monomial elements with these
    exponent tuples, or None if it is zero."""
    terms = (model.monomial_element(pack(left)) * model.monomial_element(pack(right))).terms
    assert len(terms) <= 1, terms
    return next(((int(c), unpack(m, len(left))) for m, c in terms.items()), None)


@settings(max_examples=300, deadline=None)
@given(DEGREES, SEEDS)
def test_merge_sign_matches_the_tail_sum_oracle(degrees, seed):
    model, rng = graded_model(degrees), random.Random(seed)
    left, right = exponents(model, rng), exponents(model, rng)
    assert monomial_product(model, left, right) == merge_sign(model, left, right)


def test_merge_sign_is_none_on_an_odd_overlap():
    model = graded_model([1, 2, 3])
    assert monomial_product(model, (1, 0, 1), (0, 2, 1)) is None
    assert monomial_product(model, (1, 2, 0), (0, 1, 1)) == (1, (1, 3, 1))
    assert monomial_product(model, (0, 0, 1), (1, 0, 0)) == (-1, (1, 0, 1))


def leibniz_term(model, m, i, v, flip):
    """The one coefficient that `leibniz` gives D(m), for D of parity flip
    sending generator i to the monomial v alone, or None if it gives none."""
    out = {}
    leibniz(model, ValueTable(model, {i: {v: 1}}, flip, 1), [(m, 1)], [out])
    assert len(out) <= 1, out
    return next(((n, unpack(key, len(model.generators))) for key, n in out.items()), None)


# nine generators or more, so odd masks span several 25-bit fields
WIDE_DEGREES = st.lists(st.sampled_from([1, 3, 2, 4]), min_size=9, max_size=14)


@settings(max_examples=300, deadline=None)
@given(WIDE_DEGREES, SEEDS)
def test_cached_mask_signs_are_the_merge_sign(degrees, seed):
    # the Leibniz term of D(x_i) = v in m is (-1)^{flip |front|} e front*v*rest,
    # and a product's sign is merge_sign's, whatever fields the masks span; v
    # mostly avoids m's other odd generators, so most terms are not zero
    model, rng = graded_model(degrees), random.Random(seed)
    m = exponents(model, rng)
    i = rng.choice([j for j, e in enumerate(m) if e] or [0])
    clash = [g % 2 and m[j] and j != i and rng.random() < 0.9 for j, g in enumerate(degrees)]
    v = tuple(0 if c else e for c, e in zip(clash, exponents(model, rng)))
    assert monomial_product(model, m, v) == merge_sign(model, m, v)
    front = tuple(e if j < i else 0 for j, e in enumerate(m))
    rest = tuple(e - (j == i) if j >= i else 0 for j, e in enumerate(m))
    first = merge_sign(model, front, v)
    second = first and merge_sign(model, first[1], rest)
    for flip in (0, 1):
        got = leibniz_term(model, pack(m), i, pack(v), flip)
        if not m[i] or second is None:
            assert got is None, (m, i, v, flip)
        else:
            parity = flip * sum(e * g for e, g in zip(front, degrees)) % 2
            want = (-1) ** parity * first[0] * second[0] * m[i]
            assert got == (want, second[1]), (m, i, v, flip)


@settings(max_examples=100, deadline=None)
@given(DEGREES, SEEDS)
def test_product_is_graded_commutative(degrees, seed):
    model, rng = graded_model(degrees), random.Random(seed)
    da, db = rng.randint(0, 5), rng.randint(0, 5)
    a, b = random_element(model, da, rng), random_element(model, db, rng)
    sign = -1 if da % 2 and db % 2 else 1
    assert a * b == sign * (b * a)


@settings(max_examples=100, deadline=None)
@given(DEGREES, SEEDS)
def test_product_is_associative(degrees, seed):
    model, rng = graded_model(degrees), random.Random(seed)
    a, b, c = (random_mixed(model, rng) for _ in range(3))
    assert (a * b) * c == a * (b * c)


def random_bundle(shape, rng):
    """A bundle of the given shape over a torus, Maurer-Cartan by construction.

    On a torus every form is closed, so only F * Fbar (two-step and
    correspondence) and F4 * F4 (flux) must vanish; the tori are small enough
    for the latter, and Fbar is dropped when the former does not.
    """
    base = presets.torus(rng.randint(1, 4))
    form = partial(random_element, base, rng=rng)
    if shape == "line":
        degree = rng.randint(1, 3)
        return DgBundle.line(base, form(degree + 1), "f", degree)
    if shape == "flux":
        return DgBundle.flux(base, form(4), form(7))
    f, fbar = form(2), form(2)
    if not (f * fbar).is_zero():
        fbar = base.zero()
    if shape == "two_step":
        return DgBundle.two_step(base, f, fbar, form(3))
    return DgBundle.correspondence(base, f, fbar, form(3))


@settings(max_examples=100, deadline=None)
@given(SHAPES, SEEDS)
def test_fiber_coefficients_rebuild_the_element(shape, seed):
    # along every generator, base ones included, so odd generators follow the
    # one split off and the sign of moving it to the right is exercised
    rng = random.Random(seed)
    bundle = random_bundle(shape, rng)
    total = bundle.total
    el = random_mixed(total, rng)
    for g in total.generators:
        idx, x = total.index[g.name], total.gen(g.name)
        rebuilt = total.zero()
        for k, c in fiber_coefficients(bundle, el, g.name).items():
            assert all(not m & total.units[idx] for m in c.terms), (g.name, k)
            rebuilt = rebuilt + c * x**k
        assert rebuilt == el, g.name


# -- the Leibniz kernel ----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(DEGREES, SEEDS)
def test_differential_is_the_model_derivation(degrees, seed):
    rng = random.Random(seed)
    model = dg_model(degrees, rng)
    a = random_mixed(model, rng)
    da = model.d(a)
    assert da == model_differential(model)(a)
    assert da == apply_derivation(model, model.differential, 1, a)
    assert model.d(da).is_zero()


@settings(max_examples=60, deadline=None)
@given(DEGREES, SEEDS, st.integers(-2, 2))
def test_derivations_obey_the_graded_leibniz_rule(degrees, seed, degree):
    rng = random.Random(seed)
    model = dg_model(degrees, rng)
    d = random_derivation(model, degree, rng)
    dx, dy = rng.randint(0, 4), rng.randint(0, 4)
    x, y = random_element(model, dx, rng), random_element(model, dy, rng)
    sign = -1 if degree % 2 and dx % 2 else 1
    assert d(x * y) == d(x) * y + sign * (x * d(y))
    assert d(x) == apply_derivation(model, d.values, degree, x)


@settings(max_examples=60, deadline=None)
@given(DEGREES, SEEDS, st.integers(-2, 2), st.integers(-2, 2))
def test_commutator_on_generators(degrees, seed, deg1, deg2):
    rng = random.Random(seed)
    model = dg_model(degrees, rng)
    d1, d2 = random_derivation(model, deg1, rng), random_derivation(model, deg2, rng)
    bracket = commutator(d1, d2)
    assert bracket.degree == deg1 + deg2
    sign = -1 if deg1 % 2 and deg2 % 2 else 1
    for g in model.generators:
        x = model.gen(g.name)
        assert bracket.value(g.name) == d1(d2(x)) - sign * d2(d1(x))


# -- the bracket-law residues and the element sampler ------------------------------

def memoized_residues(bundle, a, b, c, actor):
    """(derived Leibniz, derived Jacobi, degree-0 action, commutator Jacobi)
    residues as `identities` takes them: one memo shared by the two derived
    laws, as in a `derived` trial, and one for the action law."""
    br = Brackets(bundle.q)
    return (
        derivation_residue(br, br.q, a, b),
        jacobi_residue(br.derived, 1, a, b, c),
        derivation_residue(Brackets(bundle.q), actor, b, c),
        jacobi_residue(commutator, 0, a, b, c),
    )


def literal_residues(bundle, a, b, c, actor):
    """The same four residues, every bracket taken anew."""
    return (
        literal_leibniz_residue(bundle, a, b),
        literal_jacobi_residue(bundle, a, b, c),
        literal_action_residue(bundle, actor, b, c),
        literal_commutator_jacobi_residue(a, b, c),
    )


def law_operands(bundle, rng, squares_to_zero):
    """The bundle the residues read, three derivations of degrees in -2..1
    and a degree-0 actor, each with a value drawn on every generator.  The
    residues read only bundle.q, so without squares_to_zero a random degree-1
    field stands in for Q: the laws then fail, and their residues are
    nonzero."""
    total = bundle.total
    if not squares_to_zero:
        bundle = SimpleNamespace(q=random_derivation(total, 1, rng, 1.0))
    a, b, c = (random_derivation(total, rng.randint(-2, 1), rng, 1.0) for _ in range(3))
    return bundle, a, b, c, random_derivation(total, 0, rng, 1.0)


@settings(max_examples=40, deadline=None)
@given(SHAPES, SEEDS, st.booleans())
def test_law_residues_are_the_literal_ones(shape, seed, squares_to_zero):
    # on distinct operands, on a is b, and on a is b is c, which share brackets
    rng = random.Random(seed)
    bundle, a, b, c, actor = law_operands(random_bundle(shape, rng), rng, squares_to_zero)
    for x, y, z in ((a, b, c), (a, a, c), (a, a, a)):
        assert memoized_residues(bundle, x, y, z, actor) == literal_residues(bundle, x, y, z, actor)


def test_the_literal_residues_do_not_all_vanish():
    # the comparison above would hold vacuously if every residue were zero;
    # the commutator's Jacobi identity holds for any derivations, so only the
    # three laws of Q can fail
    nonzero = [0, 0, 0]
    for seed in range(8):
        rng = random.Random(seed)
        bundle, a, b, c, actor = law_operands(random_bundle("two_step", rng), rng, False)
        for k, residue in enumerate(literal_residues(bundle, a, b, c, actor)[:3]):
            nonzero[k] += not residue.is_zero()
    assert all(nonzero), nonzero


def test_one_memo_per_trial_gives_the_literal_residues():
    # fixed operands that fail a wrong memo key or a wrong sign at once: Q does
    # not square to zero, so the residues are nonzero; a is b, so |x, y| must
    # be keyed on both operands and the derived Jacobi sign must read the
    # shift; a has degree 0, so the action law's sign must read |actor| = 0
    rng = random.Random(3)
    total = random_bundle("two_step", rng).total
    bundle = SimpleNamespace(q=random_derivation(total, 1, rng, 1.0))
    a, c, actor = (random_derivation(total, degree, rng, 1.0) for degree in (0, -1, 0))
    memoized, literal = memoized_residues(bundle, a, a, c, actor), literal_residues(bundle, a, a, c, actor)
    assert not any(residue.is_zero() for residue in literal[:3])
    assert memoized == literal


@settings(max_examples=100, deadline=None)
@given(DEGREES, SEEDS, st.integers(0, 8), st.sampled_from([0.6, 1.0]))
def test_random_element_draws_what_randint_drew(degrees, seed, degree, density):
    model = graded_model(degrees)
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert random_element(model, degree, ours, density) == randint_random_element(
            model, degree, theirs, density
        )
    assert ours.getstate() == theirs.getstate()


# -- cochain slices, bases and the cached value tables -----------------------------


def with_contractible_pair(model):
    """model tensor the free model on u (degree 3) and t (degree 2) with d t = u,
    so a slice of degree 4 or more holds t^e with e > 1 and d(t^e) = e t^(e-1) u."""
    gens = [(g.name, g.degree) for g in model.generators] + [("u", 3), ("t", 2)]

    def differential(m):
        out = {name: Element(m, v.terms) for name, v in model.differential.items()}
        out["t"] = m.gen("u")
        return out

    return Model(gens, differential=differential)


def dense(column, size):
    return [column.get(i, Fraction(0)) for i in range(size)]


def oracle_column(model, m, target):
    d_m = apply_derivation(model, model.differential, 1, model.monomial_element(m))
    return coordinates(d_m, target)


def slice_column(model, m, target):
    """What a cochain slice stores for m: the oracle column of d(m) times
    d_table's denominator."""
    return [model.d_table.den * c for c in oracle_column(model, m, target)]


SLICE_DEGREES = st.lists(st.sampled_from([1, 3, 2, 4]), min_size=1, max_size=5)


@settings(max_examples=40, deadline=None)
@given(SLICE_DEGREES, SEEDS, st.booleans())
def test_every_slice_is_the_oracle_differential(degrees, seed, zero_differential):
    # d = 0 leaves the value table empty; otherwise the contractible pair makes
    # sure some even generator with a value occurs squared
    if zero_differential:
        model = graded_model(degrees)
    else:
        model = with_contractible_pair(dg_model(degrees, random.Random(seed)))
    for k in range(8):
        target = model.basis(k + 1)
        columns = cochains(model, k).columns
        assert len(columns) == len(model.basis(k))
        for m, column in zip(model.basis(k), columns):
            assert all(type(c) is int and c for c in column.values()), (k, m)
            assert dense(column, len(target)) == slice_column(model, m, target), (k, m)
    if zero_differential:
        assert all(not column for k in range(8) for column in cochains(model, k).columns)


@settings(max_examples=25, deadline=None)
@given(SLICE_DEGREES, SEEDS)
def test_twisted_images_d_part_is_the_oracle_differential(degrees, seed):
    model = with_contractible_pair(dg_model(degrees, random.Random(seed)))
    top = 7
    windows = ([], [])
    for k in range(top + 1):
        windows[k % 2].extend(model.basis(k))
    images, upto = _twisted_images(model, model.zero(), top)
    for parity in (0, 1):
        assert len(images[parity]) == upto[parity][top] == len(windows[parity])
        target = windows[1 - parity]
        for m, (k, low, whole) in zip(windows[parity], images[parity]):
            want = slice_column(model, m, target) if k < top else [Fraction(0)] * len(target)
            assert dense(low, len(target)) == want, (k, m)
            assert whole == low  # no twist


def closed_twist(model, rng, den):
    """A closed 3-form with a denominator divisible by den: an integer
    combination of the oracle's degree-3 cocycles plus u / den."""
    vectors, basis = cocycle_vectors(model, 3)
    h = model.gen("u") * Fraction(1, den)
    for v in vectors:
        h = h + Element(model, dict(zip(basis, v))) * rng.randint(-2, 2)
    assert h.den % den == 0 and model.d(h).is_zero()
    return h


@settings(max_examples=25, deadline=None)
@given(SLICE_DEGREES, SEEDS, st.sampled_from([3, 5]))
def test_twisted_columns_with_denominators_are_the_oracle(degrees, seed, den):
    # d t = u / 2 makes d_table's denominator even, and the twist brings its own
    rng = random.Random(seed)
    model = halved(with_contractible_pair(dg_model(degrees, rng)))
    assert model.d_table.den % 2 == 0
    h = closed_twist(model, rng, den)
    scale = model.d_table.den * h.den
    top = 7
    images, _ = _twisted_images(model, h, top)
    for parity in (0, 1):
        source, target = _parity_basis(model, parity, top), _parity_basis(model, 1 - parity, top)
        wholes = _twisted_columns(model, h, source, target, top)
        lows = _twisted_columns(model, model.zero(), source, target, top)
        for (k, low, whole), want, want_low in zip(images[parity], wholes, lows):
            assert all(type(c) is int and c for c in whole.values()), k
            assert dense(whole, len(target)) == [scale * c for c in want], k
            assert dense(low, len(target)) == [scale * c for c in want_low], k


@settings(max_examples=10, deadline=None)
@given(st.lists(st.sampled_from([1, 3, 2]), min_size=1, max_size=3), SEEDS, st.sampled_from([3, 5]))
def test_twisted_betti_with_denominators_is_the_dense_reference(degrees, seed, den):
    rng = random.Random(seed)
    model = halved(with_contractible_pair(dg_model(degrees, rng)))
    _assert_twisted_matches_reference(model, closed_twist(model, rng, den), 3)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([1, 2, 3, 4]), min_size=1, max_size=5))
def test_basis_is_the_brute_force_basis(degrees):
    model = graded_model(degrees)
    for k in range(13):
        assert [unpack(m, len(degrees)) for m in model.basis(k)] == brute_basis(model, k), k
    assert all(model.basis(k) is model.basis(k) for k in range(13))


def counted_suffixes(model):
    """A list that records every call of the model's `_suffix`, recursive ones too."""
    calls = []
    suffix = model._suffix
    model._suffix = lambda start, degree: calls.append(start) or suffix(start, degree)
    return calls


def test_a_high_degree_basis_costs_its_output_not_its_degree():
    # b fills at most degree 3, so only the two highest exponents of a are
    # tried, and no suffix of a degree above b's reach is built or kept
    model = Model([("a", 2), ("b", 3)], differential=lambda m: {"b": m.gen("a") ** 2})
    calls = counted_suffixes(model)
    tracemalloc.start()
    try:
        bases = model.basis(400000), model.basis(400001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bases == ((pack((200000, 0)),), (pack((199999, 1)),))
    assert peak < 1 << 20, peak
    assert len(calls) < 10, len(calls)


def test_a_degree_of_the_wrong_residue_is_empty_at_once():
    # a and b fill even degrees only, without bound, so an odd degree is
    # empty by the gcd of their degrees, before any exponent of a is tried
    model = Model([("a", 2), ("b", 4)])
    calls = counted_suffixes(model)
    tracemalloc.start()
    try:
        basis = model.basis(4000001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis == ()
    assert peak < 1 << 20, peak
    assert len(calls) < 10, len(calls)


def test_empty_suffixes_within_reach_are_kept():
    # b, c and d leave many even degrees empty (2, 4, 6, 8, 12, 16, 18, ...)
    # and fill no odd one: the gcd of their degrees rules out the odd ones at
    # once, and an empty suffix within the reach, kept once, is not
    # enumerated again for every later basis (7075 calls kept, 11256 not)
    model = Model([("a", 2), ("b", 10), ("c", 14), ("d", 22)])
    calls = counted_suffixes(model)
    assert not any(model.basis(k) for k in range(1, 200, 2))
    assert all(model.basis(k) for k in range(0, 200, 2))
    assert len(calls) < 9000, len(calls)


def test_models_with_equal_generators_keep_separate_tables():
    gens = [("x", 1), ("y", 1), ("z", 1), ("t", 2)]
    one = Model(gens, differential=lambda m: {"z": m.gen("x") * m.gen("y")})
    two = Model(
        gens,
        differential=lambda m: {
            "z": 2 * m.gen("y") * m.gen("x"),
            "t": m.gen("x") * m.gen("y") * m.gen("z"),
        },
    )
    zero = Model(gens)
    models = (two, zero, one)  # built in one order, read in another
    for model in models:
        assert model.d_table is model.d_table
        assert model_differential(model).table is model.d_table
    assert len({id(model.d_table) for model in models}) == 3
    assert zero.d_table.entries == ()
    assert one.differential == {"z": one.gen("x") * one.gen("y")}
    assert two.differential == {
        "z": -2 * two.gen("x") * two.gen("y"),
        "t": two.gen("x") * two.gen("y") * two.gen("z"),
    }
    assert zero.differential == {}
    for model in (one, zero, two):
        for k in range(5):
            target = model.basis(k + 1)
            for m, column in zip(model.basis(k), cochains(model, k).columns):
                assert dense(column, len(target)) == oracle_column(model, m, target)
        z, t = model.gen("z"), model.gen("t")
        for el in (z, t**3 * z, t * model.gen("x")):
            assert model.d(el) == apply_derivation(model, model.differential, 1, el)


def test_derivations_keep_separate_tables(mixed):
    x, y, r = mixed.gen("x"), mixed.gen("y"), mixed.gen("r")
    first = Derivation(mixed, 0, {"x": x * 2})
    second = Derivation(mixed, 0, {"x": x * 3})
    again = Derivation(mixed, 0, {"x": x * 2})
    scaled = first * 5
    summed = first + second
    lowering = Derivation(mixed, -1, {"y": mixed.one()})
    bracket = commutator(lowering, random_derivation(mixed, 1, random.Random(3)))
    derivations = [first, second, again, scaled, summed, bracket]
    el = random_mixed(mixed, random.Random(4)) + x * y * r
    for d in derivations:
        assert d(el) == apply_derivation(mixed, d.values, d.degree, el)
    tables = [d.table for d in derivations]
    assert len({id(table) for table in tables}) == len(derivations)
    assert all(d.table is table for d, table in zip(derivations, tables))
    assert again.table == first.table and again == first
    assert second(x) == 3 * x and first(x) == 2 * x and scaled(x) == 10 * x


# -- monomials stay packed ints, coefficients nonzero Fractions ------------------------


@settings(max_examples=60, deadline=None)
@given(DEGREES, SEEDS, st.integers(-2, 2), st.integers(-2, 2))
def test_every_kernel_result_is_keyed_by_packed_monomials(degrees, seed, deg1, deg2):
    rng = random.Random(seed)
    model = dg_model(degrees, rng)
    a, b = random_mixed(model, rng), random_mixed(model, rng)
    d1, d2 = random_derivation(model, deg1, rng), random_derivation(model, deg2, rng)
    bracket = commutator(d1, d2)
    results = [a * b, model.d(a), d1(a), bracket(a), *bracket.values.values()]
    for el in results:
        assert_keys_are_packed_monomials(el)
        assert_coefficients_are_fractions(el)


def test_every_operation_keeps_nonzero_fraction_coefficients(mixed):
    rng = random.Random(5)
    a, b = random_mixed(mixed, rng), random_mixed(mixed, rng)
    d1 = random_derivation(mixed, 1, rng)
    d2 = random_derivation(mixed, -1, rng)
    x, y = mixed.gen("x"), mixed.gen("y")
    results = [
        a * b, a + b, a - b, -a, a * 3, 3 * a, a * Fraction(2, 3), a * 2.5,
        a / 3, a / Fraction(3, 4), a + 1, 1 - a, mixed.d(a), d1(a), d2(a),
        x * y + y * x, a * 0, a - a,
    ]
    results += list(commutator(d1, d2).values.values())
    for el in results:
        assert_keys_are_packed_monomials(el)
        assert_coefficients_are_fractions(el)
    assert (a * 0).terms == {} and (a - a).terms == {} and (x * y + y * x).terms == {}


def test_public_constructor_normalises_coefficients(mixed):
    m, m2 = mixed.basis(2)[:2]
    el = Element(mixed, {m: 2, m2: 0})
    assert el.terms == {m: Fraction(2)}
    assert type(el.terms[m]) is Fraction
    assert Element(mixed, {m: 0.5}).terms == {m: Fraction(1, 2)}


def test_zero_value_derivation_and_zero_element(mixed):
    zero = Derivation.zero(mixed, 1)
    assert zero(mixed.gen("x")).terms == {}
    assert mixed.d(mixed.zero()).terms == {}
    assert_coefficients_are_fractions(mixed.d(mixed.gen("r") * mixed.gen("p") ** 2))


# -- the integer kernel on non-unit denominators ---------------------------------------

DENOMINATORS = st.sampled_from([2, 3, 6])


def fractional_element(model, degree, rng, den):
    """A random element of the degree with coefficients k / den, k in -3..3."""
    return Element(
        model,
        {m: Fraction(rng.randint(-3, 3), den) for m in model.basis(degree) if rng.random() < 0.6},
    )


def fractional_mixed(model, rng, den):
    return sum((fractional_element(model, k, rng, den) for k in rng.sample(range(5), 2)), model.zero())


def fractional_derivation(model, degree, rng, den):
    values = {
        g.name: fractional_element(model, g.degree + degree, rng, den)
        for g in model.generators
        if rng.random() < 0.6
    }
    return Derivation(model, degree, values)


def halved(model):
    """The model with d replaced by d / 2, which still squares to zero."""
    gens = [(g.name, g.degree) for g in model.generators]
    return Model(
        gens,
        differential=lambda m: {
            name: Element(m, {e: c / 2 for e, c in v.terms.items()})
            for name, v in model.differential.items()
        },
    )


def assert_table_is_reduced(table, den=None):
    """The table's denominator divides den, if given, and no factor of it
    divides every numerator."""
    table_den = table.den
    assert table_den > 0 and (den is None or den % table_den == 0), (table_den, den)
    numerators = [n for terms in table.numerators().values() for n in terms.values()]
    assert all(numerators), numerators
    assert gcd(table_den, *numerators) == 1, (table_den, numerators)


@settings(max_examples=60, deadline=None)
@given(DEGREES, SEEDS, st.integers(-2, 2), DENOMINATORS, DENOMINATORS)
def test_fractional_derivations_are_the_oracle(degrees, seed, degree, den, element_den):
    rng = random.Random(seed)
    model = halved(dg_model(degrees, rng))
    d = fractional_derivation(model, degree, rng, den)
    a = fractional_mixed(model, rng, element_den)
    assert_table_is_reduced(d.table, den)
    assert_table_is_reduced(model.d_table)
    results = [d(a), model.d(a)]
    assert results[0] == apply_derivation(model, d.values, degree, a)
    assert results[1] == apply_derivation(model, model.differential, 1, a)
    for el in results:
        assert_coefficients_are_fractions(el)


@settings(max_examples=30, deadline=None)
@given(SLICE_DEGREES, SEEDS)
def test_slices_of_a_halved_differential_are_the_oracle(degrees, seed):
    # the contractible pair makes d t = u / 2, so the table's denominator is even
    model = halved(with_contractible_pair(dg_model(degrees, random.Random(seed))))
    assert model.d_table.den % 2 == 0
    for k in range(7):
        target = model.basis(k + 1)
        for m, column in zip(model.basis(k), cochains(model, k).columns):
            assert all(type(c) is int and c for c in column.values()), (k, m)
            assert dense(column, len(target)) == slice_column(model, m, target), (k, m)


@settings(max_examples=60, deadline=None)
@given(DEGREES, SEEDS, st.integers(-2, 1), st.integers(-2, 1), DENOMINATORS, DENOMINATORS)
def test_brackets_of_tables_with_different_denominators(degrees, seed, deg1, deg2, den1, den2):
    rng = random.Random(seed)
    model = halved(dg_model(degrees, rng))
    d1 = fractional_derivation(model, deg1, rng, den1)
    d2 = fractional_derivation(model, deg2, rng, den2)
    d3 = fractional_derivation(model, deg1, rng, 6 // den1)
    bracket = commutator(d1, d2)
    assert_table_is_reduced(bracket.table, den1 * den2)
    assert bracket == literal_commutator(d1, d2)
    # nested brackets, sums and multiples compute on the tables alone
    nested = commutator(commutator(model_differential(model), bracket), d3)
    want = literal_commutator(literal_commutator(model_differential(model), bracket), d3)
    assert nested == want
    combined = (d1 + d3) * Fraction(2, 3) - d3
    for g in model.generators:
        assert combined.value(g.name) == (d1.value(g.name) + d3.value(g.name)) * Fraction(2, 3) - d3.value(g.name)
    assert (d1 - d1).is_zero() and (d1 * 0).is_zero()
    # two passes over denominators 2 * 3 and 6 * 1 (or the like) share their sums
    passes = [(d1.table, d2.table, False), (d3.table, d2.table, True)]
    shared = apply_values(model, passes).values(model)
    sums = {g: d1(v) - d3(v) for g, v in d2.values.items()}
    assert shared == {g: v for g, v in sums.items() if not v.is_zero()}
    a = fractional_mixed(model, rng, 6)
    assert nested(a) == apply_derivation(model, want.values, nested.degree, a)
    for d in (bracket, nested, combined):
        for el in d.values.values():
            assert_keys_are_packed_monomials(el)
            assert_coefficients_are_fractions(el)


def reordered(model, degree, values):
    """The derivation of these values built with generators and terms in reverse order."""
    flipped = {g: Element(model, dict(reversed(v.terms.items()))) for g, v in values.items()}
    return Derivation(model, degree, dict(reversed(flipped.items())))


@settings(max_examples=40, deadline=None)
@given(DEGREES, SEEDS, st.integers(-2, 1), st.integers(-2, 1), DENOMINATORS, DENOMINATORS)
def test_a_derivation_is_its_table_alone(degrees, seed, deg1, deg2, den1, den2):
    rng = random.Random(seed)
    model = halved(dg_model(degrees, rng))
    d1 = fractional_derivation(model, deg1, rng, den1)
    d2 = fractional_derivation(model, deg2, rng, den2)
    d3 = fractional_derivation(model, deg1, rng, 6 // den1)
    # equal as maps means equal, whatever built them and in any term order
    values = d1.values
    bracket = commutator(d1, d2)
    sign = 1 if deg1 % 2 and deg2 % 2 else -1
    equal = [
        (reordered(model, deg1, values), d1),
        (Derivation(model, deg1, values), d1),
        ((d1 + d3) - d3, d1),
        (d3 + d1, d1 + d3),
        (d1 * Fraction(2, 3) * Fraction(3, 2), d1),
        (d1 * den1 * Fraction(1, den1), d1),
        (d1 * 2, d1 + d1),
        (bracket, literal_commutator(d1, d2)),
        (bracket, reordered(model, deg1 + deg2, bracket.values)),
        (bracket, commutator(d2, d1) * sign),
    ]
    for built, want in equal:
        assert built == want and want == built
    assert (d1 * 2 == d1) == d1.is_zero()
    # a generator with no value has the zero value, read off its entry alone
    for g in model.generators:
        assert d1.value(g.name) == values.get(g.name, model.zero())
        if g.name not in values:
            assert d1.value(g.name).terms == {}
    # a values view is a fresh copy: mutating it leaves the derivation as it was
    snapshot = reordered(model, deg1, values)
    for v in values.values():
        v.terms.clear()
    values[model.generators[0].name] = model.zero()
    assert d1 == snapshot and d1.values == snapshot.values
    assert all(not v.is_zero() for v in d1.values.values())


def random_sums(model, degree, rng):
    """{generator index: {monomial: int}} with some zero numerators, for the
    generators a coin picks, over monomials of the value's degree."""
    sums = {}
    for i, g in enumerate(model.generators):
        basis = model.basis(g.degree + degree)
        if basis and rng.random() < 0.7:
            sums[i] = {m: rng.randint(-4, 4) for m in rng.sample(basis, min(len(basis), 4))}
    return sums


def shuffled(rng, mapping):
    return dict(rng.sample(list(mapping.items()), len(mapping)))


@settings(max_examples=60, deadline=None)
@given(DEGREES, SEEDS, st.integers(-2, 2), st.integers(1, 12), st.integers(2, 6))
def test_a_value_table_is_its_values_whatever_built_them(degrees, seed, degree, den, c):
    rng = random.Random(seed)
    model = graded_model(degrees)
    sums = random_sums(model, degree, rng)
    table = ValueTable(model, sums, degree, den)
    assert_table_is_reduced(table, den)
    # scaled by c, with rows and terms in another order: the same table
    scaled = {i: shuffled(rng, {m: c * n for m, n in row.items()}) for i, row in sums.items()}
    same = ValueTable(model, shuffled(rng, scaled), degree, c * den)
    assert same == table and table == same
    # a table is what its values rebuild, and a derivation is its table
    tables = [table, same, ValueTable(model, sums, degree + 2, den), ValueTable(model, sums, degree, den + 1)]
    if table.entries:
        i, row = next(iter(table.numerators().items()))
        m = next(iter(row))
        tables.append(ValueTable(model, {**sums, i: {**row, m: row[m] + 1}}, degree, table.den))
        assert tables[-1] != table
    assert tables[2] != table
    assert Derivation(model, degree, table.values(model)).table == table
    derivations = [Derivation._of_table(model, t) for t in tables]
    for a, s in zip(derivations, tables):
        assert a.degree == s.degree
        for b, t in zip(derivations, tables):
            assert (a == b) == (s == t), (s.numerators(), t.numerators())
    # equal tables on two models with equal generators are two derivations
    other = graded_model(degrees)
    assert Derivation._of_table(other, ValueTable(other, sums, degree, den)) != derivations[0]


HALF_PAIR = pathlib.Path(__file__).resolve().parent / "nil_pair_half.dgm"


def assert_cocycles_are_the_oracle(space, degrees):
    """Each slice's cocycles are the oracle's reduced echelon kernel vectors,
    each scaled to its primitive integer form."""
    model = space.total if isinstance(space, DgBundle) else space
    for k in degrees:
        vectors, basis = cocycle_vectors(space, k)
        want = [Element(model, dict(zip(basis, primitive(v)))) for v in vectors]
        assert cochains(model, k).cocycles(model) == want, k


MODEL_FILES = sorted(pathlib.Path(__file__).resolve().parent.parent.glob("models/*.dgm")) + [
    HALF_PAIR, HALF_PAIR.with_name("nil_pair_f_half.dgm")
]


@pytest.mark.parametrize("path", MODEL_FILES, ids=lambda path: path.stem)
def test_cocycles_of_every_model_file_are_the_oracle(path):
    mf = load_path(str(path), validate=False)
    spaces = [mf.model] + ([mf.bundle] if mf.bundle else [])
    for space in spaces:
        assert_cocycles_are_the_oracle(space, range(7))


@settings(max_examples=25, deadline=None)
@given(SLICE_DEGREES, SEEDS)
def test_cocycles_of_a_halved_model_are_the_oracle(degrees, seed):
    model = halved(with_contractible_pair(dg_model(degrees, random.Random(seed))))
    assert model.d_table.den % 2 == 0
    assert_cocycles_are_the_oracle(model, range(7))


def assert_reduced(el):
    """el is stored as a table row: den > 0, no zero numerator, no common factor."""
    assert el.den > 0 and all(el.nums.values()), (el.den, el.nums)
    assert gcd(el.den, *el.nums.values()) == 1, (el.den, el.nums)


@settings(max_examples=6, deadline=None)
@given(SEEDS, DENOMINATORS)
def test_an_element_is_a_reduced_numerator_row(seed, den):
    # nil_pair with d z and F halved, so d, T's source and every product carry halves
    rng = random.Random(seed)
    pair = dualize(load_path(str(HALF_PAIR)).bundle)
    p, total = pair.p, pair.p.total
    a = fractional_element(total, 2, rng, den)
    b = fractional_element(total, 1, rng, 6 // den)
    w = fractional_element(pair.base, 2, rng, den)
    c = Fraction(rng.choice([-5, -1, 2, 3]), den)
    vector = fractional_derivation(total, -1, rng, den)
    results = [a + b, a - b, a - a, a * b, a * c, c * a, a / c, (a + b) ** 3, total.d(a)]
    results += [vector(a), pair.tmap(a), p.include_base(w), p.restrict_to_base(p.include_base(w))]
    for el in results:
        assert_reduced(el)
    # equal values built by different routes are equal and hash equal
    equal = [
        ((a + b) - b, a),
        (a * c / c, a),
        (a * 2, a + a),
        (c * a, Element(total, {m: c * x for m, x in a.terms.items()})),
        (Element(total, dict(reversed(a.terms.items()))), a),
        (total.d(a * b), total.d(a) * b + a * total.d(b)),
        (pair.tmap(a), literal_tmap(pair, a)),
        (p.restrict_to_base(p.include_base(w)), w),
        (p.include_base(w) * c, p.include_base(w * c)),
        (total.one() * c, total.scalar(c)),
    ]
    for built, want in equal:
        assert built == want and hash(built) == hash(want)
        assert (built.den, built.nums) == (want.den, want.nums)
    assert total.scalar(c) == c and hash(total.scalar(c)) == hash(c)
    # terms is a Fraction view that rebuilds the element through the constructor
    for el in results:
        view = el.terms
        assert Element(el.model, view) == el
        assert all(type(x) is Fraction and x for x in view.values())
        # and a fresh copy: mutating it leaves the element as it was
        snapshot = (el.den, dict(el.nums))
        view.clear()
        view[0] = Fraction(7)
        assert (el.den, el.nums) == snapshot and el.terms != view


@settings(max_examples=40, deadline=None)
@given(SEEDS, DENOMINATORS)
def test_the_flux_coupling_through_the_integer_kernel(seed, den):
    # Q(t) = F7 + q F4/2: F4 with odd integer numerators puts the 1/2 into Q's table
    rng = random.Random(seed)
    base = presets.torus(rng.randint(1, 4))
    f4 = Element(base, {m: Fraction(2 * rng.randint(-2, 2) + 1) for m in base.basis(4)})
    bundle = DgBundle.flux(base, f4, random_element(base, 7, rng))
    total, q = bundle.total, bundle.q
    assert q.value("t") == bundle.structural_total("F7") + total.gen("q") * bundle.structural_total("F4") / 2
    if f4.terms:
        assert total.d_table.den % 2 == 0
    a = fractional_mixed(total, rng, den)
    assert q(a) == apply_derivation(total, q.values, 1, a)
    d = fractional_derivation(total, -1, rng, den)
    bracket = commutator(q, d)
    assert bracket == literal_commutator(q, d)
    for k in range(6):
        target = total.basis(k + 1)
        for m, column in zip(total.basis(k), cochains(total, k).columns):
            assert all(type(c) is int and c for c in column.values()), (k, m)
            assert dense(column, len(target)) == slice_column(total, m, target), (k, m)
    for el in [q(a), *bracket.values.values(), *q.values.values()]:
        assert_coefficients_are_fractions(el)
