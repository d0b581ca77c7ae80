"""The monomial core and the Leibniz kernel against independent oracles.

Signs come from odd-generator bitmasks; `oracles.merge_sign` re-sums the odd
tail per factor instead.  `Model.d`, every `Derivation` and `commutator` run
through one kernel; `oracles.apply_derivation` expands the Leibniz rule as
products of elements instead.  `DgBundle.fiber_coefficients` shares the
product's sign rule, so splitting off a generator must rebuild the element.
"""

import random
from fractions import Fraction
from functools import partial

import pytest

from dgcalc import presets
from dgcalc.derivations import Derivation, DgBundle, commutator, model_differential
from dgcalc.graded import Element, Model, _merge_sign
from dgcalc.sampling import random_derivation, random_element
from oracles import apply_derivation, merge_sign

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

DEGREES = st.lists(st.sampled_from([1, 3, 2, 4]), min_size=1, max_size=9)
SEEDS = st.integers(0, 2**32 - 1)


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
    diff = {}  # generator name -> {exponents over all n generators: coefficient}

    def prefix(k):
        return Model(
            gens[:k],
            differential=lambda m: {
                name: Element(m, {e[:k]: c for e, c in terms.items()})
                for name, terms in diff.items()
            },
        )

    for k, (name, deg) in enumerate(gens):
        before = prefix(k)
        closed = [i for i in range(k) if gens[i][0] not in diff]
        terms = {
            m: Fraction(rng.randint(-2, 2))
            for m in before.basis(deg + 1)
            if all(e == 0 or i in closed for i, e in enumerate(m)) and rng.random() < 0.5
        }
        value = Element(before, terms)
        if rng.random() < 0.5:
            value = value + before.d(random_element(before, deg, rng))
        if not value.is_zero():
            diff[name] = {m + (0,) * (n - k): c for m, c in value.terms.items()}
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


def assert_keys_are_exponent_tuples(el):
    """Every monomial is a plain tuple with one entry per generator, odd ones at most 1."""
    gens = el.model.generators
    for m in el.terms:
        assert type(m) is tuple and len(m) == len(gens), m
        assert all(type(e) is int and e >= 0 for e in m), m
        assert all(e <= 1 for g, e in zip(gens, m) if g.is_odd), m


# -- signs ---------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(DEGREES, SEEDS)
def test_merge_sign_matches_the_tail_sum_oracle(degrees, seed):
    model, rng = graded_model(degrees), random.Random(seed)
    left, right = exponents(model, rng), exponents(model, rng)
    assert _merge_sign(model, left, right) == merge_sign(model, left, right)


def test_merge_sign_is_none_on_an_odd_overlap():
    model = graded_model([1, 2, 3])
    assert _merge_sign(model, (1, 0, 1), (0, 2, 1)) is None
    assert _merge_sign(model, (1, 2, 0), (0, 1, 1)) == (1, (1, 3, 1))
    assert _merge_sign(model, (0, 0, 1), (1, 0, 0)) == (-1, (1, 0, 1))


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
@given(st.sampled_from(["line", "two_step", "correspondence", "flux"]), SEEDS)
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
        for k, c in bundle.fiber_coefficients(el, g.name).items():
            assert all(not m[idx] for m in c.terms), (g.name, k)
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


# -- monomials stay exponent tuples, coefficients nonzero Fractions --------------------


@settings(max_examples=60, deadline=None)
@given(DEGREES, SEEDS, st.integers(-2, 2), st.integers(-2, 2))
def test_every_kernel_result_is_keyed_by_exponent_tuples(degrees, seed, deg1, deg2):
    rng = random.Random(seed)
    model = dg_model(degrees, rng)
    a, b = random_mixed(model, rng), random_mixed(model, rng)
    d1, d2 = random_derivation(model, deg1, rng), random_derivation(model, deg2, rng)
    bracket = commutator(d1, d2)
    results = [a * b, model.d(a), d1(a), bracket(a), *bracket.values.values()]
    for el in results:
        assert_keys_are_exponent_tuples(el)
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
        assert_keys_are_exponent_tuples(el)
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
