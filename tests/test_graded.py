"""Core algebra: normal forms, Koszul signs, bases, the differential."""

from fractions import Fraction

import pytest

from dgcalc.graded import Element, GradedError, Model, format_element
from dgcalc.sampling import random_element
from oracles import dimension_series, random_inhomogeneous
import random


def test_odd_generator_squares_to_zero(t2):
    th1 = t2.gen("th1")
    assert (th1 * th1).is_zero()


def test_koszul_sign_on_swap(t2):
    th1, th2 = t2.gen("th1"), t2.gen("th2")
    assert th1 * th2 == -(th2 * th1)


def test_square_of_mixed_element():
    m = Model([("th1", 1), ("t", 2)], formal_dimension=2)
    th1, t = m.gen("th1"), m.gen("t")
    sq = (th1 + t) * (th1 + t)
    assert sq == 2 * (t * th1) + t * t


def test_degree_zero_generators_forbidden():
    with pytest.raises(GradedError):
        Model([("f", 0)])


def test_duplicate_names_forbidden():
    with pytest.raises(GradedError):
        Model([("a", 2), ("a", 3)])


def test_ambient_mismatch_raises(t2, s2):
    with pytest.raises(GradedError):
        t2.gen("th1") * s2.gen("a")


def test_basis_torus_degree2(t2):
    assert t2.basis(2) == ((1, 1),)


def test_basis_with_even_generator():
    m = Model([("th1", 1), ("th2", 1), ("t", 2)])
    basis = m.basis(2)
    assert len(basis) == 2
    assert set(basis) == {(1, 1, 0), (0, 0, 1)}


def test_basis_degree_zero_is_unit(s2):
    basis = s2.basis(0)
    assert basis == ((0, 0),)


@pytest.mark.parametrize("degree", range(9))
def test_basis_counts_match_hilbert_series(mixed, degree):
    assert len(mixed.basis(degree)) == dimension_series(mixed, 8)[degree]


def test_basis_returns_the_cached_tuple(mixed):
    # a tuple of tuples cannot be changed by a caller, so the cache is shared uncopied
    first = mixed.basis(3)
    assert isinstance(first, tuple) and all(type(m) is tuple for m in first)
    assert mixed.basis(3) == first
    assert mixed.basis(3) is first is mixed._bases[3]
    assert mixed.basis(-1) == ()


def test_cached_bases_match_hilbert_series(mixed):
    series = dimension_series(mixed, 8)
    for _ in range(2):  # the second pass reads the cache
        assert [len(mixed.basis(k)) for k in range(9)] == series
    assert mixed.dimension(5) == series[5]


def test_models_with_equal_generators_keep_separate_caches():
    gens = [("a", 1), ("b", 1), ("t", 2)]
    one, two = Model(gens), Model(gens)
    first = one.basis(2)
    assert isinstance(first, tuple)
    assert two.basis(2) == first
    assert two.basis(2) is not first  # each model built its own
    assert one._bases is not two._bases
    assert set(one._bases) == {2} and set(two._bases) == {2}


def test_differential_closed_generator(t2):
    assert t2.d(t2.gen("th1")).is_zero()
    assert t2.d(t2.gen("th1") * t2.gen("th2")).is_zero()


def test_differential_sphere(s2):
    a, b = s2.gen("a"), s2.gen("b")
    assert s2.d(b) == a * a
    assert s2.d(s2.d(b)).is_zero()


def test_d_squared_rejected_at_load():
    with pytest.raises(GradedError):
        # db = a*b has degree 5 != 4: degree mismatch is caught first
        Model([("a", 2), ("b", 3)], differential=lambda m: {"b": m.gen("a") * m.gen("b")})
    with pytest.raises(GradedError):
        # dk = p*p fails d*d = 0 because dp != 0
        Model(
            [("x", 1), ("y", 1), ("z", 1), ("p", 2), ("k", 3)],
            differential=lambda m: {
                "p": m.gen("x") * m.gen("y") * m.gen("z"),
                "k": m.gen("p") * m.gen("p"),
            },
        )


def test_d_squared_on_basis_through_cap(mixed):
    for degree in range(9):
        for mono in mixed.basis(degree):
            el = mixed.monomial_element(mono)
            assert mixed.d(mixed.d(el)).is_zero()


def test_graded_commutativity_randomized(mixed):
    rng = random.Random(1)
    for _ in range(40):
        da = rng.randint(1, 5)
        db = rng.randint(1, 5)
        a = random_element(mixed, da, rng)
        b = random_element(mixed, db, rng)
        sign = -1 if (da % 2 and db % 2) else 1
        assert a * b == sign * (b * a)


def test_associativity_distributivity_randomized(mixed):
    rng = random.Random(2)
    for _ in range(25):
        a = random_inhomogeneous(mixed, [rng.randint(1, 4)], rng)
        b = random_inhomogeneous(mixed, [rng.randint(1, 4)], rng)
        c = random_inhomogeneous(mixed, [rng.randint(1, 4)], rng)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_inhomogeneous_element_has_no_degree(t2):
    th1, th2 = t2.gen("th1"), t2.gen("th2")
    el = th1 + 3 * (th1 * th2)
    assert th1.degree() == 1
    assert (3 * (th1 * th2)).degree() == 2
    assert el.degree() is None
    assert t2.zero().degree() is None


def test_leibniz_rule_for_d(mixed):
    rng = random.Random(3)
    for _ in range(25):
        da, db = rng.randint(1, 4), rng.randint(1, 4)
        a = random_element(mixed, da, rng)
        b = random_element(mixed, db, rng)
        sign = -1 if da % 2 else 1
        assert mixed.d(a * b) == mixed.d(a) * b + sign * (a * mixed.d(b))


def test_scalar_arithmetic(s2):
    a = s2.gen("a")
    assert a - a == 0
    assert Fraction(1, 2) * a + Fraction(1, 2) * a == a
    assert (2 * a) * Fraction(1, 2) == a
    assert s2.scalar(0).is_zero()


def test_format_element_deterministic(t2):
    th1, th2 = t2.gen("th1"), t2.gen("th2")
    el = 2 * (th1 * th2) - th1
    assert format_element(el) == "-th1 + 2*th1*th2"
    assert format_element(t2.zero()) == "0"
    assert format_element(t2.one()) == "1"


def test_power_matches_repeated_multiplication(mixed):
    rng = random.Random(4)
    for _ in range(20):
        a = random_inhomogeneous(mixed, [rng.randint(0, 3)], rng)
        expected = mixed.one()
        for n in range(7):
            assert a**n == expected, n
            expected = expected * a


def test_power_squares_and_stops_at_zero(s2, monkeypatch):
    products = []
    mul = Element.__mul__

    def counting(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(Element, "__mul__", counting)
    a, b = s2.gen("a"), s2.gen("b")
    assert a**200000 == s2.monomial_element((200000, 0))
    assert len(products) <= 2 * (200000).bit_length()
    products.clear()
    assert (b**9999999).is_zero()
    assert len(products) <= 2
    assert b**0 == 1
    with pytest.raises(GradedError):
        a ** -1
