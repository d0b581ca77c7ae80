"""Sparse exact elimination against independent oracles: dense Bareiss,
dense Gauss-Jordan and sympy.

The matrices are drawn dense over Q, each row is cleared of its denominators
by `oracles._integer_rows` (a positive multiple, so neither the rank nor the
right kernel changes), handed to `linalg` as sparse rows {column: int}, and
the sparse kernel vectors are written out densely to be compared with the
oracles', scaled to their primitive integer form.
"""

from fractions import Fraction
from math import gcd

import pytest

from dgcalc.linalg import kernel_basis, rank, rank_gain
from oracles import _integer_rows, bareiss_rank, dense_kernel as oracle_kernel, primitive

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

# about half the entries are zeros, ints or Fractions; the rest are small ints
# and rationals with large denominators
ENTRIES = st.one_of(
    st.sampled_from([0, Fraction(0)]),
    st.integers(-3, 3),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**12),
)


def sparse(rows):
    """The dense rational rows as sparse integer rows, zeros left out."""
    return [{j: x for j, x in enumerate(row) if x} for row in _integer_rows(rows)]


def kept(rows):
    """The dense rational rows as integer mappings that keep their zeros."""
    return [dict(enumerate(row)) for row in _integer_rows(rows)]


def dense_kernel(rows, ncols):
    """The kernel of the dense rows, each sparse vector written out densely."""
    return [[v.get(j, 0) for j in range(ncols)] for v in kernel_basis(sparse(rows), ncols)]


@st.composite
def matrices(draw, ncols=None):
    """(rows, ncols): random dense rows, some of low rank, some with zero columns."""
    nrows = draw(st.integers(0, 7))
    if ncols is None:
        ncols = draw(st.integers(0, 7))
    if draw(st.booleans()):
        rows = [[draw(ENTRIES) for _ in range(ncols)] for _ in range(nrows)]
    else:  # a product through at most 4 inner columns, so often rank-deficient
        inner = draw(st.integers(0, 4))
        left = [[draw(ENTRIES) for _ in range(inner)] for _ in range(nrows)]
        right = [[draw(ENTRIES) for _ in range(ncols)] for _ in range(inner)]
        rows = [
            [sum((Fraction(a) * b for a, b in zip(lrow, col)), Fraction(0)) for col in zip(*right)]
            if inner
            else [Fraction(0)] * ncols
            for lrow in left
        ]
    for c in draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=min(ncols, 2))):
        for row in rows:
            row[c] = 0
    return rows, ncols


def _sympy_matrix(sympy, rows, ncols):
    return sympy.Matrix(len(rows), ncols, [sympy.Rational(x.numerator, x.denominator)
                                           for row in rows for x in row])


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_matches_bareiss(case):
    rows, _ = case
    assert rank(sparse(rows)) == bareiss_rank(rows)


@st.composite
def matrix_pairs(draw):
    """(base, extra): two random dense matrices with the same number of columns."""
    base, ncols = draw(matrices())
    extra, _ = draw(matrices(ncols))
    return base, extra


@settings(max_examples=150, deadline=None)
@given(matrix_pairs())
def test_rank_gain_matches_two_ranks(case):
    base, extra = case
    gain = rank_gain(sparse(base), sparse(extra))
    assert gain == rank(sparse(base + extra)) - rank(sparse(base))
    assert gain == bareiss_rank(base + extra) - bareiss_rank(base)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_sparse_rows_and_columns_match_dense_rows(case):
    rows, ncols = case
    expected_rank, expected_kernel = bareiss_rank(rows), kernel_basis(sparse(rows), ncols)
    for form in (sparse(rows), kept(rows)):
        assert rank(form) == expected_rank
        assert kernel_basis(form, ncols) == expected_kernel
    columns = [dict(enumerate(col)) for col in zip(*_integer_rows(rows))]  # zeros kept
    assert rank(columns) == expected_rank


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rank_and_kernel_match_sympy(case):
    sympy = pytest.importorskip("sympy")
    rows, ncols = case
    m = _sympy_matrix(sympy, rows, ncols)
    assert rank(sparse(rows)) == m.rank()
    nullspace = [[Fraction(int(x.p), int(x.q)) for x in v] for v in m.nullspace()]
    assert dense_kernel(rows, ncols) == [primitive(v) for v in nullspace]


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_oracle_kernel_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    rows, ncols = case
    m = _sympy_matrix(sympy, rows, ncols)
    expected = [[Fraction(int(x.p), int(x.q)) for x in v] for v in m.nullspace()]
    assert oracle_kernel(rows, ncols) == expected


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_vectors_are_annihilated(case):
    rows, ncols = case
    basis = kernel_basis(sparse(rows), ncols)
    assert len(basis) == ncols - bareiss_rank(rows)
    free = [j for j in range(ncols) if all(col == 0 for col in [row[j] for row in rows])]
    for v in basis:
        assert all(type(x) is int and x for x in v.values())
        assert all(0 <= j < ncols for j in v)
        # the free column is the last one; every other entry sits on a pivot before it
        assert v[max(v)] > 0 and gcd(*v.values()) == 1
        for row in rows:
            assert sum(Fraction(row[j]) * x for j, x in v.items()) == 0
    # a zero column is free, so its vector is the unit vector there
    for j in free:
        assert {j: 1} in basis


def test_a_kernel_vector_is_divided_by_its_content():
    # the row is primitive, but its lead 2 divides the 2 in free column 1, so
    # column 1's vector {1: 2, 0: -2} is divided by its content
    rows = [[2, 2, 1]]
    assert kernel_basis(sparse(rows), 3) == [{1: 1, 0: -1}, {2: 2, 0: -1}]
    assert dense_kernel(rows, 3) == [primitive(v) for v in oracle_kernel(rows, 3)]


def test_empty_and_zero_matrices():
    assert rank([{}, {0: 0}, {1: 0}]) == 0
    assert rank([]) == 0 and rank([{}, {}]) == 0
    assert rank_gain([], []) == 0 and rank_gain([{0: 1}], [{0: 2}, {}]) == 0
    identity = [{i: 1} for i in range(3)]
    assert kernel_basis([], 3) == identity
    assert kernel_basis([{0: 0, 1: 0, 2: 0}], 3) == identity
    assert kernel_basis([{}, {}], 0) == []


def test_kernel_is_the_reduced_echelon_basis():
    # x0 + 2 x1 + 3 x3 = 0, x2 - x3/2 = 0: free columns 1 and 3
    rows = [[2, 4, 1, Fraction(11, 2)], [1, 2, 0, 3]]
    assert rank(sparse(rows)) == 2
    assert oracle_kernel(rows, 4) == [
        [Fraction(-2), Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(-3), Fraction(0), Fraction(1, 2), Fraction(1)],
    ]
    # the same directions as primitive integer vectors, positive at the free column
    assert dense_kernel(rows, 4) == [[-2, 1, 0, 0], [-6, 0, 1, 2]]
    assert kernel_basis(sparse(rows), 4) == [{0: -2, 1: 1}, {0: -6, 2: 1, 3: 2}]
    # the first pivot row meets both later pivot columns
    rows = [[1, 1, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]]
    assert dense_kernel(rows, 4) == [[2, -1, -1, 1]]
    assert oracle_kernel(rows, 4) == [[Fraction(2), Fraction(-1), Fraction(-1), Fraction(1)]]
    # leads of different sizes: the vector is scaled by their lcm, then made primitive
    assert kernel_basis([{0: 2, 2: 3}, {1: 3, 2: 1}], 3) == [{0: -9, 1: -2, 2: 6}]
