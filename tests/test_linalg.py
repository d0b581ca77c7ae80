"""Sparse exact elimination against independent oracles: dense Bareiss and sympy."""

from fractions import Fraction

import pytest

from dgcalc.linalg import ZERO, kernel_basis, rank, sparse
from oracles import bareiss_rank

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

# about half the entries are zeros: ints, fresh Fractions or the shared
# assembly zero; the rest are small ints and rationals with large denominators
ENTRIES = st.one_of(
    st.sampled_from([0, Fraction(0), ZERO]),
    st.integers(-3, 3),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**12),
)


@st.composite
def matrices(draw):
    """(rows, ncols): random sparse rows, some of low rank, some with zero columns."""
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
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
    assert rank(rows) == bareiss_rank(rows)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_sparse_rows_and_columns_match_dense_rows(case):
    rows, ncols = case
    expected_rank, expected_kernel = rank(rows), kernel_basis(rows, ncols)
    columns = [dict(enumerate(col)) for col in zip(*rows)]  # zeros kept
    for form in ([sparse(row) for row in rows], [dict(enumerate(row)) for row in rows]):
        assert rank(form) == expected_rank
        assert kernel_basis(form, ncols) == expected_kernel
    assert rank(columns) == expected_rank


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rank_and_kernel_match_sympy(case):
    sympy = pytest.importorskip("sympy")
    rows, ncols = case
    m = _sympy_matrix(sympy, rows, ncols)
    assert rank(rows) == m.rank()
    expected = [[Fraction(int(x.p), int(x.q)) for x in v] for v in m.nullspace()]
    assert kernel_basis(rows, ncols) == expected


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_vectors_are_annihilated(case):
    rows, ncols = case
    basis = kernel_basis(rows, ncols)
    assert len(basis) == ncols - rank(rows)
    for v in basis:
        assert all(isinstance(x, Fraction) for x in v)
        for row in rows:
            assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0


def test_empty_and_zero_matrices():
    assert sparse([0, ZERO, Fraction(0), 3, Fraction(1, 2)]) == {3: 3, 4: Fraction(1, 2)}
    assert rank([{}, {0: 0}, {1: ZERO}]) == 0
    assert rank([]) == 0 and rank([[], []]) == 0
    assert rank([[0, Fraction(0), ZERO]] * 3) == 0
    identity = [[Fraction(int(i == j)) for i in range(3)] for j in range(3)]
    assert kernel_basis([], 3) == identity
    assert kernel_basis([[0, 0, 0]], 3) == identity
    assert kernel_basis([[], []], 0) == []


def test_kernel_is_the_reduced_echelon_basis():
    # x0 + 2 x1 + 3 x3 = 0, x2 - x3/2 = 0: free columns 1 and 3
    rows = [[2, 4, 1, Fraction(11, 2)], [1, 2, 0, 3]]
    assert rank(rows) == 2
    assert kernel_basis(rows, 4) == [
        [Fraction(-2), Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(-3), Fraction(0), Fraction(1, 2), Fraction(1)],
    ]
    # the first pivot row meets both later pivot columns
    rows = [[1, 1, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]]
    assert kernel_basis(rows, 4) == [[Fraction(2), Fraction(-1), Fraction(-1), Fraction(1)]]
