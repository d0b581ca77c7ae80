"""Exact rank computations for rational matrices.

Matrices are lists of rows of Fractions.  Ranks go through fraction-free
(Bareiss) elimination on a denominator-cleared integer copy, so no rounding
enters anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Sequence

Matrix = List[List[Fraction]]


def _integer_rows(rows: Sequence[Sequence[Fraction]]):
    out = []
    for row in rows:
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        out.append([int(x * den) for x in row])
    return out


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q by Bareiss elimination."""
    m = _integer_rows(rows)
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    prev = 1
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == nrows:
            break
    return r


def rref(rows: Sequence[Sequence[Fraction]]):
    """Reduced row echelon form (fraction arithmetic); returns (rref, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def kernel_basis(rows: Sequence[Sequence[Fraction]], ncols: int):
    """Basis vectors of the right kernel of the matrix (columns = unknowns)."""
    if not rows:
        return [
            [Fraction(1) if i == j else Fraction(0) for i in range(ncols)] for j in range(ncols)
        ]
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis

