"""Exact rank and kernel computations for sparse rational matrices.

Matrices are lists of dense rows of Fractions or ints.  One elimination serves
every caller: each row is stored sparse as {column: int} with its denominators
cleared and its content divided out, and is reduced fraction-free against the
pivot that owns its leading column, so no rounding enters anywhere in the
package.  Zeros are skipped on the first scan and never touched again.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count, repeat
from math import gcd, lcm
from operator import is_not
from typing import Dict, List, Sequence

Matrix = List[List[Fraction]]
SparseRow = Dict[int, int]

# Matrix assembly fills its rows with this one object, so the scan in
# `_sparse_row` can skip its zeros by identity, in C, before testing values.
ZERO = Fraction(0)


def _sparse_row(row: Sequence[Fraction]) -> SparseRow:
    """The row as {column: int}, a positive rational multiple with coprime entries."""
    entries = {}
    for j in compress(count(), map(is_not, row, repeat(ZERO))):
        x = row[j]
        if x:
            entries[j] = x
    if not entries:
        return entries
    den = lcm(*(x.denominator for x in entries.values()))
    out = {j: x.numerator * (den // x.denominator) for j, x in entries.items()}
    return _primitive(out)


def _primitive(row: SparseRow) -> SparseRow:
    g = gcd(*row.values())
    if g != 1:
        for j in row:
            row[j] //= g
    return row


def _clear(row: SparseRow, pivot: SparseRow, col: int) -> SparseRow:
    """The primitive form of a*row - b*pivot, the combination that vanishes at col."""
    g = gcd(pivot[col], row[col])
    a, b = pivot[col] // g, row[col] // g
    out = {j: a * x for j, x in row.items()} if a != 1 else dict(row)
    for j, y in pivot.items():
        x = out.get(j, 0) - b * y
        if x:
            out[j] = x
        else:
            out.pop(j, None)
    return _primitive(out) if out else out


def _eliminate(rows: Sequence[Sequence[Fraction]]) -> Dict[int, SparseRow]:
    """Echelon form of the rows, as a map from pivot column to its sparse row.

    An incoming row is cleared at its leading column by the pivot stored
    there, until it leads in a free column (and becomes that column's pivot)
    or vanishes.
    """
    pivots: Dict[int, SparseRow] = {}
    for dense in rows:
        row = _sparse_row(dense)
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            row = _clear(row, pivot, lead)
    return pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q: the number of pivots of the sparse elimination."""
    return len(_eliminate(rows))


def kernel_basis(rows: Sequence[Sequence[Fraction]], ncols: int) -> Matrix:
    """Basis vectors of the right kernel of the matrix (columns = unknowns).

    The pivots are back-substituted to the reduced row echelon form over Q,
    which is unique; each free column c gives the vector with 1 at c, minus
    the reduced rows' entries at c on the pivot columns, and 0 elsewhere.
    """
    pivots = _eliminate(rows)
    # right to left: the pivot rows past c are already reduced, so clearing
    # one of their columns from row c leaves the others untouched
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for p in [j for j in row if j != c and j in pivots]:
            row = _clear(row, pivots[p], p)
        pivots[c] = row
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for c, row in pivots.items():
            x = row.get(free)
            if x:
                v[c] = Fraction(-x, row[c])
        basis.append(v)
    return basis
