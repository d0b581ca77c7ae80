"""Exact rank and kernel computations for sparse rational matrices.

A matrix is a list of rows, and a row is a dict {column: value} with Fraction
or int values.  One elimination serves every caller: each row is stored as
{column: int} with its denominators cleared and its content divided out, and
is reduced fraction-free against the pivot that owns its leading column, so no
rounding enters anywhere in the package.  The rank of a matrix is that of its
transpose, so a caller holding columns may pass them as the rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence

Row = Dict[int, Fraction]
SparseRow = Dict[int, int]

ONE = Fraction(1)


def _sparse_row(row: Row) -> SparseRow:
    """The row as {column: int}, a positive rational multiple with coprime entries."""
    if not row:
        return {}
    den = lcm(*[x.denominator for x in row.values()])
    if den == 1:
        out = {j: x.numerator for j, x in row.items()}
    else:
        out = {j: x.numerator * (den // x.denominator) for j, x in row.items()}
    if 0 in out.values():  # a mapping that kept a zero; its lead would never clear
        out = {j: x for j, x in out.items() if x}
        if not out:
            return out
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


def _eliminate(
    rows: Sequence[Row], pivots: Optional[Dict[int, SparseRow]] = None
) -> Dict[int, SparseRow]:
    """Echelon form of the rows, as a map from pivot column to its sparse row.

    An incoming row is cleared at its leading column by the pivot stored
    there, until it leads in a free column (and becomes that column's pivot)
    or vanishes.  Given pivots, the rows are added to that echelon form.
    """
    if pivots is None:
        pivots = {}
    for given in rows:
        row = _sparse_row(given)
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            row = _clear(row, pivot, lead)
    return pivots


def rank(rows: Sequence[Row]) -> int:
    """Rank over Q: the number of pivots of the sparse elimination."""
    return len(_eliminate(rows))


def rank_gain(base: Sequence[Row], extra: Sequence[Row]) -> int:
    """rank(base + extra) - rank(base), from one elimination that the extra
    rows continue from the base's pivots."""
    pivots = _eliminate(base)
    before = len(pivots)
    return len(_eliminate(extra, pivots)) - before


def kernel_basis(rows: Sequence[Row], ncols: int) -> List[Row]:
    """Basis vectors {column: value} of the right kernel of the matrix
    (columns = unknowns).

    The pivots are back-substituted to the reduced row echelon form over Q,
    which is unique; each free column c gives the vector with 1 at c and
    minus the reduced rows' entries at c on the pivot columns.
    """
    pivots = _eliminate(rows)
    # right to left: the pivot rows past c are already reduced, so clearing
    # one of their columns from row c leaves the others untouched
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for p in [j for j in row if j != c and j in pivots]:
            row = _clear(row, pivots[p], p)
        pivots[c] = row
    basis = {free: {free: ONE} for free in range(ncols) if free not in pivots}
    # every entry of a reduced row but its lead sits in a free column
    for c, row in pivots.items():
        lead = row[c]
        for free, x in row.items():
            if free != c:
                basis[free][c] = Fraction(-x, lead)
    return list(basis.values())
