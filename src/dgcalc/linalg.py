"""Exact rank and kernel computations for sparse integer matrices.

A matrix is a list of rows, and a row is a dict {column: int}.  A caller
with rational entries passes a positive multiple of each row, which changes
no rank and no right kernel.  One elimination serves every caller: each row
is stored with its content divided out, and is reduced fraction-free against
the pivot that owns its leading column, so no rounding enters anywhere in
the package.  The rank of a matrix is that of its transpose, so a caller
holding columns may pass them as the rows.  Kernel vectors come back as
primitive integer vectors, positive at their free column.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Dict, List, Optional, Sequence

Row = Dict[int, int]


def _sparse_row(row: Row) -> Row:
    """The row without zeros and with its content divided out: the row itself
    when it is already primitive, since no stored row is ever changed."""
    if 0 in row.values():  # a mapping that kept a zero; its lead would never clear
        row = {j: x for j, x in row.items() if x}
    g = gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else row


def _primitive(row: Row) -> Row:
    g = gcd(*row.values())
    if g != 1:
        for j in row:
            row[j] //= g
    return row


def _clear(row: Row, pivot: Row, col: int) -> Row:
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


def _eliminate(rows: Sequence[Row], pivots: Optional[Dict[int, Row]] = None) -> Dict[int, Row]:
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
    """Basis vectors {column: int} of the right kernel of the matrix
    (columns = unknowns).

    The pivots are back-substituted to the reduced row echelon form over Q,
    which is unique.  Each free column f gives the vector that is 1 at f and
    minus the reduced rows' entries at f over their leads on the pivot
    columns, scaled to its primitive integer form: by the lcm of those
    leads, then divided by its content, so it stays positive at f.
    """
    pivots = _eliminate(rows)
    # right to left: the pivot rows past c are already reduced, so clearing
    # one of their columns from row c leaves the others untouched
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for p in [j for j in row if j != c and j in pivots]:
            row = _clear(row, pivots[p], p)
        pivots[c] = row
    # every entry of a reduced row but its lead sits in a free column
    touching: Dict[int, List[int]] = {free: [] for free in range(ncols) if free not in pivots}
    for c, row in pivots.items():
        for free in row:
            if free != c:
                touching[free].append(c)
    basis = []
    for free, leads in touching.items():
        scale = lcm(*[pivots[c][c] for c in leads])
        vector = {free: scale}
        for c in leads:
            vector[c] = -pivots[c][free] * (scale // pivots[c][c])
        basis.append(_primitive(vector))
    return basis
