"""Exact rank and kernel computations for sparse rational matrices.

A matrix is a list of rows.  A row is either sparse, a dict {column: value},
or a dense sequence of values; values are Fractions or ints.  The cochain complexes hand over sparse rows,
and only a few small callers still build dense ones.  One elimination serves
every caller: each row is stored as {column: int} with its denominators
cleared and its content divided out, and is reduced fraction-free against the
pivot that owns its leading column, so no rounding enters anywhere in the
package.  The rank of a matrix is that of its transpose, so a caller holding
columns may pass them as the rows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count, repeat
from math import gcd, lcm
from operator import is_not
from typing import Dict, List, Sequence, Union

Matrix = List[List[Fraction]]
SparseRow = Dict[int, int]
Row = Union[Dict[int, Fraction], Sequence[Fraction]]

# Kernel vectors are filled with this one zero object, and dense rows built by
# hand may use it too, so `sparse` can skip their zeros by identity, in C,
# before testing values.
ZERO = Fraction(0)


def sparse(vector: Sequence[Fraction]) -> Dict[int, Fraction]:
    """The nonzero entries of a dense vector, as {index: value}."""
    return {j: x for j in compress(count(), map(is_not, vector, repeat(ZERO))) if (x := vector[j])}


def _sparse_row(row: Row) -> SparseRow:
    """The row as {column: int}, a positive rational multiple with coprime entries."""
    entries = row if isinstance(row, dict) else sparse(row)
    if not entries:
        return {}
    den = lcm(*[x.denominator for x in entries.values()])
    if den == 1:
        out = {j: x.numerator for j, x in entries.items()}
    else:
        out = {j: x.numerator * (den // x.denominator) for j, x in entries.items()}
    if 0 in out.values():  # a mapping that kept a zero
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


def _eliminate(rows: Sequence[Row]) -> Dict[int, SparseRow]:
    """Echelon form of the rows, as a map from pivot column to its sparse row.

    An incoming row is cleared at its leading column by the pivot stored
    there, until it leads in a free column (and becomes that column's pivot)
    or vanishes.
    """
    pivots: Dict[int, SparseRow] = {}
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


def kernel_basis(rows: Sequence[Row], ncols: int) -> Matrix:
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
        v = [ZERO] * ncols
        v[free] = Fraction(1)
        for c, row in pivots.items():
            x = row.get(free)
            if x:
                v[c] = Fraction(-x, row[c])
        basis.append(v)
    return basis
