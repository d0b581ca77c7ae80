"""Degree-wise and parity-graded cohomology of bundles over the rationals.

Every rank is exact.  Polynomial generators make the cochain complex
infinite in total but finite per degree, so the twisted (Z/2-collapsed)
cohomology works at a degree cap: a class at the cap counts only if it lifts
to a cocycle in a wider window, which kills the truncation artifacts at the
top, and two consecutive caps must agree before a result is returned.  Both
conditions read ranks of d + h on degree windows, no kernel.  A model with
only odd generators is finite, with a top degree; its windows stop there, so
at a cap at or above the top the count is two ranks of d + h on the whole
complex.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional, Tuple, Union

from . import linalg
from .derivations import DgBundle
from .graded import (
    SIGN_MASKS,
    DgcalcError,
    Element,
    GradedError,
    Model,
    _check_fields,
    format_monomial,
    leibniz,
)

BundleLike = Union[Model, DgBundle]
# a sparse column {row: int}; zeros are left out.  A column holds a positive
# multiple of its true values: a slice of d holds d_table's numerators, and an
# image that `induced_rank` compares an element's, since only spans count.
Column = Dict[int, int]

DEFAULT_CAP_SLACK = 6
# a twisted class at the cap counts only if it lifts to a cocycle this many
# degrees higher
TWIST_LIFT = 4
# a declared formal dimension is audited over this many degrees above it
FORMAL_DIMENSION_WINDOW = 4


class CohomologyError(DgcalcError):
    pass


def _total(space: BundleLike) -> Model:
    """The model whose functions a space is made of."""
    return space.total if isinstance(space, DgBundle) else space


def degree_cap(space: BundleLike) -> int:
    return 2 * _total(space).formal_dimension + DEFAULT_CAP_SLACK


def _column(el: Element, index: Dict[int, int]) -> Column:
    """An element's numerators as {row: numerator}, its monomials numbered by index."""
    col = {}
    for m, c in el.nums.items():
        i = index.get(m)
        if i is None:
            mono = format_monomial(el.model, m) or "1"
            raise CohomologyError(f"element leaves the span of the degree basis: {mono}")
        col[i] = c
    return col


def operator_matrix(model: Model, table, source_basis, index: Dict[int, int]) -> List[Column]:
    """One sparse column per source monomial: the derivation with this
    value table applied to it, numbered by index, all in one Leibniz pass.
    The columns are the kernel's integer sums: the values times the table's
    denominator, one positive scale, so no rank or kernel changes."""
    outs: List[dict] = [{} for _ in source_basis]
    leibniz(model, table, zip(source_basis, repeat(1)), outs)
    return [{index[m]: n for m, n in out.items() if n} for out in outs]


class CochainSpace:
    """Homogeneous degree slice of a bundle's functions with the outgoing differential,
    stored as the sparse column of d of each basis monomial.  It keeps no
    reference to the space, so the model can hold its slices."""

    def __init__(self, space: BundleLike, degree: int):
        self.degree = degree
        model = _total(space)
        self.basis = model.basis(degree)
        # an empty slice has no columns, so it indexes no degree above it
        target = {m: i for i, m in enumerate(model.basis(degree + 1))} if self.basis else {}
        self.columns = operator_matrix(model, model.d_table, self.basis, target)
        self._rank: Optional[int] = None

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def rank(self) -> int:
        if self._rank is None:
            # the rank of d is the rank of its columns
            self._rank = linalg.rank(self.columns)
        return self._rank

    def cocycles(self, model: Model) -> List[Element]:
        """A basis of the kernel of d on this slice, as elements of its model,
        each with the primitive integer coefficients of its kernel vector."""
        basis = self.basis
        return [
            Element._of(model, {basis[j]: n for j, n in v.items()})
            for v in linalg.kernel_basis(_transpose(self.columns), self.dimension)
        ]


def _transpose(columns: List[Column]) -> List[Column]:
    """The nonzero rows of the matrix with these sparse columns."""
    rows: Dict[int, Column] = {}
    for j, col in enumerate(columns):
        for i, c in col.items():
            row = rows.get(i)
            if row is None:
                rows[i] = {j: c}
            else:
                row[j] = c
    return list(rows.values())


def cochains(space: BundleLike, degree: int) -> CochainSpace:
    """The degree slice of a space's total model, built on first use and kept
    on the model, so a bundle and its total model share their slices."""
    model = _total(space)
    cs = model._slices.get(degree)
    if cs is None:
        cs = model._slices[degree] = CochainSpace(model, degree)
    return cs


def _rank(space: BundleLike, degree: int) -> int:
    """Rank of d out of the given degree; nothing leaves a negative degree."""
    return cochains(space, degree).rank() if degree >= 0 else 0


def induced_rank(
    source: BundleLike, degree: int, f, target: BundleLike, target_degree: int
) -> int:
    """Rank of the map that f, a chain map up to sign, induces from
    H^degree(source) to H^target_degree(target)."""
    index = {m: i for i, m in enumerate(cochains(target, target_degree).basis)}
    images = [_column(f(z), index) for z in cochains(source, degree).cocycles(_total(source))]
    boundaries = cochains(target, target_degree - 1).columns if target_degree > 0 else []
    return linalg.rank_gain(boundaries, images)


def betti(space: BundleLike, lo: int, hi: int) -> Dict[int, int]:
    """Exact cohomology dimensions {degree: dim} of a space for lo <= degree <= hi,
    in ascending degree."""
    if lo < 0 or hi < lo:
        raise CohomologyError("need hi >= lo >= 0")
    dims = {}
    for k in range(lo, hi + 1):
        cs = cochains(space, k)
        # an empty degree has no cohomology, whatever its neighbours hold
        dims[k] = cs.dimension and cs.dimension - cs.rank() - _rank(space, k - 1)
    return dims


def _twisted_images(model: Model, h: Element, top: int):
    """d(m) + h*m, once, for every monomial m of degree <= top.

    The monomials of each parity are numbered in ascending degree, so every
    degree window is a prefix of that numbering: upto[p][w] counts the
    parity-p monomials of degree <= w.  images[p] holds, in that order,
    (degree k, d part, whole image) for each parity-p monomial, its image
    numbered in the other parity.  The d part has degree k + 1 and h*m degree
    k + 3; a part above top is left out, so at the top degree of a finite
    model the images are all of d + h.  Every column holds its values times
    d_table's denominator times h's, a positive scale that changes no rank.

    h*m is merged in one pass over h's few terms, with the monomial on the
    left: h*m = (-1)^{|m|} m*h since |h| = 3, so the sign of each term reads
    the cached masks of h's terms alone and none of the monomials'.
    """
    windows: Tuple[List[int], List[int]] = ([], [])
    upto: Tuple[List[int], List[int]] = ([], [])
    for k in range(top + 1):
        windows[k % 2].extend(model.basis(k))
        for p in (0, 1):
            upto[p].append(len(windows[p]))
    index = [{m: i for i, m in enumerate(w)} for w in windows]
    images: Tuple[list, list] = ([], [])
    table = model.d_table
    odd, guard = model.odd, model.guard
    # h's terms with their odd mask and its A, numerators times d's scale
    twist = [(t, t & odd, SIGN_MASKS[t & odd][0], n * table.den) for t, n in h.nums.items()]
    for k in range(top + 1):
        target = index[1 - k % 2]
        basis = model.basis(k)
        lows = operator_matrix(model, table, basis, target) if k < top else [{}] * len(basis)
        if h.den != 1:
            lows = [{i: n * h.den for i, n in low.items()} for low in lows]
        flip = k & 1  # (-1)^{|m|}: m*h to h*m
        for m, low in zip(basis, lows):
            whole = low
            if twist and k + 3 <= top:
                whole = dict(low)
                mask = m & odd
                for t, tmask, over, n in twist:
                    if mask & tmask:
                        continue
                    key = m + t
                    if key & guard:
                        _check_fields(model, (key,))
                    # distinct terms of h give distinct keys, of a degree d(m) does not reach
                    whole[target[key]] = -n if flip ^ (mask & over).bit_count() & 1 else n
            images[k % 2].append((k, low, whole))
    return images, upto


def twisted_betti(model: Model, h: Element, cap: Optional[int] = None) -> Tuple[int, int]:
    """Dimensions of the even/odd cohomology of (forms, d + h) for a closed h.

    With D_w = d + h cut above degree w, C_p^{<=c} the parity-p monomials of
    degree <= c and wide = c + TWIST_LIFT, a class at cap c counts only if it
    lifts to a D_wide-cocycle.  Each D_c x is the cut of the cocycle D_wide x,
    so dim H_p(c) = |C_p^{<=c}| - gain(p, c, wide) - gain(1-p, c, c): gain
    is the rank D_hi gains on C_p^{<=hi} over C_p^{(lo, hi]}, one elimination
    continued from the high columns.  Caps `cap` and `cap+1` must agree.
    Windows stop at a finite model's top degree, so at a cap at or above it
    both caps read the same two ranks of D on the whole complex.
    """
    if h.model is not model:
        raise CohomologyError("twist must live in the given model")
    if not h.is_zero() and h.degree() != 3:
        raise CohomologyError("twist must be homogeneous of degree 3")
    if not model.d(h).is_zero():
        raise CohomologyError("twist form is not closed")
    if cap is None:
        cap = degree_cap(model)
    if cap < 0:
        # both windows would be empty, and two empty windows always agree
        raise CohomologyError(f"degree cap {cap} checks no degree")
    top = model._reach[0]  # inf past an even generator
    images, upto = _twisted_images(model, h, min(cap + 1 + TWIST_LIFT, top))
    gains: Dict[Tuple[int, int, int], int] = {}

    def gain(p: int, lo: int, hi: int) -> int:
        lo, hi = min(lo, top), min(hi, top)
        if (p, lo, hi) not in gains:
            # D_hi on C_p^{<=hi}: every component above hi discarded
            window = [
                whole if k + 3 <= hi else low if k < hi else {}
                for k, low, whole in images[p][: upto[p][hi]]
            ]
            n = upto[p][lo]
            gains[p, lo, hi] = linalg.rank_gain(window[n:], window[:n])
        return gains[p, lo, hi]

    def dims(c: int) -> Tuple[int, int]:
        wide = c + TWIST_LIFT
        even, odd = (upto[p][min(c, top)] - gain(p, c, wide) - gain(1 - p, c, c) for p in (0, 1))
        return even, odd

    first, second = dims(cap), dims(cap + 1)
    if first != second:
        raise CohomologyError(
            f"twisted dimensions did not stabilize at cap {cap}: {first} vs {second}"
        )
    return first


def periodicity_check(space: BundleLike, j: int, l: int) -> bool:
    """Betti dimension agreement between degrees j and j + 2l (for j past the base)."""
    if j <= _total(space).formal_dimension:
        raise CohomologyError("periodicity applies above the formal dimension")
    if l < 0:
        raise CohomologyError("need l >= 0")
    dims = betti(space, j, j + 2 * l)
    return dims[j] == dims[j + 2 * l]


def circle_quasi_iso_check(base: Model, f: Element, total: Model, hi: Optional[int] = None):
    """Compare Betti numbers of (base x line with dq = F) against a total-space model.

    Returns (ok, per-degree pairs).  The comparison map adjoins the odd fiber
    structurally; the user asserts that `total` models the same bundle.
    Acceptance criterion 4 (the Hopf quasi-isomorphism) pins it.
    """
    if hi is None:
        hi = max(degree_cap(base), degree_cap(total))
    adjoined = DgBundle.line(base, f, "q", 1)
    lhs = betti(adjoined, 0, hi)
    rhs = betti(total, 0, hi)
    pairs = [(k, lhs[k], rhs[k]) for k in range(hi + 1)]
    return lhs == rhs, pairs


def validate_formal_dimension(space: BundleLike) -> None:
    """Audit that base cohomology vanishes just above the declared dimension."""
    fd = _total(space).formal_dimension
    for k, dim in betti(space, fd + 1, fd + FORMAL_DIMENSION_WINDOW).items():
        if dim:
            raise GradedError(
                f"declared formal dimension {fd} but cohomology is nonzero in degree {k}"
            )
