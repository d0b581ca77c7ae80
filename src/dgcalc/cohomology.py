"""Degree-wise and parity-graded cohomology of bundles over the rationals.

Every rank is exact.  Polynomial fibers make the cochain complex infinite in
total but finite per degree, so the twisted (Z/2-collapsed) computation works
at a degree cap: a class at the cap counts only if it lifts to a cocycle in a
wider window, which kills the truncation artifacts at the top, and two
consecutive caps must agree before a result is returned.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from . import linalg
from .derivations import DgBundle
from .graded import Element, GradedError, Model

BundleLike = Union[Model, DgBundle]
# a sparse column {row: coefficient}; zero coefficients are left out
Column = Dict[int, Fraction]

ONE = Fraction(1)

DEFAULT_CAP_SLACK = 6
# a twisted class at the cap counts only if it lifts to a cocycle this many
# degrees higher
TWIST_LIFT = 4


class CohomologyError(Exception):
    pass


def _total(space: BundleLike) -> Model:
    """The model whose functions a space is made of."""
    return space.total if isinstance(space, DgBundle) else space


def degree_cap(space: BundleLike) -> int:
    return 2 * _total(space).formal_dimension + DEFAULT_CAP_SLACK


def _column(el: Element, index: Dict[tuple, int]) -> Column:
    """el as {row: coefficient}, its monomials numbered by index."""
    col = {}
    for m, c in el.terms.items():
        i = index.get(m)
        if i is None:
            raise CohomologyError(f"element leaves the span of the degree basis: {m}")
        col[i] = c
    return col


def operator_matrix(space: BundleLike, op, source_basis, target_basis) -> List[Column]:
    """One sparse column per source monomial: op of it, expanded in the target basis.

    The target basis must belong to whatever model op produces values in.
    """
    model = _total(space)
    index = {m: i for i, m in enumerate(target_basis)}
    return [_column(op(Element._trusted(model, {m: ONE})), index) for m in source_basis]


class CochainSpace:
    """Homogeneous degree slice of a bundle's functions with the outgoing differential,
    stored as the sparse column of d of each basis monomial."""

    def __init__(self, space: BundleLike, degree: int):
        self.space = space
        self.degree = degree
        model = _total(space)
        self.basis = model.basis(degree)
        self.columns = operator_matrix(space, model.d, self.basis, model.basis(degree + 1))
        self._rank: Optional[int] = None

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def rank(self) -> int:
        if self._rank is None:
            # the rank of d is the rank of its columns
            self._rank = linalg.rank(self.columns)
        return self._rank

    def cocycles(self) -> List[Element]:
        """A basis of the kernel of d on this slice, as elements."""
        model = _total(self.space)
        basis = self.basis
        return [
            Element._trusted(model, {basis[j]: c for j, c in v.items()})
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


class Complex:
    """The cochain complex of one model: each degree slice is built on first use
    and shared by every later reader.  complex_of gives the model's one complex."""

    def __init__(self, model: Model):
        self.model = model
        self._slices: Dict[int, CochainSpace] = {}

    def __getitem__(self, degree: int) -> CochainSpace:
        cs = self._slices.get(degree)
        if cs is None:
            cs = self._slices[degree] = CochainSpace(self.model, degree)
        return cs

    def rank(self, degree: int) -> int:
        """Rank of d out of the given degree; nothing leaves a negative degree."""
        return self[degree].rank() if degree >= 0 else 0


def complex_of(space: BundleLike) -> Complex:
    """The one cochain complex of a space's total model, kept on the model, so
    a bundle and its total model share it."""
    model = _total(space)
    if model._complex is None:
        model._complex = Complex(model)
    return model._complex


def induced_rank(
    source: BundleLike, degree: int, f, target: BundleLike, target_degree: int
) -> int:
    """Rank of the map that f, a chain map up to sign, induces from
    H^degree(source) to H^target_degree(target)."""
    src, tgt = complex_of(source), complex_of(target)
    index = {m: i for i, m in enumerate(tgt[target_degree].basis)}
    images = [_column(f(z), index) for z in src[degree].cocycles()]
    boundaries = tgt[target_degree - 1].columns if target_degree > 0 else []
    return linalg.rank_gain(boundaries, images)


def betti(space: BundleLike, lo: int, hi: int) -> Dict[int, int]:
    """Exact cohomology dimensions {degree: dim} of a space for lo <= degree <= hi,
    in ascending degree."""
    if lo < 0 or hi < lo:
        raise CohomologyError("need hi >= lo >= 0")
    cx = complex_of(space)
    return {k: cx[k].dimension - cx.rank(k) - cx.rank(k - 1) for k in range(lo, hi + 1)}


def _twisted_images(model: Model, h: Element, top: int):
    """d(m) + h*m, once, for every monomial m of degree <= top.

    The monomials of each parity are numbered in ascending degree, so every
    degree window is a prefix of that numbering: upto[p][w] counts the
    parity-p monomials of degree <= w.  images[p] holds, in that order,
    (degree k, d part, whole image) for each parity-p monomial, its image
    numbered in the other parity.  The d part has degree k + 1 and h*m degree
    k + 3; a part above top is left out.
    """
    windows: Tuple[List[tuple], List[tuple]] = ([], [])
    upto: Tuple[List[int], List[int]] = ([], [])
    for k in range(top + 1):
        windows[k % 2].extend(model.basis(k))
        for p in (0, 1):
            upto[p].append(len(windows[p]))
    index = [{m: i for i, m in enumerate(w)} for w in windows]
    images: Tuple[list, list] = ([], [])
    for k in range(top + 1):
        target = index[1 - k % 2]
        for m in model.basis(k):
            x = Element._trusted(model, {m: ONE})
            low = _column(model.d(x), target) if k < top else {}
            whole = {**low, **_column(h * x, target)} if h.terms and k + 3 <= top else low
            images[k % 2].append((k, low, whole))
    return images, upto


def _twisted_window(images, n: int, cap: int) -> List[Column]:
    """The first n columns of d + h with every component above cap discarded."""
    return [
        whole if k + 3 <= cap else low if k < cap else {} for k, low, whole in images[:n]
    ]


def _twisted_dims_at(images, upto, cap: int) -> Tuple[int, int]:
    wide = cap + TWIST_LIFT
    out = []
    for parity in (0, 1):
        source = _twisted_window(images[parity], upto[parity][wide], wide)
        cocycles = linalg.kernel_basis(_transpose(source), len(source))
        # project the wide cocycles down to the cap window
        keep = upto[parity][cap]
        projected = [{j: c for j, c in v.items() if j < keep} for v in cocycles]
        boundary = _twisted_window(images[1 - parity], upto[1 - parity][cap], cap)
        out.append(linalg.rank_gain(boundary, projected))
    return out[0], out[1]


def twisted_betti(model: Model, h: Element, cap: Optional[int] = None) -> Tuple[int, int]:
    """Dimensions of the even/odd cohomology of (forms, d + h) for a closed h.

    Computed on the parity-collapsed complex capped in degree; classes must
    lift past the cap to count, and caps `cap` and `cap+1` must agree.  The
    images of d + h are computed once and both caps read their windows.
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
    images, upto = _twisted_images(model, h, cap + 1 + TWIST_LIFT)
    first = _twisted_dims_at(images, upto, cap)
    second = _twisted_dims_at(images, upto, cap + 1)
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
    table = betti(space, j, j + 2 * l)
    return table[j] == table[j + 2 * l]


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


def validate_formal_dimension(space: BundleLike, window: int = 4) -> None:
    """Audit that base cohomology vanishes just above the declared dimension."""
    fd = _total(space).formal_dimension
    for k, dim in betti(space, fd + 1, fd + window).items():
        if dim:
            raise GradedError(
                f"declared formal dimension {fd} but cohomology is nonzero in degree {k}"
            )
