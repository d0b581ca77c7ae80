"""Degree-wise and parity-graded cohomology of bundles over the rationals.

Every rank is exact.  Polynomial fibers make the cochain complex infinite in
total but finite per degree, so the twisted (Z/2-collapsed) computation works
at a degree cap: a class at the cap counts only if it lifts to a cocycle in a
wider window, which kills the truncation artifacts at the top, and two
consecutive caps must agree before a result is returned.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from . import linalg
from .derivations import DgBundle
from .graded import Element, GradedError, Model, Monomial

BundleLike = Union[Model, DgBundle]

DEFAULT_CAP_SLACK = 6


class CohomologyError(Exception):
    pass


def _total(space) -> Model:
    """The model whose functions a space, or the complex of one, is made of."""
    if isinstance(space, Complex):
        space = space.space
    return space.total if isinstance(space, DgBundle) else space


def degree_cap(space: BundleLike) -> int:
    env = os.environ.get("DGCALC_DEGREE_CAP")
    if env:
        try:
            return int(env)
        except ValueError:
            raise CohomologyError(f"DGCALC_DEGREE_CAP must be an integer, got {env!r}")
    return 2 * _total(space).formal_dimension + DEFAULT_CAP_SLACK


def coordinates(el: Element, basis: List[Monomial]) -> List[Fraction]:
    index = {m: i for i, m in enumerate(basis)}
    out = [Fraction(0)] * len(basis)
    for m, c in el.terms.items():
        if m not in index:
            raise CohomologyError(f"element leaves the span of the degree basis: {m}")
        out[index[m]] = c
    return out


def operator_matrix(space: BundleLike, op, source_basis, target_basis):
    """Columns are op(source monomial) expanded in the target basis.

    The target basis must belong to whatever model op produces values in.
    """
    model = _total(space)
    index = {m: i for i, m in enumerate(target_basis)}
    rows = [[linalg.ZERO] * len(source_basis) for _ in target_basis]
    for j, m in enumerate(source_basis):
        for mm, c in op(model.monomial_element(m)).terms.items():
            i = index.get(mm)
            if i is None:
                raise CohomologyError(f"element leaves the span of the degree basis: {mm}")
            rows[i][j] = c
    return rows


class CochainSpace:
    """Homogeneous degree slice of a bundle's functions with the outgoing differential."""

    def __init__(self, space: BundleLike, degree: int):
        self.space = space
        self.degree = degree
        model = _total(space)
        self.basis = model.basis(degree)
        self.d_matrix = operator_matrix(space, model.d, self.basis, model.basis(degree + 1))
        self._rank: Optional[int] = None

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def rank(self) -> int:
        if self._rank is None:
            self._rank = linalg.rank(self.d_matrix)
        return self._rank

    def cocycles(self) -> List[Element]:
        """A basis of the kernel of d on this slice, as elements."""
        model = _total(self.space)
        return [
            Element._trusted(model, {m: c for m, c in zip(self.basis, v) if c})
            for v in linalg.kernel_basis(self.d_matrix, self.dimension)
        ]

    def images(self) -> List[Tuple[Fraction, ...]]:
        """d of each basis monomial, as a vector in the basis one degree up."""
        return list(zip(*self.d_matrix)) if self.d_matrix else [()] * self.dimension


class Complex:
    """The cochain complex of one space: each degree slice is built on first use
    and shared by every later reader."""

    def __init__(self, space: BundleLike):
        self.space = space
        self._slices: Dict[int, CochainSpace] = {}

    def __getitem__(self, degree: int) -> CochainSpace:
        cs = self._slices.get(degree)
        if cs is None:
            cs = self._slices[degree] = CochainSpace(self.space, degree)
        return cs

    def rank(self, degree: int) -> int:
        """Rank of d out of the given degree; nothing leaves a negative degree."""
        return self[degree].rank() if degree >= 0 else 0


def induced_rank(source: Complex, degree: int, f, target: Complex, target_degree: int) -> int:
    """Rank of the map that f, a chain map up to sign, induces from
    H^degree(source) to H^target_degree(target)."""
    basis = target[target_degree].basis
    images = [coordinates(f(z), basis) for z in source[degree].cocycles()]
    boundaries = target[target_degree - 1].images() if target_degree > 0 else []
    return linalg.rank(boundaries + images) - target.rank(target_degree - 1)


class BettiTable:
    def __init__(self, lo: int, hi: int, dims: Dict[int, int]):
        self.lo = lo
        self.hi = hi
        self.dims = dict(dims)

    def __getitem__(self, degree: int) -> int:
        return self.dims[degree]

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.dims == other.dims

    def as_pairs(self):
        return sorted(self.dims.items())

    def __repr__(self):
        inner = ", ".join(f"{k}: {v}" for k, v in self.as_pairs())
        return f"BettiTable({inner})"


def betti(space, lo: int, hi: int) -> BettiTable:
    """Exact cohomology dimensions of a space, or its complex, for lo <= degree <= hi."""
    if lo < 0 or hi < lo:
        raise CohomologyError("need hi >= lo >= 0")
    cx = space if isinstance(space, Complex) else Complex(space)
    return BettiTable(
        lo, hi, {k: cx[k].dimension - cx.rank(k) - cx.rank(k - 1) for k in range(lo, hi + 1)}
    )


def _parity_basis(model: Model, parity: int, cap: int):
    out = []
    for degree in range(parity, cap + 1, 2):
        out.extend((degree, m) for m in model.basis(degree))
    return out


def _twisted_matrix(model: Model, h: Element, source, target, cap: int):
    """Matrix of d + h on parity slices, discarding components above cap."""
    index = {m: i for i, (_, m) in enumerate(target)}
    rows = [[linalg.ZERO] * len(source) for _ in target]
    for j, (_, m) in enumerate(source):
        image = model.d(model.monomial_element(m)) + h * model.monomial_element(m)
        for mm, c in image.terms.items():
            if mm.degree(model) <= cap:
                rows[index[mm]][j] = c
    return rows


def _twisted_dims_at(model: Model, h: Element, cap: int) -> Tuple[int, int]:
    wide = cap + 4
    out = []
    for parity in (0, 1):
        src_wide = _parity_basis(model, parity, wide)
        tgt_wide = _parity_basis(model, 1 - parity, wide)
        mat_wide = _twisted_matrix(model, h, src_wide, tgt_wide, wide)
        cocycles = linalg.kernel_basis(mat_wide, len(src_wide))
        # project the wide cocycles down to the cap window
        keep = [i for i, (deg, _) in enumerate(src_wide) if deg <= cap]
        projected = [[v[i] for i in keep] for v in cocycles]
        src_cap = _parity_basis(model, 1 - parity, cap)
        tgt_cap = _parity_basis(model, parity, cap)
        boundary = _twisted_matrix(model, h, src_cap, tgt_cap, cap)
        boundary_cols = [
            [boundary[i][j] for i in range(len(tgt_cap))] for j in range(len(src_cap))
        ]
        b_rank = linalg.rank(boundary_cols)
        joint = linalg.rank(projected + boundary_cols)
        out.append(joint - b_rank)
    return out[0], out[1]


def twisted_betti(model: Model, h: Element, cap: Optional[int] = None) -> Tuple[int, int]:
    """Dimensions of the even/odd cohomology of (forms, d + h) for a closed h.

    Computed on the parity-collapsed complex capped in degree; classes must
    lift past the cap to count, and caps `cap` and `cap+1` must agree.
    """
    if h.model is not model:
        raise CohomologyError("twist must live in the given model")
    if not h.is_zero() and h.degree() != 3:
        raise CohomologyError("twist must be homogeneous of degree 3")
    if not model.d(h).is_zero():
        raise CohomologyError("twist form is not closed")
    if cap is None:
        cap = degree_cap(model)
    first = _twisted_dims_at(model, h, cap)
    second = _twisted_dims_at(model, h, cap + 1)
    if first != second:
        raise CohomologyError(
            f"twisted dimensions did not stabilize at cap {cap}: {first} vs {second}"
        )
    return first


def rescale_to_twisted(bundle: DgBundle, el: Element) -> Element:
    """Send w * t^k to k! * w; intertwines d + H dt with d + H wedge for k >= 1."""
    if bundle.shape != "line":
        raise CohomologyError("rescaling applies to single-fiber bundles")
    fiber = bundle.fiber_names[0]
    if _total(bundle).generator_named(fiber).is_odd:
        raise CohomologyError("rescaling needs an even fiber")
    out = bundle.base.zero()
    fact = [Fraction(1)]
    for k, coeff in bundle.fiber_coefficients(el, fiber).items():
        while len(fact) <= k:
            fact.append(fact[-1] * len(fact))
        out = out + bundle.restrict_to_base(coeff) * fact[k]
    return out


def twist_operator(model: Model, h: Element):
    """The parity differential d + h wedge acting on base elements."""

    def op(el: Element) -> Element:
        return model.d(el) + h * el

    return op


def periodicity_check(space, j: int, l: int) -> bool:
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
    """
    if hi is None:
        hi = max(degree_cap(base), degree_cap(total))
    adjoined = DgBundle.line(base, f, "q", 1)
    lhs = betti(adjoined, 0, hi)
    rhs = betti(total, 0, hi)
    pairs = [(k, lhs[k], rhs[k]) for k in range(hi + 1)]
    return lhs == rhs, pairs


def validate_formal_dimension(model: Model, window: int = 4) -> None:
    """Audit that base cohomology vanishes just above the declared dimension."""
    fd = model.formal_dimension
    table = betti(model, fd + 1, fd + window)
    for k, dim in table.as_pairs():
        if dim:
            raise GradedError(
                f"declared formal dimension {fd} but cohomology is nonzero in degree {k}"
            )
