"""T-dual pairs of two-step bundles and the degree -1 comparison map.

The paper builds the comparison map as pullback to the correspondence, the
gauge exponential of qbar*q d/dt, and pushforward along q.  On normalized
monomials (base generators first, then the fiber, then t) that composite is

    w t^j        ->  j w qbar t^{j-1}
    w q t^l      ->  w t^l                   (w a base form)

with sign +1 in the stored order: the fibre integral T = int e^{A ^ Ahat} of
Bouwknegt-Evslin-Mathai in closed form.  `tmap` applies this rule to exponent
tuples, and `section` inverts it term by term to produce sections and the
snake connecting map of the short exact sequence
0 -> base forms -> C(P) -> C(Pbar)[1] -> 0.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from . import linalg
from .cohomology import _total, betti, degree_cap, induced_rank, operator_matrix
from .derivations import Derivation, DgBundle
from .graded import Element, _collect


class TDualityError(Exception):
    pass


def pushforward(bundle: DgBundle, el: Element) -> Element:
    """Integration along an odd line fiber: w q -> w, fiberless terms -> 0."""
    if bundle.shape != "line":
        raise TDualityError("pushforward expects a single-fiber bundle")
    fiber = bundle.fiber_names[0]
    if not bundle.total.generator_named(fiber).is_odd:
        raise TDualityError("pushforward integrates an odd fiber")
    coeffs = bundle.fiber_coefficients(el, fiber)
    linear = coeffs.get(1)
    if linear is None:
        return bundle.base.zero()
    return bundle.restrict_to_base(linear)


class TDualPair:
    """A two-step bundle, its dual, and the correspondence joining them."""

    def __init__(self, p: DgBundle):
        if p.shape != "two_step":
            raise TDualityError("dualization expects the two-step bundle shape")
        base = p.base
        f, fbar, h = p.structural["F"], p.structural["Fbar"], p.structural["H"]
        self.base = base
        self.p = p
        dual_fiber = "qbar" if p.q_name != "qbar" else "q"
        self.pbar = DgBundle.two_step(base, fbar, f, h, q=dual_fiber, t=p.t_name, name="dual")
        self.dual_fiber = dual_fiber
        self._fiber = self._check_layout()
        self.correspondence = DgBundle.correspondence(
            base, f, fbar, h, q=p.q_name, qbar=dual_fiber, t=p.t_name
        )
        self._gauge = Derivation(
            self.correspondence.total,
            0,
            {
                self.correspondence.t_name: self.correspondence.total.gen(dual_fiber)
                * self.correspondence.total.gen(p.q_name)
            },
        )
        self._check_gauge_equivalence()

    def _check_gauge_equivalence(self):
        """The two pullback fields on the correspondence differ by the gauge move."""
        from .derivations import gauge_transform

        corr = self.correspondence
        moved = gauge_transform(corr.q, self._gauge)
        twist = corr.structural_total("H") + corr.total.gen(self.dual_fiber) * corr.structural_total(
            "F"
        )
        if moved.value(corr.t_name) != twist:
            raise TDualityError("correspondence twists are not gauge equivalent")

    def _check_layout(self) -> int:
        """The index nb of the fiber; P and Pbar share one exponent layout.

        Both totals list the base generators in base order, then the fiber
        (q upstairs, qbar downstairs) at index nb and t at nb + 1, so the
        closed-form map can move exponent tuples between them unchanged.
        """
        base = [(g.name, g.degree) for g in self.base.generators]
        nb = len(base)
        for bundle, fiber in ((self.p, self.p.q_name), (self.pbar, self.dual_fiber)):
            layout = [(g.name, g.degree) for g in bundle.total.generators]
            if layout != base + [(fiber, 1), (self.p.t_name, 2)]:
                raise TDualityError(
                    f"{bundle.name}: expected the base generators, then {fiber} : 1, "
                    f"then {self.p.t_name} : 2"
                )
        return nb

    # -- the comparison map -------------------------------------------------

    def tmap(self, el: Element) -> Element:
        """The comparison map C(P) -> C(Pbar), degree -1, in closed form.

        w q t^l -> w t^l and w t^j -> j w qbar t^{j-1} on exponent tuples; base
        forms die.  The rule is injective on monomials, so no terms merge.
        `tests/oracles.literal_tmap` pins it against the gauge-exponential path.
        """
        if el.model is not self.p.total:
            raise TDualityError("expected an element of the bundle P")
        i = self._fiber
        out = {}
        for exps, c in el.terms.items():
            if exps[i]:
                out[exps[:i] + (0,) + exps[i + 1 :]] = c
            elif exps[i + 1]:
                j = exps[i + 1]
                out[exps[:i] + (1, j - 1)] = c * j
        return _collect(self.pbar.total, out)

    def section(self, el: Element) -> Element:
        """The preferred preimage of el under the comparison map.

        w qbar t^i -> w t^{i+1} / (i+1) and w t^l -> w q t^l, the inverse of
        `tmap` term by term; the image is checked to map back onto el.
        """
        if el.model is not self.pbar.total:
            raise TDualityError("expected an element of the dual bundle")
        i = self._fiber
        out = {}
        for exps, c in el.terms.items():
            if exps[i]:
                power = exps[i + 1] + 1
                out[exps[:i] + (0, power)] = c / power
            else:
                out[exps[:i] + (1,) + exps[i + 1 :]] = c
        lifted = _collect(self.p.total, out)
        if self.tmap(lifted) != el:
            raise TDualityError("section failed to invert the comparison map")
        return lifted

    def connecting(self, cocycle: Element) -> Element:
        """Snake connecting map: lift along the section and apply the upstairs field.

        Input must be a cocycle of the dual bundle; output is a closed base form.
        """
        if cocycle.model is not self.pbar.total:
            raise TDualityError("expected an element of the dual bundle")
        if not self.pbar.q(cocycle).is_zero():
            raise TDualityError("connecting map is only defined on cocycles")
        lifted = self.section(cocycle)
        out = self.p.q(lifted)
        if not self.p.is_base_valued(out):
            raise TDualityError("connecting value left the base forms")
        return self.p.restrict_to_base(out)


def dualize(p: DgBundle) -> TDualPair:
    return TDualPair(p)


class ChainMap:
    """Degree-homogeneous linear map between complexes with a pinned global sign."""

    def __init__(self, source, target, degree: int, action: Callable):
        self.source = source
        self.target = target
        self.degree = degree
        self.action = action
        self._source_model = _total(source)
        self._source_q, self._target_q = self._source_model.d, _total(target).d

    def verify(self, cap: int) -> int:
        """Find the global sign with action(Q x) = sign * Q(action x) on all monomials."""
        if cap < 0:
            raise TDualityError(f"degree cap {cap} checks no monomial")
        candidates = {1, -1}
        for k in range(cap + 1):
            for m in self._source_model.basis(k):
                x = self._source_model.monomial_element(m)
                lhs = self.action(self._source_q(x))
                rhs = self._target_q(self.action(x))
                for sign in list(candidates):
                    if lhs != sign * rhs:
                        candidates.discard(sign)
                if not candidates:
                    raise TDualityError(f"not a chain map up to sign (degree {k})")
        return 1 if 1 in candidates else -1


def tduality_chain_map(pair: TDualPair) -> ChainMap:
    return ChainMap(pair.p, pair.pbar, -1, pair.tmap)


class SesRow:
    __slots__ = ("degree", "dim_p", "dim_kernel", "dim_base", "rank_t", "dim_target", "ok")

    def __init__(self, degree, dim_p, dim_kernel, dim_base, rank_t, dim_target):
        self.degree = degree
        self.dim_p = dim_p
        self.dim_kernel = dim_kernel
        self.dim_base = dim_base
        self.rank_t = rank_t
        self.dim_target = dim_target
        self.ok = dim_kernel == dim_base and rank_t == dim_target


def tmap_matrix(pair: TDualPair, degree: int):
    source = pair.p.total.basis(degree)
    target = pair.pbar.total.basis(degree - 1)
    return operator_matrix(pair.p, pair.tmap, source, target), source, target


def ses_verify(pair: TDualPair, cap: Optional[int] = None) -> Tuple[bool, List[SesRow]]:
    """Exactness of 0 -> base -> C(P) -T-> C(Pbar)[1] -> 0, degree by degree.

    Checks that ker T is exactly the span of base forms and that T is onto,
    and that the inclusion of base forms is a chain map.
    """
    if cap is None:
        cap = degree_cap(pair.p)
    if cap < 0:
        raise TDualityError(f"degree cap {cap} checks no degree")
    rows = []
    ok = True
    for k in range(cap + 1):
        mat, source, target = tmap_matrix(pair, k)
        r = linalg.rank(mat)
        dim_kernel = len(source) - r
        base_monos = pair.base.basis(k)
        # base forms must actually map to zero and include as a chain map
        for m in base_monos:
            el = pair.p.include_base(pair.base.monomial_element(m))
            if not pair.tmap(el).is_zero():
                ok = False
            upstairs = pair.p.q(el)
            downstairs = pair.p.include_base(pair.base.d(pair.base.monomial_element(m)))
            if upstairs != downstairs:
                ok = False
        row = SesRow(k, len(source), dim_kernel, len(base_monos), r, len(target))
        rows.append(row)
        ok = ok and row.ok
    return ok, rows


def les_node_ranks(pair: TDualPair, degree: int):
    """Induced ranks (i_*, T_*, beta_*) entering and leaving cohomology degree k.

    i_*: H^k(base) -> H^k(P);  T_*: H^k(P) -> H^{k-1}(Pbar);
    beta_*: H^{k-1}(Pbar) -> H^{k+1}(base).
    """
    k = degree
    rank_i = induced_rank(pair.base, k, pair.p.include_base, pair.p, k)
    if k < 1:
        return rank_i, 0, 0
    rank_t = induced_rank(pair.p, k, pair.tmap, pair.pbar, k - 1)
    rank_beta = induced_rank(pair.pbar, k - 1, pair.connecting, pair.base, k + 1)
    return rank_i, rank_t, rank_beta


def les_check(pair: TDualPair, lo: int, hi: int) -> Tuple[bool, List[Tuple]]:
    """Exactness bookkeeping for the long exact sequence on a degree window."""
    if not 0 <= lo <= hi:
        raise TDualityError(f"degree window {lo}..{hi} needs 0 <= lo <= hi")
    hp, hpb, hm = (
        betti(space, max(lo - 1, 0), hi + 1) for space in (pair.p, pair.pbar, pair.base)
    )
    node_ranks = {k: les_node_ranks(pair, k) for k in range(lo, hi + 2)}
    rows = []
    ok = True
    for k in range(lo, hi + 1):
        rank_i_k, rank_t_k, rank_beta_k = node_ranks[k]
        # node H^k(P): image of i_* is the kernel of T_*
        cond_p = rank_i_k + rank_t_k == hp[k]
        # node H^{k-1}(Pbar): image of T_* is the kernel of beta_*
        cond_pb = k - 1 < max(lo - 1, 0) or rank_t_k + rank_beta_k == hpb[k - 1]
        # node H^{k+1}(base): image of beta_* is the kernel of i_* one degree up
        rank_i_up = node_ranks[k + 1][0]
        cond_m = k + 1 > hi + 1 or rank_beta_k + rank_i_up == hm[k + 1]
        rows.append((k, rank_i_k, rank_t_k, rank_beta_k, cond_p and cond_pb and cond_m))
        ok = ok and cond_p and cond_pb and cond_m
    return ok, rows


def tduality_iso_check(pair: TDualPair, k: Optional[int] = None):
    """T induces an isomorphism H^{k+1}(P) = H^k(Pbar) for k at or past the base dimension."""
    if k is None:
        k = pair.base.formal_dimension
    if k < pair.base.formal_dimension:
        raise TDualityError("isomorphism range starts at the formal dimension")
    dim_source = betti(pair.p, k + 1, k + 1)[k + 1]
    dim_target = betti(pair.pbar, k, k)[k]
    rank_ind = induced_rank(pair.p, k + 1, pair.tmap, pair.pbar, k)
    ok = dim_source == dim_target == rank_ind
    return ok, {"dim_source": dim_source, "dim_target": dim_target, "induced_rank": rank_ind}
