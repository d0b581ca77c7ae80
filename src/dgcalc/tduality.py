"""T-dual pairs of two-step bundles and the degree -1 comparison map.

The paper builds the comparison map as pullback to the correspondence, the
gauge exponential of qbar*q d/dt, and pushforward along q.  On normalized
monomials (base generators first, then the fiber, then t) that composite is

    w t^j        ->  j w qbar t^{j-1}
    w q t^l      ->  w t^l                   (w a base form)

with sign +1 in the stored order: the fibre integral T = int e^{A ^ Ahat} of
Bouwknegt-Evslin-Mathai in closed form.  `TDualPair.rule` is that rule on one
exponent tuple; `tmap`, `tmap_matrix` and the chain-map check all read it, and
`section` inverts it term by term to produce sections and the snake
connecting map of the short exact sequence
0 -> base forms -> C(P) -> C(Pbar)[1] -> 0.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, List, Optional, Set, Tuple

from . import linalg
from .cohomology import _total, betti, degree_cap, induced_rank
from .derivations import Derivation, DgBundle
from .graded import Element, _collect, leibniz


class TDualityError(Exception):
    pass


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
        # both totals list the base generators, then the fiber (q upstairs, qbar
        # downstairs), then t, so the closed-form map moves exponent tuples as is
        self._fiber = len(base.generators)
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

    # -- the comparison map -------------------------------------------------

    def rule(self, m: tuple) -> Optional[Tuple[tuple, int]]:
        """T on one monomial of P: w q t^l -> w t^l, w t^j -> j w qbar t^{j-1},
        and None for a base form.  Injective on monomials, so no terms merge.
        `tests/oracles.literal_tmap` pins it against the gauge-exponential path.
        """
        i = self._fiber
        if m[i]:
            return m[:i] + (0,) + m[i + 1 :], 1
        j = m[i + 1]
        if j:
            return m[:i] + (1, j - 1), j
        return None

    def include_rule(self, m: tuple) -> Tuple[tuple, int]:
        """The inclusion of base forms on one monomial: no q and no t."""
        return m + (0, 0), 1

    def tmap(self, el: Element) -> Element:
        """The comparison map C(P) -> C(Pbar), degree -1: `rule` term by term."""
        if el.model is not self.p.total:
            raise TDualityError("expected an element of the bundle P")
        out = {}
        for exps, c in el.terms.items():
            image = self.rule(exps)
            if image:
                out[image[0]] = c * image[1]
        return Element._trusted(self.pbar.total, out)

    def section(self, el: Element) -> Element:
        """The preferred preimage of el under the comparison map.

        w qbar t^i -> w t^{i+1} / (i+1) and w t^l -> w q t^l, the inverse of
        `rule` term by term; the image is checked to map back onto el.
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
    """Degree-homogeneous linear map between complexes with a pinned global sign.

    `rule` sends an exponent tuple of the source to None (zero) or to one
    (exponent tuple of the target, int coefficient): T, the base inclusion and
    the pushforward along an odd line all act on monomials this way.
    """

    def __init__(self, source, target, degree: int, rule: Callable):
        self.source = source
        self.target = target
        self.degree = degree
        self.rule = rule

    def signs(self, cap: int) -> Set[int]:
        """The signs s with rule(Q x) = s * Q(rule x) on every monomial x of
        degree 0..cap; both survive when both sides vanish throughout.

        Per degree k: Q of every basis monomial in one Leibniz pass of the
        source table, Q of every image in one pass of the target table, and
        the left side mapped term by term through the rule.  The two sides are
        compared cross-multiplied by the tables' denominators.  Raises at the
        first degree where no sign holds.
        """
        if cap < 0:
            raise TDualityError(f"degree cap {cap} checks no monomial")
        source, target = _total(self.source), _total(self.target)
        # left sides are over the source table's denominator, right sides over the target's
        a, b = target.d_table[2], source.d_table[2]
        rule = self.rule
        candidates = {1, -1}
        for k in range(cap + 1):
            basis = source.basis(k)
            dq = [{} for _ in basis]
            leibniz(source, source.d_table, zip(basis, repeat(1)), dq)
            rhs = [{} for _ in basis]
            live = [(image, out) for image, out in zip(map(rule, basis), rhs) if image]
            leibniz(target, target.d_table, [image for image, _ in live], [out for _, out in live])
            for out, right in zip(dq, rhs):
                left: dict = {}
                for m, n in out.items():
                    image = rule(m) if n else None
                    if image:
                        e, c = image
                        left[e] = left.get(e, 0) + n * c
                left = {e: v * a for e, v in left.items() if v}
                right = {e: v * b for e, v in right.items() if v}
                if 1 in candidates and left != right:
                    candidates.discard(1)
                if -1 in candidates and left != {e: -v for e, v in right.items()}:
                    candidates.discard(-1)
                if not candidates:
                    raise TDualityError(f"not a chain map up to sign (degree {k})")
        return candidates

    def verify(self, cap: int) -> int:
        """The global sign with rule(Q x) = sign * Q(rule x) on all monomials
        through the cap; +1 when both sides vanish throughout."""
        return 1 if 1 in self.signs(cap) else -1


def tduality_chain_map(pair: TDualPair) -> ChainMap:
    return ChainMap(pair.p, pair.pbar, -1, pair.rule)


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
    """T from degree k of P to degree k - 1 of Pbar: one column per source
    monomial, {row: int} with at most one entry."""
    source = pair.p.total.basis(degree)
    target = pair.pbar.total.basis(degree - 1)
    index = {m: i for i, m in enumerate(target)}
    images = map(pair.rule, source)
    columns = [{index[image[0]]: image[1]} if image else {} for image in images]
    return columns, source, target


def ses_verify(pair: TDualPair, cap: Optional[int] = None) -> Tuple[bool, List[SesRow]]:
    """Exactness of 0 -> base -> C(P) -T-> C(Pbar)[1] -> 0, degree by degree.

    Checks that ker T is exactly the span of base forms and that T is onto,
    and that the inclusion of base forms is a chain map with sign +1.
    """
    if cap is None:
        cap = degree_cap(pair.p)
    if cap < 0:
        raise TDualityError(f"degree cap {cap} checks no degree")
    rows = []
    # on a base with d = 0 both sides vanish and either sign survives
    ok = 1 in ChainMap(pair.base, pair.p, 0, pair.include_rule).signs(cap)
    fiber = pair._fiber
    for k in range(cap + 1):
        mat, source, target = tmap_matrix(pair, k)
        r = linalg.rank(mat)
        dim_kernel = len(source) - r
        # base forms are the source monomials with no fiber, and must map to zero
        if any(column for m, column in zip(source, mat) if not any(m[fiber:])):
            ok = False
        row = SesRow(k, len(source), dim_kernel, len(pair.base.basis(k)), r, len(target))
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
