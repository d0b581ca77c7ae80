"""T-dual pairs of two-step bundles and the degree -1 comparison map.

The paper builds the comparison map as pullback to the correspondence, the
gauge exponential of qbar*q d/dt, and pushforward along q.  On normalized
monomials (base generators first, then the fiber, then t) that composite is

    w t^j        ->  j w qbar t^{j-1}
    w q t^l      ->  w t^l                   (w a base form)

with sign +1 in the stored order: the fibre integral T = int e^{A ^ Ahat} of
Bouwknegt-Evslin-Mathai in closed form.  `TDualPair.rule` is that rule on one
packed monomial; `tmap`, the chain-map check and the exactness count of
`ses_verify` all read it, and `section` inverts it term by term to produce
sections and the snake connecting map of the short exact sequence
0 -> base forms -> C(P) -> C(Pbar)[1] -> 0.  T never reads the correspondence:
`correspondence` builds it, with its gauge field, for `gauge_equivalent` alone.
The rule is base-linear, so `TDualPair.signs` reads T's chain-map sign off the
fiber monomials; `ChainMap.signs` stays the generic check over every monomial.
"""

from __future__ import annotations

from itertools import chain, count, repeat
from math import lcm
from typing import Callable, Iterator, List, Optional, Set, Tuple

from .cohomology import _total, betti, degree_cap, induced_rank
from .derivations import Derivation, DgBundle, gauge_transform
from .graded import DgcalcError, Element, _check_fields, leibniz


class TDualityError(DgcalcError):
    pass


class TDualPair:
    """A two-step bundle P, its dual Pbar over the same base, and T's monomial
    rule.  The correspondence joining them is built on demand by
    `correspondence`; nothing T computes reads it."""

    def __init__(self, p: DgBundle):
        if p.shape != "two_step":
            raise TDualityError("dualization expects the two-step bundle shape")
        base = p.base
        f, fbar, h = p.structural["F"], p.structural["Fbar"], p.structural["H"]
        self.base = base
        self.p = p
        # the first free name, so a base generator called qbar cannot clash
        names = chain(("qbar", "q"), (f"qbar{i}" for i in count(1)))
        dual_fiber = next(name for name in names if name not in p.total.index)
        self.pbar = DgBundle.two_step(base, fbar, f, h, q=dual_fiber, t=p.t_name, name="dual")
        self.dual_fiber = dual_fiber
        # both totals list the base generators, then the fiber (q upstairs, qbar
        # downstairs), then t, last, so the closed-form map moves fields as they are
        self._fiber = len(base.generators)
        self._unit, self._t_shift = p.total.units[self._fiber], p.total.shifts[self._fiber + 1]

    # -- the comparison map -------------------------------------------------

    def rule(self, m: int) -> Optional[Tuple[int, int]]:
        """T on one monomial of P: w q t^l -> w t^l, w t^j -> j w qbar t^{j-1},
        and None for a base form.  Injective on monomials, so no terms merge.
        `tests/oracles.literal_tmap` pins it against the gauge-exponential path.
        """
        unit = self._unit
        if m & unit:
            return m - unit, 1
        j = m >> self._t_shift
        if j:
            return m + unit - (1 << self._t_shift), j
        return None

    def signs(self, cap: int) -> Set[int]:
        """The signs s with T Q x = s * Qbar T x on every monomial x of degree
        0..cap, as `ChainMap.signs` finds them, read off the fiber monomials.

        A monomial of P is w f, w a base monomial stored first and f = q^a t^l.
        `rule` is base-linear, T(w f) = w T(f) with a coefficient read off f
        alone, and Q and Qbar both restrict to d_B on base forms, so

            T Q(w f) - s Qbar T(w f) = (1 - s) d_B(w) T(f) + (-1)^{|w|} w (T Q f - s Qbar T f).

        So +1 holds exactly when it holds on the fiber monomials through the
        cap.  -1 also needs d_B(w) T(f) = 0 whenever |w f| <= cap; Pbar is free
        over the base, so that fails first at |g| + |f| for g the lowest base
        generator with d g != 0 and f the lowest fiber monomial with T f != 0.
        The identity, and with it this check, holds only for a base-linear rule.
        """
        if cap < 0:
            raise TDualityError(f"degree cap {cap} checks no monomial")
        chain = tduality_chain_map(self)
        lowest = min((self.base.degrees[j] for j in self.base.d_table.numerators()), default=cap + 1)
        first = {1: cap + 1, -1: cap + 1}  # the first degree at which each sign fails
        for k in range(cap + 1):
            for image, failed in chain.failures(self.p.total._suffix(self._fiber, k)):
                for s in failed:
                    first[s] = min(first[s], k)
                if image:
                    first[-1] = min(first[-1], k + lowest)
            worst = max(first.values())
            if worst <= k:
                raise TDualityError(f"not a chain map up to sign (degree {worst})")
        return {s for s, degree in first.items() if degree > cap}

    def include_rule(self, m: int) -> Tuple[int, int]:
        """The inclusion of base forms on one monomial: a base monomial is the
        total model's monomial with no q and no t."""
        return m, 1

    def include_signs(self, cap: int) -> Set[int]:
        """The signs s with i Q x = s * Q i x on every base monomial x of degree
        0..cap, read off the base generators of degree <= cap: the set
        `ChainMap.signs` returns, empty where it raises.  The inclusion i is an
        algebra map, so a sign that holds on two monomials holds on their product."""
        base = self.base
        gens = [u for u, g in zip(base.units, base.generators) if g.degree <= cap]
        failures = ChainMap(base, self.p, 0, self.include_rule).failures(gens)
        return {1, -1}.difference(*(failed for _, failed in failures))

    def tmap(self, el: Element) -> Element:
        """The comparison map C(P) -> C(Pbar), degree -1: `rule` term by term."""
        if el.model is not self.p.total:
            raise TDualityError("expected an element of the bundle P")
        out = {}
        for exps, n in el.nums.items():
            image = self.rule(exps)
            if image:
                out[image[0]] = n * image[1]
        return Element._of(self.pbar.total, out, el.den)

    def section(self, el: Element) -> Element:
        """The preferred preimage of el under the comparison map.

        w qbar t^i -> w t^{i+1} / (i+1) and w t^l -> w q t^l, the inverse of
        `rule` term by term; the image is checked to map back onto el.
        """
        if el.model is not self.pbar.total:
            raise TDualityError("expected an element of the dual bundle")
        unit, shift = self._unit, self._t_shift
        scale = lcm(*[(m >> shift) + 1 for m in el.nums if m & unit])
        out = {}
        for m, n in el.nums.items():
            if m & unit:
                power = (m >> shift) + 1
                out[m - unit + (1 << shift)] = n * (scale // power)
            else:
                out[m + unit] = n * scale
        _check_fields(self.p.total, out)
        lifted = Element._of(self.p.total, out, el.den * scale)
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


def correspondence(pair: TDualPair) -> Tuple[DgBundle, Derivation]:
    """The correspondence over P and Pbar, with fibers q, qbar and t, and its
    gauge field V = qbar q d/dt."""
    p = pair.p
    corr = DgBundle(pair.base, "correspondence", p.structural, (p.q_name, pair.dual_fiber, p.t_name))
    total = corr.total
    return corr, Derivation(total, 0, {p.t_name: total.gen(pair.dual_fiber) * total.gen(p.q_name)})


def gauge_equivalent(pair: TDualPair) -> bool:
    """The two pullback fields on the correspondence differ by the gauge move:
    e^{ad V} Q sends t to H + qbar F, the dual twist."""
    corr, v = correspondence(pair)
    moved = gauge_transform(corr.q, v)
    twist = corr.structural_total("H") + corr.total.gen(pair.dual_fiber) * corr.structural_total("F")
    return moved.value(corr.t_name) == twist


class ChainMap:
    """Degree-homogeneous linear map between complexes with a pinned global sign.

    `rule` sends a monomial of the source to None (zero) or to one
    (monomial of the target, int coefficient): T, the base inclusion and
    the pushforward along an odd line all act on monomials this way.
    """

    def __init__(self, source, target, degree: int, rule: Callable):
        self.source = source
        self.target = target
        self.degree = degree
        self.rule = rule

    def failures(self, monomials) -> Iterator[Tuple[Optional[tuple], Set[int]]]:
        """Per monomial x: rule(x), and the signs s with
        rule(Q x) != s * Q(rule x).

        Q of every monomial in one Leibniz pass of the source table, Q of every
        image in one pass of the target table, and the left side mapped term by
        term through the rule.  The two sides are compared cross-multiplied by
        the tables' denominators.
        """
        source, target = _total(self.source), _total(self.target)
        # left sides are over the source table's denominator, right sides over the target's
        a, b = target.d_table.den, source.d_table.den
        rule = self.rule
        dq = [{} for _ in monomials]
        leibniz(source, source.d_table, zip(monomials, repeat(1)), dq)
        images = list(map(rule, monomials))
        rhs = [{} for _ in monomials]
        live = [(image, out) for image, out in zip(images, rhs) if image]
        leibniz(target, target.d_table, [image for image, _ in live], [out for _, out in live])
        for image, out, right in zip(images, dq, rhs):
            left: dict = {}
            for m, n in out.items():
                moved = rule(m) if n else None
                if moved:
                    e, c = moved
                    left[e] = left.get(e, 0) + n * c
            left = {e: v * a for e, v in left.items() if v}
            yield image, {s for s in (1, -1) if left != {e: s * v * b for e, v in right.items() if v}}

    def signs(self, cap: int) -> Set[int]:
        """The signs s with rule(Q x) = s * Q(rule x) on every monomial x of
        degree 0..cap, checked one degree at a time by `failures`; both survive
        when both sides vanish throughout.  Raises at the first degree where no
        sign holds.
        """
        if cap < 0:
            raise TDualityError(f"degree cap {cap} checks no monomial")
        candidates = {1, -1}
        for k in range(cap + 1):
            for _, failed in self.failures(_total(self.source).basis(k)):
                candidates -= failed
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


def ses_verify(pair: TDualPair, cap: Optional[int] = None) -> Tuple[bool, List[SesRow]]:
    """Exactness of 0 -> base -> C(P) -T-> C(Pbar)[1] -> 0, degree by degree.

    Checks that ker T is exactly the span of base forms and that T is onto,
    and that the inclusion of base forms is a chain map with sign +1.  Each
    column of T holds at most one entry, so its rank is the number of
    distinct monomials the rule hits.
    """
    if cap is None:
        cap = degree_cap(pair.p)
    if cap < 0:
        raise TDualityError(f"degree cap {cap} checks no degree")
    rows = []
    # on a base with d = 0 both sides vanish and either sign survives
    ok = 1 in pair.include_signs(cap)
    for k in range(cap + 1):
        source, target = pair.p.total.basis(k), pair.pbar.total.basis(k - 1)
        images = list(map(pair.rule, source))
        rank_t = len({image[0] for image in images if image})
        # base forms are the source monomials below the fiber's unit, and must map to zero
        if any(image for m, image in zip(source, images) if m < pair._unit):
            ok = False
        dim_base = len(pair.base.basis(k))
        row = SesRow(k, len(source), len(source) - rank_t, dim_base, rank_t, len(target))
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
    # each space's Betti numbers on the degrees its nodes sit in, and no others
    hp = betti(pair.p, lo, hi)
    hpb = betti(pair.pbar, max(lo - 1, 0), hi - 1) if hi else {}
    hm = betti(pair.base, lo + 1, hi + 1)
    node_ranks = {k: les_node_ranks(pair, k) for k in range(lo, hi + 1)}
    # past the window only i_* is read, by the base node H^{hi+1}
    top = hi + 1
    rank_i_top = induced_rank(pair.base, top, pair.p.include_base, pair.p, top)
    rows = []
    ok = True
    for k in range(lo, hi + 1):
        rank_i_k, rank_t_k, rank_beta_k = node_ranks[k]
        # node H^k(P): image of i_* is the kernel of T_*
        cond_p = rank_i_k + rank_t_k == hp[k]
        # node H^{k-1}(Pbar): image of T_* is the kernel of beta_*
        cond_pb = k - 1 < max(lo - 1, 0) or rank_t_k + rank_beta_k == hpb[k - 1]
        # node H^{k+1}(base): image of beta_* is the kernel of i_* one degree up
        rank_i_up = node_ranks[k + 1][0] if k < hi else rank_i_top
        cond_m = rank_beta_k + rank_i_up == hm[k + 1]
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
