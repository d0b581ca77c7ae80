"""Symmetries of shifted-line bundles and their derived bracket calculus.

A structured symmetry stores base-level data (a contraction-type derivation
for the vector part plus differential forms for the fiber parts) together
with the derivation it induces on the bundle.  Vector fields enter through
user-chosen degree -1 base derivations; the Lie derivative is [d, iota] and
the vector-field bracket is [[d, iota_X], iota_Y], so every displayed
formula is computable inside a CDGA model.

Derived brackets are always computed from the defining double commutator
(-1)^{||a||} [[Q, a], b]; the displayed structured formulas live next to the
operations and the two routes are compared whenever a display exists.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Tuple

from . import linalg
from .cohomology import coordinates
from .derivations import Derivation, DgBundle, commutator, model_differential
from .graded import Element, Model


class SymmetryError(Exception):
    pass


# -- base-level vector calculus ---------------------------------------------


def lie_derivative(model: Model, iota: Derivation) -> Derivation:
    """[d, iota] on the base model."""
    if iota.degree != -1:
        raise SymmetryError("contractions have degree -1")
    return commutator(model_differential(model), iota)


def vector_bracket(model: Model, iota_x: Derivation, iota_y: Derivation) -> Derivation:
    """iota of the bracket field: [[d, iota_X], iota_Y]."""
    return commutator(lie_derivative(model, iota_x), iota_y)


def lift_to_total(bundle: DgBundle, d: Derivation) -> Derivation:
    """Extend a base derivation to the bundle with zero values on the fibers."""
    if d.model is not bundle.base:
        raise SymmetryError("expected a base derivation")
    return Derivation(
        bundle.total, d.degree, {k: bundle.include_base(v) for k, v in d.values.items()}
    )


def _as_base(bundle: DgBundle, value, degree: int) -> Element:
    """Coerce scalars to degree-0 elements and validate homogeneity."""
    if value is None:
        return bundle.base.zero()
    if not isinstance(value, Element):
        value = bundle.base.scalar(value)
    if value.model is not bundle.base:
        raise SymmetryError("form parts must live in the base model")
    if not value.is_zero() and value.degree() != degree:
        raise SymmetryError(f"part must be homogeneous of degree {degree}")
    return value


def _zero_iota(bundle: DgBundle) -> Derivation:
    return Derivation.zero(bundle.base, -1)


# -- structured elements ------------------------------------------------------


class SymElement:
    """A structured symmetry of a bundle together with its realized derivation.

    Degree-0 elements carry both the chosen contraction (parts['iota']) and
    the induced base action (parts['lie']); decomposing a raw derivation
    recovers only the latter.
    """

    def __init__(self, bundle: DgBundle, degree: int, parts: Dict, realized: Derivation):
        self.bundle = bundle
        self.degree = degree
        self.parts = parts
        self.realized = realized

    @property
    def shifted_degree(self) -> int:
        return self.degree + 1

    def part(self, key: str):
        return self.parts[key]

    def __eq__(self, other):
        return (
            isinstance(other, SymElement)
            and self.bundle is other.bundle
            and self.degree == other.degree
            and self.realized == other.realized
        )

    def __add__(self, other: "SymElement") -> "SymElement":
        if other.bundle is not self.bundle or other.degree != self.degree:
            raise SymmetryError("can only add symmetries of equal degree")
        return decompose(self.bundle, self.realized + other.realized)

    def __mul__(self, c) -> "SymElement":
        return decompose(self.bundle, self.realized * Fraction(c))

    __rmul__ = __mul__

    def __repr__(self):
        keys = ", ".join(sorted(k for k, v in self.parts.items() if _nonzero(v)))
        return f"SymElement(deg {self.degree}; parts: {keys or 'zero'})"


class DerivedElement:
    """A negative-degree symmetry viewed in the shifted complex."""

    __slots__ = ("underlying",)

    def __init__(self, underlying: SymElement):
        if underlying.degree > -1:
            raise SymmetryError("derived elements shift strictly negative degrees")
        self.underlying = underlying

    @property
    def shifted_degree(self) -> int:
        return self.underlying.degree + 1


def _nonzero(v) -> bool:
    if isinstance(v, (Derivation, Element)):
        return not v.is_zero()
    return bool(v)


def _underlying(a) -> SymElement:
    return a.underlying if isinstance(a, DerivedElement) else a


def symmetry(bundle: DgBundle, degree: int, **parts) -> SymElement:
    """Structured symmetry constructor; accepted parts depend on shape and degree.

    two_step: deg 0 (iota|lie, a, b, abar), -1 (iota, f, c, fbar), -2 (h)
    line (fiber degree n): deg 0 (iota|lie, b), -1 (iota, a), lower (eta)
    flux: deg 0 (iota|lie, a3, b6), -1 (iota, s2, s5), -2 (eta1, c4),
          -3 (f, d3), lower (h)
    """
    maker = _MAKERS.get(bundle.shape)
    if maker is None:
        raise SymmetryError(f"no structured symmetries for shape {bundle.shape}")
    return maker(bundle, degree, {k: v for k, v in parts.items() if v is not None})


def _take(parts: Dict, allowed):
    extra = set(parts) - set(allowed)
    if extra:
        raise SymmetryError(f"unexpected parts {sorted(extra)}; allowed {sorted(allowed)}")


def _base_action(bundle: DgBundle, parts: Dict) -> Tuple[Derivation, Derivation]:
    """(iota, lie): the chosen contraction and the induced degree-0 base action."""
    iota = parts.get("iota") or _zero_iota(bundle)
    lie = parts.get("lie")
    if lie is None:
        lie = lie_derivative(bundle.base, iota)
    elif lie.model is not bundle.base or lie.degree != 0:
        raise SymmetryError("the base action must be a degree-0 base derivation")
    return iota, lie


def _make_two_step(bundle: DgBundle, degree: int, parts: Dict) -> SymElement:
    q, t = bundle.q_name, bundle.t_name
    if degree == 0:
        _take(parts, {"iota", "lie", "a", "b", "abar"})
        iota, lie = _base_action(bundle, parts)
        a = _as_base(bundle, parts.get("a"), 1)
        b = _as_base(bundle, parts.get("b"), 2)
        abar = _as_base(bundle, parts.get("abar"), 1)
        realized = lift_to_total(bundle, lie) + Derivation(
            bundle.total,
            0,
            {
                q: bundle.include_base(a),
                t: bundle.include_base(b) + bundle.total.gen(q) * bundle.include_base(abar),
            },
        )
        return SymElement(
            bundle, 0, {"iota": iota, "lie": lie, "a": a, "b": b, "abar": abar}, realized
        )
    if degree == -1:
        _take(parts, {"iota", "f", "c", "fbar"})
        iota = parts.get("iota") or _zero_iota(bundle)
        f = _as_base(bundle, parts.get("f"), 0)
        c = _as_base(bundle, parts.get("c"), 1)
        fbar = _as_base(bundle, parts.get("fbar"), 0)
        realized = lift_to_total(bundle, iota) + Derivation(
            bundle.total,
            -1,
            {
                q: bundle.include_base(f),
                t: bundle.include_base(c) + bundle.total.gen(q) * bundle.include_base(fbar),
            },
        )
        return SymElement(bundle, -1, {"iota": iota, "f": f, "c": c, "fbar": fbar}, realized)
    if degree == -2:
        _take(parts, {"h"})
        h = _as_base(bundle, parts.get("h"), 0)
        realized = Derivation(bundle.total, -2, {t: bundle.include_base(h)})
        return SymElement(bundle, -2, {"h": h}, realized)
    if degree < -2:
        _take(parts, set())
        return SymElement(bundle, degree, {}, Derivation.zero(bundle.total, degree))
    raise SymmetryError(f"two-step symmetries live in degrees <= 0, got {degree}")


def _make_line(bundle: DgBundle, degree: int, parts: Dict) -> SymElement:
    t = bundle.fiber_names[0]
    n = bundle.total.generator_named(t).degree
    if degree == 0:
        _take(parts, {"iota", "lie", "b"})
        iota, lie = _base_action(bundle, parts)
        b = _as_base(bundle, parts.get("b"), n)
        realized = lift_to_total(bundle, lie) + Derivation(
            bundle.total, 0, {t: bundle.include_base(b)}
        )
        return SymElement(bundle, 0, {"iota": iota, "lie": lie, "b": b}, realized)
    if degree == -1:
        _take(parts, {"iota", "a"})
        iota = parts.get("iota") or _zero_iota(bundle)
        a = _as_base(bundle, parts.get("a"), n - 1)
        realized = lift_to_total(bundle, iota) + Derivation(
            bundle.total, -1, {t: bundle.include_base(a)}
        )
        return SymElement(bundle, -1, {"iota": iota, "a": a}, realized)
    if degree < -1:
        _take(parts, {"eta"})
        eta = _as_base(bundle, parts.get("eta"), n + degree)
        realized = Derivation(bundle.total, degree, {t: bundle.include_base(eta)})
        return SymElement(bundle, degree, {"eta": eta}, realized)
    raise SymmetryError(f"line symmetries live in degrees <= 0, got {degree}")


def _flux_fiber_value(bundle, primary: Element, coupled: Element, sign: int) -> Element:
    return bundle.include_base(primary) + bundle.total.gen(bundle.q_name) * bundle.include_base(
        coupled
    ) * Fraction(sign, 2)


def _make_flux(bundle: DgBundle, degree: int, parts: Dict) -> SymElement:
    q, t = bundle.q_name, bundle.t_name
    if degree == 0:
        _take(parts, {"iota", "lie", "a3", "b6"})
        iota, lie = _base_action(bundle, parts)
        a3 = _as_base(bundle, parts.get("a3"), 3)
        b6 = _as_base(bundle, parts.get("b6"), 6)
        realized = lift_to_total(bundle, lie) + Derivation(
            bundle.total,
            0,
            {q: bundle.include_base(a3), t: _flux_fiber_value(bundle, b6, a3, -1)},
        )
        return SymElement(bundle, 0, {"iota": iota, "lie": lie, "a3": a3, "b6": b6}, realized)
    if degree == -1:
        _take(parts, {"iota", "s2", "s5"})
        iota = parts.get("iota") or _zero_iota(bundle)
        s2 = _as_base(bundle, parts.get("s2"), 2)
        s5 = _as_base(bundle, parts.get("s5"), 5)
        realized = lift_to_total(bundle, iota) + Derivation(
            bundle.total,
            -1,
            {q: bundle.include_base(s2), t: _flux_fiber_value(bundle, s5, s2, 1)},
        )
        return SymElement(bundle, -1, {"iota": iota, "s2": s2, "s5": s5}, realized)
    if degree == -2:
        _take(parts, {"eta1", "c4"})
        eta1 = _as_base(bundle, parts.get("eta1"), 1)
        c4 = _as_base(bundle, parts.get("c4"), 4)
        realized = Derivation(
            bundle.total,
            -2,
            {q: bundle.include_base(eta1), t: _flux_fiber_value(bundle, c4, eta1, -1)},
        )
        return SymElement(bundle, -2, {"eta1": eta1, "c4": c4}, realized)
    if degree == -3:
        _take(parts, {"f", "d3"})
        f = _as_base(bundle, parts.get("f"), 0)
        d3 = _as_base(bundle, parts.get("d3"), 3)
        realized = Derivation(
            bundle.total,
            -3,
            {q: bundle.include_base(f), t: _flux_fiber_value(bundle, d3, f, 1)},
        )
        return SymElement(bundle, -3, {"f": f, "d3": d3}, realized)
    if degree < -3:
        _take(parts, {"h"})
        h = _as_base(bundle, parts.get("h"), 6 + degree)
        realized = Derivation(bundle.total, degree, {t: bundle.include_base(h)})
        return SymElement(bundle, degree, {"h": h}, realized)
    raise SymmetryError(f"flux symmetries live in degrees <= 0, got {degree}")


_MAKERS = {"two_step": _make_two_step, "line": _make_line, "flux": _make_flux}


# -- decomposition -------------------------------------------------------------


def _base_part(bundle: DgBundle, d: Derivation) -> Derivation:
    values = {}
    for g in bundle.base.generators:
        v = d.value(g.name)
        if not v.is_zero():
            if not bundle.is_base_valued(v):
                raise SymmetryError(f"value on base generator {g.name} leaves the base forms")
            values[g.name] = bundle.restrict_to_base(v)
    return Derivation(bundle.base, d.degree, values)


def _fiber_split(bundle: DgBundle, value: Element, fiber: str):
    """Split value = plain + fiber * linear with the odd fiber on the LEFT.

    fiber_coefficients strips the fiber from the right of each normalized
    monomial, so the left-convention part differs by (-1)^degree on each
    homogeneous component.
    """
    coeffs = bundle.fiber_coefficients(value, fiber)
    if any(k > 1 for k in coeffs):
        raise SymmetryError("fiber value is not linear in the odd fiber")
    zero = coeffs.get(0, bundle.total.zero())
    one = coeffs.get(1, bundle.total.zero())
    for part in (zero, one):
        if not bundle.is_base_valued(part):
            raise SymmetryError("fiber value depends on the even fiber")
    right = bundle.restrict_to_base(one)
    left = bundle.base.zero()
    for deg, comp in right.homogeneous_components().items():
        left = left + (comp if deg % 2 == 0 else -comp)
    return bundle.restrict_to_base(zero), left


def decompose(bundle: DgBundle, d: Derivation) -> SymElement:
    """Read the structured parts off a derivation; rejects anything outside them."""
    if d.model is not bundle.total:
        raise SymmetryError("derivation lives on a different bundle")
    base = _base_part(bundle, d)
    if bundle.shape == "two_step":
        q, t = bundle.q_name, bundle.t_name
        q_val = d.value(q)
        if not bundle.is_base_valued(q_val):
            raise SymmetryError("value on the odd fiber must be a base form")
        plain, linear = _fiber_split(bundle, d.value(t), q)
        primary = bundle.restrict_to_base(q_val)
        if d.degree == 0:
            return symmetry(bundle, 0, lie=base, a=primary, b=plain, abar=linear)
        if d.degree == -1:
            return symmetry(bundle, -1, iota=base, f=primary, c=plain, fbar=linear)
        if d.degree == -2:
            _expect_zero(base, primary, linear)
            return symmetry(bundle, -2, h=plain)
        _expect_zero(base, primary, plain, linear)
        return symmetry(bundle, d.degree)
    if bundle.shape == "line":
        t = bundle.fiber_names[0]
        value = d.value(t)
        if not bundle.is_base_valued(value):
            raise SymmetryError("fiber value must be a base form")
        v = bundle.restrict_to_base(value)
        if d.degree == 0:
            return symmetry(bundle, 0, lie=base, b=v)
        if d.degree == -1:
            return symmetry(bundle, -1, iota=base, a=v)
        _expect_zero(base)
        return symmetry(bundle, d.degree, eta=v)
    if bundle.shape == "flux":
        q, t = bundle.q_name, bundle.t_name
        q_val = d.value(q)
        if not bundle.is_base_valued(q_val):
            raise SymmetryError("value on the odd fiber must be a base form")
        primary = bundle.restrict_to_base(q_val)
        plain, linear = _fiber_split(bundle, d.value(t), q)
        sign = -1 if d.degree % 2 == 0 else 1
        if not (linear - primary * Fraction(sign, 2)).is_zero():
            raise SymmetryError("fiber coupling violates the half-curvature shape")
        if d.degree == 0:
            return symmetry(bundle, 0, lie=base, a3=primary, b6=plain)
        if d.degree == -1:
            return symmetry(bundle, -1, iota=base, s2=primary, s5=plain)
        if d.degree == -2:
            _expect_zero(base)
            return symmetry(bundle, -2, eta1=primary, c4=plain)
        if d.degree == -3:
            _expect_zero(base)
            return symmetry(bundle, -3, f=primary, d3=plain)
        _expect_zero(base, primary)
        return symmetry(bundle, d.degree, h=plain)
    raise SymmetryError(f"no structured symmetries for shape {bundle.shape}")


def _expect_zero(*items):
    for item in items:
        if _nonzero(item):
            raise SymmetryError("derivation has parts outside the structured shape")


# -- the differential and brackets --------------------------------------------


def sym_differential(a: SymElement) -> SymElement:
    """[Q, a] in structured form; defined for strictly negative degrees."""
    if a.degree >= 0:
        raise SymmetryError("the symmetry differential applies to negative degrees")
    return decompose(a.bundle, commutator(a.bundle.q, a.realized))


def sym_bracket(a: SymElement, b: SymElement) -> SymElement:
    """Vector-field bracket of realized symmetries, read back in structured form."""
    if a.bundle is not b.bundle:
        raise SymmetryError("symmetries of different bundles")
    return decompose(a.bundle, commutator(a.realized, b.realized))


def derived_bracket(a, b) -> SymElement:
    """(-1)^{||a||} [[Q, a], b], with the structured display checked when present."""
    ua, ub = _underlying(a), _underlying(b)
    if ua.bundle is not ub.bundle:
        raise SymmetryError("symmetries of different bundles")
    bundle = ua.bundle
    sign = -1 if (ua.degree + 1) % 2 else 1
    generic = commutator(commutator(bundle.q, ua.realized), ub.realized) * sign
    result = decompose(bundle, generic)
    display = _structured_derived(ua, ub)
    if display is not None and display != result:
        raise SymmetryError("structured derived bracket disagrees with the double commutator")
    return result


def _structured_derived(a: SymElement, b: SymElement) -> Optional[SymElement]:
    """The displayed formula for the derived bracket, where one is given."""
    bundle = a.bundle
    base = bundle.base
    d = base.d
    if bundle.shape == "line":
        theta = bundle.structural["Theta"]
        if a.degree == -1 and b.degree == -1:
            ix, iy = a.part("iota"), b.part("iota")
            a0, a1 = a.part("a"), b.part("a")
            form = lie_derivative(base, ix)(a1) - iy(d(a0)) - iy(ix(theta))
            return symmetry(bundle, -1, iota=vector_bracket(base, ix, iy), a=form)
        if a.degree == -1 and b.degree < -1:
            lie_x = lie_derivative(base, a.part("iota"))
            return symmetry(bundle, b.degree, eta=lie_x(b.part("eta")))
        if a.degree < -1 and b.degree == -1:
            return symmetry(bundle, a.degree, eta=-b.part("iota")(d(a.part("eta"))))
        if a.degree < -1 and b.degree < -1:
            return symmetry(bundle, a.degree + b.degree + 1, eta=base.zero())
    if bundle.shape == "two_step" and a.degree == -1 and b.degree == -1:
        f_curv = bundle.structural["F"]
        fbar_curv = bundle.structural["Fbar"]
        h_twist = bundle.structural["H"]
        ix, iy = a.part("iota"), b.part("iota")
        f0, c0, g0 = a.part("f"), a.part("c"), a.part("fbar")
        f1, c1, g1 = b.part("f"), b.part("c"), b.part("fbar")
        lie_x = lie_derivative(base, ix)
        f_slot = lie_x(f1) - iy(d(f0)) - iy(ix(f_curv))
        c_slot = (
            lie_x(c1)
            - iy(d(c0))
            - iy(ix(h_twist))
            - iy(f_curv * g0)
            - iy(f0 * fbar_curv)
            + d(f0) * g1
            + ix(f_curv) * g1
            + f1 * d(g0)
            + f1 * ix(fbar_curv)
        )
        g_slot = lie_x(g1) - iy(d(g0)) - iy(ix(fbar_curv))
        return symmetry(
            bundle, -1, iota=vector_bracket(base, ix, iy), f=f_slot, c=c_slot, fbar=g_slot
        )
    if bundle.shape == "two_step" and a.degree == -1 and b.degree == -2:
        lie_x = lie_derivative(base, a.part("iota"))
        return symmetry(bundle, -2, h=lie_x(b.part("h")))
    if bundle.shape == "flux" and a.degree == -1 and b.degree == -1:
        f4, f7 = bundle.structural["F4"], bundle.structural["F7"]
        ix, iy = a.part("iota"), b.part("iota")
        s2, s5 = a.part("s2"), a.part("s5")
        t2, t5 = b.part("s2"), b.part("s5")
        lie_x = lie_derivative(base, ix)
        slot2 = lie_x(t2) - iy(d(s2)) - iy(ix(f4))
        slot5 = lie_x(t5) - iy(d(s5)) - iy(ix(f7)) - iy(f4 * s2) + ix(f4) * t2 + d(s2) * t2
        return symmetry(bundle, -1, iota=vector_bracket(base, ix, iy), s2=slot2, s5=slot5)
    return None


def _raw_bracket(q: Derivation, x: Derivation, y: Derivation) -> Derivation:
    """(-1)^{||x||} [[Q, x], y] on raw derivations, ||x|| = degree + 1."""
    sign = -1 if (x.degree + 1) % 2 else 1
    return commutator(commutator(q, x), y) * sign


def derived_leibniz_residue(bundle: DgBundle, a: Derivation, b: Derivation) -> Derivation:
    """delta|a,b| - |delta a, b| - (-1)^{||a||} |a, delta b|; zero iff the law holds."""
    q = bundle.q
    sign = -1 if (a.degree + 1) % 2 else 1
    lhs = commutator(q, _raw_bracket(q, a, b))
    rhs = _raw_bracket(q, commutator(q, a), b) + sign * _raw_bracket(q, a, commutator(q, b))
    return lhs - rhs


def derived_jacobi_residue(
    bundle: DgBundle, a: Derivation, b: Derivation, c: Derivation
) -> Derivation:
    """|a,|b,c|| - ||a,b|,c| - (-1)^{||a|| ||b||} |b,|a,c||; zero iff the law holds."""
    q = bundle.q
    sign = -1 if ((a.degree + 1) * (b.degree + 1)) % 2 else 1
    lhs = _raw_bracket(q, a, _raw_bracket(q, b, c))
    rhs = _raw_bracket(q, _raw_bracket(q, a, b), c) + sign * _raw_bracket(
        q, b, _raw_bracket(q, a, c)
    )
    return lhs - rhs


def sym0_action_residue(
    bundle: DgBundle, actor: Derivation, b: Derivation, c: Derivation
) -> Derivation:
    """[a, |b,c|] - |[a,b], c| - |b, [a,c]| for a degree-0 symmetry actor."""
    q = bundle.q
    lhs = commutator(actor, _raw_bracket(q, b, c))
    rhs = _raw_bracket(q, commutator(actor, b), c) + _raw_bracket(q, b, commutator(actor, c))
    return lhs - rhs


def symmetry_residues(a: SymElement) -> Dict[str, Element]:
    """Obstructions for a degree-0 element to commute with Q, as base forms.

    For the two-step shape the keys are the three structural equations:
    'curvature' for dA - L_X F, 'twist' for dB - L_X H + F Abar - A Fbar,
    'dual_curvature' for dAbar + L_X Fbar.
    """
    if a.degree != 0:
        raise SymmetryError("membership residues are defined for degree 0")
    bundle = a.bundle
    bracket = commutator(bundle.q, a.realized)
    for g in bundle.base.generators:
        if not bracket.value(g.name).is_zero():
            raise SymmetryError("degree-0 bracket acted on base generators")
    if bundle.shape == "two_step":
        plain, linear = _fiber_split(bundle, bracket.value(bundle.t_name), bundle.q_name)
        return {
            "curvature": bundle.restrict_to_base(bracket.value(bundle.q_name)),
            "twist": plain,
            "dual_curvature": -linear,
        }
    if bundle.shape == "line":
        t = bundle.fiber_names[0]
        return {"twist": bundle.restrict_to_base(bracket.value(t))}
    if bundle.shape == "flux":
        plain, linear = _fiber_split(bundle, bracket.value(bundle.t_name), bundle.q_name)
        return {
            "curvature": bundle.restrict_to_base(bracket.value(bundle.q_name)),
            "twist": plain,
        }
    raise SymmetryError(f"no residue layout for shape {bundle.shape}")


def is_symmetry(a: SymElement) -> bool:
    return all(v.is_zero() for v in symmetry_residues(a).values())


# -- the full degree-0 kernel vs the structured family -----------------------


def sym0_dimensions(bundle: DgBundle) -> Tuple[int, int]:
    """(structured solutions realized, full kernel of [Q, .] on degree-0 fields).

    The second number may exceed the first on models where degree-0 vector
    fields fall outside the structured family (fiber scalings, rotations of
    the base); the identity runner reports both.
    """
    total = bundle.total
    unknowns = [(g.name, m) for g in total.generators for m in total.basis(g.degree)]
    residue_bases = {g.name: total.basis(g.degree + 1) for g in total.generators}
    columns = []
    for name, m in unknowns:
        probe = Derivation(total, 0, {name: total.monomial_element(m)})
        bracket = commutator(bundle.q, probe)
        col = []
        for g in total.generators:
            col.extend(coordinates(bracket.value(g.name), residue_bases[g.name]))
        columns.append(col)
    # the rank of the constraint matrix is the rank of its columns
    return _structured_kernel_dim(bundle), len(unknowns) - linalg.rank(columns)


def _structured_parameters(bundle: DgBundle):
    """One-hot structured degree-0 elements spanning the ansatz."""
    base = bundle.base
    params = []
    for g in base.generators:
        for m in base.basis(g.degree - 1):
            iota = Derivation(base, -1, {g.name: base.monomial_element(m)})
            params.append(symmetry(bundle, 0, iota=iota))
    if bundle.shape == "two_step":
        degrees = {"a": 1, "b": 2, "abar": 1}
    elif bundle.shape == "line":
        degrees = {"b": bundle.total.generator_named(bundle.fiber_names[0]).degree}
    elif bundle.shape == "flux":
        degrees = {"a3": 3, "b6": 6}
    else:
        raise SymmetryError(f"no ansatz for shape {bundle.shape}")
    for key, deg in degrees.items():
        for m in base.basis(deg):
            params.append(symmetry(bundle, 0, **{key: base.monomial_element(m)}))
    return params


def _structured_kernel_dim(bundle: DgBundle) -> int:
    params = _structured_parameters(bundle)
    if not params:
        return 0
    total = bundle.total
    residue_bases = {g.name: total.basis(g.degree + 1) for g in total.generators}
    value_bases = {g.name: total.basis(g.degree) for g in total.generators}
    constraint_rows = []
    realization_rows = []
    for p in params:
        bracket = commutator(bundle.q, p.realized)
        res = []
        val = []
        for g in total.generators:
            res.extend(coordinates(bracket.value(g.name), residue_bases[g.name]))
            val.extend(coordinates(p.realized.value(g.name), value_bases[g.name]))
        constraint_rows.append(res)
        realization_rows.append(val)
    ncols = len(constraint_rows[0])
    constraint = [[row[i] for row in constraint_rows] for i in range(ncols)]
    solutions = linalg.kernel_basis(constraint, len(params))
    realized = []
    for sol in solutions:
        vec = [Fraction(0)] * len(realization_rows[0])
        for c, row in zip(sol, realization_rows):
            if c:
                vec = [x + c * y for x, y in zip(vec, row)]
        realized.append(vec)
    return linalg.rank(realized)


# -- the symmetry isomorphism of dual pairs ------------------------------------


def dual_symmetry(pair, a: SymElement) -> SymElement:
    """Carry a symmetry of P to the dual bundle: swaps fiber data with signs."""
    if a.bundle is not pair.p:
        raise SymmetryError("expected a symmetry of the primal bundle")
    return _phi_parts(pair.pbar, a)


def selfdual_phi(a: SymElement) -> SymElement:
    """The duality automorphism on a self-dual bundle (F = Fbar), after renaming."""
    bundle = a.bundle
    if bundle.shape != "two_step" or bundle.structural["F"] != bundle.structural["Fbar"]:
        raise SymmetryError("the duality automorphism needs a self-dual bundle")
    return _phi_parts(bundle, a)


def _phi_parts(target: DgBundle, a: SymElement) -> SymElement:
    if a.degree < -2:
        # only the zero symmetry lives below degree -2 on two-step bundles
        return symmetry(target, a.degree)
    if a.degree == 0:
        return symmetry(
            target,
            0,
            iota=a.part("iota"),
            lie=a.part("lie"),
            a=-a.part("abar"),
            b=a.part("b"),
            abar=-a.part("a"),
        )
    if a.degree == -1:
        return symmetry(
            target, -1, iota=a.part("iota"), f=a.part("fbar"), c=a.part("c"), fbar=a.part("f")
        )
    if a.degree == -2:
        return symmetry(target, -2, h=a.part("h"))
    raise SymmetryError("the duality map covers degrees 0, -1, -2")


def selfdual_fixed_part(a: SymElement) -> SymElement:
    """Average with the duality automorphism; a projection since it is an involution."""
    return (a + selfdual_phi(a)) * Fraction(1, 2)


def is_selfdual_fixed(a: SymElement) -> bool:
    return selfdual_phi(a) == a


# -- Courant translation -------------------------------------------------------


def courant_embed(bundle: DgBundle, iota=None, f=0, c=None, fbar=0) -> SymElement:
    """Invariant-section data (X, f, C, fbar) as a degree -1 symmetry."""
    if bundle.shape != "two_step":
        raise SymmetryError("the Courant translation lives on two-step bundles")
    return symmetry(bundle, -1, iota=iota, f=f, c=c, fbar=fbar)


def courant_reference_bracket(bundle: DgBundle, a: SymElement, b: SymElement) -> SymElement:
    """The twisted Courant-Dorfman bracket computed on the circle-bundle model.

    Works entirely on the single-odd-fiber bundle E (base extended by q
    alone), treating C + q fbar as an invariant form on E and (X, f) as the
    invariant field iota_X + f d/dq; the two-step bundle never enters the
    computation, which makes this an independent oracle for the embedding.
    """
    base = bundle.base
    e_bundle = DgBundle.line(base, bundle.structural["F"], bundle.q_name, 1)
    etotal = e_bundle.total

    def invariant_field(s: SymElement) -> Derivation:
        iota = s.part("iota")
        values = {}
        for g in base.generators:
            v = iota.value(g.name)
            if not v.is_zero():
                values[g.name] = e_bundle.include_base(v)
        fv = s.part("f")
        if not fv.is_zero():
            values[bundle.q_name] = e_bundle.include_base(fv)
        return Derivation(etotal, -1, values)

    def invariant_form(s: SymElement) -> Element:
        return e_bundle.include_base(s.part("c")) + etotal.gen(
            bundle.q_name
        ) * e_bundle.include_base(s.part("fbar"))

    a_field, b_field = invariant_field(a), invariant_field(b)
    eta = e_bundle.include_base(bundle.structural["H"]) + etotal.gen(
        bundle.q_name
    ) * e_bundle.include_base(bundle.structural["Fbar"])
    # vector-plus-function slot: the derived bracket on the circle model
    vf = commutator(commutator(e_bundle.q, a_field), b_field)
    # form slot: L^E_a(w_b) - b(Q_E w_a) - b(a(eta))
    lie_a = commutator(e_bundle.q, a_field)
    form = (
        lie_a(invariant_form(b))
        - b_field(e_bundle.q(invariant_form(a)))
        - b_field(a_field(eta))
    )
    iota_values = {}
    for g in base.generators:
        v = vf.value(g.name)
        if not v.is_zero():
            iota_values[g.name] = e_bundle.restrict_to_base(v)
    coeffs = e_bundle.fiber_coefficients(form, bundle.q_name)
    return symmetry(
        bundle,
        -1,
        iota=Derivation(base, -1, iota_values),
        f=e_bundle.restrict_to_base(vf.value(bundle.q_name)),
        c=e_bundle.restrict_to_base(coeffs.get(0, etotal.zero())),
        fbar=e_bundle.restrict_to_base(coeffs.get(1, etotal.zero())),
    )


# -- the B-type structure --------------------------------------------------------


def bn_element(bundle: DgBundle, iota=None, f=0, c=None) -> SymElement:
    """(X, f, C) embedded as iota_X + f dq + (C + q f) dt on a self-dual bundle."""
    if bundle.structural["F"] != bundle.structural["Fbar"]:
        raise SymmetryError("the B-structure needs a self-dual bundle")
    return symmetry(bundle, -1, iota=iota, f=f, c=c, fbar=f)


def bn_bracket(a: SymElement, b: SymElement) -> SymElement:
    """Displayed bracket on (X, f, C) triples, checked against the derived bracket."""
    bundle = a.bundle
    base = bundle.base
    f_curv, h_twist = bundle.structural["F"], bundle.structural["H"]
    ix, iy = a.part("iota"), b.part("iota")
    f, c = a.part("f"), a.part("c")
    g, dd = b.part("f"), b.part("c")
    lie_x = lie_derivative(base, ix)
    lie_y = lie_derivative(base, iy)
    fun = lie_x(g) - lie_y(f) - iy(ix(f_curv))
    form = (
        lie_x(dd)
        - iy(base.d(c))
        - iy(ix(h_twist))
        - 2 * (f * iy(f_curv))
        + 2 * (g * ix(f_curv))
        + 2 * (g * base.d(f))
    )
    display = bn_element(bundle, iota=vector_bracket(base, ix, iy), f=fun, c=form)
    generic = derived_bracket(a, b)
    if display != generic:
        raise SymmetryError("B-structure display disagrees with the derived bracket")
    return display


def bn_pairing(a: SymElement, b: SymElement) -> Element:
    """<(X,f,C), (Y,g,D)> = iota_X D + iota_Y C + 2 f g, from the degree -1 bracket."""
    value = (
        a.part("iota")(b.part("c"))
        + b.part("iota")(a.part("c"))
        + 2 * (a.part("f") * b.part("f"))
    )
    paired = sym_bracket(a, b)
    if paired.part("h") != value:
        raise SymmetryError("pairing display disagrees with the degree -1 bracket")
    return value


def bn_one_form_action(bundle: DgBundle, one_form: Element, target: SymElement) -> SymElement:
    """Action of a closed 1-form A: (X, f, C) -> (0, -iota_X A, 2 A f)."""
    if not bundle.base.d(one_form).is_zero():
        raise SymmetryError("the acting 1-form must be closed")
    actor = symmetry(bundle, 0, a=one_form, abar=-one_form)
    moved = sym_bracket(actor, target)
    display = bn_element(
        bundle, f=-target.part("iota")(one_form), c=2 * (one_form * target.part("f"))
    )
    if moved != display:
        raise SymmetryError("1-form action display disagrees with the bracket")
    return moved


def bn_two_form_action(bundle: DgBundle, two_form: Element, target: SymElement) -> SymElement:
    """Action of a closed 2-form B: (X, f, C) -> (0, 0, -iota_X B)."""
    if not bundle.base.d(two_form).is_zero():
        raise SymmetryError("the acting 2-form must be closed")
    actor = symmetry(bundle, 0, b=two_form)
    moved = sym_bracket(actor, target)
    display = bn_element(bundle, c=-target.part("iota")(two_form))
    if moved != display:
        raise SymmetryError("2-form action display disagrees with the bracket")
    return moved


# -- the flux (degree 3/6) structure ---------------------------------------------


def e6_element(bundle: DgBundle, iota=None, s2=None, s5=None) -> SymElement:
    """(X, sigma_2, sigma_5) as a structured degree -1 symmetry of the flux bundle."""
    if bundle.shape != "flux":
        raise SymmetryError("expected the degree 3/6 flux bundle")
    return symmetry(bundle, -1, iota=iota, s2=s2, s5=s5)


def e6_bracket(a: SymElement, b: SymElement) -> SymElement:
    """Derived bracket of flux triples; the display check runs inside derived_bracket."""
    return derived_bracket(a, b)


def e6_pairing(a: SymElement, b: SymElement) -> Tuple[Element, Element]:
    """Degree -2 pairing (1-form, 4-form) of two flux triples."""
    paired = sym_bracket(a, b)
    eta1 = a.part("iota")(b.part("s2")) + b.part("iota")(a.part("s2"))
    c4 = (
        a.part("iota")(b.part("s5"))
        + b.part("iota")(a.part("s5"))
        + a.part("s2") * b.part("s2")
    )
    if paired.part("eta1") != eta1 or paired.part("c4") != c4:
        raise SymmetryError("flux pairing display disagrees with the degree -1 bracket")
    return eta1, c4


def e6_three_form_action(bundle: DgBundle, a3: Element, target: SymElement) -> SymElement:
    """Action of a closed 3-form: (X, s2, s5) -> (0, -iota_X a3, a3 ^ s2)."""
    if not bundle.base.d(a3).is_zero():
        raise SymmetryError("the acting 3-form must be closed")
    actor = symmetry(bundle, 0, a3=a3)
    moved = sym_bracket(actor, target)
    display = e6_element(bundle, s2=-target.part("iota")(a3), s5=a3 * target.part("s2"))
    if moved != display:
        raise SymmetryError("3-form action display disagrees with the bracket")
    return moved


def e6_six_form_action(bundle: DgBundle, b6: Element, target: SymElement) -> SymElement:
    """Action of a closed 6-form: (X, s2, s5) -> (0, 0, -iota_X b6)."""
    if not bundle.base.d(b6).is_zero():
        raise SymmetryError("the acting 6-form must be closed")
    actor = symmetry(bundle, 0, b6=b6)
    moved = sym_bracket(actor, target)
    display = e6_element(bundle, s5=-target.part("iota")(b6))
    if moved != display:
        raise SymmetryError("6-form action display disagrees with the bracket")
    return moved
