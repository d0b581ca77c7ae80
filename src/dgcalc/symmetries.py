"""Symmetries of shifted-line bundles and their derived bracket calculus.

A structured symmetry stores base-level data (a contraction-type derivation
for the vector part plus differential forms for the fiber parts) together
with the derivation it induces on the bundle.  Vector fields enter through
user-chosen degree -1 base derivations; the Lie derivative is [d, iota] and
the vector-field bracket is [[d, iota_X], iota_Y], so every displayed
formula is computable inside a CDGA model.

Which form parts a symmetry has in each degree, and where they sit in the
fiber values, is one table, SHAPES; construction, decomposition, the
membership residues and the degree-0 ansatz all read it.  Decomposition reads
the parts off exponent tuples and keeps the derivation it was given.

Derived brackets are always computed from the defining double commutator
(-1)^{||a||} [[Q, a], b]; the displayed structured formulas live next to the
operations and the two routes are compared whenever a display exists.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Tuple

from . import linalg
from .cohomology import ONE, Column, _column
from .derivations import Derivation, DgBundle, commutator, model_differential
from .graded import Element, Model, monomial_degree


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


def _nonzero(v) -> bool:
    if isinstance(v, (Derivation, Element)):
        return not v.is_zero()
    return bool(v)


# -- the shape table ------------------------------------------------------------

LOWER = "lower"

# For each shape, each degree k of a structured symmetry (LOWER: every degree
# below the listed ones) names its form parts by fiber slot, as the triple
# (q-slot, t-slot, q.t-slot).  The symmetry sends q to its q-slot part and t to
# its t-slot part plus q times its q.t-slot part, so these are base forms of
# degree |q| + k, |t| + k and |t| - |q| + k.  A Fraction c in the q.t slot is
# no free part: it couples t to q * x * c, where x is the q-slot part.
SHAPES = {
    "two_step": {
        0: ("a", "b", "abar"),
        -1: ("f", "c", "fbar"),
        -2: (None, "h", None),
        LOWER: (None, None, None),
    },
    "line": {0: (None, "b", None), -1: (None, "a", None), LOWER: (None, "eta", None)},
    "flux": {
        0: ("a3", "b6", Fraction(-1, 2)),
        -1: ("s2", "s5", Fraction(1, 2)),
        -2: ("eta1", "c4", Fraction(-1, 2)),
        -3: ("f", "d3", Fraction(1, 2)),
        LOWER: (None, "h", None),
    },
}

# the vector part: degree 0 takes a contraction iota or the base action lie
# itself, degree -1 the contraction; decompose reads back the last one
VECTOR_PARTS = {0: ("iota", "lie"), -1: ("iota",)}

PART_NAMES = frozenset(
    name for rows in SHAPES.values() for row in rows.values() for name in row if isinstance(name, str)
)


def _row(bundle: DgBundle, degree: int):
    rows = SHAPES.get(bundle.shape)
    if rows is None:
        raise SymmetryError(f"no structured symmetries for shape {bundle.shape}")
    if degree > 0:
        raise SymmetryError(f"{bundle.shape} symmetries live in degrees <= 0, got {degree}")
    return rows.get(degree, rows[LOWER])


def _fibers(bundle: DgBundle) -> Tuple[Optional[str], str]:
    """(q, t): the fiber names; a single line has no q."""
    names = bundle.fiber_names
    return (names[0] if len(names) > 1 else None), names[-1]


def form_parts(bundle: DgBundle, degree: int):
    """[(name, base degree)] of the free form parts in this degree, in slot order."""
    q, t = _fibers(bundle)
    dq = bundle.total.generator_named(q).degree if q else 0
    dt = bundle.total.generator_named(t).degree
    slots = zip(_row(bundle, degree), (dq, dt, dt - dq))
    return [(name, d + degree) for name, d in slots if isinstance(name, str)]


# -- construction and decomposition ---------------------------------------------


def symmetry(bundle: DgBundle, degree: int, **parts) -> SymElement:
    """Structured symmetry from its vector part and its form parts.

    The form parts accepted in each degree are the names in the shape's row of
    SHAPES, plus the vector parts of VECTOR_PARTS; a part left out is zero.
    """
    row = _row(bundle, degree)
    forms = form_parts(bundle, degree)
    parts = {k: v for k, v in parts.items() if v is not None}
    allowed = {name for name, _ in forms}.union(VECTOR_PARTS.get(degree, ()))
    extra = set(parts) - allowed
    if extra:
        raise SymmetryError(f"unexpected parts {sorted(extra)}; allowed {sorted(allowed)}")
    out = {}
    vector = None
    if degree == 0:
        out["iota"], out["lie"] = _base_action(bundle, parts)
        vector = out["lie"]
    elif degree == -1:
        vector = out["iota"] = parts.get("iota") or Derivation.zero(bundle.base, -1)
    for name, deg in forms:
        out[name] = _as_base(bundle, parts.get(name), deg)
    realized = Derivation(bundle.total, degree, _fiber_values(bundle, row, out))
    if vector is not None:
        realized = lift_to_total(bundle, vector) + realized
    return SymElement(bundle, degree, out, realized)


def _base_action(bundle: DgBundle, parts: Dict) -> Tuple[Derivation, Derivation]:
    """(iota, lie): the chosen contraction and the induced degree-0 base action."""
    iota = parts.get("iota") or Derivation.zero(bundle.base, -1)
    lie = parts.get("lie")
    if lie is None:
        lie = lie_derivative(bundle.base, iota)
    elif lie.model is not bundle.base or lie.degree != 0:
        raise SymmetryError("the base action must be a degree-0 base derivation")
    return iota, lie


def _fiber_values(bundle: DgBundle, row, parts: Dict) -> Dict[str, Element]:
    """The symmetry's values on q and t, from the parts named in the row."""
    q, t = _fibers(bundle)
    q_slot, t_slot, qt_slot = row
    total, include = bundle.total, bundle.include_base
    values = {}
    if q_slot:
        values[q] = include(parts[q_slot])
    value = include(parts[t_slot]) if t_slot else total.zero()
    if isinstance(qt_slot, str):
        value = value + total.gen(q) * include(parts[qt_slot])
    elif qt_slot:
        value = value + total.gen(q) * include(parts[q_slot]) * qt_slot
    values[t] = value
    return values


def _base_form(bundle: DgBundle, value: Element, error: str) -> Element:
    """A total-model value with zero fiber exponents, read as a base form."""
    nb = len(bundle.base.generators)
    if any(any(m[nb:]) for m in value.terms):
        raise SymmetryError(error)
    return Element._trusted(bundle.base, {m[:nb]: c for m, c in value.terms.items()})


def _base_part(bundle: DgBundle, d: Derivation) -> Derivation:
    values = {}
    for g in bundle.base.generators:
        error = f"value on base generator {g.name} leaves the base forms"
        values[g.name] = _base_form(bundle, d.value(g.name), error)
    return Derivation._trusted(bundle.base, d.degree, values)


def _fiber_parts(bundle: DgBundle, d: Derivation) -> Tuple[Element, Element, Element]:
    """(q-slot, t-slot, q.t-slot) base forms of d's fiber values; zero without a q.

    A term w*q of the value on t goes to the q.t slot with sign (-1)^|w|: moving
    the odd q left past w costs that sign.
    """
    q, t = _fibers(bundle)
    base = bundle.base
    if q is None:
        value = _base_form(bundle, d.value(t), "fiber value must be a base form")
        return base.zero(), value, base.zero()
    q_value = _base_form(bundle, d.value(q), "value on the odd fiber must be a base form")
    nb = len(base.generators)
    plain, linear = {}, {}
    for m, c in d.value(t).terms.items():
        if m[nb + 1]:
            raise SymmetryError("fiber value depends on the even fiber")
        w = m[:nb]
        if not m[nb]:
            plain[w] = c
        else:
            linear[w] = -c if monomial_degree(base, w) % 2 else c
    return q_value, Element._trusted(base, plain), Element._trusted(base, linear)


def decompose(bundle: DgBundle, d: Derivation) -> SymElement:
    """Read the structured parts off a derivation, which stays the realized one;
    rejects anything outside the parts."""
    if d.model is not bundle.total:
        raise SymmetryError("derivation lives on a different bundle")
    q_slot, t_slot, qt_slot = _row(bundle, d.degree)
    base = _base_part(bundle, d)
    primary, plain, linear = _fiber_parts(bundle, d)
    found = [(VECTOR_PARTS.get(d.degree, (None,))[-1], base), (q_slot, primary), (t_slot, plain)]
    if isinstance(qt_slot, Fraction):
        if not (linear - primary * qt_slot).is_zero():
            raise SymmetryError("fiber coupling violates the half-curvature shape")
    else:
        found.append((qt_slot, linear))
    # a raw derivation carries the base action, not a contraction
    parts = {"iota": Derivation.zero(bundle.base, -1)} if d.degree == 0 else {}
    for name, value in found:
        if name:
            parts[name] = value
        elif _nonzero(value):
            raise SymmetryError("derivation has parts outside the structured shape")
    return SymElement(bundle, d.degree, parts, d)


# -- the differential and brackets --------------------------------------------


def sym_differential(a: SymElement) -> SymElement:
    """[Q, a] in structured form, for strictly negative degrees; acceptance
    criteria 7 (oracle equivalence) and 8 (duality isomorphism) pin it."""
    if a.degree >= 0:
        raise SymmetryError("the symmetry differential applies to negative degrees")
    return decompose(a.bundle, commutator(a.bundle.q, a.realized))


def sym_bracket(a: SymElement, b: SymElement) -> SymElement:
    """Vector-field bracket of realized symmetries, read back in structured form."""
    if a.bundle is not b.bundle:
        raise SymmetryError("symmetries of different bundles")
    return decompose(a.bundle, commutator(a.realized, b.realized))


def derived_bracket(a: SymElement, b: SymElement) -> SymElement:
    """(-1)^{||a||} [[Q, a], b], with the structured display checked when present."""
    if a.bundle is not b.bundle:
        raise SymmetryError("symmetries of different bundles")
    result = decompose(a.bundle, _raw_bracket(a.bundle.q, a.realized, b.realized))
    display = _structured_derived(a, b)
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

    One key per slot the shape's degree-0 row fills: 'curvature' (q-slot),
    'twist' (t-slot) and, negated, 'dual_curvature' (q.t-slot).  For the
    two-step shape these are its three structural equations: dA - L_X F,
    dB - L_X H + F Abar - A Fbar and dAbar + L_X Fbar.
    """
    if a.degree != 0:
        raise SymmetryError("membership residues are defined for degree 0")
    bundle = a.bundle
    bracket = commutator(bundle.q, a.realized)
    for g in bundle.base.generators:
        if not bracket.value(g.name).is_zero():
            raise SymmetryError("degree-0 bracket acted on base generators")
    primary, plain, linear = _fiber_parts(bundle, bracket)
    keys = zip(("curvature", "twist", "dual_curvature"), _row(bundle, 0), (primary, plain, -linear))
    return {key: value for key, name, value in keys if isinstance(name, str)}


def is_symmetry(a: SymElement) -> bool:
    return all(v.is_zero() for v in symmetry_residues(a).values())


# -- the full degree-0 kernel vs the structured family -----------------------


def _value_index(total: Model, shift: int) -> Dict[str, Dict[tuple, int]]:
    """One numbering of the pairs (generator g, monomial of degree |g| + shift),
    as {g: {monomial: row}}: the rows of the values of a derivation of that degree."""
    index, n = {}, 0
    for g in total.generators:
        rows = index[g.name] = {}
        for m in total.basis(g.degree + shift):
            rows[m] = n
            n += 1
    return index


def _value_column(d: Derivation, index: Dict[str, Dict[tuple, int]]) -> Column:
    """The values of d on every generator as one sparse column, numbered by index."""
    col = {}
    for name, value in d.values.items():
        col.update(_column(value, index[name]))
    return col


def sym0_dimensions(bundle: DgBundle) -> Tuple[int, int]:
    """(structured solutions realized, full kernel of [Q, .] on degree-0 fields).

    The second number may exceed the first on models where degree-0 vector
    fields fall outside the structured family (fiber scalings, rotations of
    the base); the identity runner reports both.
    """
    total = bundle.total
    index = _value_index(total, 1)
    columns = []
    for g in total.generators:
        for m in total.basis(g.degree):
            # one unknown: the probe sends g to m, so has degree 0 by construction
            probe = Derivation._trusted(total, 0, {g.name: Element._trusted(total, {m: ONE})})
            columns.append(_value_column(commutator(bundle.q, probe), index))
    # the rank of the constraint matrix is the rank of its columns
    return _structured_kernel_dim(bundle), len(columns) - linalg.rank(columns)


def _structured_parameters(bundle: DgBundle):
    """One-hot structured degree-0 elements spanning the ansatz."""
    base = bundle.base
    params = []
    for g in base.generators:
        for m in base.basis(g.degree - 1):
            iota = Derivation(base, -1, {g.name: base.monomial_element(m)})
            params.append(symmetry(bundle, 0, iota=iota))
    for key, deg in form_parts(bundle, 0):
        for m in base.basis(deg):
            params.append(symmetry(bundle, 0, **{key: base.monomial_element(m)}))
    return params


def _structured_kernel_dim(bundle: DgBundle) -> int:
    """Dimension of the derivations that the structured solutions realize.

    For the n one-hot parameters p_i, the solutions c of sum c_i [Q, p_i] = 0
    form a space of dimension n - rank([Q, p_i]).  Every c with sum c_i p_i = 0
    is among them, so what they realize has dimension rank(p_i) - rank([Q, p_i]).
    """
    realized, residues = _value_index(bundle.total, 0), _value_index(bundle.total, 1)
    params = [p.realized for p in _structured_parameters(bundle)]
    columns = [_value_column(p, realized) for p in params]
    images = [_value_column(commutator(bundle.q, p), residues) for p in params]
    return linalg.rank(columns) - linalg.rank(images)


# -- the symmetry isomorphism of dual pairs ------------------------------------


def dual_symmetry(pair, a: SymElement) -> SymElement:
    """Carry a symmetry of P to the dual bundle: swaps fiber data with signs;
    acceptance criterion 8 (duality isomorphism) pins it."""
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
    """Invariant-section data (X, f, C, fbar) as a degree -1 symmetry;
    acceptance criterion 8 (duality isomorphism) pins it."""
    if bundle.shape != "two_step":
        raise SymmetryError("the Courant translation lives on two-step bundles")
    return symmetry(bundle, -1, iota=iota, f=f, c=c, fbar=fbar)


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
