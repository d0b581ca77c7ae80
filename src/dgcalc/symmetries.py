"""Symmetries of shifted-line bundles and their derived bracket calculus.

A structured symmetry stores base-level data (a contraction-type derivation
for the vector part plus differential forms for the fiber parts) together
with the derivation it induces on the bundle.  Vector fields enter through
user-chosen degree -1 base derivations; the Lie derivative is [d, iota] and
the vector-field bracket is [[d, iota_X], iota_Y], so every displayed
formula is computable inside a CDGA model.

Which form parts a symmetry has in each degree, and where they sit in the
fiber values, is one table, SHAPES; construction, decomposition, the
membership residues and the degree-0 ansatz all read it.  Construction writes
the realized derivation's integer value table directly, with no Element of
the total model: the vector part's numerators, base monomials being the
total model's own, and the form parts' numerators on the fibers, over one
denominator.
Decomposition reads the same numerators back and keeps the derivation it was
given.

Derived brackets are always computed from the defining double commutator
(-1)^{||a||} [[Q, a], b], written once, in `Brackets.derived`; the displayed
structured formulas live next to the operations and the two routes are
compared whenever a display exists.  A `Brackets` memo keeps each bracket of
one trial, shared by the trial's laws, and dies with the trial.  The laws
are two residues: [x, .] deriving |., .| (x = Q or a degree-0 symmetry) and
the graded Jacobi identity of a bracket of degree 0 or 1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Dict, List, Optional, Tuple

from . import linalg
from .cohomology import Column, cochains
from .derivations import Derivation, DgBundle, commutator, model_differential
from .graded import (
    DgcalcError,
    Element,
    Model,
    ValueTable,
    leibniz,
    monomial_degree,
)


class SymmetryError(DgcalcError):
    pass


# -- base-level vector calculus ---------------------------------------------


def lie_derivative(model: Model, iota: Derivation) -> Derivation:
    """[d, iota] on the base model; zero, with no commutator, for a zero iota."""
    if iota.degree != -1:
        raise SymmetryError("contractions have degree -1")
    if iota.is_zero() and iota.model is model:
        return Derivation.zero(model, 0)
    return commutator(model_differential(model), iota)


def _as_base(bundle: DgBundle, value, degree: int) -> Element:
    """Coerce scalars to degree-0 elements and validate homogeneity."""
    if value is None:
        return bundle.base.zero()
    if not isinstance(value, Element):
        value = bundle.base.scalar(value)
    if value.model is not bundle.base:
        raise SymmetryError("form parts must live in the base model")
    if any(monomial_degree(bundle.base, m) != degree for m in value.nums):
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
    """((name, base degree), ...) of the free form parts in this degree, in
    slot order; built once per bundle and degree."""
    cached = bundle._form_parts.get(degree)
    if cached is None:
        q, t = _fibers(bundle)
        dq = bundle.total.generator_named(q).degree if q else 0
        dt = bundle.total.generator_named(t).degree
        slots = zip(_row(bundle, degree), (dq, dt, dt - dq))
        cached = bundle._form_parts[degree] = tuple(
            (name, d + degree) for name, d in slots if isinstance(name, str)
        )
    return cached


# -- construction and decomposition ---------------------------------------------


def symmetry(bundle: DgBundle, degree: int, **parts) -> SymElement:
    """Structured symmetry from its vector part and its form parts.

    The form parts accepted in each degree are the names in the shape's row of
    SHAPES, plus the vector parts of VECTOR_PARTS; a part left out is zero.
    """
    forms = form_parts(bundle, degree)
    parts = {k: v for k, v in parts.items() if v is not None}
    allowed = {name for name, _ in forms}.union(VECTOR_PARTS.get(degree, ()))
    extra = set(parts) - allowed
    if extra:
        raise SymmetryError(f"unexpected parts {sorted(extra)}; allowed {sorted(allowed)}")
    out = {}
    if degree in VECTOR_PARTS:
        vector = out["iota"] = parts.get("iota") or Derivation.zero(bundle.base, -1)
    else:  # no vector part below degree -1
        vector = Derivation.zero(bundle.base, degree)
    if degree == 0:
        vector = out["lie"] = parts.get("lie") or lie_derivative(bundle.base, vector)
    if vector.model is not bundle.base or vector.degree != degree:
        raise SymmetryError(f"the vector part must be a base derivation of degree {degree}")
    for name, deg in forms:
        out[name] = _as_base(bundle, parts.get(name), deg)
    den, sums = _realized_sums(bundle, vector, out, dict(forms))
    table = ValueTable(bundle.total, sums, degree, den)
    return SymElement(bundle, degree, out, Derivation._of_table(bundle.total, table))


def _realized_sums(bundle: DgBundle, vector: Derivation, parts: Dict, degrees: Dict):
    """(den, sums): the values of the realized derivation as integer
    numerators {generator index: {monomial: int}} over den, no key twice.

    The base generators come first in the total model, so the vector part's
    numerators keep their monomials.  q gets its q-slot part and t its t-slot
    part plus q times its q.t-slot part (or times the q-slot part and the
    coupling), each term q*w written w*q with sign (-1)^|w|: moving the odd q
    right past w costs that sign.
    """
    q_slot, t_slot, qt_slot = _row(bundle, vector.degree)
    nb, nf = len(bundle.base.generators), len(bundle.fiber_names)
    fibers = [(nb, 0, 1, q_slot), (nb + nf - 1, 0, 1, t_slot)]
    if qt_slot:
        w, c = (q_slot, qt_slot) if isinstance(qt_slot, Fraction) else (qt_slot, 1)
        fibers.append((nb + nf - 1, bundle.total.units[nb], -c if degrees[w] % 2 else c, w))
    # (generator index, monomial, numerator, denominator) of every value term
    vden, values = vector.table.den, vector.table.numerators()
    terms = [(i, m, n, vden) for i, t in values.items() for m, n in t.items()]
    terms += [
        (i, m + q, n * scale.numerator, parts[name].den * scale.denominator)
        for i, q, scale, name in fibers
        if name
        for m, n in parts[name].nums.items()
    ]
    den = lcm(*[d for _, _, _, d in terms])
    sums: Dict[int, Dict[int, int]] = {}
    for i, m, n, d in terms:
        sums.setdefault(i, {})[m] = n * (den // d)
    return den, sums


def _base_part(bundle: DgBundle, d: Derivation) -> Derivation:
    """d's values on the base generators, which must be base forms: the base's
    monomials are the total model's, so the sums move over as they are."""
    nb = len(bundle.base.generators)
    sums = {i: terms for i, terms in d.table.numerators().items() if i < nb}
    if any(m >= bundle.total.units[nb] for terms in sums.values() for m in terms):
        raise SymmetryError("a value on a base generator leaves the base forms")
    return Derivation._of_table(bundle.base, ValueTable(bundle.base, sums, d.degree, d.table.den))


def _fiber_parts(bundle: DgBundle, d: Derivation) -> Tuple[Element, Element, Element]:
    """(q-slot, t-slot, q.t-slot) base forms of d's fiber values; zero without a q.

    Read off d's table numerators, the mirror of `_realized_sums`: a term w*q
    of the value on t goes to the q.t slot with sign (-1)^|w|.
    """
    base = bundle.base
    nb, nf = len(base.generators), len(bundle.fiber_names)
    # base monomials lie below the first fiber's unit q, and t is the last field
    q, t, odd = bundle.total.units[nb], bundle.total.units[-1], base.odd
    den, values = d.table.den, d.table.numerators()
    primary = values.get(nb, {}) if nf > 1 else {}
    if any(m >= q for m in primary):
        raise SymmetryError("value on the odd fiber must be a base form")
    plain, linear = {}, {}
    for m, n in values.get(nb + nf - 1, {}).items():
        if m >= t:
            raise SymmetryError("the value on t depends on t")
        if m < q:
            plain[m] = n
        else:  # |w| is odd exactly when w has an odd number of odd generators
            w = m - q
            linear[w] = -n if (w & odd).bit_count() % 2 else n
    return tuple(Element._of(base, part, den) for part in (primary, plain, linear))


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
    """|a, b| by `Brackets.derived`, with the structured display checked when present."""
    if a.bundle is not b.bundle:
        raise SymmetryError("symmetries of different bundles")
    result = decompose(a.bundle, Brackets(a.bundle.q).derived(a.realized, b.realized))
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
            lie_x = lie_derivative(base, ix)
            form = lie_x(a1) - iy(d(a0)) - iy(ix(theta))
            return symmetry(bundle, -1, iota=commutator(lie_x, iy), a=form)
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
            bundle, -1, iota=commutator(lie_x, iy), f=f_slot, c=c_slot, fbar=g_slot
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
        return symmetry(bundle, -1, iota=commutator(lie_x, iy), s2=slot2, s5=slot5)
    return None


class Brackets:
    """The brackets of one trial, each computed once per operand pair.

    A trial's laws share brackets, and their operands are often one object, so
    [x, y] and |x, y| = (-1)^{||x||} [[Q, x], y] are kept by operand
    identity.  Each entry holds its operands, so no id is reused while the
    memo lives, and the memo dies with the trial that made it."""

    __slots__ = ("q", "_commutators", "_derived")

    def __init__(self, q: Derivation):
        self.q = q
        self._commutators: Dict[Tuple[int, int], tuple] = {}
        self._derived: Dict[Tuple[int, int], tuple] = {}

    def commutator(self, x: Derivation, y: Derivation) -> Derivation:
        """[x, y]."""
        key = id(x), id(y)
        entry = self._commutators.get(key)
        if entry is None:
            entry = self._commutators[key] = (x, y, commutator(x, y))
        return entry[2]

    def derived(self, x: Derivation, y: Derivation) -> Derivation:
        """|x, y|, ||x|| = degree + 1."""
        key = id(x), id(y)
        entry = self._derived.get(key)
        if entry is None:
            sign = -1 if (x.degree + 1) % 2 else 1
            delta = self.commutator(self.q, x)
            entry = self._derived[key] = (x, y, self.commutator(delta, y) * sign)
        return entry[2]


def derivation_residue(br: Brackets, x: Derivation, a: Derivation, b: Derivation) -> Derivation:
    """[x, |a,b|] - |[x,a], b| - (-1)^{|x| ||a||} |a, [x,b]|; zero iff [x, .]
    derives |a, b|.  With x = br.q this is the derived Leibniz law, with a
    degree-0 symmetry x the action law."""
    sign = -1 if (x.degree * (a.degree + 1)) % 2 else 1
    lhs = br.commutator(x, br.derived(a, b))
    rhs = br.derived(br.commutator(x, a), b) + sign * br.derived(a, br.commutator(x, b))
    return lhs - rhs


def jacobi_residue(bracket, shift: int, a: Derivation, b: Derivation, c: Derivation) -> Derivation:
    """(a,(b,c)) - ((a,b),c) - (-1)^{(|a|+shift)(|b|+shift)} (b,(a,c)) for a
    bracket of degree shift; zero iff its graded Jacobi identity holds.  The
    plain law is `commutator` with shift 0, the derived one `Brackets.derived`
    with shift 1."""
    sign = -1 if ((a.degree + shift) * (b.degree + shift)) % 2 else 1
    lhs = bracket(a, bracket(b, c))
    rhs = bracket(bracket(a, b), c) + sign * bracket(b, bracket(a, c))
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


def _value_index(model: Model, shift: int) -> List[Dict[int, int]]:
    """One numbering of the pairs (generator g, monomial of degree |g| + shift),
    as one {monomial: row} per generator in generator order: the rows of the
    values of a derivation of that degree."""
    index, n = [], 0
    for g in model.generators:
        rows = {}
        for m in model.basis(g.degree + shift):
            rows[m] = n
            n += 1
        index.append(rows)
    return index


def _bracket_columns(model: Model, shift: int) -> List[Column]:
    """The matrix of X -> [d, X] on the model's derivations of degree shift.

    One sparse column per unknown (g, m) of `_value_index(model, shift)`, the
    field m d/dg, with rows numbered by `_value_index(model, shift + 1)`, as
    integer numerators over d_table's denominator.  On a generator h,
    [d, m d/dg](h) = delta_{hg} d(m) - (-1)^shift (m d/dg)(d h).  The d(m)
    part is column m of the cached cochain slice, moved down to g's rows.
    The rest is one Leibniz pass per g, whose table sends g to every m at
    once, over the terms of d that contain g with one out per term; a key of
    that out is m plus the term with g lowered, which gives m back.
    """
    d_values = model.d_table.numerators()
    unknowns, rows = _value_index(model, shift), _value_index(model, shift + 1)
    offsets = list(accumulate(map(len, rows), initial=0))
    columns = [
        {offsets[g] + r: n for r, n in image.items()}
        for g, block in enumerate(unknowns)
        if block
        for image in cochains(model, model.degrees[g] + shift).columns
    ]
    sign = 1 if shift % 2 else -1
    for g, block in enumerate(unknowns):
        unit = model.units[g]
        field = unit * model.tops[g]
        terms = [(h, x, n) for h, value in d_values.items() for x, n in value.items() if x & field]
        if not terms:
            continue
        outs: List[dict] = [{} for _ in terms]
        table = ValueTable(model, {g: dict.fromkeys(block, 1)}, shift, 1)
        leibniz(model, table, [(x, sign * n) for _, x, n in terms], outs)
        for (h, x, _), out in zip(terms, outs):
            lowered = x - unit
            for key, n in out.items():
                column, r = columns[block[key - lowered]], rows[h][key]
                column[r] = column.get(r, 0) + n
    return [{r: n for r, n in column.items() if n} for column in columns]


def _structured_columns(bundle: DgBundle) -> List[Column]:
    """The realized one-hot structured degree-0 elements, numbered by
    `_value_index(total, 0)`: first one per contraction m d/dg of the base,
    realized as its base action [d, m d/dg], which is a column of the base's
    own bracket matrix on degree -1 fields; then one per form part set to a
    base monomial, its realized numerators.  Each column is a positive
    multiple of its element."""
    base, total = bundle.base, bundle.total
    index = _value_index(total, 0)
    # the base's degree-0 rows, in order, as rows of the total model
    moved = [index[g][m] for g, block in enumerate(_value_index(base, 0)) for m in block]
    columns = [{moved[r]: n for r, n in c.items()} for c in _bracket_columns(base, -1)]
    zero, forms = Derivation.zero(base, 0), dict(form_parts(bundle, 0))
    parts = dict.fromkeys(forms, base.zero())
    for key, deg in forms.items():
        for m in base.basis(deg):
            _, sums = _realized_sums(bundle, zero, {**parts, key: base.monomial_element(m)}, forms)
            columns.append({index[i][x]: n for i, t in sums.items() for x, n in t.items()})
    return columns


def sym0_dimensions(bundle: DgBundle) -> Tuple[int, int]:
    """(structured solutions realized, full kernel of [Q, .] on degree-0 fields).

    Both are read off one matrix M of X -> [Q, X] on degree-0 fields, with a
    column per unknown: the full kernel is n - rank(M).  The structured
    solutions c of sum c_i M p_i = 0, over the realized columns p_i, form a
    space of dimension n_p - rank(M p_i), and every c with sum c_i p_i = 0 is
    among them, so what they realize has dimension rank(p_i) - rank(M p_i).

    The second number may exceed the first on models where degree-0 vector
    fields fall outside the structured family (fiber scalings, rotations of
    the base); the identity runner reports both.
    """
    bracket = _bracket_columns(bundle.total, 0)
    structured = _structured_columns(bundle)
    images = []
    for column in structured:
        image: Column = {}
        for u, c in column.items():
            for r, n in bracket[u].items():
                image[r] = image.get(r, 0) + c * n
        images.append(image)
    kernel = len(bracket) - linalg.rank(bracket)
    return linalg.rank(structured) - linalg.rank(images), kernel


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
    display = bn_element(bundle, iota=commutator(lie_x, iy), f=fun, c=form)
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


def _form_action(bundle: DgBundle, degree: int, form: Element, target: SymElement,
                 parts: Dict, display) -> SymElement:
    """Bracket target with the closed form's degree-0 actor (parts); check it equals display()."""
    if not bundle.base.d(form).is_zero():
        raise SymmetryError(f"the acting {degree}-form must be closed")
    moved = sym_bracket(symmetry(bundle, 0, **parts), target)
    if moved != display():
        raise SymmetryError(f"{degree}-form action display disagrees with the bracket")
    return moved


def bn_one_form_action(bundle: DgBundle, one_form: Element, target: SymElement) -> SymElement:
    """Action of a closed 1-form A: (X, f, C) -> (0, -iota_X A, 2 A f)."""
    parts = {"a": one_form, "abar": -one_form}
    return _form_action(bundle, 1, one_form, target, parts, lambda: bn_element(
        bundle, f=-target.part("iota")(one_form), c=2 * (one_form * target.part("f"))
    ))


def bn_two_form_action(bundle: DgBundle, two_form: Element, target: SymElement) -> SymElement:
    """Action of a closed 2-form B: (X, f, C) -> (0, 0, -iota_X B)."""
    return _form_action(bundle, 2, two_form, target, {"b": two_form}, lambda: bn_element(
        bundle, c=-target.part("iota")(two_form)
    ))


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
    return _form_action(bundle, 3, a3, target, {"a3": a3}, lambda: e6_element(
        bundle, s2=-target.part("iota")(a3), s5=a3 * target.part("s2")
    ))


def e6_six_form_action(bundle: DgBundle, b6: Element, target: SymElement) -> SymElement:
    """Action of a closed 6-form: (X, s2, s5) -> (0, 0, -iota_X b6)."""
    return _form_action(bundle, 6, b6, target, {"b6": b6}, lambda: e6_element(
        bundle, s5=-target.part("iota")(b6)
    ))
