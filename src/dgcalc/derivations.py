"""Graded derivations and shifted-line bundles over CDGA models.

A derivation is stored as the integer value table of its values on
generators alone, and extends to all elements by
D(ab) = D(a) b + (-1)^{|D||a|} a D(b); derivations act from the left
throughout.  A DgBundle is a base model extended by fiber generators whose
induced degree-1 field satisfies the Maurer-Cartan equation (this is exactly
d*d = 0 for the extended model, so it is checked at construction).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Optional

from .graded import (
    Element,
    GradedError,
    GradedGenerator,
    Model,
    _odd_mask,
    apply_table,
    apply_values,
    combine_tables,
    format_element,
    table_numerators,
    table_value,
    table_values,
    value_table,
)


class DerivationError(Exception):
    pass


class BundleError(Exception):
    """A bundle that cannot be built.

    When the candidate field has the right degrees but fails Maurer-Cartan,
    `bundle` is the unvalidated bundle (its `q` is that field on the bare
    extended algebra) and `result` the failing MCResult; otherwise both are None.
    """

    def __init__(self, message: str, bundle=None, result=None):
        super().__init__(message)
        self.bundle = bundle
        self.result = result


class Derivation:
    """A graded derivation of a model's function algebra.

    It is kept as the `value_table` of its values on generators alone, a
    plain attribute like `Model.d_table`: the constructor validates the
    values and builds the table at once, and a bracket, a sum or a multiple
    is computed on the tables' integers and keeps the table it built.
    `values` is a view rebuilt from the table on each read.
    """

    __slots__ = ("model", "degree", "table")

    def __init__(self, model: Model, degree: int, values: Mapping[str, Element]):
        self.model = model
        self.degree = degree
        for name, v in values.items():
            if name not in model.index:
                raise DerivationError(f"value on unknown generator {name!r}")
            if v.is_zero():
                continue
            if v.model is not model:
                raise DerivationError("derivation values must live in the ambient model")
            want = model.generator_named(name).degree + degree
            if v.degree() != want:
                raise DerivationError(
                    f"value on {name} must be homogeneous of degree {want}, got {v.degree()}"
                )
        self.table = value_table(model, values, degree)

    @classmethod
    def _of_table(cls, model: Model, degree: int, table) -> "Derivation":
        """The derivation with this `value_table` of the given degree."""
        d = cls.__new__(cls)
        d.model = model
        d.degree = degree
        d.table = table
        return d

    @classmethod
    def zero(cls, model: Model, degree: int = 0) -> "Derivation":
        return cls._of_table(model, degree, value_table(model, {}, degree))

    @property
    def values(self) -> Dict[str, Element]:
        """{generator name: nonzero value} in generator order; a fresh view
        rebuilt from the table."""
        return table_values(self.model, self.table)

    def value(self, name: str) -> Element:
        return table_value(self.model, self.table, self.model.index.get(name))

    def is_zero(self) -> bool:
        return not self.table[1]

    def __eq__(self, other):
        # equality on generators decides equality (the algebra is free), and
        # reduced tables of equal values share their denominator and numerators
        return (
            isinstance(other, Derivation)
            and self.model is other.model
            and self.degree == other.degree
            and table_numerators(self.table) == table_numerators(other.table)
        )

    def __add__(self, other: "Derivation") -> "Derivation":
        return self._combine(other, 1)

    def __sub__(self, other: "Derivation") -> "Derivation":
        return self._combine(other, -1)

    def _combine(self, other: "Derivation", sign: int) -> "Derivation":
        """self + sign * other, summed on the tables' numerators."""
        if other.model is not self.model or other.degree != self.degree:
            raise DerivationError("can only add derivations of equal degree and model")
        table = combine_tables(self.model, [(self.table, 1), (other.table, sign)], self.degree)
        return Derivation._of_table(self.model, self.degree, table)

    def __mul__(self, c) -> "Derivation":
        table = combine_tables(self.model, [(self.table, Fraction(c))], self.degree)
        return Derivation._of_table(self.model, self.degree, table)

    __rmul__ = __mul__

    def __call__(self, a: Element) -> Element:
        """Apply by the graded Leibniz rule, one monomial factor at a time."""
        if a.model is not self.model:
            raise DerivationError("element of a different model")
        return apply_table(self.model, self.table, a)

    def __repr__(self):
        parts = ", ".join(f"{k} -> {format_element(v)}" for k, v in sorted(self.values.items()))
        return f"Derivation(deg {self.degree}; {parts or '0'})"


def model_differential(model: Model) -> Derivation:
    """The declared differential of a model, as a degree-1 derivation that
    applies through the model's own value table."""
    return Derivation._of_table(model, 1, model.d_table)


def commutator(d1: Derivation, d2: Derivation) -> Derivation:
    """[D1, D2] = D1 D2 - (-1)^{|D1||D2|} D2 D1, evaluated on generators in one
    Leibniz pass per side: D1 over D2's values, then D2 over D1's, pre-signed.
    The bracket keeps the integer table the passes built."""
    if d1.model is not d2.model:
        raise DerivationError("ambient mismatch")
    negate = not (d1.degree % 2 and d2.degree % 2)
    t1, t2 = d1.table, d2.table
    degree = d1.degree + d2.degree
    table = apply_values(d1.model, [(t1, t2, False), (t2, t1, negate)], degree)
    return Derivation._of_table(d1.model, degree, table)


class MCResult:
    """Outcome of a Maurer-Cartan check; falsy iff some generator has a residue."""

    __slots__ = ("witness", "residue")

    def __init__(self, witness: Optional[str] = None, residue: Optional[Element] = None):
        self.witness = witness
        self.residue = residue

    def __bool__(self):
        return self.witness is None

    def __repr__(self):
        if self:
            return "MCResult(pass)"
        return f"MCResult(fail on {self.witness}: {format_element(self.residue)})"


def maurer_cartan_check(d: Derivation) -> MCResult:
    """[D, D]/2 = D*D must vanish on every generator; reports the first residue."""
    if d.degree != 1:
        raise DerivationError("Maurer-Cartan check applies to degree-1 derivations")
    # D(g) is g's value, so D*D on every generator is D applied to the values
    table = d.table
    residues = table_values(d.model, apply_values(d.model, [(table, table, False)], 2))
    return MCResult(*next(iter(residues.items()), ()))


def adjoint_orbit(v: Derivation, q: Derivation, cap: int = 8):
    """[q, [v,q], [v,[v,q]], ...] until it vanishes; raises if not nilpotent within cap."""
    terms = [q]
    cur = q
    for _ in range(cap):
        cur = commutator(v, cur)
        if cur.is_zero():
            return terms
        terms.append(cur)
    raise DerivationError(f"ad_V not nilpotent within {cap} steps")


def gauge_transform(q: Derivation, v: Derivation, nilpotency_cap: int = 8) -> Derivation:
    """e^{ad_V} Q for a degree-0 vector field V with nilpotent adjoint action.

    ad_V = [V, .], so this is conjugation by e^V.  Under this convention the
    correspondence gauge qbar*q d/dt carries H + q Fbar to H + qbar F on the
    nose; the textbook twist shift H -> H + dB is gauge_transform(Q, -B d/dt).
    """
    if v.degree != 0:
        raise DerivationError("gauge transformations use degree-0 vector fields")
    total = Derivation.zero(q.model, q.degree)
    fact = Fraction(1)
    for k, term in enumerate(adjoint_orbit(v, q, nilpotency_cap)):
        if k:
            fact = fact * k
        total = total + term * (Fraction(1) / fact)
    return total


def exp_apply(v: Derivation, a: Element, cap: int = 8) -> Element:
    """e^V applied to an element; V must be nilpotent on it within cap steps."""
    out = a
    cur = a
    fact = Fraction(1)
    for k in range(1, cap + 1):
        cur = v(cur)
        if cur.is_zero():
            return out
        fact = fact * k
        out = out + cur * (Fraction(1) / fact)
    raise DerivationError(f"derivation not nilpotent on element within {cap} steps")


# For each shape: its fibers in order as (default name, degree, the structural
# form Q sends the fiber to), where the line's degree None is the caller's;
# then the coupling (form, factor) that adds q * form * factor to Q(t), with q
# the first fiber and t the last.
BUNDLE_SHAPES = {
    "line": ((("t", None, "Theta"),), None),
    "two_step": ((("q", 1, "F"), ("t", 2, "H")), ("Fbar", 1)),
    "correspondence": ((("q", 1, "F"), ("qbar", 1, "Fbar"), ("t", 2, "H")), ("Fbar", 1)),
    "flux": ((("q", 3, "F4"), ("t", 6, "F7")), ("F4", Fraction(1, 2))),
}


def form_degrees(shape: str, degree: Optional[int] = None) -> Dict[str, int]:
    """{form: the degree Q needs it in} over a shape's structural forms, in
    table order; degree is the line's fiber degree."""
    fibers, coupling = BUNDLE_SHAPES[shape]
    degrees = [degree if d is None else d for _, d, _ in fibers]
    out = {form: d + 1 for (_, _, form), d in zip(fibers, degrees)}
    if coupling:
        out[coupling[0]] = degrees[-1] - degrees[0] + 1
    return out


class DgBundle:
    """A base model extended by shifted-line fibers with its homological field.

    Shapes, one row each of BUNDLE_SHAPES:
      line:           one fiber t of degree n,    Q = d + Theta dt
      two_step:       q (deg 1), t (deg 2),       Q = d + F dq + (H + q Fbar) dt
      correspondence: q, qbar (deg 1), t (deg 2), Q = d + F dq + Fbar dqbar + (H + q Fbar) dt
      flux:           q (deg 3), t (deg 6),       Q = d + F4 dq + (F7 + q F4/2) dt

    `names` renames the fibers in table order (a fiber's name is also the
    attribute q_name, qbar_name or t_name after its default), `degree` is the
    line's fiber degree, and a structural form left out is zero.
    """

    def __init__(self, base: Model, shape, structural, names=(), degree=None, name=""):
        fibers, coupling = BUNDLE_SHAPES[shape]
        self.base = base
        self.shape = shape
        self.fiber_names = tuple(names) or tuple(default for default, _, _ in fibers)
        for (default, _, _), fiber in zip(fibers, self.fiber_names):
            setattr(self, default + "_name", fiber)
        self.structural = {
            form: structural.get(form, base.zero()) for form in form_degrees(shape, degree)
        }
        self.name = name or (base.name + "-bundle")
        gens = list(base.generators) + [
            GradedGenerator(fiber, degree if d is None else d)
            for fiber, (_, d, _) in zip(self.fiber_names, fibers)
        ]

        # Q's values are assembled on the model being built, whose d they are,
        # and that model is the total one from the start, as include_base needs;
        # d*d = 0 there is the Maurer-Cartan equation
        def field(total: Model) -> Dict[str, Element]:
            self.total = total
            values = {g: self.include_base(el) for g, el in base.differential.items()}
            for fiber, (_, _, form) in zip(self.fiber_names, fibers):
                values[fiber] = self.structural_total(form)
            if coupling:
                form, factor = coupling
                q, t = self.fiber_names[0], self.fiber_names[-1]
                values[t] = values[t] + total.gen(q) * self.structural_total(form) * factor
            return values

        dimension = base.formal_dimension
        try:
            Model(gens, formal_dimension=dimension, differential=field, name=self.name)
        except GradedError as e:
            # no local names the error raised below, so no frame cycle keeps it alive
            bundle = result = None
            try:  # a candidate field of the right degrees is kept for inspection
                values = field(Model(gens, formal_dimension=dimension))
                self.q = Derivation(self.total, 1, values)
                bundle, result = self, maurer_cartan_check(self.q)
            except DerivationError:
                pass
            raise BundleError(f"Maurer-Cartan failure: {e}", bundle, result) from e
        self.q = model_differential(self.total)

    # -- element transport -------------------------------------------------

    def include_base(self, el: Element) -> Element:
        if el.model is not self.base:
            raise BundleError("expected an element of the base model")
        pad = len(self.fiber_names)
        return Element._trusted(self.total, {m + (0,) * pad: c for m, c in el.terms.items()})

    def restrict_to_base(self, el: Element) -> Element:
        if el.model is not self.total:
            raise BundleError("expected an element of the total model")
        nbase = len(self.base.generators)
        terms = {}
        for m, c in el.terms.items():
            if any(m[nbase:]):
                raise BundleError("element has fiber-dependent terms")
            terms[m[:nbase]] = c
        return Element(self.base, terms)

    def is_base_valued(self, el: Element) -> bool:
        nbase = len(self.base.generators)
        return all(not any(m[nbase:]) for m in el.terms)

    def fiber_coefficients(self, el: Element, fiber: str):
        """Decompose el = sum_k c_k * fiber^k with the fiber power on the right.

        Returns {k: c_k} as elements of the total model with the fiber removed;
        for an odd fiber the sign of moving it past the tail of each monomial is
        folded into the coefficient.
        """
        if el.model is not self.total:
            raise BundleError("expected an element of the total model")
        idx = self.total.index[fiber]
        bits = self.total.odd_bits
        odd = bits[idx]
        out: Dict[int, Dict[tuple, Fraction]] = {}
        for m, c in el.terms.items():
            k = m[idx]
            if odd and k and (_odd_mask(bits, m) >> (idx + 1)).bit_count() & 1:
                c = -c
            out.setdefault(k, {})[m[:idx] + (0,) + m[idx + 1 :]] = c
        return {k: Element(self.total, t) for k, t in sorted(out.items())}

    def structural_total(self, key: str) -> Element:
        return self.include_base(self.structural[key])

    @property
    def formal_dimension(self) -> int:
        return self.base.formal_dimension

    def __repr__(self):
        return f"DgBundle({self.shape}; {self.total!r})"

    # -- constructors --------------------------------------------------------

    @classmethod
    def line(cls, base: Model, theta: Element, fiber: str = "t", degree: int = 2, name=""):
        """R[n]-extension by a single fiber with Q(fiber) = theta."""
        return cls(base, "line", {"Theta": theta}, (fiber,), degree, name)

    @classmethod
    def two_step(
        cls, base: Model, f: Element, fbar: Element, h: Element, q: str = "q", t: str = "t", name=""
    ):
        return cls(base, "two_step", {"F": f, "Fbar": fbar, "H": h}, (q, t), name=name)

    @classmethod
    def correspondence(
        cls,
        base: Model,
        f: Element,
        fbar: Element,
        h: Element,
        q: str = "q",
        qbar: str = "qbar",
        t: str = "t",
        name="",
    ):
        return cls(base, "correspondence", {"F": f, "Fbar": fbar, "H": h}, (q, qbar, t), name=name)

    @classmethod
    def flux(cls, base: Model, f4: Element, f7: Element, q: str = "q", t: str = "t", name=""):
        return cls(base, "flux", {"F4": f4, "F7": f7}, (q, t), name=name)
