"""Free graded-commutative algebras over exact rationals.

Monomials are kept in a normal form: generator powers in declaration order,
odd generators with exponent at most one.  Reordering a product into normal
form accumulates the transposition sign (-1)^{|a||b|}; every other sign in
the package derives from this one convention.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

Rational = Union[Fraction, int]


class GradedError(Exception):
    pass


class GradedGenerator:
    """A named generator of positive degree; parity is degree mod 2."""

    __slots__ = ("name", "degree")

    def __init__(self, name: str, degree: int):
        if not name or not (name[0].isalpha() or name[0] == "_"):
            raise GradedError(f"bad generator name {name!r}")
        if degree < 1:
            raise GradedError(f"generator {name!r} must have degree >= 1, got {degree}")
        self.name = name
        self.degree = degree

    @property
    def is_odd(self) -> bool:
        return self.degree % 2 == 1

    def __repr__(self):
        return f"GradedGenerator({self.name!r}, {self.degree})"


class Monomial:
    """Exponent vector over a model's generators, aligned with declaration order."""

    __slots__ = ("exponents",)

    def __init__(self, exponents: Sequence[int]):
        self.exponents = tuple(exponents)

    def __hash__(self):
        return hash(self.exponents)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exponents == other.exponents

    def __lt__(self, other):
        return self.exponents < other.exponents

    def degree(self, model: "Model") -> int:
        return sum(e * g.degree for e, g in zip(self.exponents, model.generators))

    def is_unit(self) -> bool:
        return not any(self.exponents)

    def __repr__(self):
        return f"Monomial{self.exponents}"


def _merge_sign(model: "Model", left: Sequence[int], right: Sequence[int]):
    """Normal form of (left monomial)*(right monomial): (sign, exponents) or None if zero."""
    sign = 1
    merged = []
    # odd degree carried by the part of `right` already consumed, per generator:
    # moving right[j] left past left[i] for i > j costs a sign when both are odd.
    for j, g in enumerate(model.generators):
        a, b = left[j], right[j]
        if g.is_odd:
            if a + b > 1:
                return None
            if b:
                # pull right[j] through the tail of `left`
                tail_odd = sum(
                    left[i] for i in range(j + 1, len(left)) if model.generators[i].is_odd
                )
                if tail_odd % 2:
                    sign = -sign
        merged.append(a + b)
    return sign, tuple(merged)


class Element:
    """Rational linear combination of normalized monomials of one model."""

    __slots__ = ("model", "terms")

    def __init__(self, model: "Model", terms: Mapping[Monomial, Rational]):
        self.model = model
        clean = {}
        for m, c in terms.items():
            c = Fraction(c)
            if c:
                clean[m] = c
        self.terms = clean

    # -- ring structure ---------------------------------------------------

    def _coerce(self, other) -> "Element":
        if isinstance(other, Element):
            if other.model is not self.model:
                raise GradedError("ambient model mismatch")
            return other
        return self.model.scalar(other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Element(self.model, out)

    __radd__ = __add__

    def __neg__(self):
        return Element(self.model, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, Element):
            c = Fraction(other)
            return Element(self.model, {m: c * v for m, v in self.terms.items()})
        if other.model is not self.model:
            raise GradedError("ambient model mismatch")
        out: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                hit = _merge_sign(self.model, ma.exponents, mb.exponents)
                if hit is None:
                    continue
                sign, exps = hit
                m = Monomial(exps)
                out[m] = out.get(m, Fraction(0)) + sign * ca * cb
        return Element(self.model, out)

    def __rmul__(self, other):
        # scalars commute with everything
        return self.__mul__(other)

    def __truediv__(self, other):
        c = Fraction(other)
        return Element(self.model, {m: v / c for m, v in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise GradedError("negative powers are not defined")
        out = self.model.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, Element):
            return self.model is other.model and self.terms == other.terms
        try:
            c = Fraction(other)
        except (TypeError, ValueError):
            return NotImplemented
        if not c:
            return not self.terms
        u = Monomial((0,) * len(self.model.generators))
        return self.terms == {u: c}

    def __hash__(self):
        return hash((id(self.model), tuple(sorted(self.terms.items(), key=lambda t: t[0].exponents))))

    def is_zero(self) -> bool:
        return not self.terms

    # -- grading ----------------------------------------------------------

    def degree(self) -> Optional[int]:
        """The common degree of all terms, None for 0 or inhomogeneous elements."""
        degs = {m.degree(self.model) for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_homogeneous(self) -> bool:
        return len({m.degree(self.model) for m in self.terms}) <= 1

    def homogeneous_components(self) -> dict:
        comps: dict = {}
        for m, c in self.terms.items():
            comps.setdefault(m.degree(self.model), {})[m] = c
        return {d: Element(self.model, t) for d, t in sorted(comps.items())}

    def component(self, degree: int) -> "Element":
        return Element(
            self.model, {m: c for m, c in self.terms.items() if m.degree(self.model) == degree}
        )

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (t[0].degree(self.model), t[0].exponents))

    def __repr__(self):
        return f"<{format_element(self)}>"


class Model:
    """A finitely generated CDGA over the rationals standing in for a form algebra.

    The differential is declared on generators and extends by the graded
    Leibniz rule; d*d = 0 is checked on every generator at construction.
    """

    def __init__(
        self,
        generators: Iterable,
        formal_dimension: int = 0,
        differential: Optional[Callable[["Model"], Mapping[str, "Element"]]] = None,
        name: str = "",
    ):
        gens = []
        for g in generators:
            if not isinstance(g, GradedGenerator):
                g = GradedGenerator(*g)
            gens.append(g)
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise GradedError("generator names must be unique")
        self.generators = tuple(gens)
        self.index = {g.name: i for i, g in enumerate(gens)}
        self._bases: dict = {}
        self.formal_dimension = formal_dimension
        self.name = name
        if differential is None:
            diff = {}
        else:
            diff = dict(differential(self))
        self.differential = {}
        for gname, val in diff.items():
            if gname not in self.index:
                raise GradedError(f"differential assigned to unknown generator {gname!r}")
            if not isinstance(val, Element) or val.model is not self:
                raise GradedError(f"differential of {gname!r} must be an element of this model")
            if not val.is_zero():
                want = self.generator_named(gname).degree + 1
                if val.degree() != want:
                    raise GradedError(
                        f"d({gname}) must be homogeneous of degree {want}, got {val.degree()}"
                    )
                self.differential[gname] = val
        for g in self.generators:
            dd = self.d(self.d(self.gen(g.name)))
            if not dd.is_zero():
                raise GradedError(f"d*d != 0 on generator {g.name!r}: residue {format_element(dd)}")

    # -- basic elements ---------------------------------------------------

    def generator_named(self, name: str) -> GradedGenerator:
        return self.generators[self.index[name]]

    def gen(self, name: str) -> Element:
        if name not in self.index:
            raise GradedError(f"unknown generator {name!r}")
        exps = [0] * len(self.generators)
        exps[self.index[name]] = 1
        return Element(self, {Monomial(exps): Fraction(1)})

    def zero(self) -> Element:
        return Element(self, {})

    def one(self) -> Element:
        return self.scalar(1)

    def scalar(self, c: Rational) -> Element:
        c = Fraction(c)
        if not c:
            return self.zero()
        return Element(self, {Monomial((0,) * len(self.generators)): c})

    def monomial_element(self, m: Monomial, coeff: Rational = 1) -> Element:
        return Element(self, {m: Fraction(coeff)})

    # -- degree-wise bases --------------------------------------------------

    def basis(self, degree: int):
        """All normalized monomials of the given total degree, in lexicographic
        exponent order.  Finite because every generator has degree >= 1.

        The generators are fixed at construction, so each degree is built
        once; every call returns a fresh list."""
        if degree < 0:
            return []
        cached = self._bases.get(degree)
        if cached is None:
            cached = self._bases[degree] = tuple(self._build_basis(degree))
        return list(cached)

    def _build_basis(self, degree: int):
        # reach[i]: the most degree generators i.. can add (unbounded once one
        # is even); a prefix that cannot reach the degree is dropped at once
        reach = [0]
        for g in reversed(self.generators):
            reach.append(reach[-1] + g.degree if g.is_odd else float("inf"))
        reach.reverse()
        # extend exponent prefixes one generator at a time, smallest first, so
        # the monomials come out in lexicographic order
        prefixes = [((), degree)] if degree <= reach[0] else []
        for g, bound in zip(self.generators, reach[1:]):
            longer = []
            for acc, remaining in prefixes:
                top = remaining // g.degree
                for e in range(min(top, 1) + 1 if g.is_odd else top + 1):
                    left = remaining - e * g.degree
                    if left <= bound:
                        longer.append((acc + (e,), left))
            prefixes = longer
        return [Monomial(acc) for acc, _ in prefixes]

    def dimension(self, degree: int) -> int:
        return len(self.basis(degree))

    # -- the differential ---------------------------------------------------

    def d(self, a: Element) -> Element:
        """Extend the declared differential by the graded Leibniz rule."""
        if a.model is not self:
            raise GradedError("element of a different model")
        out = self.zero()
        n = len(self.generators)
        for m, coeff in a.terms.items():
            prefix_parity = 0
            for i, e in enumerate(m.exponents):
                if e:
                    dg = self.differential.get(self.generators[i].name)
                    if dg is not None:
                        front = list(m.exponents[:i]) + [0] * (n - i)
                        rest = [0] * i + [e - 1] + list(m.exponents[i + 1 :])
                        sign = -1 if prefix_parity % 2 else 1
                        piece = (
                            self.monomial_element(Monomial(front), sign * coeff * e)
                            * dg
                            * self.monomial_element(Monomial(rest))
                        )
                        out = out + piece
                prefix_parity += e * self.generators[i].degree
        return out

    def __repr__(self):
        gens = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"Model({self.name or '?'}; {gens}; dim {self.formal_dimension})"


def format_rational(c: Fraction) -> str:
    return str(c)


def format_monomial(model: Model, m: Monomial) -> str:
    parts = []
    for g, e in zip(model.generators, m.exponents):
        if e == 1:
            parts.append(g.name)
        elif e > 1:
            parts.append(f"{g.name}^{e}")
    return "*".join(parts)


def format_element(a: Element) -> str:
    """Deterministic printer; `parse_expression` inverts it exactly."""
    if a.is_zero():
        return "0"
    chunks = []
    for m, c in a.sorted_terms():
        mono = format_monomial(a.model, m)
        if not mono:
            body = format_rational(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{format_rational(abs(c))}*{mono}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)


def dimension_series(model: Model, top: int):
    """Coefficients of the Hilbert series prod (1+x^d) * prod 1/(1-x^d) up to x^top.

    Independent counting oracle for Model.basis.
    """
    coeffs = [Fraction(0)] * (top + 1)
    coeffs[0] = Fraction(1)
    for g in model.generators:
        if g.is_odd:
            for n in range(top, g.degree - 1, -1):
                coeffs[n] += coeffs[n - g.degree]
        else:
            for n in range(g.degree, top + 1):
                coeffs[n] += coeffs[n - g.degree]
    return [int(c) for c in coeffs]
