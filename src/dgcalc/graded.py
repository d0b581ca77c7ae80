"""Free graded-commutative algebras over exact rationals.

A monomial is its exponent tuple: one power per generator in declaration
order, odd generators with exponent at most one.  `Element.terms` maps these
tuples to nonzero `Fraction`s, and tuples compare lexicographically, which
fixes the printing order (degree, exponents).  Reordering a product into
normal form accumulates the transposition sign (-1)^{|a||b|}; every other
sign in the package derives from this one convention.  Only odd generators
move signs, so a product's sign is read off the odd-generator bitmasks of its
factors by popcounts, and `d` and every derivation apply through one Leibniz
kernel.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from operator import add, mul
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


def monomial_degree(model: "Model", exponents: Sequence[int]) -> int:
    """The total degree of the monomial with these exponents."""
    return sum(map(mul, exponents, model.degrees))


def _odd_mask(bits: Sequence[int], exponents: Sequence[int]) -> int:
    """Bit i is set when odd generator i occurs; `bits` is a model's `odd_bits`."""
    return sum(compress(bits, exponents))


def _parity(left_mask: int, right_mask: int) -> int:
    """Transpositions, mod 2, that move each odd factor of `right` left past
    the odd factors of `left` after it: the Koszul sign of left*right."""
    parity = 0
    while right_mask:
        low = right_mask & -right_mask
        parity += (left_mask >> low.bit_length()).bit_count()
        right_mask ^= low
    return parity & 1


def _merge_sign(model: "Model", left: Sequence[int], right: Sequence[int]):
    """Normal form of (left monomial)*(right monomial): (sign, exponents) or None if zero."""
    bits = model.odd_bits
    left_mask, right_mask = _odd_mask(bits, left), _odd_mask(bits, right)
    if left_mask & right_mask:
        return None
    return -1 if _parity(left_mask, right_mask) else 1, tuple(map(add, left, right))


def _collect(model: "Model", acc: dict) -> "Element":
    """The element of exponent-keyed Fraction sums, zeros dropped."""
    return Element._trusted(model, {k: c for k, c in acc.items() if c})


def leibniz(model: "Model", values: Mapping[str, "Element"], degree: int, a: "Element"):
    """D(a) for the derivation of the given degree with D(x) = values[x] on generators.

    D(x_1 ... x_k) = sum_i (-1)^{|D|(|x_1| + ... + |x_{i-1}|)} x_1 ... D(x_i) ... x_k,
    with e x^{e-1} D(x) for an even power x^e.  Each term of D(x_i) is merged
    with the front and then with the rest of the monomial, straight into one sum.
    """
    bits = model.odd_bits
    gens = model.generators
    flip = degree % 2
    table: dict = {}  # generator index -> the terms of its value with their odd masks
    out: dict = {}
    for exps, coeff in a.terms.items():
        mask = _odd_mask(bits, exps)
        for i, e in enumerate(exps):
            if not e:
                continue
            value = table.get(i)
            if value is None:
                v = values.get(gens[i].name)
                value = table[i] = () if v is None else [
                    (mv, _odd_mask(bits, mv), cv) for mv, cv in v.terms.items()
                ]
            if not value:
                continue
            front = mask & ((1 << i) - 1)
            rest = mask >> (i + 1) << (i + 1)
            others = front | rest
            lowered = exps[:i] + (e - 1,) + exps[i + 1 :]
            c = coeff if e == 1 else coeff * e
            if flip and front.bit_count() & 1:
                c = -c
            for vexps, vmask, vc in value:
                if vmask & others:
                    continue
                term = c * vc
                if vmask and (_parity(front, vmask) ^ _parity(vmask, rest)):
                    term = -term
                key = tuple(map(add, lowered, vexps))
                if key in out:
                    out[key] += term
                else:
                    out[key] = term
    return _collect(model, out)


class Element:
    """Rational linear combination of normalized monomials of one model,
    as {exponent tuple: nonzero Fraction}."""

    __slots__ = ("model", "terms")

    def __init__(self, model: "Model", terms: Mapping[tuple, Rational]):
        self.model = model
        clean = {}
        for m, c in terms.items():
            c = Fraction(c)
            if c:
                clean[m] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, model: "Model", terms: dict) -> "Element":
        """Wrap terms whose coefficients are already nonzero Fractions, as they are."""
        el = cls.__new__(cls)
        el.model = model
        el.terms = terms
        return el

    # -- ring structure ---------------------------------------------------

    def _coerce(self, other) -> "Element":
        if isinstance(other, Element):
            if other.model is not self.model:
                raise GradedError("ambient model mismatch")
            return other
        return self.model.scalar(other)

    def _combine(self, other, subtract: bool) -> "Element":
        out = dict(self.terms)
        for m, c in self._coerce(other).terms.items():
            if subtract:
                c = -c
            if m in out:
                out[m] += c
            else:
                out[m] = c
        return Element._trusted(self.model, {m: c for m, c in out.items() if c})

    def __add__(self, other):
        return self._combine(other, False)

    __radd__ = __add__

    def __neg__(self):
        return Element._trusted(self.model, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self._combine(other, True)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, Element):
            c = Fraction(other)
            terms = {m: c * v for m, v in self.terms.items()} if c else {}
            return Element._trusted(self.model, terms)
        if other.model is not self.model:
            raise GradedError("ambient model mismatch")
        bits = self.model.odd_bits
        right = [(b, _odd_mask(bits, b), c) for b, c in other.terms.items()]
        out: dict = {}
        for a, ca in self.terms.items():
            amask = _odd_mask(bits, a)
            for b, bmask, cb in right:
                if amask & bmask:
                    continue
                term = ca * cb
                if bmask and _parity(amask, bmask):
                    term = -term
                key = tuple(map(add, a, b))
                if key in out:
                    out[key] += term
                else:
                    out[key] = term
        return _collect(self.model, out)

    def __rmul__(self, other):
        # scalars commute with everything
        return self.__mul__(other)

    def __truediv__(self, other):
        c = Fraction(other)
        return Element._trusted(self.model, {m: v / c for m, v in self.terms.items()})

    def __pow__(self, n: int):
        """Repeated squaring; once a square vanishes, so does every higher power."""
        if n < 0:
            raise GradedError("negative powers are not defined")
        out = self.model.one()
        square = self
        while n:
            if n & 1:
                out = out * square
            n >>= 1
            if n:
                square = square * square
                if not square.terms:
                    return square
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
        return self.terms == {(0,) * len(self.model.generators): c}

    def __hash__(self):
        return hash((id(self.model), frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    # -- grading ----------------------------------------------------------

    def degree(self) -> Optional[int]:
        """The common degree of all terms, None for 0 or inhomogeneous elements."""
        degs = {monomial_degree(self.model, m) for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (monomial_degree(self.model, t[0]), t[0]))

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
        self.degrees = tuple(g.degree for g in gens)
        # bit i for each odd generator i, 0 for even ones: the odd mask of an
        # exponent vector is the sum of the bits it selects
        self.odd_bits = tuple(1 << i if g.is_odd else 0 for i, g in enumerate(gens))
        self._bases: dict = {}
        # the model's cochain complex, built on first use by cohomology.complex_of
        self._complex = None
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
        return Element(self, {tuple(exps): Fraction(1)})

    def zero(self) -> Element:
        return Element._trusted(self, {})

    def one(self) -> Element:
        return self.scalar(1)

    def scalar(self, c: Rational) -> Element:
        c = Fraction(c)
        if not c:
            return self.zero()
        return Element(self, {(0,) * len(self.generators): c})

    def monomial_element(self, m: tuple, coeff: Rational = 1) -> Element:
        return Element(self, {m: Fraction(coeff)})

    # -- degree-wise bases --------------------------------------------------

    def basis(self, degree: int):
        """All normalized monomials of the given total degree, in lexicographic
        exponent order.  Finite because every generator has degree >= 1.

        The generators are fixed at construction, so each degree is built
        once and every call returns the same tuple."""
        if degree < 0:
            return ()
        cached = self._bases.get(degree)
        if cached is None:
            cached = self._bases[degree] = self._build_basis(degree)
        return cached

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
        return tuple(acc for acc, _ in prefixes)

    def dimension(self, degree: int) -> int:
        return len(self.basis(degree))

    # -- the differential ---------------------------------------------------

    def d(self, a: Element) -> Element:
        """Extend the declared differential by the graded Leibniz rule."""
        if a.model is not self:
            raise GradedError("element of a different model")
        return leibniz(self, self.differential, 1, a)

    def __repr__(self):
        gens = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"Model({self.name or '?'}; {gens}; dim {self.formal_dimension})"


def format_monomial(model: Model, m: Sequence[int]) -> str:
    parts = []
    for g, e in zip(model.generators, m):
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
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)

