"""Free graded-commutative algebras over exact rationals.

A monomial is one packed int: generator i's exponent sits in field i, the
fields in generator order, each below its top bit, a guard that raises
GradedError rather than carry an exponent past the field.  A field is sized
by its generator's parity: an odd generator's exponent is 0 or 1, so its
field is that bit and the guard; an even one's is WIDTH bits and holds up to
MAX_EXPONENT.  So a product adds monomials, `m & model.odd` is the odd mask,
packed-int order is the colex order of the exponent tuples, and a base
model's monomials are its bundles' own, since its generators are a prefix of
theirs with the same parities.  An odd-only model of up to 15 generators has
monomials below 2**30, one digit of a Python int.  Only `Model.pack`,
`Model.unpack`, `format_monomial` and the printing order (degree, then the
exponent tuples lexicographically, as in every basis) see exponent tuples.
Reordering a product into normal form accumulates the transposition sign
(-1)^{|a||b|}; every other sign in the package derives from this one
convention.  Only odd generators move signs, so a product's sign is read off
the odd masks of its factors by popcounts.  `d`, every derivation and every
cochain slice apply through one Leibniz loop, which reads a `ValueTable`:
the one stored form of a model's d and of a derivation, built once, with the
values only a view.

The kernel computes on integers, in one coefficient layout: int numerators
over one positive denominator, the smallest such (no factor divides it and
every numerator).  A value table shares one denominator across its values,
and an `Element` is one such row, `nums` {monomial: int} over `den`.
The loop multiplies and adds plain ints; `Element.terms` is a Fraction view
built on each read.  A bracket of derivations is itself a table built from
the integer sums, so nested brackets never pass through `Fraction`.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd, inf, lcm
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

Rational = Union[Fraction, int]


class DgcalcError(Exception):
    """The base of every error dgcalc raises on purpose; the CLI reports any
    of them as a one-line diagnostic and exit 2."""


class GradedError(DgcalcError):
    """An invalid graded object or operation; `result` is the failing MCResult
    when a model's d*d != 0, else None."""

    def __init__(self, message: str, result: Optional["MCResult"] = None):
        super().__init__(message)
        self.result = result


def is_name(text: str) -> bool:
    """Whether text reads back as one identifier token of the expression
    scanner: a letter or '_', then letters, digits or '_'."""
    return (text[:1].isalpha() or text[:1] == "_") and all(ch.isalnum() or ch == "_" for ch in text)


class GradedGenerator:
    """A named generator of positive degree; parity is degree mod 2."""

    __slots__ = ("name", "degree")

    def __init__(self, name: str, degree: int):
        if not is_name(name):
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


# an even generator's field holds MAX_EXPONENT below its top bit, the guard,
# so a sum of two exponents in range never carries into the next field; an
# odd generator's field is 2 bits, its exponent bit and the guard
WIDTH = 25
MAX_EXPONENT = (1 << WIDTH - 1) - 1


def _check_fields(model: "Model", monomials: Iterable[int]) -> None:
    """Raise GradedError if a monomial set a guard bit: an exponent passed its field's largest."""
    for m in monomials:
        if m & model.guard:
            i = bisect_right(model.shifts, (m & model.guard).bit_length() - 1) - 1
            raise GradedError(f"the exponent of {model.generators[i].name} passes {model.tops[i]}")


def monomial_degree(model: "Model", m: int) -> int:
    """The total degree of a monomial."""
    total = 0
    for g, top, width in zip(model.degrees, model.tops, model.widths):
        if not m:
            break
        total += (m & top) * g
        m >>= width
    return total


def _sign_masks(v: int) -> tuple:
    """(A, B) for the odd mask v: A is the XOR over the bits b of v of "every
    bit above b" (negative when v has an odd number of bits), and B the XOR
    of "every bit below b".  So for a mask w, (w & A).bit_count() & 1 is the
    parity of the transpositions that move v's odd factors left past those
    of w after them, and (w & B).bit_count() & 1 that of moving w's past
    v's: the Koszul signs of w*v and v*w."""
    above = below = 0
    rest = v
    while rest:
        low = rest & -rest
        above ^= -(low << 1)
        below ^= low - 1
        rest ^= low
    return above, below


class _SignMasks(dict):
    """{odd mask v: _sign_masks(v)}, each pair built on first use.  The masks
    depend on v alone, so one cache serves every model and table, and it
    holds ints only.  Only operators fill it: the terms of the value tables
    `leibniz` applies, and those of a twist.  A product reads a stored pair
    and builds a missing one without storing it, so the cache grows with the
    operators a process applies, not with the elements it multiplies."""

    __slots__ = ()

    def __missing__(self, v: int) -> tuple:
        self[v] = masks = _sign_masks(v)
        return masks


SIGN_MASKS = _SignMasks()


def _reduced(den: int, nums: Mapping):
    """(den, nums) for {monomial: int numerator} over den, with the zeros
    dropped and the common factor divided out: an element's normal form, the
    one a `ValueTable` gives its rows."""
    nums = {k: n for k, n in nums.items() if n}
    if den != 1:
        common = gcd(den, *nums.values())
        if common != 1:
            return den // common, {k: n // common for k, n in nums.items()}
    return den, nums


class ValueTable:
    """The values of a derivation of the given degree on generators, laid out
    for `leibniz`: the one stored form of a model's d and of a derivation.

    `entries` holds one (i, shift, top, unit, below, above, terms) per
    generator i with a nonzero value, in generator order: shift is the
    offset of field i, top its largest exponent and the mask of its exponent
    bits (1 for an odd generator), unit the monomial of generator i alone,
    below and above select the fields before and after field i, and terms
    are the value's (monomial, odd mask, n), its coefficient being the int n
    over the table's one denominator `den`.
    Only this module reads `entries`; others ask `is_zero()`.  A table is
    reduced, so two are equal exactly when their degrees, denominators and
    `numerators()` are.
    """

    __slots__ = ("degree", "entries", "den")

    def __init__(self, model: "Model", sums: Mapping[int, Mapping[int, int]], degree: int, den: int):
        """The table sending generator i to the sum of n / den over sums[i],
        in normal form: zeros dropped, and the gcd of den and every
        numerator divided out.  Each row's terms are built in one pass, and
        the gcd is folded only while it is not 1."""
        odd, units, shifts, tops, widths = model.odd, model.units, model.shifts, model.tops, model.widths
        entries = []
        common = den
        for i in sorted(sums):
            terms = [(m, m & odd, n) for m, n in sums[i].items() if n]
            if terms:
                if common != 1:
                    common = gcd(common, *[n for _, _, n in terms])
                unit = units[i]
                entries.append((i, shifts[i], tops[i], unit, unit - 1, -unit << widths[i], terms))
        if common != 1:
            den //= common
            for k, (*field, terms) in enumerate(entries):
                entries[k] = (*field, [(m, v, n // common) for m, v, n in terms])
        self.degree, self.den = degree, den
        self.entries = tuple(entries)

    def is_zero(self) -> bool:
        """Whether the table gives no generator a value."""
        return not self.entries

    def numerators(self) -> dict:
        """{generator index: {monomial: int numerator}} over the generators
        the table gives a value, each coefficient a numerator over `den`."""
        return {i: {m: n for m, _, n in terms} for i, *_, terms in self.entries}

    def values(self, model: "Model") -> dict:
        """{generator name: its value} over the generators the table gives a
        value, in generator order; fresh Elements built from the table."""
        names = [g.name for g in model.generators]
        return {names[i]: Element._of(model, t, self.den) for i, t in self.numerators().items()}

    def value(self, model: "Model", i: Optional[int]) -> "Element":
        """The value the table gives generator i, zero if none; only that entry is read."""
        terms = next((terms for j, *_, terms in self.entries if j == i), ())
        return Element._of(model, {m: n for m, _, n in terms}, self.den)

    def __eq__(self, other):
        if not isinstance(other, ValueTable):
            return NotImplemented
        same = self.degree == other.degree and self.den == other.den
        return same and self.numerators() == other.numerators()


def value_table(model: "Model", values: Mapping[str, "Element"], degree: int) -> ValueTable:
    """The `ValueTable` of the given degree with these values on generators,
    and the one check of such values: each sits on a generator of the model,
    is an Element of it, and is zero or homogeneous of degree |g| + degree."""
    for g, v in values.items():
        if g not in model.index:
            raise GradedError(f"value on unknown generator {g!r}")
        if not isinstance(v, Element) or v.model is not model:
            raise GradedError(f"value on {g} is not an element of the ambient model")
        want = model.degrees[model.index[g]] + degree
        if v.nums and v.degree() != want:
            raise GradedError(f"value on {g} must be homogeneous of degree {want}, got {v.degree()}")
    den = lcm(*[v.den for v in values.values()])
    sums = {model.index[g]: {m: n * (den // v.den) for m, n in v.nums.items()} for g, v in values.items()}
    return ValueTable(model, sums, degree, den)


def combine_tables(model: "Model", parts) -> ValueTable:
    """The value table of sum c * D over the parts (table of D, rational c),
    all of one degree, summed on the numerators over one common denominator."""
    den = lcm(*[table.den * c.denominator for table, c in parts])
    sums: dict = {}
    for table, c in parts:
        scale = den // (table.den * c.denominator) * c.numerator
        for i, *_, terms in table.entries:
            out = sums.setdefault(i, {})
            for m, _, n in terms:
                out[m] = out.get(m, 0) + scale * n
    return ValueTable(model, sums, parts[0][0].degree, den)


def leibniz(model: "Model", table: ValueTable, pairs: Iterable[tuple], outs: Iterable[dict]) -> None:
    """Add coeff * D(m) into out for each (m, coeff) of pairs and out of outs,
    where D is the derivation with this value table, scaled by its
    denominator: coeff is an int, and so is every sum left in out.

    D(x_1 ... x_k) = sum_i (-1)^{|D|(|x_1| + ... + |x_{i-1}|)} x_1 ... D(x_i) ... x_k,
    with e x^{e-1} D(x) for an even power x^e.  Each term of D(x_i) is merged
    with the front and then with the rest of the monomial, straight into out.
    Applying D to an element passes one shared out; a cochain slice passes
    one out per basis monomial, each with coefficient 1.  Zero sums are left
    in out.
    """
    flip, entries = table.degree & 1, table.entries
    if not entries:
        return
    odd, guard, masks = model.odd, model.guard, SIGN_MASKS
    for (m, coeff), out in zip(pairs, outs):
        mask = m & odd
        for _, shift, top, unit, below, above, value in entries:
            e = m >> shift & top
            if not e:
                continue
            front = mask & below
            rest = mask & above
            others = front | rest
            lowered = m - unit
            c = coeff if e == 1 else coeff * e
            negate = flip & front.bit_count() & 1  # 1 when (-1)^{|D| |front|} is -1
            for v, vmask, n in value:
                if vmask:
                    if vmask & others:
                        continue
                    # v moves left past front's odd factors, then rest's past v
                    over, under = masks[vmask]
                    sign = negate ^ (front & over ^ rest & under).bit_count() & 1
                else:
                    sign = negate
                term = c * n
                if sign:
                    term = -term
                key = lowered + v
                if key & guard:
                    _check_fields(model, (key,))
                if key in out:
                    out[key] += term
                else:
                    out[key] = term


def apply_table(model: "Model", table: ValueTable, a: "Element") -> "Element":
    """The derivation with this value table applied to the element a: one
    Leibniz pass over a's numerators, over the product of the denominators."""
    out: dict = {}
    leibniz(model, table, a.nums.items(), repeat(out))
    return Element._of(model, out, a.den * table.den)


def apply_values(model: "Model", passes) -> ValueTable:
    """The value table sending each generator g to the sum of D(v), or -D(v)
    when negate, over the passes (table, values, negate) whose value table
    `values` gives g a value v, where D is the derivation with `table`; one
    Leibniz pass each, and every pass of one degree |table| + |values|.  Each
    pass's sums are over the product of its two denominators, so every pass
    is scaled onto their least common multiple before they share their sums."""
    den = lcm(*[table.den * values.den for table, values, _ in passes])
    sums: dict = {}
    for table, values, negate in passes:
        scale = den // (table.den * values.den)
        targets = [(sums.setdefault(i, {}), terms) for i, *_, terms in values.entries]
        if negate:
            scale = -scale
        pairs = ((m, scale * n) for _, terms in targets for m, _, n in terms)
        leibniz(model, table, pairs, [out for out, terms in targets for _ in terms])
    return ValueTable(model, sums, table.degree + values.degree, den)


class MCResult:
    """Outcome of a Maurer-Cartan check; falsy iff some generator has a residue."""

    __slots__ = ("witness", "residue")

    def __init__(self, witness: Optional[str] = None, residue: Optional["Element"] = None):
        self.witness = witness
        self.residue = residue

    def __bool__(self):
        return self.witness is None

    def __repr__(self):
        if self:
            return "MCResult(pass)"
        return f"MCResult(fail on {self.witness}: {format_element(self.residue)})"


def square_check(model: "Model", table: ValueTable) -> MCResult:
    """D*D = [D, D]/2 on every generator, for the degree-1 derivation with this
    value table: D(g) is g's value, so D*D on the generators is one Leibniz
    pass of D over the values.  Reports the first generator with a residue."""
    residues = apply_values(model, [(table, table, False)]).values(model)
    return MCResult(*next(iter(residues.items()), ()))


class Element:
    """Rational linear combination of normalized monomials of one model:
    `nums`, {monomial: nonzero int}, over the positive denominator `den`,
    reduced like a value-table row.  `terms` is a fresh {monomial: Fraction}
    view."""

    __slots__ = ("model", "den", "nums")

    def __init__(self, model: "Model", terms: Mapping[int, Rational]):
        for m in terms:
            if m < 0 or m.bit_length() > model.guard.bit_length():
                raise GradedError(f"monomial key {m} lies outside the model's fields")
        _check_fields(model, terms)
        terms = {m: Fraction(c) for m, c in terms.items()}
        den = lcm(*[c.denominator for c in terms.values()])
        nums = {m: c.numerator * (den // c.denominator) for m, c in terms.items()}
        self.model = model
        self.den, self.nums = _reduced(den, nums)

    @classmethod
    def _of(cls, model: "Model", nums: Mapping[int, int], den: int = 1) -> "Element":
        """The element sum n / den over nums (den > 0), in normal form."""
        el = cls.__new__(cls)
        el.model = model
        el.den, el.nums = _reduced(den, nums)
        return el

    @property
    def terms(self) -> dict:
        return {m: Fraction(n, self.den) for m, n in self.nums.items()}

    # -- ring structure ---------------------------------------------------

    def _coerce(self, other) -> "Element":
        if isinstance(other, Element):
            if other.model is not self.model:
                raise GradedError("ambient model mismatch")
            return other
        return self.model.scalar(other)

    def _combine(self, other, sign: int) -> "Element":
        other = self._coerce(other)
        den = lcm(self.den, other.den)
        out = {m: n * (den // self.den) for m, n in self.nums.items()}
        scale = sign * (den // other.den)
        for m, n in other.nums.items():
            out[m] = out.get(m, 0) + scale * n
        return Element._of(self.model, out, den)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Element._of(self.model, {m: -n for m, n in self.nums.items()}, self.den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, Element):
            c = Fraction(other)
            scaled = {m: c.numerator * n for m, n in self.nums.items()}
            return Element._of(self.model, scaled, self.den * c.denominator)
        if other.model is not self.model:
            raise GradedError("ambient model mismatch")
        odd, guard, masks = self.model.odd, self.model.guard, SIGN_MASKS
        # each term of the right factor with its odd mask and that mask's A,
        # stored or built here: a product adds nothing to the cache
        right = [
            (b, bmask := b & odd, (masks.get(bmask) or _sign_masks(bmask))[0], n) for b, n in other.nums.items()
        ]
        out: dict = {}
        for a, na in self.nums.items():
            amask = a & odd
            for b, bmask, over, nb in right:
                if amask & bmask:
                    continue
                term = na * nb
                if (amask & over).bit_count() & 1:
                    term = -term
                key = a + b
                if key & guard:
                    _check_fields(self.model, (key,))
                if key in out:
                    out[key] += term
                else:
                    out[key] = term
        return Element._of(self.model, out, self.den * other.den)

    def __rmul__(self, other):
        # scalars commute with everything
        return self.__mul__(other)

    def __truediv__(self, other):
        return self * (1 / Fraction(other))

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
                if not square.nums:
                    return square
        return out

    def _constant(self) -> Optional[Fraction]:
        """The value of a constant element, zero included; None for any other."""
        return Fraction(self.nums.get(0, 0), self.den) if self.nums.keys() <= {0} else None

    def __eq__(self, other):
        if isinstance(other, Element):
            return self.model is other.model and self.den == other.den and self.nums == other.nums
        try:
            c = Fraction(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self._constant() == c

    def __hash__(self):
        # a constant element equals its value, so it hashes as that value
        c = self._constant()
        return hash((id(self.model), self.den, frozenset(self.nums.items())) if c is None else c)

    def is_zero(self) -> bool:
        return not self.nums

    # -- grading ----------------------------------------------------------

    def degree(self) -> Optional[int]:
        """The common degree of all terms, None for 0 or inhomogeneous elements."""
        degs = {monomial_degree(self.model, m) for m in self.nums}
        if len(degs) == 1:
            return degs.pop()
        return None

    def sorted_terms(self):
        model = self.model
        return sorted(self.terms.items(), key=lambda t: (monomial_degree(model, t[0]), model.unpack(t[0])))

    def __repr__(self):
        return f"<{format_element(self)}>"


class Model:
    """A finitely generated CDGA over the rationals standing in for a form algebra.

    The differential is declared on generators and extends by the graded
    Leibniz rule; d*d = 0 is checked on every generator at construction.  d
    is kept as its `ValueTable` alone, and the bases and cochain slices as
    packed monomials and sparse columns, so nothing a model holds refers back
    to it and reference counting frees it once its last user is gone.
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
        # each generator's field: its width and offset, the largest exponent
        # it holds (the mask of its exponent bits), and the monomial of the
        # generator alone; `odd` sums the odd units, so m & odd is the odd
        # mask of m, and `guard` holds every field's top bit
        self.widths = tuple(2 if g.is_odd else WIDTH for g in gens)
        self.shifts = tuple(accumulate(self.widths, initial=0))[:-1]
        self.tops = tuple(1 if g.is_odd else MAX_EXPONENT for g in gens)
        self.units = tuple(1 << shift for shift in self.shifts)
        self.odd = sum(u for u, g in zip(self.units, gens) if g.is_odd)
        self.guard = sum(u << width - 1 for u, width in zip(self.units, self.widths))
        # per start index, {degree: monomials in generators start..} up to the
        # highest degree they fill, that reach (unbounded past an even one),
        # and the gcd of their degrees, which divides every degree they fill
        self._suffixes = [{} for _ in range(len(gens) + 1)]
        self._reach, self._steps = [0], [0]
        for g in reversed(self.degrees):
            self._reach.insert(0, self._reach[0] + g if g % 2 else inf)
            self._steps.insert(0, gcd(g, self._steps[0]))
        # the cochain slices {degree: CochainSpace}, built on first use through
        # cohomology.cochains; none of them refers back to the model
        self._slices: dict = {}
        self.formal_dimension = formal_dimension
        self.name = name
        self.d_table = value_table(self, {} if differential is None else differential(self), 1)
        result = square_check(self, self.d_table)
        if not result:
            try:
                residue = format_element(result.residue)
            except GradedError as e:
                residue = f"not printed, since {e}"
            raise GradedError(f"d*d != 0 on generator {result.witness!r}: residue {residue}", result)

    # -- basic elements ---------------------------------------------------

    def generator_named(self, name: str) -> GradedGenerator:
        return self.generators[self.index[name]]

    def gen(self, name: str) -> Element:
        if name not in self.index:
            raise GradedError(f"unknown generator {name!r}")
        return Element._of(self, {self.units[self.index[name]]: 1})

    def zero(self) -> Element:
        return Element._of(self, {})

    def one(self) -> Element:
        return self.scalar(1)

    def scalar(self, c: Rational) -> Element:
        c = Fraction(c)
        return Element._of(self, {0: c.numerator}, c.denominator)

    def monomial_element(self, m: int, coeff: Rational = 1) -> Element:
        c = Fraction(coeff)
        return Element._of(self, {m: c.numerator}, c.denominator)

    def pack(self, exponents: Sequence[int]) -> int:
        """The monomial with these exponents, one per generator in order."""
        if len(exponents) != len(self.tops):
            raise GradedError(f"{len(exponents)} exponents for {len(self.tops)} generators")
        for e, top in zip(exponents, self.tops):
            if not 0 <= e <= top:
                raise GradedError(f"an exponent of {tuple(exponents)} is outside 0..{top}")
        return sum(e << shift for e, shift in zip(exponents, self.shifts))

    def unpack(self, m: int) -> tuple:
        """The exponent tuple of a monomial, one exponent per generator."""
        return tuple(m >> shift & top for shift, top in zip(self.shifts, self.tops))

    # -- degree-wise bases --------------------------------------------------

    def basis(self, degree: int):
        """All normalized monomials of the given total degree, in lexicographic
        exponent order.  Finite because every generator has degree >= 1.

        The generators are fixed at construction, so each degree is built
        once, by `_suffix`, and every call returns the same tuple."""
        return self._suffix(0, degree) if degree >= 0 else ()

    def _suffix(self, start: int, degree: int):
        """The monomials in generators start.. of the given total degree, in
        lexicographic order, each built once from the shorter ones it extends.
        Each exponent leaves a degree within the later generators' reach, and
        a degree past the reach, or not a multiple of their degrees' gcd, is
        empty at once and never stored, so the work grows with the output,
        not the degree, past odd generators alone or of a wrong residue."""
        level = self._suffixes[start]
        cached = level.get(degree)
        if cached is not None:
            return cached
        if degree > self._reach[start]:
            return ()
        if start == len(self.degrees):
            return (0,)
        if degree % self._steps[start]:
            return ()
        g, unit, rest = self.degrees[start], self.units[start], self._reach[start + 1]
        top = min(degree // g, 1) if g % 2 else degree // g
        if top > MAX_EXPONENT:
            raise GradedError(f"degree {degree} needs an exponent past {MAX_EXPONENT}")
        out = []
        for e in range(0 if degree <= rest else -((rest - degree) // g), top + 1):
            out += [e * unit + tail for tail in self._suffix(start + 1, degree - e * g)]
        level[degree] = cached = tuple(out)
        return cached

    def dimension(self, degree: int) -> int:
        return len(self.basis(degree))

    # -- the differential ---------------------------------------------------

    def d(self, a: Element) -> Element:
        """Extend the declared differential by the graded Leibniz rule."""
        if a.model is not self:
            raise GradedError("element of a different model")
        return apply_table(self, self.d_table, a)

    @property
    def differential(self) -> dict:
        """{generator name: d of it} over the generators with a nonzero d, in
        declaration order; a fresh view rebuilt from `d_table`."""
        return self.d_table.values(self)

    def __repr__(self):
        gens = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"Model({self.name or '?'}; {gens}; dim {self.formal_dimension})"


def format_monomial(model: Model, m: int) -> str:
    parts = []
    for g, e in zip(model.generators, model.unpack(m)):
        if e == 1:
            parts.append(g.name)
        elif e > 1:
            parts.append(f"{g.name}^{e}")
    return "*".join(parts)


def format_element(a: Element) -> str:
    """Deterministic printer; `parse_expression` inverts it exactly.  A
    coefficient past Python's int-string limit raises GradedError."""
    if a.is_zero():
        return "0"
    chunks = []
    for m, c in a.sorted_terms():
        mono = format_monomial(a.model, m)
        try:
            text = str(abs(c))
        except ValueError:
            raise GradedError(f"a coefficient has more than {sys.get_int_max_str_digits()} digits") from None
        if not mono:
            body = text
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{text}*{mono}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)

