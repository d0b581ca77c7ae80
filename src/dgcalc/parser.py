"""Model files and the expression language.

A .dgm file is line oriented; statements end at a newline or ';' and '#'
starts a comment.  Statements:

    model TEXT                      dim N
    gen NAME : DEGREE               d NAME = EXPR
    fiber NAME : DEGREE             F = EXPR | Fbar = | H = | Theta = | F4 = | F7 =
    let NAME = EXPR
    vec NAME : GEN = EXPR [, GEN = EXPR ...]
    sym NAME : deg = INT [, KEY = EXPR ...]   (KEY in X a b abar f c fbar h
                                               s2 s5 eta1 c4 d3 a3 b6 eta)

Expressions: sums of rational-coefficient products of generator powers; '*'
or juxtaposition multiplies, '^' takes powers, parentheses group.  A NAME is
a letter or '_', then letters, digits or '_'.  Every statement failure has
its line and column; declaring a name, form, model or dimension, or a key of
one vec or sym statement, a second time is one, reported at the repeat.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .cohomology import validate_formal_dimension
from .derivations import BUNDLE_SHAPES, BundleError, Derivation, DgBundle, form_degrees
from .graded import DgcalcError, Element, GradedError, GradedGenerator, MCResult, Model, is_name
from .symmetries import PART_NAMES, SymElement, symmetry

# the shapes a file can declare, tried in this order (only tdualize builds a
# correspondence, through tduality.correspondence), and the key a file may
# write for a form its shape names otherwise: a line's Theta may be given as
# F; a line's forms do not depend on its degree, so any degree lists them
FILE_SHAPES = ("two_step", "flux", "line")
ALIASES = {"F": "Theta"}
STRUCTURAL_KEYS = frozenset(ALIASES).union(*(form_degrees(s, 1) for s in FILE_SHAPES))
# the statements that declare a named text: {kind: (separator, diagnostic label)}
STATEMENTS = {
    "d": ("=", "differential"),
    "let": ("=", "let"),
    "vec": (":", "vec"),
    "sym": (":", "sym"),
    "structural form": ("=", "structural"),
}


class ModelFileError(DgcalcError):
    """A diagnostic with a source position and a machine-checkable kind."""

    def __init__(self, kind: str, line: int, col: int, message: str, witness: str = ""):
        self.kind = kind
        self.line = line
        self.col = col
        self.message = message
        self.witness = witness
        where = f"line {line}, col {col}: " if line else ""
        suffix = f" [{witness}]" if witness else ""
        super().__init__(f"{where}{kind}: {message}{suffix}")


# -- expression scanner and parser ----------------------------------------------


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _scan(text: str, line: int, col0: int) -> List[_Token]:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        col = col0 + i
        if ch.isspace():
            i += 1
            continue
        # decimal digits only: '²' is a digit but no numeral int() can read
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            if j < len(text) and text[j] == "/" and j + 1 < len(text) and text[j + 1].isdecimal():
                j += 1
                while j < len(text) and text[j].isdecimal():
                    j += 1
            # int() reads no run of digits past Python's int-string limit (0: none)
            limit = sys.get_int_max_str_digits()
            if 0 < limit < max(map(len, text[i:j].split("/"))):
                raise ModelFileError("syntax", line, col, f"numeral longer than {limit} digits")
            out.append(_Token("number", text[i:j], line, col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("ident", text[i:j], line, col))
            i = j
            continue
        if ch in "+-*^()":
            out.append(_Token(ch, ch, line, col))
            i += 1
            continue
        raise ModelFileError("syntax", line, col, f"unexpected character {ch!r}")
    out.append(_Token("end", "", line, col0 + len(text)))
    return out


# parentheses nest at most this deep, well inside the interpreter's recursion limit
MAX_NESTING = 100
# a power may expand to at most this many terms: (a + c)^255 over even a, c
# takes about 0.2 s on a 2-vCPU VM, and the time grows with the square of
# the term count
MAX_POWER_TERMS = 256
# all powers of one expression together may expand to at most this many terms,
# so the time a line takes no longer grows with the number of powers on it
MAX_EXPRESSION_TERMS = 4 * MAX_POWER_TERMS


def _capped_comb(n: int, k: int) -> int:
    """C(n, k), or a number past MAX_POWER_TERMS as soon as it is one."""
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)
    out = 1
    for i in range(1, k + 1):
        out = out * (n - k + i) // i  # C(n - k + i, i), growing with i
        if out > MAX_POWER_TERMS:
            break
    return out


def _power_terms(value: Element, n: int) -> int:
    """How many terms value**n can have, counted until past MAX_POWER_TERMS.

    A term with an odd generator squares to zero, so each term of the power
    takes j distinct such terms and n - j of the others, repeats allowed."""
    mask = value.model.odd
    odd = sum(1 for m in value.nums if m & mask)
    even = len(value.nums) - odd
    total = 0
    for j in range(min(n, odd) + 1):
        evens = _capped_comb(n - j + even - 1, n - j) if even else int(j == n)
        total += _capped_comb(odd, j) * evens
        if total > MAX_POWER_TERMS:
            break
    return total


class _ExprParser:
    def __init__(self, tokens: List[_Token], model: Model):
        self.tokens = tokens
        self.pos = 0
        self.model = model
        self.depth = 0
        self.power_terms = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Element:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ModelFileError("syntax", tok.line, tok.col, f"unexpected {tok.text!r}")
        return value

    def expr(self) -> Element:
        negate = False
        if self.peek().kind == "-":
            self.next()
            negate = True
        value = self.term()
        if negate:
            value = -value
        while self.peek().kind in ("+", "-"):
            op = self.next()
            rhs = self.term()
            value = value + rhs if op.kind == "+" else value - rhs
        return value

    def term(self) -> Element:
        """Factors multiplied left to right; a product of n and m terms expands
        to n * m term products, which may not pass MAX_POWER_TERMS.  The right
        factor's term count is predicted before its power expands.  An
        exponent past its field is reported at the power or the factor that
        passes it."""
        value = None
        while True:
            start = self.peek()
            rhs, n, terms = self.factor()
            at = self.tokens[self.pos - 1]  # the exponent, if rhs has one
            if value is not None and len(value.nums) * terms > MAX_POWER_TERMS:
                raise ModelFileError(
                    "syntax", start.line, start.col, f"product expands past {MAX_POWER_TERMS} terms"
                )
            try:
                rhs = rhs if n == 1 else rhs**n
                at = start  # past the power, a product is reported at its right factor
                value = rhs if value is None else value * rhs
            except GradedError as e:
                raise ModelFileError("syntax", at.line, at.col, str(e))
            tok = self.peek()
            if tok.kind == "*":
                self.next()
            elif tok.kind not in ("ident", "number", "("):
                return value

    def factor(self) -> Tuple[Element, int, int]:
        """(value, n, terms): a factor, its exponent, not yet applied, and value**n's term count."""
        tok = self.next()
        if tok.kind == "number":
            try:
                return self.model.scalar(Fraction(tok.text)), 1, 1
            except ZeroDivisionError:
                raise ModelFileError("syntax", tok.line, tok.col, f"zero denominator in {tok.text!r}")
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                raise ModelFileError(
                    "syntax", tok.line, tok.col, f"parentheses nest deeper than {MAX_NESTING}"
                )
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            closing = self.next()
            if closing.kind != ")":
                raise ModelFileError("syntax", closing.line, closing.col, "expected ')'")
            return self._exponent(inner)
        if tok.kind == "ident":
            if tok.text not in self.model.index:
                raise ModelFileError(
                    "unknown-generator", tok.line, tok.col, f"unknown generator {tok.text!r}"
                )
            return self._exponent(self.model.gen(tok.text))
        raise ModelFileError("syntax", tok.line, tok.col, f"expected a factor, got {tok.text!r}")

    def _exponent(self, value: Element) -> Tuple[Element, int, int]:
        """factor()'s triple for value and the exponent after it, 1 if none; a
        power's predicted term count is charged to MAX_EXPRESSION_TERMS."""
        if self.peek().kind != "^":
            return value, 1, len(value.nums)
        self.next()
        tok = self.next()
        if tok.kind != "number" or "/" in tok.text:
            raise ModelFileError("syntax", tok.line, tok.col, "exponent must be a natural number")
        n = int(tok.text)
        terms = _power_terms(value, n)
        self.power_terms += terms
        if terms > MAX_POWER_TERMS:
            message = f"power expands past {MAX_POWER_TERMS} terms"
        elif self.power_terms > MAX_EXPRESSION_TERMS:
            message = f"powers of one expression expand past {MAX_EXPRESSION_TERMS} terms"
        else:
            return value, n, terms
        raise ModelFileError("syntax", tok.line, tok.col, message)


def parse_expression(text: str, model: Model, line: int = 0, col: int = 1) -> Element:
    return _ExprParser(_scan(text, line, col), model).parse()


# -- statement splitting ----------------------------------------------------------


def _pieces(text: str, sep: str, col: int):
    """The stripped nonempty sep-separated pieces of text starting at col, with their columns."""
    for piece in text.split(sep):
        stripped = piece.strip()
        if stripped:
            yield stripped, col + piece.index(stripped[0])
        col += len(piece) + 1


def _statements(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        for stmt, col in _pieces(raw.split("#", 1)[0], ";", 1):
            yield lineno, col, stmt


class ModelFile:
    """A parsed model: base, optional bundle, its Maurer-Cartan result, named values."""

    def __init__(self):
        self.name = ""
        self.model: Optional[Model] = None
        self.bundle: Optional[DgBundle] = None
        self.maurer_cartan: Optional[MCResult] = None
        self.elements: Dict[str, Element] = {}
        self.vectors: Dict[str, Derivation] = {}
        self.symmetries: Dict[str, SymElement] = {}


def _split_decl(text: str, sep: str, kind: str, line: int, col: int) -> Tuple[str, str, int]:
    """(left, right, offset of right in text) of stripped text; errors point at col."""
    if sep not in text:
        raise ModelFileError("syntax", line, col, f"expected {sep!r} in {kind} statement")
    left, right = text.split(sep, 1)
    right = right.strip()
    return left.strip(), right, len(text) - len(right)


def parse_model(text: str, validate: bool = True) -> ModelFile:
    """Parse a .dgm document and run the load-time checks.

    A declared bundle's Maurer-Cartan result is `maurer_cartan`.
    validate=False records a failing result there, with `bundle` left None,
    instead of failing the load (the mc-check command reports it); sym
    declarations are still rejected then.
    """
    # {statement kind: {name: declaration}} in file order: model and dim under None,
    # generators (degree, line, col), STATEMENTS (text, line, col, text col)
    decls = {kind: {} for kind in ("model", "dim", "gen", "fiber", *STATEMENTS)}
    for line, col, stmt in _statements(text):
        head, _, rest = stmt.partition(" ")
        rest = rest.strip()
        rest_col = col + len(stmt) - len(rest)  # stmt and rest are stripped
        if head == "model":
            _declare(decls, head, None, rest, line, col)
        elif head == "dim":
            _declare(decls, head, None, None, line, col)  # a repeat is reported before a bad value
            try:
                dim = int(rest)
                if dim < 0:
                    raise ValueError(rest)
            except ValueError:
                raise ModelFileError("syntax", line, col, f"bad dimension {rest!r}")
            decls[head][None] = (dim, line, col)
        elif head == "gen" or head == "fiber":
            name, degree_text, _ = _split_decl(rest, ":", head, line, col)
            try:
                degree = GradedGenerator(name, int(degree_text)).degree
            except ValueError:
                raise ModelFileError("syntax", line, col, f"bad degree {degree_text!r}")
            except GradedError as e:
                raise ModelFileError("syntax", line, col, str(e))
            if name in decls["fiber" if head == "gen" else "gen"]:
                raise ModelFileError("syntax", line, col, f"repeated generator name {name!r}")
            _declare(decls, head, name, (degree, line, col), line, col)
        elif head in STATEMENTS or stmt.split("=", 1)[0].strip() in STRUCTURAL_KEYS:
            if head not in STATEMENTS:  # a structural form's statement has no head word
                head, rest, rest_col = "structural form", stmt, col
            name, expr, offset = _split_decl(rest, *STATEMENTS[head], line, col)
            if head in ("let", "vec", "sym") and not is_name(name):
                raise ModelFileError("syntax", line, col, f"bad {head} name {name!r}")
            _declare(decls, head, name, (expr, line, col, rest_col + offset), line, col)
        else:
            raise ModelFileError("syntax", line, col, f"unrecognized statement {stmt!r}")

    out = ModelFile()
    out.name = decls["model"].get(None, "")

    # the base model, whose d statements are parsed on it as it is built, so
    # they can mention any generator
    def differential(model: Model) -> Dict[str, Element]:
        values = {}
        for name, (expr, line, col, ecol) in decls["d"].items():
            if name not in model.index:
                raise ModelFileError("unknown-generator", line, col, f"unknown generator {name!r}")
            value = values[name] = parse_expression(expr, model, line, ecol)
            want = model.generator_named(name).degree + 1
            if not value.is_zero() and value.degree() != want:
                raise ModelFileError(
                    "degree-mismatch",
                    line,
                    col,
                    f"d({name}) must have degree {want}, got {value.degree()}",
                    witness=expr,
                )
        return values

    gens = [(name, degree) for name, (degree, _, _) in decls["gen"].items()]
    dim = decls["dim"].get(None)
    try:
        base = Model(gens, dim[0] if dim else 0, differential, out.name)
    except GradedError as e:
        # every generator and value was checked above, so this is d*d != 0,
        # reported at the witness's d statement, or d*d passing an exponent
        # field, reported at the first d statement
        if e.result is None:
            _, line, col, _ = next(iter(decls["d"].values()))
            raise ModelFileError("d-squared", line, col, "d*d cannot be computed", str(e))
        _, line, col, _ = decls["d"][e.result.witness]
        raise ModelFileError("d-squared", line, col, "differential does not square to zero", str(e))
    out.model = base

    if dim:
        try:
            validate_formal_dimension(base)
        except GradedError as e:
            raise ModelFileError("formal-dimension", dim[1], dim[2], str(e))

    # bundle assembly, reported at the first fiber, or the first form if there is none
    fibers, forms = decls["fiber"], decls["structural form"]
    if fibers or forms:
        fline, fcol = next(iter(fibers.values() or forms.values()))[1:3]
        try:
            out.bundle = _build_bundle(base, fibers, forms, fline, fcol)
            out.maurer_cartan = MCResult()
        except BundleError as e:
            if validate or e.result is None:
                raise ModelFileError(
                    "maurer-cartan", fline, fcol, "structural data fails Maurer-Cartan", str(e)
                )
            out.maurer_cartan = e.result

    for name, (expr, line, _, ecol) in decls["let"].items():
        out.elements[name] = parse_expression(expr, base, line, ecol)
    for name, (spec, line, col, ecol) in decls["vec"].items():
        out.vectors[name] = _build_vector(base, spec, line, col, ecol)
    for name, (spec, line, col, ecol) in decls["sym"].items():
        if out.bundle is None:
            raise ModelFileError("shape", line, col, "sym declarations need a validated bundle")
        out.symmetries[name] = _build_symmetry(out, spec, line, col, ecol)
    return out


def _declare(decls: dict, kind: str, name: Optional[str], value, line: int, col: int):
    """Record a declaration; a second one of the same kind and name is an error there."""
    if name in decls[kind]:
        what = f"{kind} statement" if name is None else f"{kind} {name!r}"
        raise ModelFileError("syntax", line, col, f"repeated {what}")
    decls[kind][name] = value


def _build_bundle(base, fiber_decls, structural_decls, fline, fcol):
    """The first shape of FILE_SHAPES that fits the declarations, with as many
    fibers as declared and every declared form among its own, and whose fiber
    degrees match; its form degrees are checked.  When none matches, the
    first that fits names its fiber degrees."""
    structural: Dict[str, Element] = {}
    for key, (expr, line, _, ecol) in structural_decls.items():
        structural[key] = parse_expression(expr, base, line, ecol)
    fibers = {name: degree for name, (degree, _, _) in fiber_decls.items()}
    declared = list(fibers.values())
    fits = []
    for shape in FILE_SHAPES:
        rows = BUNDLE_SHAPES[shape][0]
        if len(rows) == len(declared):
            wants = form_degrees(shape, declared[0])
            forms = {key: key if key in wants else ALIASES.get(key) for key in structural}
            if set(forms.values()) <= set(wants):
                fits.append((shape, rows, wants, forms))
    for shape, rows, wants, forms in fits:
        if all(d in (None, n) for (_, d, _), n in zip(rows, declared)):
            break
    else:
        if fits:
            shape, rows = fits[0][:2]
            message = f"{shape.replace('_', '-')} bundles need fibers of degree "
            message += " and ".join(str(d) for _, d, _ in rows)
        else:
            message = f"cannot infer a bundle shape from fibers {sorted(fibers.items())}"
            message += f" and forms {sorted(structural)}"
        raise ModelFileError("shape", fline, fcol, message)
    seen: Dict[str, str] = {}
    for key, form in forms.items():  # in file order, so a repeat is met where it repeats
        if form in seen:
            _, line, col, _ = structural_decls[key]
            raise ModelFileError(
                "syntax", line, col, f"repeated structural form {form!r} ({seen[form]} and {key})"
            )
        seen[form] = key
    for key in sorted(structural):
        value, form = structural[key], forms[key]
        expr, line, col, _ = structural_decls[key]
        if not value.is_zero() and value.degree() != wants[form]:
            raise ModelFileError(
                "degree-mismatch",
                line,
                col,
                f"{key} must have degree {wants[form]}, got {value.degree()}",
                witness=expr,
            )
    values = {forms[key]: value for key, value in structural.items()}
    return DgBundle(base, shape, values, fibers, declared[0], base.name)


def _spec_clauses(spec: str, kind: str, line: int, spec_col: int):
    """(key, value, clause column, value column) of each `KEY = VALUE` clause of
    a vec or sym spec at spec_col; a clause without '=' is an error at the
    clause, and a key given twice one at its repeat."""
    seen = set()
    for clause, ccol in _pieces(spec, ",", spec_col):
        key, value, offset = _split_decl(clause, "=", kind, line, ccol)
        if key in seen:
            raise ModelFileError("syntax", line, ccol, f"repeated {kind} key {key!r}")
        seen.add(key)
        yield key, value, ccol, ccol + offset


def _build_vector(base: Model, spec: str, line: int, col: int, spec_col: int) -> Derivation:
    values: Dict[str, Element] = {}
    for name, expr, ccol, ecol in _spec_clauses(spec, "vec", line, spec_col):
        if name not in base.index:
            raise ModelFileError("unknown-generator", line, ccol, f"unknown generator {name!r}")
        values[name] = parse_expression(expr, base, line, ecol)
    try:
        return Derivation(base, -1, values)
    except DgcalcError as e:
        raise ModelFileError("degree-mismatch", line, col, str(e))


def _build_symmetry(out: ModelFile, spec: str, line: int, col: int, spec_col: int) -> SymElement:
    degree = None
    parts: Dict[str, object] = {}
    for key, value, ccol, vcol in _spec_clauses(spec, "sym", line, spec_col):
        if key == "deg":
            try:
                degree = int(value)
            except ValueError:
                raise ModelFileError("syntax", line, vcol, f"bad degree {value!r}")
        elif key == "X":
            if value not in out.vectors:
                raise ModelFileError("unknown-generator", line, vcol, f"unknown vec {value!r}")
            parts["iota"] = out.vectors[value]
        elif key in PART_NAMES:
            parts[key] = parse_expression(value, out.bundle.base, line, vcol)
        else:
            raise ModelFileError("syntax", line, ccol, f"unknown sym key {key!r}")
    if degree is None:
        raise ModelFileError("syntax", line, col, "sym statements need deg = <int>")
    try:
        return symmetry(out.bundle, degree, **parts)
    except DgcalcError as e:
        raise ModelFileError("degree-mismatch", line, col, str(e))


def load_path(path: str, validate: bool = True) -> ModelFile:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        col = e.start - data.rfind(b"\n", 0, e.start)
        raise ModelFileError("encoding", line, col, f"byte {data[e.start]:#04x} is not valid UTF-8")
    return parse_model(text, validate=validate)
