"""Model files and the expression language.

A .dgm file is line oriented; statements end at a newline or ';' and '#'
starts a comment.  Statements:

    model NAME                      dim N
    gen NAME : DEGREE               d NAME = EXPR
    fiber NAME : DEGREE             F = EXPR | Fbar = | H = | Theta = | F4 = | F7 =
    let NAME = EXPR
    vec NAME : GEN = EXPR [, GEN = EXPR ...]
    sym NAME : deg = INT [, KEY = EXPR ...]   (KEY in X a b abar f c fbar h
                                               s2 s5 eta1 c4 d3 a3 b6 eta)

Expressions: sums of rational-coefficient products of generator powers;
'*' or juxtaposition multiplies, '^' takes powers, parentheses group.
Every statement failure carries its line and column.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .cohomology import validate_formal_dimension
from .derivations import BundleError, Derivation, DgBundle
from .graded import Element, GradedError, Model
from .symmetries import PART_NAMES, SymElement, SymmetryError, symmetry

STRUCTURAL_KEYS = ("F", "Fbar", "H", "Theta", "F4", "F7")
SYM_KEYS = PART_NAMES


class ModelFileError(Exception):
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


class _ExprParser:
    def __init__(self, tokens: List[_Token], model: Model):
        self.tokens = tokens
        self.pos = 0
        self.model = model
        self.depth = 0

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
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "*":
                self.next()
                value = value * self.factor()
            elif tok.kind in ("ident", "number", "("):
                value = value * self.factor()
            else:
                return value

    def factor(self) -> Element:
        tok = self.next()
        if tok.kind == "number":
            try:
                return self.model.scalar(Fraction(tok.text))
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
            return self._power(inner)
        if tok.kind == "ident":
            if tok.text not in self.model.index:
                raise ModelFileError(
                    "unknown-generator", tok.line, tok.col, f"unknown generator {tok.text!r}"
                )
            return self._power(self.model.gen(tok.text))
        raise ModelFileError("syntax", tok.line, tok.col, f"expected a factor, got {tok.text!r}")

    def _power(self, value: Element) -> Element:
        if self.peek().kind == "^":
            self.next()
            tok = self.next()
            if tok.kind != "number" or "/" in tok.text:
                raise ModelFileError("syntax", tok.line, tok.col, "exponent must be a natural number")
            return value ** int(tok.text)
        return value


def parse_expression(text: str, model: Model, line: int = 0, col: int = 1) -> Element:
    return _ExprParser(_scan(text, line, col), model).parse()


# -- statement splitting ----------------------------------------------------------


def _statements(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        col = 1
        for chunk in body.split(";"):
            stripped = chunk.strip()
            if stripped:
                yield lineno, col + chunk.index(stripped[0]), stripped
            col += len(chunk) + 1


class ModelFile:
    """A parsed and validated model: base, optional bundle, named values."""

    def __init__(self):
        self.name = ""
        self.model: Optional[Model] = None
        self.bundle: Optional[DgBundle] = None
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


def _clauses(spec: str, col: int):
    """The comma-separated clauses of a spec starting at col, with their columns."""
    for clause in spec.split(","):
        stripped = clause.strip()
        if stripped:
            yield stripped, col + clause.index(stripped[0])
        col += len(clause) + 1


def parse_model(text: str, validate: bool = True) -> ModelFile:
    """Parse a .dgm document and run the load-time checks.

    validate=False keeps a bundle that fails Maurer-Cartan, with its candidate
    field as `q` (used by the mc-check command, which reports the residue
    instead of failing the load); sym declarations are still rejected on it.
    """
    header_name = ""
    formal_dim: Optional[int] = None
    dim_pos = (0, 1)
    gen_decls: List[Tuple[str, int, int, int]] = []
    # expression statements keep (text, line, statement column, text column)
    diff_decls: Dict[str, Tuple[str, int, int, int]] = {}
    fiber_decls: List[Tuple[str, int, int, int]] = []
    structural_decls: Dict[str, Tuple[str, int, int, int]] = {}
    let_decls: List[Tuple[str, str, int, int, int]] = []
    vec_decls: List[Tuple[str, str, int, int, int]] = []
    sym_decls: List[Tuple[str, str, int, int, int]] = []

    for line, col, stmt in _statements(text):
        head, _, rest = stmt.partition(" ")
        rest = rest.strip()
        rest_col = col + len(stmt) - len(rest)  # stmt and rest are stripped
        if head == "model":
            header_name = rest
        elif head == "dim":
            try:
                formal_dim = int(rest)
                if formal_dim < 0:
                    raise ValueError(rest)
            except ValueError:
                raise ModelFileError("syntax", line, col, f"bad dimension {rest!r}")
            dim_pos = (line, col)
        elif head == "gen" or head == "fiber":
            name, degree_text, _ = _split_decl(rest, ":", head, line, col)
            try:
                degree = int(degree_text)
            except ValueError:
                raise ModelFileError("syntax", line, col, f"bad degree {degree_text!r}")
            target = gen_decls if head == "gen" else fiber_decls
            target.append((name, degree, line, col))
        elif head == "d":
            name, expr, offset = _split_decl(rest, "=", "differential", line, col)
            diff_decls[name] = (expr, line, col, rest_col + offset)
        elif head == "let":
            name, expr, offset = _split_decl(rest, "=", "let", line, col)
            let_decls.append((name, expr, line, col, rest_col + offset))
        elif head == "vec":
            name, spec, offset = _split_decl(rest, ":", "vec", line, col)
            vec_decls.append((name, spec, line, col, rest_col + offset))
        elif head == "sym":
            name, spec, offset = _split_decl(rest, ":", "sym", line, col)
            sym_decls.append((name, spec, line, col, rest_col + offset))
        elif stmt.split("=", 1)[0].strip() in STRUCTURAL_KEYS:
            key, expr, offset = _split_decl(stmt, "=", "structural", line, col)
            structural_decls[key] = (expr, line, col, col + offset)
        else:
            raise ModelFileError("syntax", line, col, f"unrecognized statement {stmt!r}")

    out = ModelFile()
    out.name = header_name

    # base model: two passes so differential expressions can mention any generator
    try:
        algebra = Model([(n, d) for n, d, _, _ in gen_decls], formal_dimension=formal_dim or 0)
    except GradedError as e:
        line, col = (gen_decls[0][2], gen_decls[0][3]) if gen_decls else (0, 1)
        raise ModelFileError("syntax", line, col, str(e))
    diff_values: Dict[str, Element] = {}
    for name, (expr, line, col, ecol) in diff_decls.items():
        if name not in algebra.index:
            raise ModelFileError("unknown-generator", line, col, f"unknown generator {name!r}")
        value = parse_expression(expr, algebra, line, ecol)
        want = algebra.generator_named(name).degree + 1
        if not value.is_zero() and value.degree() != want:
            raise ModelFileError(
                "degree-mismatch",
                line,
                col,
                f"d({name}) must have degree {want}, got {value.degree()}",
                witness=expr,
            )
        diff_values[name] = value

    def rebuild(model: Model) -> Dict[str, Element]:
        return {
            name: Element(model, dict(v.terms)) for name, v in diff_values.items() if not v.is_zero()
        }

    try:
        base = Model(
            [(n, d) for n, d, _, _ in gen_decls],
            formal_dimension=formal_dim or 0,
            differential=rebuild,
            name=header_name,
        )
    except GradedError as e:
        witness = str(e)
        line, col = dim_pos
        for name, (_, dline, dcol, _) in diff_decls.items():
            if f"{name!r}" in witness:
                line, col = dline, dcol
        raise ModelFileError("d-squared", line, col, "differential does not square to zero", witness)
    out.model = base

    if formal_dim is not None:
        try:
            validate_formal_dimension(base)
        except GradedError as e:
            raise ModelFileError("formal-dimension", dim_pos[0], dim_pos[1], str(e))

    # bundle assembly
    fline, fcol = (fiber_decls[0][2], fiber_decls[0][3]) if fiber_decls else (0, 1)
    mc_failed = False
    if fiber_decls or structural_decls:
        try:
            out.bundle = _build_bundle(base, fiber_decls, structural_decls, fline, fcol)
        except BundleError as e:
            if validate or e.bundle is None:
                raise ModelFileError(
                    "maurer-cartan", fline, fcol, "structural data fails Maurer-Cartan", str(e)
                )
            out.bundle, mc_failed = e.bundle, True

    scope = out.bundle.base if out.bundle else base
    for name, expr, line, _, ecol in let_decls:
        out.elements[name] = parse_expression(expr, scope, line, ecol)
    for name, spec, line, col, ecol in vec_decls:
        out.vectors[name] = _build_vector(scope, spec, line, col, ecol)
    for name, spec, line, col, ecol in sym_decls:
        if out.bundle is None or mc_failed:
            raise ModelFileError("shape", line, col, "sym declarations need a validated bundle")
        out.symmetries[name] = _build_symmetry(out, spec, line, col, ecol)
    return out


def _build_bundle(base, fiber_decls, structural_decls, fline, fcol):
    structural: Dict[str, Element] = {}
    for key, (expr, line, _, ecol) in structural_decls.items():
        structural[key] = parse_expression(expr, base, line, ecol)
    fibers = {name: degree for name, degree, _, _ in fiber_decls}
    names = list(fibers)
    keys = set(structural)
    try:
        if keys <= {"F", "Fbar", "H"} and len(fibers) == 2:
            q, t = names
            if fibers[q] != 1 or fibers[t] != 2:
                raise ModelFileError(
                    "shape", fline, fcol, "two-step bundles need fibers of degree 1 and 2"
                )
            _check_degrees(structural, structural_decls, {"F": 2, "Fbar": 2, "H": 3})
            return DgBundle.two_step(
                base,
                structural.get("F", base.zero()),
                structural.get("Fbar", base.zero()),
                structural.get("H", base.zero()),
                q=q,
                t=t,
                name=base.name,
            )
        if keys <= {"F4", "F7"} and len(fibers) == 2:
            q, t = names
            if fibers[q] != 3 or fibers[t] != 6:
                raise ModelFileError(
                    "shape", fline, fcol, "flux bundles need fibers of degree 3 and 6"
                )
            _check_degrees(structural, structural_decls, {"F4": 4, "F7": 7})
            return DgBundle.flux(
                base,
                structural.get("F4", base.zero()),
                structural.get("F7", base.zero()),
                q=q,
                t=t,
                name=base.name,
            )
        if len(fibers) == 1 and keys <= {"Theta", "F"}:
            (fiber, degree), = fibers.items()
            _check_degrees(structural, structural_decls, {"Theta": degree + 1, "F": degree + 1})
            theta = structural.get("Theta", structural.get("F", base.zero()))
            return DgBundle.line(base, theta, fiber=fiber, degree=degree, name=base.name)
    except GradedError as e:
        raise ModelFileError("degree-mismatch", fline, fcol, str(e))
    raise ModelFileError(
        "shape",
        fline,
        fcol,
        f"cannot infer a bundle shape from fibers {sorted(fibers.items())} and forms {sorted(keys)}",
    )


def _check_degrees(structural, structural_decls, wants):
    """Each nonzero structural form has the degree its shape asks for."""
    for key, want in wants.items():
        value = structural.get(key)
        if value is not None and not value.is_zero() and value.degree() != want:
            expr, line, col, _ = structural_decls[key]
            raise ModelFileError(
                "degree-mismatch",
                line,
                col,
                f"{key} must have degree {want}, got {value.degree()}",
                witness=expr,
            )


def _build_vector(base: Model, spec: str, line: int, col: int, spec_col: int) -> Derivation:
    values: Dict[str, Element] = {}
    for clause, ccol in _clauses(spec, spec_col):
        name, expr, offset = _split_decl(clause, "=", "vec", line, col)
        if name not in base.index:
            raise ModelFileError("unknown-generator", line, col, f"unknown generator {name!r}")
        values[name] = parse_expression(expr, base, line, ccol + offset)
    try:
        return Derivation(base, -1, values)
    except Exception as e:
        raise ModelFileError("degree-mismatch", line, col, str(e))


def _build_symmetry(out: ModelFile, spec: str, line: int, col: int, spec_col: int) -> SymElement:
    degree = None
    parts: Dict[str, object] = {}
    seen = set()
    for clause, ccol in _clauses(spec, spec_col):
        key, value, offset = _split_decl(clause, "=", "sym", line, col)
        if key in seen:
            raise ModelFileError("syntax", line, ccol, f"repeated sym key {key!r}")
        seen.add(key)
        if key == "deg":
            try:
                degree = int(value)
            except ValueError:
                raise ModelFileError("syntax", line, ccol + offset, f"bad degree {value!r}")
        elif key == "X":
            if value not in out.vectors:
                raise ModelFileError("unknown-generator", line, ccol + offset, f"unknown vec {value!r}")
            parts["iota"] = out.vectors[value]
        elif key in SYM_KEYS:
            parts[key] = parse_expression(value, out.bundle.base, line, ccol + offset)
        else:
            raise ModelFileError("syntax", line, ccol, f"unknown sym key {key!r}")
    if degree is None:
        raise ModelFileError("syntax", line, col, "sym statements need deg = <int>")
    try:
        return symmetry(out.bundle, degree, **parts)
    except (SymmetryError, GradedError) as e:
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
