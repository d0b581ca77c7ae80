"""Any text, and any byte-mutated model file, ends in a diagnostic, never a traceback.

`parse_model` may raise only `ModelFileError`, and `dgcalc validate` exits 0,
1 or 2; a list of valid bundle statements loads or fails at a line.  The
strategies cut every exponent literal to four digits and every
other number literal to two: a power that would expand past
`parser.MAX_POWER_TERMS` terms is a diagnostic, so long exponents are cheap,
but a declared dimension in the millions makes the formal-dimension audit
build enormous bases, which is slow on purpose, not a fault, and would only
stall the search.
"""

import contextlib
import io
import os
import pathlib
import re
import tempfile

import pytest

from dgcalc import cli
from dgcalc.parser import ModelFileError, parse_model

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

MODELS = sorted((pathlib.Path(__file__).resolve().parent.parent / "models").glob("*.dgm"))

TOKENS = [
    "model ", "dim ", "gen ", "fiber ", "d ", "let ", "vec ", "sym ", "deg", "F", "Fbar", "H",
    "Theta", "F4", "F7", "X", "a", "b", "c", "q", "t", "x1", " : ", " = ", ", ", "^", "(", ")",
    "*", "/", "+", "-", ";", "#", "\n", " ", "0", "1", "2", "3", "7", "10", "-5", "1/2", "²",
    "٣", "\t", "é",
]


def _bounded(text: str) -> str:
    """Exponent literals cut to four digits, every other number to two."""
    return re.sub(
        r"(\^\s*)?(\d+)", lambda m: (m.group(1) or "") + m.group(2)[: 4 if m.group(1) else 2], text
    )


EXPRESSION_TOKENS = [
    "a", "b", "c", "x1", "z", "th1", "q", "t", "0", "1", "2", "3", "1/2", "2/0", "²", "٣", "+",
    "-", "*", "^", "(", ")", " ", ",", "=", ":", "_", "é",
]


@st.composite
def model_with_expression(draw):
    """A model file followed by one statement whose expression is token soup."""
    text = draw(st.sampled_from(MODELS)).read_text()
    head = draw(st.sampled_from(["let h = ", "d z = ", "F = ", "H = ", "vec v : x1 = ",
                                 "sym s : deg = -1, c = "]))
    body = "".join(draw(st.lists(st.sampled_from(EXPRESSION_TOKENS), max_size=30)))
    return f"{text}\n{head}{body}\n"


texts = st.one_of(
    st.text(max_size=200),
    st.lists(st.sampled_from(TOKENS), max_size=60).map("".join),
    model_with_expression(),
).map(_bounded)


@st.composite
def mutated_models(draw):
    """A model file's bytes after one to four byte replacements, insertions or deletions."""
    data = bytearray(draw(st.sampled_from(MODELS)).read_bytes())
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["replace", "insert", "delete"]))
        byte = draw(st.integers(0, 255))
        if kind == "insert" or at == len(data):
            data.insert(at, byte)
        elif kind == "replace":
            data[at] = byte
        else:
            del data[at]
    return _bounded(bytes(data).decode("latin-1")).encode("latin-1")


def _parse_or_diagnose(text):
    try:
        parse_model(text)
    except ModelFileError:
        pass


def _validate_exit_code(data: bytes) -> int:
    handle, path = tempfile.mkstemp(suffix=".dgm")
    try:
        with os.fdopen(handle, "wb") as out:
            out.write(data)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(["validate", path])
    finally:
        os.unlink(path)


# statements each valid on its own; together they may repeat a name, miss a
# fiber, mix shapes or fail Maurer-Cartan
BUNDLE_STATEMENTS = [
    "gen x1 : 1", "gen x2 : 1", "gen y : 2", "gen c : 3", "gen w : 4", "gen z : 1",
    "d z = x1 x2", "d z = 0", "fiber q : 1", "fiber t : 2", "fiber q : 3", "fiber t : 6",
    "fiber s : 1", "F = x1 x2", "F = 0", "Fbar = y", "H = c", "H = z y", "Theta = c", "Theta = 0",
    "F4 = w", "F7 = w c", "F7 = 0", "let e = x1 y", "vec X : x1 = 1", "sym u : deg = -1, f = 1",
    "sym v : deg = 0, b = 0", "sym h : deg = -2, h = 1",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(BUNDLE_STATEMENTS), max_size=8))
def test_bundle_files_load_or_are_positioned_diagnostics(statements):
    text = "".join(f"{stmt}\n" for stmt in statements)
    for validate in (True, False):
        try:
            parse_model(text, validate=validate)
        except ModelFileError as err:
            assert err.line >= 1, err


@settings(max_examples=300, deadline=None)
@given(texts)
def test_any_text_parses_or_is_a_diagnostic(text):
    _parse_or_diagnose(text)


@settings(max_examples=200, deadline=None)
@given(mutated_models())
def test_mutated_models_parse_or_are_a_diagnostic(data):
    text = data.decode("utf-8", errors="replace")
    _parse_or_diagnose(text)
    assert _validate_exit_code(data) in (0, 1, 2)


@pytest.mark.parametrize("expr, col, message", [
    pytest.param("a^²", 11, "unexpected character '²'", id="superscript-exponent"),
    pytest.param("² a", 9, "unexpected character '²'", id="superscript-factor"),
    pytest.param("(" * 2000 + "a" + ")" * 2000, 109, "parentheses nest deeper than 100",
                 id="deep-nesting"),
])
def test_found_inputs_are_positioned_diagnostics(expr, col, message):
    with pytest.raises(ModelFileError) as err:
        parse_model(f"gen a : 2\nlet h = {expr}\n")
    assert (err.value.kind, err.value.line, err.value.col) == ("syntax", 2, col)
    assert err.value.message == message


@pytest.mark.parametrize("dim", ["-1", "-5", "²"])
def test_a_negative_dimension_is_a_syntax_error(dim):
    with pytest.raises(ModelFileError) as err:
        parse_model(f"model m\ndim {dim}\ngen a : 1\n")
    assert (err.value.kind, err.value.line) == ("syntax", 2)
    assert err.value.message == f"bad dimension {dim!r}"


def test_nesting_up_to_the_limit_parses():
    mf = parse_model("gen a : 2\nlet h = " + "(" * 100 + "2 a" + ")" * 100 + "\n")
    assert mf.elements["h"] == 2 * mf.model.gen("a")
    # a decimal digit of another script is still a numeral
    mf = parse_model("gen a : 2\nlet h = ٣ a\n")
    assert mf.elements["h"] == 3 * mf.model.gen("a")
