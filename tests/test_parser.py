"""Model files: expression grammar, diagnostics, validation pipeline."""

import importlib
import pathlib
import random
import sys

import pytest

from dgcalc.derivations import model_differential
from dgcalc.graded import Model, format_element
from dgcalc.parser import (
    MAX_EXPRESSION_TERMS,
    MAX_POWER_TERMS,
    ModelFileError,
    load_path,
    parse_expression,
    parse_model,
)
from oracles import random_inhomogeneous

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_sphere_model_from_text():
    mf = parse_model("model s2\ndim 2\ngen a : 2; gen b : 3\nd b = a^2\n")
    assert mf.name == "s2"
    assert mf.model.formal_dimension == 2
    a = mf.model.gen("a")
    assert mf.model.d(mf.model.gen("b")) == a * a


def test_degree_mismatch_diagnostic():
    with pytest.raises(ModelFileError) as err:
        parse_model("gen q : 1\nd q = q\n")
    assert err.value.kind == "degree-mismatch"
    assert err.value.line == 2
    assert err.value.col == 1


def test_two_term_expression():
    model = Model([("th1", 1), ("th2", 1), ("t", 2)])
    el = parse_expression("2*th1 th2 - t", model)
    assert el == 2 * (model.gen("th1") * model.gen("th2")) - model.gen("t")
    assert len(el.terms) == 2


def test_juxtaposition_equals_star():
    model = Model([("th1", 1), ("th2", 1)])
    assert parse_expression("th1 th2", model) == parse_expression("th1*th2", model)


def test_rational_coefficients_and_powers():
    model = Model([("t", 2)])
    el = parse_expression("3/2 t^2 - 1/2", model)
    t = model.gen("t")
    assert el == (t * t) * 3 / 2 - model.scalar("1/2")


def test_parentheses_and_unary_minus():
    model = Model([("th1", 1), ("t", 2)])
    el = parse_expression("-(th1 + t) t", model)
    t = model.gen("t")
    assert el == -(model.gen("th1") * t) - t * t


def test_unknown_generator_position():
    model = Model([("a", 2)])
    with pytest.raises(ModelFileError) as err:
        parse_expression("a + 2*bogus", model, line=3, col=5)
    assert err.value.kind == "unknown-generator"
    assert err.value.line == 3
    assert err.value.col == 5 + len("a + 2*")


def test_syntax_error_has_position():
    model = Model([("a", 2)])
    with pytest.raises(ModelFileError) as err:
        parse_expression("a + + a", model, line=1, col=1)
    assert err.value.kind == "syntax"


def test_round_trip_print_parse(mixed):
    rng = random.Random(17)
    for _ in range(30):
        degrees = [rng.randint(0, 5) for _ in range(rng.randint(1, 3))]
        el = random_inhomogeneous(mixed, degrees, rng)
        assert parse_expression(format_element(el), mixed) == el


def test_d_squared_diagnostic_names_offender():
    text = """
model broken
gen x : 1; gen y : 1; gen z : 1
gen p : 2; gen k : 3
d p = x y z
d k = p p
"""
    with pytest.raises(ModelFileError) as err:
        parse_model(text)
    assert err.value.kind == "d-squared"
    assert err.value.line == 6  # the d k statement
    assert "k" in err.value.witness


def test_formal_dimension_audit():
    with pytest.raises(ModelFileError) as err:
        parse_model("model bad\ndim 1\ngen c : 3\n")
    assert err.value.kind == "formal-dimension"


def test_two_step_bundle_load():
    text = """
model pair
dim 2
gen th1 : 1; gen th2 : 1
fiber q : 1
fiber t : 2
F = th1 th2
"""
    mf = parse_model(text)
    assert mf.bundle is not None and mf.bundle.shape == "two_step"
    assert mf.bundle.structural["F"] == mf.model.gen("th1") * mf.model.gen("th2")
    assert mf.bundle.structural["H"].is_zero()


def test_line_bundle_load():
    mf = parse_model("model vol\ndim 3\ngen c : 3\nfiber t : 2\nTheta = c\n")
    assert mf.bundle.shape == "line"


def test_flux_bundle_load():
    text = """
model flux
dim 7
gen x1 : 1; gen x2 : 1; gen x3 : 1
gen a : 4; gen b : 7
d b = a^2
fiber q : 3
fiber t : 6
F4 = a
F7 = -1/2 b
"""
    mf = parse_model(text)
    assert mf.bundle.shape == "flux"


def test_mc_failure_diagnostic():
    text = """
model bad
dim 2
gen a : 2; gen b : 3
d b = a^2
fiber q : 1
fiber t : 2
F = a
Fbar = a
"""
    with pytest.raises(ModelFileError) as err:
        parse_model(text)
    assert err.value.kind == "maurer-cartan"
    assert err.value.line == 6  # first fiber statement

    lenient = parse_model(text, validate=False)
    assert lenient.bundle is None
    assert lenient.maurer_cartan.witness == "t"


@pytest.mark.parametrize(
    "path",
    sorted(ROOT.glob("models/*.dgm")) + sorted(ROOT.glob("tests/*.dgm")),
    ids=lambda path: path.stem,
)
def test_a_loaded_bundle_field_is_its_total_models_d(path):
    """A file that fails Maurer-Cartan loads with no bundle, never with one
    whose field differs from the d its cohomology is computed from."""
    mf = load_path(str(path), validate=False)
    assert mf.bundle is None or mf.bundle.q == model_differential(mf.bundle.total)
    if path.stem == "mc_fail":
        result = mf.maurer_cartan
        assert mf.bundle is None and result.witness == "t"
        assert format_element(result.residue) == "a^2"


EXPR_BASE = """model cols
dim 5
gen x1 : 1; gen x2 : 1; gen x3 : 1; gen x4 : 1; gen z : 1
d z = x1 x2
fiber q : 1
fiber t : 2
F = x1 x2
Fbar = x3 x4
H = -(z x3 x4)
"""


@pytest.mark.parametrize(
    "statement, bad",
    [
        ("d z = 1/0 x1 x2", "1/0"),
        ("  d   z =  x1 bogus", "bogus"),
        ("let w = x1 + 1/0", "1/0"),
        ("let v = 1; let w = x1 ^ x2", "x2"),
        ("vec X : x1 = 1, x2 = 3/0", "3/0"),
        ("vec X : x1 = 1 ,  x2 = bogus", "bogus"),
        ("sym u : deg = -1, h = bogus", "bogus"),
        ("sym u : deg = -1,h = 1, a = 2/0", "2/0"),
        ("Fbar  =   x3 bogus", "bogus"),
    ],
)
def test_expression_diagnostics_point_into_the_expression(statement, bad):
    # a d or structural statement replaces the base text's declaration of its name
    key = statement.split("=", 1)[0].split()
    lines = EXPR_BASE.splitlines(keepends=True)
    text = "".join(decl for decl in lines if decl.split("=", 1)[0].split() != key)
    text += statement + "\n"
    line = text.count("\n")
    with pytest.raises(ModelFileError) as err:
        parse_model(text)
    assert err.value.line == line
    assert err.value.col == statement.rindex(bad) + 1


@pytest.mark.parametrize(
    "shape, statement, message",
    [
        ("two_step", "F = a^2", "F must have degree 2, got 4"),
        ("two_step", "H = a", "H must have degree 3, got 2"),
        ("flux", "F7 = b", "F7 must have degree 7, got 3"),
        ("line", "Theta = a", "Theta must have degree 4, got 2"),
    ],
)
def test_structural_form_of_wrong_degree(shape, statement, message):
    fibers = {
        "two_step": "fiber q : 1\nfiber t : 2\n",
        "flux": "fiber q : 3\nfiber t : 6\n",
        "line": "fiber t : 3\n",
    }[shape]
    text = "model s2\ndim 2\ngen a : 2\ngen b : 3\nd b = a^2\n" + fibers + "\n  " + statement + "\n"
    for validate in (True, False):
        with pytest.raises(ModelFileError) as err:
            parse_model(text, validate=validate)
        assert err.value.kind == "degree-mismatch"
        assert (err.value.line, err.value.col) == (text.count("\n"), 3)
        assert err.value.message == message


def test_shape_mismatch_diagnostic():
    text = "model odd\ndim 2\ngen a : 2; gen b : 3\nd b = a^2\nfiber t : 2\nF4 = a a\n"
    with pytest.raises(ModelFileError) as err:
        parse_model(text)
    assert err.value.kind == "shape"


def test_let_vec_sym_declarations():
    text = """
model full
dim 5
gen x1 : 1; gen x2 : 1; gen x3 : 1; gen x4 : 1; gen z : 1
d z = x1 x2
fiber q : 1
fiber t : 2
F = x1 x2
Fbar = x3 x4
H = -(z x3 x4)
let w = 2 x1 x3 - x2 x4
vec X : x1 = 1, x3 = 2
sym u : deg = -1, X = X, f = 1, c = x2, fbar = 3
sym v : deg = 0, a = x3
"""
    mf = parse_model(text)
    assert mf.elements["w"].degree() == 2
    assert mf.vectors["X"].value("x1") == mf.model.one()
    assert mf.symmetries["u"].part("f") == mf.model.one()
    assert mf.symmetries["v"].part("a") == mf.model.gen("x3")


def test_sym_requires_bundle():
    with pytest.raises(ModelFileError) as err:
        parse_model("model nobundle\ndim 2\ngen th1 : 1; gen th2 : 1\nsym a : deg = -1\n")
    assert err.value.kind == "shape"


def test_statement_splitting_and_comments():
    mf = parse_model("model c # trailing\n# full line\n dim 2 ; gen th1 : 1;gen th2:1\n")
    assert mf.name == "c"
    assert len(mf.model.generators) == 2


@pytest.mark.parametrize(
    "name",
    [
        "s3_volume",
        "s2_sphere",
        "hopf_pair",
        "t2_pair",
        "s3_pair",
        "nil_pair",
        "bn_selfdual",
        "e6_flux",
        "t7_flux",
    ],
)
def test_bundled_models_load(name):
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "models"
    mf = parse_model((root / f"{name}.dgm").read_text())
    assert mf.model is not None


POWER_MODEL = "gen a : 2\ngen c : 2\ngen x : 1\ngen y : 1\ngen u : 1\ngen v : 1\n"


@pytest.mark.parametrize("expr, terms", [
    ("(a + c)^255", MAX_POWER_TERMS),
    ("(1 + a + c)^21", 253),
    # odd terms square to zero, so they count once each: x y + u v squares to 2 x y u v
    ("(x*y + u*v)^2", 1),
    ("(x*y + u*v)^3", 0),
    ("(x*y + a)^100000", 2),
    ("(x + y)^99999999", 0),
    ("(a + x*y + u)^9999999", 4),
])
def test_powers_within_the_term_bound_expand(expr, terms):
    mf = parse_model(POWER_MODEL + f"let h = {expr}\n")
    assert len(mf.elements["h"].terms) == terms


@pytest.mark.parametrize("expr, col", [
    ("(a + c)^256", 17),
    ("(1 + a + c)^22", 21),
    ("((a + c)^15)^15", 22),
    ("(a + c + x)^9999999", 21),
])
def test_powers_past_the_term_bound_are_positioned_diagnostics(expr, col):
    with pytest.raises(ModelFileError) as err:
        parse_model(POWER_MODEL + f"let h = {expr}\n")
    assert (err.value.kind, err.value.line, err.value.col) == ("syntax", 7, col)
    assert err.value.message == f"power expands past {MAX_POWER_TERMS} terms"


@pytest.mark.parametrize("expr, terms", [
    ("(a + c)^15 (a + c)^15", 31),
    ("x * (a + c)^255", MAX_POWER_TERMS),
    ("x (a + c)^255", MAX_POWER_TERMS),
    ("2 (a + c)^255 * 1/2", MAX_POWER_TERMS),
    ("(x + y)(u + v)(a + c)", 8),
])
def test_products_within_the_term_bound_expand(expr, terms):
    mf = parse_model(POWER_MODEL + f"let h = {expr}\n")
    assert len(mf.elements["h"].terms) == terms


@pytest.mark.parametrize("expr, col", [
    ("(a + c)^255 * (a + c)^255", 23),
    ("(a + c)^15 (a + c)^16", 20),
    ("(1 + x) * (a + c)^255", 19),
    ("(a + c)^128 * x * (a + c)", 27),
])
def test_products_past_the_term_bound_are_positioned_diagnostics(expr, col):
    # n and m terms expand to n * m products, bounded like a power's terms
    with pytest.raises(ModelFileError) as err:
        parse_model(POWER_MODEL + f"let h = {expr}\n")
    assert (err.value.kind, err.value.line, err.value.col) == ("syntax", 7, col)
    assert err.value.message == f"product expands past {MAX_POWER_TERMS} terms"


def test_powers_of_one_expression_share_a_term_budget():
    # each (a + c)^255 predicts 256 terms, so the fifth copy passes the budget
    copies = MAX_EXPRESSION_TERMS // MAX_POWER_TERMS + 1
    assert copies == 5
    line = "let h = " + " + ".join(["(a + c)^255"] * 20)
    with pytest.raises(ModelFileError) as err:
        parse_model(POWER_MODEL + line + "\n")
    assert (err.value.kind, err.value.line) == ("syntax", 7)
    carets = [i for i, ch in enumerate(line) if ch == "^"]
    assert err.value.col == carets[copies - 1] + 2  # the 1-based column of its exponent
    assert err.value.message == f"powers of one expression expand past {MAX_EXPRESSION_TERMS} terms"
    # a^2 predicts one term: up to the budget powers expand, and each
    # expression has its own budget
    fits = " + ".join(["a^2"] * MAX_EXPRESSION_TERMS)
    mf = parse_model(POWER_MODEL + f"let h = {fits}\nlet k = {fits}\n")
    assert mf.elements["h"] == mf.elements["k"] == MAX_EXPRESSION_TERMS * mf.model.gen("a") ** 2


def test_every_shipped_and_benchmark_model_loads(monkeypatch):
    """The power and product bounds reject none of the repository's models
    nor any model text the benchmark can generate."""
    root = pathlib.Path(__file__).resolve().parent.parent
    texts = [path.read_text() for path in sorted(root.glob("models/*.dgm"))]
    texts += [path.read_text() for path in sorted(root.glob("tests/*.dgm"))]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    workloads = importlib.import_module("workloads")
    generated = {job.text for name in workloads.WORKLOADS for job in workloads.universe(name)}
    texts += sorted(generated - {None})
    assert len(texts) > 50
    for text in texts:
        assert parse_model(text, validate=False).model is not None


# -- repeated declarations and bundle shapes --------------------------------------

REPEAT_BASE = "model r\ngen x1 : 1; gen x2 : 1; gen x3 : 1; gen x4 : 1; gen z : 1\n"


@pytest.mark.parametrize("body, message", [
    pytest.param("d z = x1 x2\nd z = 0", "repeated d 'z'", id="d"),
    pytest.param("fiber q : 1\nfiber t : 2\nF = x1 x2\nF = x3 x4", "repeated structural form 'F'",
                 id="structural"),
    pytest.param("fiber q : 1\nfiber q : 2", "repeated fiber 'q'", id="fiber"),
    pytest.param("let w = x1\nlet w = x2", "repeated let 'w'", id="let"),
    pytest.param("vec X : x1 = 1\nvec X : x2 = 1", "repeated vec 'X'", id="vec"),
    pytest.param("fiber q : 1\nfiber t : 2\nsym u : deg = -1, f = 1\nsym u : deg = -1, c = x1",
                 "repeated sym 'u'", id="sym"),
    pytest.param("fiber s : 1\nTheta = x1 x2\nF = x3 x4",
                 "repeated structural form 'Theta' (Theta and F)", id="theta-then-f"),
    pytest.param("fiber s : 1\nF = x3 x4\nTheta = x1 x2",
                 "repeated structural form 'Theta' (F and Theta)", id="f-then-theta"),
    pytest.param("gen x3 : 1", "repeated gen 'x3'", id="gen"),
    pytest.param("fiber s : 1\nfiber x3 : 2", "repeated generator name 'x3'",
                 id="fiber-reuses-gen"),
    pytest.param("fiber s : 1\ngen s : 2", "repeated generator name 's'", id="gen-reuses-fiber"),
    pytest.param("dim 4\ndim 5", "repeated dim statement", id="dim"),
    pytest.param("model other", "repeated model statement", id="model"),
])
def test_a_repeated_declaration_is_a_syntax_error_at_the_repeat(body, message):
    *first, repeat = body.split("\n")
    text = REPEAT_BASE + "".join(f"{stmt}\n" for stmt in first) + f"  {repeat}\n"
    for validate in (True, False):
        with pytest.raises(ModelFileError) as err:
            parse_model(text, validate=validate)
        assert err.value.kind == "syntax"
        assert (err.value.line, err.value.col) == (text.count("\n"), 3)
        assert err.value.message == message


def test_a_form_without_fibers_is_reported_at_the_first_form():
    text = "model v\ndim 3\ngen c : 3\n  Theta = c\nH = c\n"
    with pytest.raises(ModelFileError) as err:
        parse_model(text)
    assert err.value.kind == "shape"
    assert (err.value.line, err.value.col) == (4, 3)
    assert err.value.message == "cannot infer a bundle shape from fibers [] and forms ['H', 'Theta']"


@pytest.mark.parametrize("fibers, form, message", [
    ("fiber q : 1\nfiber t : 3", "F = a", "two-step bundles need fibers of degree 1 and 2"),
    ("fiber q : 3\nfiber t : 2", "F4 = a^2", "flux bundles need fibers of degree 3 and 6"),
    ("fiber q : 1\nfiber s : 1\nfiber t : 2", "F = a",
     "cannot infer a bundle shape from fibers [('q', 1), ('s', 1), ('t', 2)] and forms ['F']"),
])
def test_shape_diagnostics_are_reported_at_the_first_fiber(fibers, form, message):
    text = "model s2\ndim 2\ngen a : 2\ngen b : 3\nd b = a^2\n  " + fibers + "\n" + form + "\n"
    for validate in (True, False):
        with pytest.raises(ModelFileError) as err:
            parse_model(text, validate=validate)
        assert err.value.kind == "shape"
        assert (err.value.line, err.value.col) == (6, 3)
        assert err.value.message == message


def test_a_line_declared_with_f_stores_theta():
    mf = parse_model("model vol\ndim 3\ngen c : 3\nfiber t : 2\nF = c\n")
    assert mf.bundle.shape == "line"
    assert mf.bundle.structural == {"Theta": mf.model.gen("c")}
    with pytest.raises(ModelFileError) as err:
        parse_model("model vol\ndim 3\ngen c : 3\nfiber t : 3\nF = c\n")
    assert err.value.kind == "degree-mismatch"
    assert err.value.message == "F must have degree 4, got 3"


def test_fibers_without_forms_are_tried_as_two_step_first():
    mf = parse_model("model t2\ndim 2\ngen th1 : 1; gen th2 : 1\nfiber q : 1\nfiber t : 2\n")
    assert mf.bundle.shape == "two_step"
    assert all(form.is_zero() for form in mf.bundle.structural.values())
    assert sorted(mf.bundle.structural) == ["F", "Fbar", "H"]


def test_fibers_without_forms_take_the_shape_their_degrees_match():
    mf = parse_model("model f\ngen x : 1\nfiber q : 3\nfiber t : 6\n")
    assert mf.bundle.shape == "flux"
    assert mf.bundle.structural == {"F4": mf.model.zero(), "F7": mf.model.zero()}
    # no shape has these degrees, so the first that fits by count names its own
    with pytest.raises(ModelFileError) as err:
        parse_model("model f\ngen x : 1\nfiber q : 1\nfiber t : 3\n")
    assert err.value.kind == "shape"
    assert (err.value.line, err.value.col) == (3, 1)
    assert err.value.message == "two-step bundles need fibers of degree 1 and 2"


@pytest.mark.parametrize("text, where, message", [
    ("gen x : 1\ngen y : 0\n", (2, 1), "generator 'y' must have degree >= 1, got 0"),
    ("gen x : 1\n  gen 1y : 2\n", (2, 3), "bad generator name '1y'"),
    ("gen x : 1\ngen y : 1\nfiber q : 1\n  fiber t : -2\nF = x y\n", (4, 3),
     "generator 't' must have degree >= 1, got -2"),
    ("gen x : 1\nfiber q : 1\nfiber _t : 2\nfiber 2s : 1\n", (4, 1), "bad generator name '2s'"),
])
def test_a_bad_generator_is_reported_at_its_own_statement(text, where, message):
    for validate in (True, False):
        with pytest.raises(ModelFileError) as err:
            parse_model(text, validate=validate)
        assert str(err.value) == "line {}, col {}: syntax: {}".format(*where, message)


@pytest.mark.parametrize("text, where", [
    ("gen a : 2\nlet x = {n}*a\n", (2, 9)),
    ("gen a : 2\nlet x = a^{n}\n", (2, 11)),
    ("gen a : 2\ngen b : 3\nd b = {n}/{n}*a^2\n", (3, 7)),
])
def test_a_numeral_past_the_int_string_limit_is_reported_at_it(text, where):
    limit = sys.get_int_max_str_digits()
    for validate in (True, False):
        with pytest.raises(ModelFileError) as err:
            parse_model(text.format(n="1" * (limit + 1)), validate=validate)
        message = f"numeral longer than {limit} digits"
        assert str(err.value) == "line {}, col {}: syntax: {}".format(*where, message)
