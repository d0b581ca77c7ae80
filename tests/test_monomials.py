"""Packed monomials at the edges of their fields.

`pack` and `unpack` invert each other.  The largest exponent a field holds
survives a power, a product and a Leibniz pass; one past it sets the field's
guard bit, which the library reports as a GradedError and the parser as a
positioned diagnostic, never as a carry into the next generator's field.
"""

import pytest

from dgcalc import presets
from dgcalc.cli import main
from dgcalc.derivations import Derivation, DgBundle
from dgcalc.graded import MAX_EXPONENT, WIDTH, GradedError, Model, format_element, pack, unpack
from dgcalc.parser import ModelFileError, parse_model
from dgcalc.tduality import dualize

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

TOP = MAX_EXPONENT
PAST = f"^the exponent of a passes {TOP}$"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, TOP), max_size=12))
def test_unpack_inverts_pack(exponents):
    assert unpack(pack(exponents), len(exponents)) == tuple(exponents)


def test_a_field_holds_every_exponent_that_loads_and_a_guard_bit():
    # (a + x*y + u)^9999999 loads, and two exponents in range sum below the next field
    assert 9999999 <= TOP and 2 * TOP < 1 << WIDTH
    assert pack((TOP, TOP)) == TOP + (TOP << WIDTH)


@pytest.mark.parametrize("exponents", [(-1,), (TOP + 1,), (0, TOP + 1)])
def test_pack_rejects_an_exponent_outside_the_field(exponents):
    with pytest.raises(GradedError, match=rf"^an exponent of \(.*\) is outside 0\.\.{TOP}$"):
        pack(exponents)


def s2_and_c():
    """The S^2 model a, b (d b = a^2) and a free even c: d lowers b and raises a by two."""
    return Model([("a", 2), ("b", 3), ("c", 2)], differential=lambda m: {"b": m.gen("a") ** 2})


def test_the_largest_exponent_survives_a_power_a_product_and_a_leibniz_pass():
    model = s2_and_c()
    a, b, c = (model.gen(name) for name in "abc")
    top = model.monomial_element(pack((TOP, 0, 0)))
    assert a**TOP == top
    assert a ** (TOP - 1) * a == top == a * a ** (TOP - 1)
    assert model.d(a ** (TOP - 2) * b) == top
    assert Derivation(model, 0, {"c": a})(a ** (TOP - 1) * c) == top
    assert format_element(top) == f"a^{TOP}"


@pytest.mark.parametrize("step", [
    lambda model, a, b, c: a ** (TOP + 1),
    lambda model, a, b, c: a**TOP * a,
    lambda model, a, b, c: model.d(a ** (TOP - 1) * b),
    lambda model, a, b, c: Derivation(model, 0, {"c": a})(a**TOP * c),
], ids=["power", "product", "differential", "derivation"])
def test_one_past_the_largest_exponent_raises(step):
    model = s2_and_c()
    with pytest.raises(GradedError, match=PAST):
        step(model, *(model.gen(name) for name in "abc"))


def test_the_section_raises_where_t_would_pass_the_field():
    # the section lifts qbar t^i to t^(i+1) / (i+1), one power of t higher
    t2 = presets.torus(2)
    pair = dualize(DgBundle.two_step(t2, t2.zero(), t2.zero(), t2.zero()))
    qbar, t = pair.pbar.total.gen("qbar"), pair.pbar.total.gen("t")
    assert pair.section(qbar * t ** (TOP - 1)) == pair.p.total.gen("t") ** TOP / TOP
    with pytest.raises(GradedError, match=rf"^the exponent of t passes {TOP}$"):
        pair.section(qbar * t**TOP)


def test_a_basis_past_the_field_raises_before_it_is_enumerated():
    with pytest.raises(GradedError, match=rf"^degree {2 * TOP + 2} needs an exponent past {TOP}$"):
        Model([("a", 2)]).basis(2 * TOP + 2)


HEADER = "gen a : 2\ngen c : 2\ngen x : 1\n"


def test_the_largest_exponent_loads():
    mf = parse_model(HEADER + f"let h = 3 c a^{TOP}\n")
    assert format_element(mf.elements["h"]) == f"3*a^{TOP}*c"


@pytest.mark.parametrize("expr, col", [
    # at the exponent of the power that passes the field
    (f"a^{TOP + 1}", 11),
    (f"(a*a)^{TOP // 2 + 1}", 15),
    (f"c + x * (a^2*c)^{TOP // 2 + 1}", 25),
    # at the right factor of the product that passes it
    (f"a^{TOP} * a", 22),
    (f"a^{TOP} (c + a)", 20),
])
def test_one_past_the_largest_exponent_is_a_positioned_diagnostic(expr, col):
    with pytest.raises(ModelFileError) as err:
        parse_model(HEADER + f"let h = {expr}\n")
    assert (err.value.kind, err.value.line, err.value.col) == ("syntax", 4, col)
    assert err.value.message == f"the exponent of a passes {TOP}"


def test_an_exponent_of_d_squared_past_the_field_is_a_diagnostic():
    # d d x = d(b^TOP c^TOP) = TOP b^(TOP - 1) c^(TOP + 1) y, so the square check cannot finish
    text = f"gen b : 2\ngen c : 2\ngen y : 1\ngen x : {4 * TOP - 1}\nd b = c y\n"
    with pytest.raises(ModelFileError) as err:
        parse_model(text + f"d x = b^{TOP} c^{TOP}\n")
    assert (err.value.kind, err.value.line, err.value.col) == ("d-squared", 5, 1)
    assert err.value.witness == f"the exponent of c passes {TOP}"


def test_validate_exits_2_on_an_exponent_past_the_field(tmp_path, capsys):
    model = tmp_path / "past.dgm"
    model.write_text(HEADER + f"let h = a^{TOP + 1}\n")
    assert main(["validate", str(model)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line 4, col 11: syntax: the exponent of a passes {TOP}\n"
