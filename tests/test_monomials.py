"""Packed monomials: their layout and the edges of their fields.

Each generator's field is sized by its parity, in generator order: an odd
generator's is its exponent bit and a guard, an even one's WIDTH bits.
`Model.pack` and `Model.unpack` invert each other, packed-int order is the
colex order of the exponent tuples, a base model's monomials are its
bundles' own, and an odd-only model of up to 15 generators packs into one
30-bit digit.  The largest exponent a field holds survives a power, a
product and a Leibniz pass; one past it sets the field's guard bit, which
the library reports as a GradedError and the parser as a positioned
diagnostic, never as a carry into the next generator's field.
"""

import pytest

from dgcalc import presets
from dgcalc.cli import main
from dgcalc.derivations import BUNDLE_SHAPES, Derivation, DgBundle
from dgcalc.graded import MAX_EXPONENT, WIDTH, GradedError, Model, format_element
from dgcalc.parser import ModelFileError, parse_model
from dgcalc.tduality import dualize
from oracles import apply_derivation

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

TOP = MAX_EXPONENT
PAST = f"^the exponent of a passes {TOP}$"

# degrees with odd generators on both sides of an even one
ODD = st.lists(st.sampled_from([1, 3, 5]), min_size=1, max_size=4)
ANY = st.lists(st.sampled_from([1, 2, 3, 4]), max_size=5)
MIXED = st.builds(lambda left, middle, right: [*left, 2, *middle, *right], ODD, ANY, ODD)


def free_model(degrees):
    return Model([(f"x{i}", deg) for i, deg in enumerate(degrees)])


def exponent_tuples(model):
    """A strategy for the exponent tuples of the model's monomials."""
    return st.tuples(*(st.integers(0, 1 if g.is_odd else TOP) for g in model.generators))


@settings(max_examples=200, deadline=None)
@given(MIXED, st.data())
def test_unpack_inverts_pack(degrees, data):
    model = free_model(degrees)
    exponents = data.draw(exponent_tuples(model))
    assert model.unpack(model.pack(exponents)) == exponents


@settings(max_examples=200, deadline=None)
@given(MIXED, st.data())
def test_packed_order_is_the_colex_order_of_the_exponents(degrees, data):
    model = free_model(degrees)
    left, right = data.draw(exponent_tuples(model)), data.draw(exponent_tuples(model))
    assert (model.pack(left) < model.pack(right)) == (left[::-1] < right[::-1])
    assert (model.pack(left) == model.pack(right)) == (left == right)


@pytest.mark.parametrize("shape", sorted(BUNDLE_SHAPES))
@settings(max_examples=10, deadline=None)
@given(degrees=MIXED)
def test_a_base_monomial_is_the_same_int_in_every_bundle(shape, degrees):
    base = free_model(degrees)
    total = DgBundle(base, shape, {}, degree=2).total
    pad = (0,) * (len(total.generators) - len(base.generators))
    for k in range(7):
        for m in base.basis(k):
            assert total.pack(base.unpack(m) + pad) == m
    assert total.units[: len(base.units)] == base.units


@pytest.mark.parametrize("n", range(1, 16))
def test_an_odd_only_model_of_up_to_15_generators_packs_into_one_digit(n):
    model = free_model([(1, 3, 5)[i % 3] for i in range(n)])
    assert sum(model.units) < 1 << 30
    assert all(m < 1 << 30 for k in range(sum(model.degrees) + 1) for m in model.basis(k))
    assert model.basis(sum(model.degrees)) == (model.pack((1,) * n),)


def test_a_field_holds_every_exponent_that_loads_and_a_guard_bit():
    # (a + x*y + u)^9999999 loads, and two exponents in range sum below the next field
    assert 9999999 <= TOP and 2 * TOP < 1 << WIDTH
    model = free_model([2, 1, 2])
    assert model.pack((TOP, 1, TOP)) == TOP + (1 << WIDTH) + (TOP << WIDTH + 2)
    assert model.guard == 1 << WIDTH - 1 | 2 << WIDTH | 1 << 2 * WIDTH + 1


@pytest.mark.parametrize("exponents", [(-1,), (TOP + 1,), (0, TOP + 1)])
def test_pack_rejects_an_exponent_outside_the_field(exponents):
    with pytest.raises(GradedError, match=rf"^an exponent of \(.*\) is outside 0\.\.{TOP}$"):
        free_model([2] * len(exponents)).pack(exponents)


@pytest.mark.parametrize("degrees, exponents", [((2, 1), (0, 2)), ((1, 2), (-1, 0))])
def test_pack_rejects_an_odd_exponent_outside_its_bit(degrees, exponents):
    with pytest.raises(GradedError, match=r"^an exponent of \(.*\) is outside 0\.\.1$"):
        free_model(degrees).pack(exponents)


def test_pack_rejects_a_tuple_of_the_wrong_length():
    with pytest.raises(GradedError, match="^1 exponents for 2 generators$"):
        free_model([1, 2]).pack((0,))


def test_a_leibniz_pass_reads_each_field_by_its_own_mask():
    # odd fields between even ones, so a read past a 2-bit field sees the next generator
    model = Model([("x", 1), ("a", 2), ("y", 1), ("b", 2), ("z", 3)])
    x, a, y, b, z = (model.gen(name) for name in "xaybz")
    cases = [
        (2, {"a": a * b, "y": x * a}),
        (0, {"x": x, "b": a}),
        (1, {"y": a, "b": x * a}),
        (-1, {"z": b, "x": model.one()}),
        (3, {"x": x * z, "a": a * z}),
    ]
    for degree, values in cases:
        for el in (x * a**3 * y * b**2 * z, a * y * z, 2 * b**5 + x * y * b, y * b * z):
            assert Derivation(model, degree, values)(el) == apply_derivation(model, values, degree, el)


def s2_and_c():
    """The S^2 model a, b (d b = a^2) and a free even c: d lowers b and raises a by two."""
    return Model([("a", 2), ("b", 3), ("c", 2)], differential=lambda m: {"b": m.gen("a") ** 2})


def test_the_largest_exponent_survives_a_power_a_product_and_a_leibniz_pass():
    model = s2_and_c()
    a, b, c = (model.gen(name) for name in "abc")
    top = model.monomial_element(model.pack((TOP, 0, 0)))
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


@pytest.mark.parametrize("header", [
    "gen x : 1\ngen a : 2\ngen y : 1\n",
    "gen x : 1\ngen y : 1\ngen a : 2\n",
    "gen x : 1\ngen y : 1\ngen z : 3\ngen a : 2\ngen w : 1\n",
])
def test_an_even_field_past_odd_ones_still_names_its_generator(header):
    names = [line.split()[1] for line in header.splitlines()]
    with pytest.raises(ModelFileError) as err:
        parse_model(header + f"let h = {' '.join(names)} a^{TOP}\n")
    assert err.value.message == f"the exponent of a passes {TOP}"
    model = parse_model(header).model
    with pytest.raises(GradedError, match=PAST):
        model.gen("a") ** (TOP + 1)
