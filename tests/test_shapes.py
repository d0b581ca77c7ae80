"""Structured symmetries of every bundle shape, degree by degree.

`symmetry` builds a derivation from named base-form parts and `decompose`
reads the parts back; the round trip must return the input in every degree
a shape has parts in, and both must refuse anything outside the shape.  The
part lists below are written out independently of the library's table.  The
dimension of the degree-0 structured solutions is pinned against
`oracles.structured_kernel_dim`, which solves for a kernel basis and realizes
each solution, and the full degree-0 kernel of [Q, .] against
`oracles.sym0_kernel_dim`, which brackets one checked probe per unknown and
ranks the dense brackets by Bareiss.
"""

import importlib.util
import pathlib
import random
from fractions import Fraction

import pytest

from dgcalc import presets
from dgcalc.derivations import Derivation, DgBundle
from dgcalc.parser import load_path, parse_model
from dgcalc.sampling import random_contraction, random_element
from dgcalc.symmetries import SymmetryError, decompose, sym0_dimensions, symmetry
from oracles import structured_kernel_dim, sym0_kernel_dim

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

NIL = presets.nilmanifold()
S4T3 = presets.sphere4_times_torus3()


def _g(model, *names):
    out = model.scalar(1)
    for name in names:
        out = out * model.gen(name)
    return out


BUNDLES = {
    "two_step": DgBundle.two_step(
        NIL, _g(NIL, "x1", "x2"), _g(NIL, "x3", "x4"), -_g(NIL, "z", "x3", "x4")
    ),
    "line2": DgBundle.line(NIL, _g(NIL, "x1", "x2", "x3"), "t", 2),
    "line3": DgBundle.line(NIL, _g(NIL, "x1", "x2", "x3", "x4"), "t", 3),
    "flux": DgBundle.flux(S4T3, S4T3.gen("a"), S4T3.gen("b") * Fraction(-1, 2)),
}


def expected_parts(key, k):
    """{part name: base degree} of the form parts in degree k, hand-written per shape."""
    if key == "two_step":
        return {0: {"a": 1, "b": 2, "abar": 1}, -1: {"f": 0, "c": 1, "fbar": 0}, -2: {"h": 0}}.get(k, {})
    if key == "flux":
        rows = {0: {"a3": 3, "b6": 6}, -1: {"s2": 2, "s5": 5}, -2: {"eta1": 1, "c4": 4}, -3: {"f": 0, "d3": 3}}
        return rows.get(k, {"h": 6 + k})
    n = int(key[-1])
    return {0: {"b": n}, -1: {"a": n - 1}}.get(k, {"eta": n + k})


CASES = (
    [("two_step", k) for k in range(0, -4, -1)]
    + [("line2", k) for k in range(0, -4, -1)]
    + [("line3", k) for k in range(0, -5, -1)]
    + [("flux", k) for k in range(0, -6, -1)]
)


def random_parts(bundle, key, k, rng):
    base = bundle.base
    parts = {name: random_element(base, deg, rng) for name, deg in expected_parts(key, k).items()}
    if k in (0, -1):
        parts["iota"] = random_contraction(base, rng)
    return parts


@pytest.mark.parametrize("key,k", CASES)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_symmetry_decompose_round_trip(key, k, seed):
    bundle = BUNDLES[key]
    parts = random_parts(bundle, key, k, random.Random(seed))
    x = symmetry(bundle, k, **parts)
    vector = {0: {"iota", "lie"}, -1: {"iota"}}.get(k, set())
    assert set(x.parts) == set(expected_parts(key, k)) | vector
    for name, value in parts.items():
        assert x.parts[name] == value
    again = decompose(bundle, x.realized)
    assert again == x
    # decomposing reads the parts and keeps the derivation it was given
    assert again.realized is x.realized
    assert set(again.parts) == set(x.parts)
    # a raw derivation only carries the induced base action, not the contraction
    for name in set(x.parts) - ({"iota"} if k == 0 else set()):
        assert again.parts[name] == x.parts[name]
    assert symmetry(bundle, k, **again.parts).realized == x.realized


OTHER_SHAPES_PARTS = ("a", "b", "abar", "f", "c", "fbar", "h", "eta", "a3", "b6", "s2", "s5", "eta1", "c4", "d3")


@pytest.mark.parametrize("key,k", CASES)
def test_symmetry_rejects_parts_of_other_rows(key, k):
    bundle = BUNDLES[key]
    allowed = set(expected_parts(key, k))
    for name in OTHER_SHAPES_PARTS:
        if name not in allowed:
            with pytest.raises(SymmetryError):
                symmetry(bundle, k, **{name: bundle.base.zero()})


@pytest.mark.parametrize("key", sorted(BUNDLES))
def test_positive_degrees_have_no_symmetries(key):
    with pytest.raises(SymmetryError):
        symmetry(BUNDLES[key], 1)


@pytest.mark.parametrize("k,q_part,coupling", [
    (0, ("x1", "x2", "x3"), Fraction(-1, 2)),
    (-1, ("x1", "x2"), Fraction(1, 2)),
    (-2, ("x1",), Fraction(-1, 2)),
    (-3, (), Fraction(1, 2)),
])
def test_flux_coupling_is_fixed(k, q_part, coupling):
    bundle = BUNDLES["flux"]
    total, inc = bundle.total, bundle.include_base
    x = inc(_g(bundle.base, *q_part))
    q = total.gen(bundle.q_name)

    def raw(c):
        return Derivation(total, k, {bundle.q_name: x, bundle.t_name: q * x * c})

    assert decompose(bundle, raw(coupling)).realized == raw(coupling)
    for wrong in (-coupling, 2 * coupling, 0):
        with pytest.raises(SymmetryError):
            decompose(bundle, raw(wrong))


@pytest.mark.parametrize("key", sorted(BUNDLES))
def test_decompose_rejects_t_dependent_fiber_values(key):
    bundle = BUNDLES[key]
    t = bundle.fiber_names[-1]
    euler = Derivation(bundle.total, 0, {t: bundle.total.gen(t)})
    with pytest.raises(SymmetryError):
        decompose(bundle, euler)


ROOT = pathlib.Path(__file__).resolve().parent.parent
BUNDLE_MODELS = (
    "bn_selfdual", "e6_flux", "hopf_pair", "nil_pair", "s3_pair", "s3_volume", "t2_pair", "t7_flux",
)


def _benchmark_inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_degree_zero_counts(bundle):
    """Both numbers of sym0_dimensions: the structured solutions and the full kernel."""
    assert sym0_dimensions(bundle) == (structured_kernel_dim(bundle), sym0_kernel_dim(bundle))


@pytest.mark.parametrize("name", BUNDLE_MODELS)
def test_structured_kernel_dim_matches_oracle_on_models(name):
    _assert_degree_zero_counts(load_path(str(ROOT / "models" / f"{name}.dgm")).bundle)


@pytest.mark.parametrize("n,variant,selfdual", [
    (3, 0, False), (3, 1, True), (4, 2, False), (4, 3, True), (5, 0, False), (5, 5, True),
])
def test_structured_kernel_dim_matches_oracle_on_generated_pairs(n, variant, selfdual):
    _assert_degree_zero_counts(parse_model(_benchmark_inputs().pair(n, variant, selfdual)).bundle)


@pytest.mark.parametrize("key", sorted(BUNDLES))
def test_structured_kernel_dim_matches_oracle_on_fixtures(key):
    _assert_degree_zero_counts(BUNDLES[key])
