"""One integer matrix layout, checked on the import statements: the matrix
layer (`linalg` and the cochain slices of `cohomology`) imports nothing from
`fractions`, and the test oracles import nothing from `linalg`, so they never
share the elimination they check.  One monomial layout, checked on the
syntax tree: `dgcalc` adds no exponent tuples with `tuple(map(add, ...))` and
takes no odd mask with `compress`, since a monomial is one packed int.  One
value-table layout, checked on the syntax tree too: only `graded` reads a
`ValueTable` past its named fields, `is_zero()` and `numerators()`, so no
other module indexes a table, unpacks it or reads its `entries`, the only
way to its terms."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dgcalc"


def imported(path):
    """Every module a file imports, and every name it imports from one as
    module.name; a relative import is read inside `dgcalc`."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"dgcalc.{module}" if module else "dgcalc"
            out.add(module)
            out.update(f"{module}.{alias.name}" for alias in node.names)
    return out


@pytest.mark.parametrize("name", ["linalg.py", "cohomology.py"])
def test_the_matrix_layer_holds_no_fractions(name):
    modules = imported(PACKAGE / name)
    assert not [m for m in modules if m == "fractions" or m.startswith("fractions.")], name


def test_the_oracles_do_not_share_the_elimination():
    modules = imported(ROOT / "tests" / "oracles.py")
    assert not [m for m in modules if m == "dgcalc.linalg" or m.startswith("dgcalc.linalg.")]


def test_the_scan_sees_both_kinds_of_import():
    # a scan that missed imports would pass the guards above vacuously
    assert "fractions.Fraction" in imported(PACKAGE / "graded.py")
    assert "dgcalc.linalg" in imported(PACKAGE / "cohomology.py")
    assert "dgcalc.linalg.kernel_basis" in imported(ROOT / "tests" / "test_linalg.py")


def _name(node):
    """The name a Name or an attribute access ends in, else None."""
    return getattr(node, "id", getattr(node, "attr", None))


def tuple_layout(path):
    """(line, kind) of every exponent-tuple idiom in a file: a call
    tuple(map(add, ...)), which adds exponent tuples, or any call of
    `compress`, which selects a tuple's odd generators."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        if _name(node.func) == "compress":
            out.append((node.lineno, "compress"))
        elif _name(node.func) == "tuple" and node.args and isinstance(node.args[0], ast.Call):
            inner = node.args[0]
            if _name(inner.func) == "map" and inner.args and _name(inner.args[0]) == "add":
                out.append((node.lineno, "tuple(map(add, ...))"))
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_the_package_holds_one_monomial_layout(path):
    assert tuple_layout(path) == [], path.name


def test_the_layout_scan_finds_the_tuple_idioms_of_the_oracles():
    # the oracles compute on exponent tuples, so a scan that missed them would
    # pass the guard above vacuously
    kinds = {kind for _, kind in tuple_layout(ROOT / "tests" / "oracles.py")}
    assert kinds == {"compress", "tuple(map(add, ...))"}


def _unpacks_table(target, source):
    """Whether binding target from source unpacks a value table: any tuple
    read off a table or its entries, whose terms are (monomial, odd mask,
    n)."""
    return isinstance(target, ast.Tuple) and (_name(source) or "").endswith(("table", "entries"))


def table_reads(source):
    """(line, kind) of every positional read of a value table in a source: a
    subscript of a name or attribute ending in `table`, an unpacking of a
    table, its entries or its terms, or any read of an attribute `entries`."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and (_name(node.value) or "").endswith("table"):
            out.append((node.lineno, "subscript"))
        elif isinstance(node, ast.Attribute) and node.attr == "entries":
            out.append((node.lineno, "entries"))
        elif isinstance(node, (ast.For, ast.comprehension)) and _unpacks_table(node.target, node.iter):
            out.append((node.target.lineno, "unpacking"))
        elif isinstance(node, ast.Assign) and any(_unpacks_table(t, node.value) for t in node.targets):
            out.append((node.lineno, "unpacking"))
    return sorted(out)


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "graded.py"), ids=lambda p: p.name
)
def test_only_graded_reads_a_value_table_by_position(path):
    assert table_reads(path.read_text()) == [], path.name


def test_the_table_scan_sees_indexing_and_unpacking():
    # a scan that missed these would pass the guard above vacuously
    source = "d.table[2]\nfor shift, _, _, _, terms in d.table.entries:\n    pass\n_, entries, _ = model.d_table\n"
    assert table_reads(source) == [(1, "subscript"), (2, "entries"), (2, "unpacking"), (4, "unpacking")]
    kinds = {kind for _, kind in table_reads((PACKAGE / "graded.py").read_text())}
    assert kinds == {"entries", "unpacking"}
