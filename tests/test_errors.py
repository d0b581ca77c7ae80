"""One error base: every exception class a `dgcalc` module defines derives
from `DgcalcError`, which is all the CLI catches besides `OSError`, and no
handler in the package catches `Exception` or everything."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import dgcalc
from dgcalc import DgcalcError

PACKAGE = pathlib.Path(dgcalc.__file__).resolve().parent


def defined_exceptions():
    """{qualified name: class} of every exception class defined in a dgcalc module."""
    out = {}
    for info in pkgutil.iter_modules(dgcalc.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"dgcalc.{info.name}")
        for name, obj in inspect.getmembers(module, inspect.isclass):
            if obj.__module__ == module.__name__ and issubclass(obj, BaseException):
                out[f"{info.name}.{name}"] = obj
    return out


def test_every_dgcalc_exception_derives_from_the_base():
    strays = [name for name, cls in defined_exceptions().items() if not issubclass(cls, DgcalcError)]
    assert strays == []


def test_the_exception_scan_finds_every_error_class():
    # a scan that imported no module would pass the guard above vacuously
    assert set(defined_exceptions()) == {
        "graded.DgcalcError",
        "graded.GradedError",
        "derivations.DerivationError",
        "derivations.BundleError",
        "cohomology.CohomologyError",
        "tduality.TDualityError",
        "symmetries.SymmetryError",
        "parser.ModelFileError",
    }


BROAD = {"Exception", "BaseException"}


def broad_handlers(source):
    """The line of every handler that catches everything or `Exception`."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler):
            # a bare `except:` catches everything, as if it named BROAD
            caught = BROAD if node.type is None else {getattr(n, "id", None) for n in ast.walk(node.type)}
            if caught & BROAD:
                out.append(node.lineno)
    return out


def test_no_handler_in_the_package_catches_everything():
    found = {path.name: broad_handlers(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_handler_scan_sees_broad_handlers():
    source = "try:\n    pass\nexcept ValueError:\n    pass\nexcept (OSError, Exception):\n    pass\n"
    assert broad_handlers(source) == [5]
    assert broad_handlers("try:\n    pass\nexcept:\n    pass\n") == [3]
