"""The benchmark tracer wraps dgcalc callables by name; each name must resolve."""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

from dgcalc.cohomology import CochainSpace

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_tracer().SPANS


@pytest.mark.parametrize("span", sorted(SPANS))
def test_every_traced_name_resolves(span):
    modname, path = SPANS[span]
    holder = importlib.import_module(f"dgcalc.{modname}")
    for attr in path.split("."):
        holder = getattr(holder, attr)
    assert callable(holder), span


def test_cochain_space_takes_space_and_degree():
    # the tracer's CochainSpace wrapper counts builds by (space, degree)
    params = list(inspect.signature(CochainSpace.__init__).parameters)
    assert params == ["self", "space", "degree"]
