"""Model lifetimes: each command builds each model once, and reference
counting alone frees every model when the command ends.  The one cache that
outlives a command, `graded.SIGN_MASKS`, holds ints only, so it keeps no
model alive, and only operators fill it, so its size follows the model's d
and twist, not the products a run takes."""

import gc
import pathlib
import random
import weakref

import pytest

from dgcalc import cli
from dgcalc.graded import SIGN_MASKS, Model
from dgcalc.parser import load_path
from dgcalc.sampling import random_element
from test_shapes import _benchmark_inputs

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


# model files generated into a test's temporary directory, by name
GENERATED = {"nil10_3.dgm": lambda: _benchmark_inputs().nilmanifold(10, 3, 0)}


def model_path(name, tmp_path):
    if name not in GENERATED:
        return MODELS / name
    path = tmp_path / name
    path.write_text(GENERATED[name]())
    return path


def sign_mask_bound(mf):
    """The most entries a twisted run on this model file may add to
    SIGN_MASKS: one per generator, per term of d's table and per term of the
    twist h.  Masks are shared, so the true count is often lower."""
    d_terms = sum(len(terms) for terms in mf.model.d_table.numerators().values())
    return len(mf.model.generators) + d_terms + len(mf.elements["h"].nums)


ROWS = [
    (["betti", "nil_pair.dgm"], 2, 0),
    (["ses-verify", "t2_pair.dgm"], 3, 0),
    (["sym", "t2_pair.dgm"], 2, 0),
    (["identities", "nil_pair.dgm", "--trials", "2"], 2, 0),
    # the base and the failed total model, which the recorded residue lives on
    (["mc-check", "mc_fail.dgm"], 2, 1),
    (["tmap-verify", "nil_pair.dgm"], 3, 0),
    (["bn-check", "bn_selfdual.dgm", "--trials", "2"], 2, 0),
    (["e6-check", "e6_flux.dgm", "--trials", "2"], 2, 0),
    (["iso-check", "nil_pair.dgm"], 3, 0),
    # the base, P, the dual, and the correspondence its gauge check builds
    (["tdualize", "t2_pair.dgm"], 4, 0),
    # the base and the failed total model; nothing in the error chain keeps either
    (["validate", "mc_fail.dgm"], 2, 2),
    # a 13-generator nilmanifold: the sign cache stays within sign_mask_bound
    (["twisted", "nil10_3.dgm", "--form", "h"], 1, 0),
]


# ids name the command and the file, so a changed build count renames no test
@pytest.mark.parametrize("argv, builds, code", ROWS, ids=[f"{argv[0]}-{argv[1]}" for argv, _, _ in ROWS])
def test_each_command_builds_each_model_once_and_frees_it(argv, builds, code, monkeypatch, capsys, tmp_path):
    path = model_path(argv[1], tmp_path)
    refs = []
    init = Model.__init__

    def recording(self, *args, **kwargs):
        refs.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(Model, "__init__", recording)
    enabled = gc.isenabled()
    gc.disable()
    before = len(SIGN_MASKS)
    try:
        assert cli.main([argv[0], str(path)] + argv[2:]) == code
        capsys.readouterr()
        alive = [ref() for ref in refs if ref() is not None]
        assert (len(refs), alive) == (builds, []), "(models built, models alive)"
        assert SIGN_MASKS and all(
            type(key) is int and [type(mask) for mask in masks] == [int, int] for key, masks in SIGN_MASKS.items()
        ), "the sign-mask cache holds ints only"
        if argv[0] == "twisted":
            assert len(SIGN_MASKS) - before <= sign_mask_bound(load_path(str(path)))
    finally:
        if enabled:
            gc.enable()


def test_twisted_and_products_leave_the_sign_cache_at_the_model_size(capsys, tmp_path):
    path = model_path("nil10_3.dgm", tmp_path)
    saved = dict(SIGN_MASKS)
    SIGN_MASKS.clear()
    try:
        assert cli.main(["twisted", str(path), "--form", "h"]) == 0
        assert "even: 1168" in capsys.readouterr().out
        mf = load_path(str(path))
        model, rng = mf.model, random.Random(3)
        for _ in range(1000):
            a, b = (random_element(model, rng.randint(0, 4), rng, 0.3) for _ in range(2))
            a * b
        # 13 generators, 8 terms of d and one of h; the monomials number 8192
        assert len(SIGN_MASKS) <= sign_mask_bound(mf) == 22
    finally:
        SIGN_MASKS.update(saved)

