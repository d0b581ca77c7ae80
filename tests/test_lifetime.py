"""Model lifetimes: each command builds each model once, and reference
counting alone frees every model when the command ends.  The one cache that
outlives a command, `graded.SIGN_MASKS`, holds ints only, so it keeps no
model alive."""

import gc
import pathlib
import weakref

import pytest

from dgcalc import cli
from dgcalc.graded import SIGN_MASKS, Model

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


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
]


# ids name the command and the file, so a changed build count renames no test
@pytest.mark.parametrize("argv, builds, code", ROWS, ids=[f"{argv[0]}-{argv[1]}" for argv, _, _ in ROWS])
def test_each_command_builds_each_model_once_and_frees_it(argv, builds, code, monkeypatch, capsys):
    refs = []
    init = Model.__init__

    def recording(self, *args, **kwargs):
        refs.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(Model, "__init__", recording)
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert cli.main([argv[0], str(MODELS / argv[1])] + argv[2:]) == code
        capsys.readouterr()
        alive = [ref() for ref in refs if ref() is not None]
        assert (len(refs), alive) == (builds, []), "(models built, models alive)"
        assert SIGN_MASKS and all(
            type(key) is int and [type(mask) for mask in masks] == [int, int] for key, masks in SIGN_MASKS.items()
        ), "the sign-mask cache holds ints only"
    finally:
        if enabled:
            gc.enable()

