"""Model lifetimes: each command builds each model once, and reference
counting alone frees every model when the command ends."""

import gc
import pathlib
import weakref

import pytest

from dgcalc import cli
from dgcalc.graded import Model

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


@pytest.mark.parametrize("argv, builds, code", [
    (["betti", "nil_pair.dgm"], 2, 0),
    (["ses-verify", "t2_pair.dgm"], 4, 0),
    (["sym", "t2_pair.dgm"], 2, 0),
    (["identities", "nil_pair.dgm", "--trials", "2"], 2, 0),
    # the failed total model, then the bare algebra that carries the candidate field
    (["mc-check", "mc_fail.dgm"], 3, 1),
    (["tmap-verify", "nil_pair.dgm"], 4, 0),
    (["bn-check", "bn_selfdual.dgm", "--trials", "2"], 2, 0),
    (["e6-check", "e6_flux.dgm", "--trials", "2"], 2, 0),
    (["iso-check", "nil_pair.dgm"], 4, 0),
])
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
    finally:
        if enabled:
            gc.enable()
