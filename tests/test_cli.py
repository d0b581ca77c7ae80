"""Command surface: exit codes, reports, golden outputs."""

import pathlib
import subprocess
import sys
import time

import pytest

from dgcalc import cli
from dgcalc.cli import main
from dgcalc.symmetries import SymmetryError

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", str(MODELS / "s3_volume.dgm"))
    assert code == 0
    assert "validation: ok" in out


def test_validate_diagnostic_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.dgm"
    bad.write_text("gen q : 1\nd q = q\n")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "degree-mismatch" in err
    assert "line 2" in err


def test_betti_golden(capsys):
    code, out, _ = run(capsys, "betti", str(MODELS / "s3_volume.dgm"), "--lo", "0", "--hi", "6")
    assert code == 0
    assert out == (GOLDEN / "betti_s3.txt").read_text()


def test_betti_report_golden(tmp_path, capsys):
    report = tmp_path / "report.txt"
    code, _, _ = run(
        capsys,
        "betti",
        str(MODELS / "s3_volume.dgm"),
        "--lo",
        "0",
        "--hi",
        "6",
        "--report",
        str(report),
    )
    assert code == 0
    assert report.read_text() == (GOLDEN / "betti_s3_report.txt").read_text()


def test_reports_are_byte_deterministic(tmp_path, capsys):
    first = tmp_path / "one.txt"
    second = tmp_path / "two.txt"
    for target in (first, second):
        run(capsys, "identities", str(MODELS / "nil_pair.dgm"), "--trials", "5", "--report", str(target))
    assert first.read_bytes() == second.read_bytes()


def test_twisted_golden(capsys):
    code, out, _ = run(capsys, "twisted", str(MODELS / "s3_volume.dgm"))
    assert code == 0
    assert out == (GOLDEN / "twisted_s3.txt").read_text()


def test_ses_verify_golden(capsys):
    code, out, _ = run(capsys, "ses-verify", str(MODELS / "t2_pair.dgm"), "--cap", "6")
    assert code == 0
    assert out == (GOLDEN / "ses_t2.txt").read_text()


def test_mc_check_pass_and_fail(capsys):
    code, out, _ = run(capsys, "mc-check", str(MODELS / "nil_pair.dgm"))
    assert code == 0 and "pass" in out
    code, out, _ = run(capsys, "mc-check", str(MODELS / "mc_fail.dgm"))
    assert code == 1
    assert "fail on generator t" in out
    assert "a^2" in out


def test_mc_check_on_failing_flux_bundle(tmp_path, capsys):
    text = (MODELS / "e6_flux.dgm").read_text().replace("F7 = -1/2 b", "F7 = b")
    model = tmp_path / "flux_bad.dgm"
    model.write_text(text)
    report = tmp_path / "report.txt"
    code, out, _ = run(capsys, "mc-check", str(model), "--report", str(report))
    assert code == 1
    assert "fail on generator t" in out
    records = report.read_text().splitlines()
    assert "witness=t" in records
    assert "residue=3/2*a^2" in records


def test_mc_check_rejects_sym_on_failing_bundle(tmp_path, capsys):
    model = tmp_path / "mc_sym.dgm"
    model.write_text((MODELS / "mc_fail.dgm").read_text() + "sym u : deg = -2, h = 1\n")
    code, out, err = run(capsys, "mc-check", str(model))
    assert code == 2
    assert out == ""
    assert "line 11, col 1: shape: sym declarations need a validated bundle" in err


def test_validate_rejects_mc_failure(capsys):
    code, _, err = run(capsys, "validate", str(MODELS / "mc_fail.dgm"))
    assert code == 2
    assert "maurer-cartan" in err


def test_non_integer_sym_degree_is_a_syntax_error(tmp_path, capsys):
    model = tmp_path / "sym_deg.dgm"
    model.write_text((MODELS / "nil_pair.dgm").read_text().replace("deg = -1", "deg = one", 1))
    code, out, err = run(capsys, "validate", str(model))
    assert code == 2
    assert out == ""
    assert err == "error: line 18, col 15: syntax: bad degree 'one'\n"


@pytest.mark.parametrize(
    "old, new, diagnostic",
    [
        ("fbar = 3", "fbar = 3, c = 2 x2", "col 51: syntax: repeated sym key 'c'"),
        ("X = X,", "X = X, deg = -2,", "col 26: syntax: repeated sym key 'deg'"),
        ("X = X,", "X = X, X = Y,", "col 26: syntax: repeated sym key 'X'"),
        ("c = x2", "cc = x2", "col 33: syntax: unknown sym key 'cc'"),
        ("X = X", "X = Z", "col 23: unknown-generator: unknown vec 'Z'"),
    ],
)
def test_sym_clause_diagnostics_point_at_the_clause(old, new, diagnostic, tmp_path, capsys):
    model = tmp_path / "sym_clause.dgm"
    model.write_text((MODELS / "nil_pair.dgm").read_text().replace(old, new, 1))
    code, out, err = run(capsys, "validate", str(model))
    assert code == 2
    assert out == ""
    assert err == f"error: line 18, {diagnostic}\n"


@pytest.mark.parametrize("line", ["let h = b^9999999", "let h = a^200000"])
def test_huge_power_validates_quickly(line, tmp_path, capsys):
    model = tmp_path / "power.dgm"
    model.write_text((MODELS / "s2_sphere.dgm").read_text() + line + "\n")
    started = time.perf_counter()
    code, out, _ = run(capsys, "validate", str(model))
    assert code == 0
    assert "validation: ok" in out
    assert time.perf_counter() - started < 5


@pytest.mark.parametrize("command", ["validate", "mc-check"])
def test_structural_form_of_wrong_degree_is_a_degree_error(command, tmp_path, capsys):
    model = tmp_path / "mc_degree.dgm"
    model.write_text((MODELS / "mc_fail.dgm").read_text().replace("F = a\n", "F = a^2\n"))
    code, out, err = run(capsys, command, str(model))
    assert code == 2
    assert out == ""
    assert err == "error: line 9, col 1: degree-mismatch: F must have degree 2, got 4 [a^2]\n"


def test_tdualize_and_iso(capsys):
    code, out, _ = run(capsys, "tdualize", str(MODELS / "t2_pair.dgm"))
    assert code == 0
    assert "Fbar = th1*th2" in out
    code, out, _ = run(capsys, "iso-check", str(MODELS / "t2_pair.dgm"))
    assert code == 0
    assert "pass" in out


def test_tmap_verify_sign(capsys):
    code, out, _ = run(capsys, "tmap-verify", str(MODELS / "hopf_pair.dgm"), "--cap", "6")
    assert code == 0
    assert "sign +1" in out


def test_shape_mismatch_is_usage_error(capsys):
    code, _, err = run(capsys, "ses-verify", str(MODELS / "s3_volume.dgm"))
    assert code == 2
    assert "two-step" in err


def test_derived_bracket_command(capsys):
    code, out, _ = run(
        capsys, "derived-bracket", str(MODELS / "nil_pair.dgm"), "--a", "u", "--b", "v"
    )
    assert code == 0
    assert "degree -1" in out


def test_bn_and_e6_checks(capsys):
    code, out, _ = run(capsys, "bn-check", str(MODELS / "bn_selfdual.dgm"), "--trials", "6")
    assert code == 0
    assert out.count("pass") == 4
    code, out, _ = run(capsys, "e6-check", str(MODELS / "e6_flux.dgm"), "--trials", "3")
    assert code == 0


@pytest.mark.parametrize("command, text, why", [
    (
        "bn-check",
        "model s3sd; dim 3; gen c : 3; fiber q : 1; fiber t : 2; H = c\n",
        "no closed 1- or 2-form on the base",
    ),
    (
        "e6-check",
        "model s4flux\ndim 4\ngen a : 4\ngen b : 7\nd b = a^2\n"
        "fiber q : 3\nfiber t : 6\nF4 = a\nF7 = -1/2 b\n",
        "no closed 3- or 6-form on the base",
    ),
])
def test_action_displays_skip_without_closed_actors(command, text, why, tmp_path, capsys):
    path, report = tmp_path / "model.dgm", tmp_path / "report.txt"
    path.write_text(text)
    code, out, _ = run(capsys, command, str(path), "--trials", "4", "--report", str(report))
    assert code == 0
    assert f"  action-displays: skipped ({why})" in out
    assert "  bracket-display: pass" in out
    records = report.read_text().splitlines()
    assert "law.action-displays=skip" in records
    assert records[-1] == "status=pass"


def test_failing_law_reports_its_witness(monkeypatch, tmp_path, capsys):
    def broken_pairing(a, b):
        raise SymmetryError("pairing display disagrees")

    monkeypatch.setattr(cli, "bn_pairing", broken_pairing)
    report = tmp_path / "report.txt"
    code, out, _ = run(
        capsys, "bn-check", str(MODELS / "bn_selfdual.dgm"), "--trials", "4", "--report", str(report)
    )
    assert code == 1
    assert "  bracket-display: pass" in out
    assert "  pairing-display: fail (trial 0: pairing display disagrees)" in out
    records = report.read_text().splitlines()
    assert records[3:6] == [
        "law.bracket-display=pass",
        "law.pairing-display=fail",
        "witness.pairing-display=trial 0: pairing display disagrees",
    ]
    assert records[-1] == "status=fail"


@pytest.mark.parametrize("command, model", [
    ("bn-check", "bn_selfdual.dgm"),
    ("e6-check", "e6_flux.dgm"),
    ("identities", "nil_pair.dgm"),
])
@pytest.mark.parametrize("trials", ["0", "-1"])
def test_law_suites_reject_vacuous_trial_counts(command, model, trials, capsys):
    with pytest.raises(SystemExit) as stop:
        main([command, str(MODELS / model), "--trials", trials])
    assert stop.value.code == 2
    assert "at least one trial" in capsys.readouterr().err


def test_tmap_verify_rejects_negative_cap(capsys):
    cases = (("tmap-verify", "checks no monomial"), ("ses-verify", "checks no degree"))
    for command, message in cases:
        code, out, err = run(capsys, command, str(MODELS / "t2_pair.dgm"), "--cap", "-3")
        assert code == 2
        assert out == ""
        assert f"degree cap -3 {message}" in err


@pytest.mark.parametrize("cap", ["-1", "-3"])
def test_twisted_rejects_a_cap_that_checks_nothing(cap, capsys):
    code, out, err = run(capsys, "twisted", str(MODELS / "t2_pair.dgm"), "--cap", cap)
    assert code == 2
    assert "even" not in out
    assert f"degree cap {cap} checks no degree" in err


def test_identities_seeded(capsys):
    code, out, _ = run(
        capsys, "identities", str(MODELS / "nil_pair.dgm"), "--trials", "8", "--seed", "3"
    )
    assert code == 0
    assert "seed 3" in out


@pytest.mark.parametrize("name", ["s3_volume.dgm", "s3_pair.dgm"])
def test_law_without_trials_is_skipped_not_passed(name, tmp_path, capsys):
    report = tmp_path / "report.txt"
    code, out, _ = run(
        capsys, "identities", str(MODELS / name), "--trials", "2", "--report", str(report)
    )
    records = report.read_text().splitlines()
    assert code == 0
    assert "  sym0-action: skipped (no degree-0 actor)" in out.splitlines()
    assert "sym0-action: pass" not in out
    assert "law.sym0-action=skip" in records
    assert "law.jacobi=pass" in records and records[-1] == "status=pass"


def test_parser_is_built_once_and_leaks_no_defaults(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    model = str(MODELS / "nil_pair.dgm")
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    assert run(capsys, "identities", model, "--trials", "2", "--report", str(first))[0] == 0
    assert run(capsys, "identities", model, "--report", str(second))[0] == 0
    assert "trials=2" in first.read_text().splitlines()
    assert "trials=25" in second.read_text().splitlines()


def test_sym_command(capsys):
    code, out, _ = run(capsys, "sym", str(MODELS / "t2_pair.dgm"))
    assert code == 0
    assert "structured family solutions: 5" in out
    assert "full kernel of [Q, .]:       10" in out


def test_twisted_rejects_open_twist(capsys):
    # the nil pair's H satisfies dH + F^Fbar = 0 but is not closed on its own
    code, _, err = run(capsys, "twisted", str(MODELS / "nil_pair.dgm"))
    assert code == 2
    assert "not closed" in err


def test_twisted_with_named_form(capsys):
    code, out, _ = run(capsys, "twisted", str(MODELS / "nil_pair.dgm"), "--form", "k3")
    assert code == 0
    assert "even: 10" in out and "odd:  10" in out


SWEEP_ARGS = {
    "validate": [],
    "betti": [],
    "twisted": [],
    "mc-check": [],
    "tdualize": [],
    "tmap-verify": [],
    "ses-verify": [],
    "iso-check": [],
    "sym": [],
    "derived-bracket": ["--a", "u", "--b", "v"],
    "bn-check": ["--trials", "1"],
    "e6-check": ["--trials", "1"],
    "identities": ["--trials", "1"],
}


@pytest.mark.parametrize("model", sorted(MODELS.glob("*.dgm")), ids=lambda p: p.stem)
def test_every_command_on_every_model_exits_cleanly(model, capsys):
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    assert sorted(commands) == sorted(SWEEP_ARGS)
    for command, extra in SWEEP_ARGS.items():
        code, _, err = run(capsys, command, str(model), *extra)
        assert code in (0, 1, 2), command
        assert code != 2 or err.startswith("error: "), (command, err)


def test_missing_file_is_clean_error(capsys):
    code, _, err = run(capsys, "validate", "no/such/file.dgm")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("case", ["zero-denominator", "not-utf8"])
def test_bad_input_is_a_positioned_diagnostic(case, tmp_path, capsys):
    model = tmp_path / "model.dgm"
    if case == "zero-denominator":
        model.write_text("model z\ndim 2\ngen a : 2; gen b : 3\nd b = 1/0 a^2\n")
        expected = "line 4"
    else:
        model.write_bytes(b"model u\ndim 0\n# caf\xe9\n")
        expected = "line 3"
    code, _, err = run(capsys, "betti", str(model))
    assert code == 2
    assert err.startswith("error: ") and expected in err


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "dgcalc", "validate", str(MODELS / "s3_volume.dgm")],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
    )
    assert result.returncode == 0
    assert "validation: ok" in result.stdout
