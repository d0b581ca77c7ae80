"""Command surface: exit codes, reports, golden outputs."""

import pathlib
import random
import subprocess
import sys
import time

import pytest

from dgcalc import cli
from dgcalc.cli import main
from dgcalc.derivations import Derivation
from dgcalc.graded import DgcalcError, format_element
from dgcalc.parser import MAX_POWER_TERMS, load_path
from dgcalc.sampling import random_symmetry
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


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("ses-verify",), "half_ses_verify.txt"),
        (("tmap-verify",), "half_tmap_verify.txt"),
        (("iso-check",), "half_iso_check.txt"),
        (("identities", "--trials", "3", "--seed", "0"), "half_identities.txt"),
        (("derived-bracket", "--a", "u", "--b", "v"), "half_derived_bracket.txt"),
    ],
)
def test_fractional_pair_reports_golden(argv, golden, tmp_path, capsys):
    """nil_pair with d z = 1/2 x1 x2 and F = 1/2 x1 x2 puts non-unit
    denominators through every Leibniz pass; the goldens are its reports."""
    report = tmp_path / "report.txt"
    command, *flags = argv
    code, _, _ = run(
        capsys, command, str(ROOT / "tests" / "nil_pair_half.dgm"), *flags, "--report", str(report)
    )
    assert code == 0
    assert report.read_bytes() == (GOLDEN / golden).read_bytes()


# every bundle in models/; the sym counts of e6_flux, bn_selfdual and t7_flux
# are pinned nowhere else
SYM_MODELS = (
    "bn_selfdual", "e6_flux", "hopf_pair", "nil_pair", "s3_pair", "s3_volume", "t2_pair", "t7_flux",
)


def test_sym_reports_on_models_golden(tmp_path, capsys):
    """`sym --report` on each bundle in models/, the reports one after another."""
    records = b""
    for name in SYM_MODELS:
        report = tmp_path / f"{name}.txt"
        code, _, _ = run(capsys, "sym", str(MODELS / f"{name}.dgm"), "--report", str(report))
        assert code == 0
        records += report.read_bytes()
    assert records == (GOLDEN / "sym_models.txt").read_bytes()


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
    code, out, err = run(capsys, "validate", str(MODELS / "mc_fail.dgm"))
    assert code == 2 and out == ""
    assert err == (
        "error: line 7, col 1: maurer-cartan: structural data fails Maurer-Cartan "
        "[Maurer-Cartan failure: d*d != 0 on generator 't': residue a^2]\n"
    )


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


TWO_SPHERES = """model two_spheres
dim 4
gen a : 2
gen b : 3
gen c : 2
gen e : 3
d b = a^2
d e = c^2
"""


def test_huge_power_of_a_sum_is_a_positioned_diagnostic(tmp_path, capsys):
    # (a + c)^2000 would expand to 2001 terms; the bound stops it before any product
    model = tmp_path / "power.dgm"
    model.write_text(TWO_SPHERES + "let h = (a + c)^2000\n")
    started = time.perf_counter()
    code, out, err = run(capsys, "validate", str(model))
    assert time.perf_counter() - started < 1
    assert code == 2
    assert out == ""
    assert err == f"error: line 9, col 17: syntax: power expands past {MAX_POWER_TERMS} terms\n"


def test_product_of_large_powers_is_a_positioned_diagnostic(tmp_path, capsys):
    # each power stays within the bound, but their product would expand to
    # 256 * 256 term products; more factors took proportionally longer
    model = tmp_path / "product.dgm"
    model.write_text(TWO_SPHERES + "let h = (a + c)^255 * (a + c)^255 * (a + c)^255\n")
    started = time.perf_counter()
    code, out, err = run(capsys, "validate", str(model))
    assert time.perf_counter() - started < 2
    assert code == 2
    assert out == ""
    assert err == f"error: line 9, col 23: syntax: product expands past {MAX_POWER_TERMS} terms\n"


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


def test_tdualize_on_model_pairs_golden(capsys):
    """`tdualize` stdout on each model pair, one after another."""
    out = ""
    for name in ("hopf_pair", "nil_pair", "s3_pair", "t2_pair"):
        code, text, _ = run(capsys, "tdualize", str(MODELS / f"{name}.dgm"))
        assert code == 0
        out += text
    assert out == (GOLDEN / "tdualize_models.txt").read_text()


def test_iso_check_exit_code_follows_periodicity(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "periodicity_check", lambda space, j, l: False)
    report = tmp_path / "report.txt"
    code, out, _ = run(capsys, "iso-check", str(MODELS / "t2_pair.dgm"), "--report", str(report))
    # the isomorphism itself still holds; only the periodicity record fails
    assert "pass" in out
    lines = report.read_text().splitlines()
    assert (code, lines[-2:]) == (1, ["periodicity=fail", "status=fail"])


def test_tmap_verify_sign(capsys):
    code, out, _ = run(capsys, "tmap-verify", str(MODELS / "hopf_pair.dgm"), "--cap", "6")
    assert code == 0
    assert "sign +1" in out


def test_tmap_verify_needs_a_cap_that_fixes_the_sign(capsys):
    # on t2_pair every monomial through degree 2 has T(Q x) = Qbar(T x) = 0
    code, out, err = run(capsys, "tmap-verify", str(MODELS / "t2_pair.dgm"), "--cap", "2")
    assert (code, out) == (2, "")
    assert "degree cap 2 does not fix the sign: both sides vanish through degree 2" in err
    code, out, _ = run(capsys, "tmap-verify", str(MODELS / "t2_pair.dgm"), "--cap", "3")
    assert code == 0
    assert "sign +1" in out


def _tmap_verify_transcript(capsys):
    """`tmap-verify` on each model pair at caps 0..3 and at the default cap:
    per run, the command line, its stdout, its stderr and its exit code."""
    text = ""
    for path in sorted(MODELS.glob("*_pair.dgm")):
        for cap in ("0", "1", "2", "3", None):
            flags = ("--cap", cap) if cap else ()
            code, out, err = run(capsys, "tmap-verify", str(path), *flags)
            text += f"$ tmap-verify {path.name} {' '.join(flags)}".rstrip() + "\n"
            text += f"{out}-- stderr\n{err}-- exit {code}\n"
    return text


def test_tmap_verify_on_model_pairs_golden(capsys):
    """Byte for byte, including the exit-2 runs where the cap fixes no sign."""
    assert _tmap_verify_transcript(capsys) == (GOLDEN / "tmap_verify_models.txt").read_text()


def test_shape_mismatch_is_usage_error(capsys):
    code, _, err = run(capsys, "ses-verify", str(MODELS / "s3_volume.dgm"))
    assert code == 2
    assert "two-step" in err


@pytest.mark.parametrize("command, model, wanted", [
    ("ses-verify", "s3_volume", "a two-step bundle (fibers q:1, t:2)"),
    ("e6-check", "t2_pair", "a flux bundle (fibers q:3, t:6)"),
    ("sym", "s2_sphere", "a bundle"),
])
def test_shape_mismatch_names_the_bundle_it_needs(command, model, wanted, capsys):
    code, _, err = run(capsys, command, str(MODELS / f"{model}.dgm"))
    assert code == 2
    assert err == f"error: shape: this command needs {wanted}\n"


def test_repeated_declaration_exits_2_at_the_repeat(tmp_path, capsys):
    bad = tmp_path / "repeat.dgm"
    bad.write_text("gen x1 : 1; gen x2 : 1; gen z : 1\nd z = x1 x2\nd z = 0\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert err == "error: line 3, col 1: syntax: repeated d 'z'\n"


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


# the two-step and flux models, whose structured draws tests/golden pins
DRAW_MODELS = ["bn_selfdual", "e6_flux", "hopf_pair", "nil_pair", "s3_pair", "t2_pair", "t7_flux"]


def _draw_text(x):
    def part(value):
        if isinstance(value, Derivation):
            body = (f"{g} -> {format_element(v)}" for g, v in sorted(value.values.items()))
            return "{" + ", ".join(body) + "}"
        return format_element(value)

    return f"  deg {x.degree}: " + ", ".join(f"{k} = {part(v)}" for k, v in sorted(x.parts.items()))


def test_structured_draws_match_golden():
    """random_symmetry in degree -1 and the samples of the identity suite draw
    the recorded parts, and leave the RNG where the recorded draws left it."""
    lines = []
    for name in DRAW_MODELS:
        bundle = load_path(str(MODELS / f"{name}.dgm")).bundle
        for seed in range(4):
            rng = random.Random(seed)
            lines.append(f"{name} seed {seed}")
            lines.append(_draw_text(random_symmetry(bundle, -1, rng)))
            lines.append(f"  rng {rng.random()!r}")
            lines.extend(_draw_text(x) for x in cli._structured_samples(bundle, rng))
            lines.append(f"  rng {rng.random()!r}")
    assert "\n".join(lines) + "\n" == (GOLDEN / "structured_draws.txt").read_text()


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


def test_sym_exit_code_follows_membership(tmp_path, capsys):
    # on nil_pair the degree-0 element with a = x3 is a symmetry and a = z is not
    text = (MODELS / "nil_pair.dgm").read_text()
    path, report = tmp_path / "nonmember.dgm", tmp_path / "report.txt"
    path.write_text(text.replace("sym w : deg = 0, a = x3", "sym w : deg = 0, a = z"))
    code, out, _ = run(capsys, "sym", str(path), "--report", str(report))
    assert "sym w: degree 0 membership fail" in out
    lines = report.read_text().splitlines()
    assert (code, lines[-2:]) == (1, ["member.w=fail", "status=fail"])


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


def test_any_dgcalc_error_is_a_diagnostic(monkeypatch, capsys):
    # the CLI catches the base, so an error class it never names is exit 2 too
    class Fresh(DgcalcError):
        pass

    def load(path, validate=True):
        raise Fresh("a fresh failure")

    monkeypatch.setattr(cli, "load_path", load)
    code, out, err = run(capsys, "validate", str(MODELS / "s3_volume.dgm"))
    assert (code, out, err) == (2, "", "error: a fresh failure\n")


def wide_numeral(digit):
    """A numeral of the given digit that fits the int-string limit, though the
    product of two such does not."""
    return digit * (sys.get_int_max_str_digits() * 9 // 10)


def test_a_coefficient_past_the_int_string_limit_is_a_diagnostic(tmp_path, capsys):
    # every numeral fits, but printing d(b) needs their product's digits
    nines = wide_numeral("9")
    model = tmp_path / "wide.dgm"
    model.write_text(f"gen a : 2\ngen b : 3\nd b = {nines}*{nines}*a^2\n")
    code, _, err = run(capsys, "validate", str(model))
    assert code == 2
    assert err == f"error: a coefficient has more than {sys.get_int_max_str_digits()} digits\n"


def test_an_unprintable_maurer_cartan_residue_keeps_the_verdict(tmp_path, capsys):
    # the residue on t is F * Fbar, whose coefficient (10^k - 1)^2 has 2k digits
    nines = wide_numeral("9")
    text = (MODELS / "mc_fail.dgm").read_text()
    model, report = tmp_path / "wide_mc_fail.dgm", tmp_path / "report.txt"
    model.write_text(text.replace("F = a\n", f"F = {nines}*a\n").replace("Fbar = a\n", f"Fbar = {nines}*a\n"))
    code, out, err = run(capsys, "mc-check", str(model), "--report", str(report))
    digits = 2 * len(nines)
    assert digits > sys.get_int_max_str_digits()
    assert (code, err) == (1, "")
    assert out == f"maurer-cartan: fail on generator t\n  residue not printed: a numeral of {digits} digits\n"
    records = report.read_text().splitlines()
    assert ["witness=t", f"residue_digits={digits}", "status=fail"] == records[-3:]


@pytest.mark.parametrize("command", ["validate", "mc-check", "betti"])
def test_an_unprintable_d_squared_residue_is_still_reported_at_its_witness(command, tmp_path, capsys):
    model = tmp_path / "wide.dgm"
    model.write_text(
        f"gen a : 2\ngen b : 3\ngen c : 4\nd b = {wide_numeral('9')}*a^2\nd c = {wide_numeral('7')}*a b\n"
    )
    code, out, err = run(capsys, command, str(model))
    assert (code, out) == (2, "")
    assert err == (
        "error: line 5, col 1: d-squared: differential does not square to zero [d*d != 0 on generator 'c': "
        f"residue not printed, since a coefficient has more than {sys.get_int_max_str_digits()} digits]\n"
    )


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "dgcalc", "validate", str(MODELS / "s3_volume.dgm")],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
    )
    assert result.returncode == 0
    assert "validation: ok" in result.stdout
