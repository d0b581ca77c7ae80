"""Mutation gate: each row breaks `src/` on purpose, and one of the tests the
row names must then fail.

A row is (file under src/dgcalc, exact old text, new text, test ids).  For
each row the script copies `src/` to a temporary directory, replaces the old
text once, and runs only the listed tests against the copy with the
derandomized hypothesis profile, in a process that checks it imported `dgcalc`
from the copy.  The gate fails when a row's old text is missing, when every
listed test passes (the mutant survived), or when pytest cannot run them.
It prints each row's time.  The unmutated tests are the tier-1 suite's.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

ROWS = [
    (
        "graded.py",
        "sign = negate ^ (front & over ^ rest & under).bit_count() & 1",
        "sign = negate ^ (front & over).bit_count() & 1",
        ["tests/test_kernel.py::test_cached_mask_signs_are_the_merge_sign"],
    ),
    (
        "graded.py",
        "            e = m >> shift & top",
        "            e = m >> shift & MAX_EXPONENT",
        ["tests/test_monomials.py::test_a_leibniz_pass_reads_each_field_by_its_own_mask"],
    ),
    (
        "graded.py",
        "self.widths = tuple(2 if g.is_odd else WIDTH for g in gens)",
        "self.widths = tuple(WIDTH for g in gens)",
        ["tests/test_monomials.py::test_an_odd_only_model_of_up_to_15_generators_packs_into_one_digit"],
    ),
    (
        "graded.py",
        "i = bisect_right(model.shifts, (m & model.guard).bit_length() - 1) - 1",
        "i = ((m & model.guard).bit_length() - 1) // WIDTH",
        ["tests/test_monomials.py::test_an_even_field_past_odd_ones_still_names_its_generator"],
    ),
    (
        "graded.py",
        "        level[degree] = cached = tuple(out)",
        "        cached = tuple(out)\n        if cached:\n            level[degree] = cached",
        ["tests/test_kernel.py::test_empty_suffixes_within_reach_are_kept"],
    ),
    (
        "linalg.py",
        "        basis.append(_primitive(vector))",
        "        basis.append(vector)",
        ["tests/test_linalg.py::test_a_kernel_vector_is_divided_by_its_content"],
    ),
    (
        "cohomology.py",
        "lows = [{i: n * h.den for i, n in low.items()} for low in lows]",
        "lows = [{i: n for i, n in low.items()} for low in lows]",
        ["tests/test_kernel.py::test_twisted_columns_of_one_model_with_denominators_are_the_oracle"],
    ),
    (
        "cohomology.py",
        "        flip = k & 1",
        "        flip = 0",
        ["tests/test_cohomology.py::test_finite_twisted_images_are_the_oracle_columns"],
    ),
    (
        "cohomology.py",
        "even, odd = (upto[p][min(c, top)] - gain(p, c, wide) - gain(1 - p, c, c) for p in (0, 1))",
        "even, odd = (upto[p][min(c, top)] - gain(p, c, wide) for p in (0, 1))",
        ["tests/test_cohomology.py::test_twisted_torus3_volume"],
    ),
    (
        "cohomology.py",
        "gains[p, lo, hi] = linalg.rank_gain(window[n:], window[:n])",
        "gains[p, lo, hi] = linalg.rank_gain([], window[:n])",
        ["tests/test_cohomology.py::test_twisted_product_with_volume_twist"],
    ),
    (
        "cohomology.py",
        "- gain(1 - p, c, c) for p in (0, 1))",
        "- gain(1 - p, wide, wide) for p in (0, 1))",
        ["tests/test_cohomology.py::test_twisted_sphere_untwisted"],
    ),
    (
        "tduality.py",
        "                    first[-1] = min(first[-1], k + lowest)",
        "                    pass",
        [
            "tests/test_tduality.py::test_pair_signs_drop_minus_one_where_the_base_moves",
            "tests/test_tduality.py::test_pair_signs_raise_where_the_later_sign_fails",
        ],
    ),
    (
        "cli.py",
        "    except (DgcalcError, OSError) as err:",
        '    except (sys.modules["dgcalc.graded"].GradedError, OSError) as err:',
        ["tests/test_cli.py::test_any_dgcalc_error_is_a_diagnostic"],
    ),
    (
        "symmetries.py",
        "        key = id(x), id(y)\n        entry = self._derived.get(key)",
        "        key = id(x)\n        entry = self._derived.get(key)",
        ["tests/test_kernel.py::test_one_memo_per_trial_gives_the_literal_residues"],
    ),
    (
        "symmetries.py",
        "sign = -1 if (x.degree * (a.degree + 1)) % 2 else 1",
        "sign = -1 if (a.degree + 1) % 2 else 1",
        ["tests/test_kernel.py::test_one_memo_per_trial_gives_the_literal_residues"],
    ),
    (
        "symmetries.py",
        "sign = -1 if ((a.degree + shift) * (b.degree + shift)) % 2 else 1",
        "sign = -1 if (a.degree * b.degree) % 2 else 1",
        ["tests/test_kernel.py::test_one_memo_per_trial_gives_the_literal_residues"],
    ),
    (
        "symmetries.py",
        "monomial_degree(bundle.base, m) != degree for m in value.nums",
        "monomial_degree(bundle.base, m) != degree for m in list(value.nums)[:1]",
        ["tests/test_symmetries.py::test_an_inhomogeneous_part_is_rejected_whichever_term_comes_first"],
    ),
    (
        "parser.py",
        "        if key in seen:\n            raise",
        "        if False:\n            raise",
        ["tests/test_parser.py::test_a_repeated_vec_key_is_a_syntax_error_at_the_repeated_clause"],
    ),
    (
        "parser.py",
        'if name in decls["fiber" if head == "gen" else "gen"]:',
        'if head == "fiber" and name in decls["gen"]:',
        ["tests/test_parser.py::test_a_repeated_declaration_is_a_syntax_error_at_the_repeat[gen-reuses-fiber]"],
    ),
    (
        "sampling.py",
        "num = rng.choice(range(-3, 4))",
        "num = rng.choice(range(-3, 3))",
        ["tests/test_kernel.py::test_random_element_draws_what_randint_drew"],
    ),
]

# imports dgcalc, refuses a copy other than argv[1], then runs pytest on the rest
RUNNER = """
import os, sys
import dgcalc, pytest
where = os.path.realpath(dgcalc.__file__)
if not where.startswith(os.path.realpath(sys.argv[1]) + os.sep):
    sys.exit(f"dgcalc was imported from {where}, not from {sys.argv[1]}")
sys.exit(pytest.main(sys.argv[2:]))
"""


def run_row(file: str, old: str, new: str, tests: list) -> str:
    """'killed', 'survived', or a reason the row could not run."""
    with tempfile.TemporaryDirectory() as scratch:
        src = os.path.join(scratch, "src")
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = pathlib.Path(src, "dgcalc", file)
        text = path.read_text()
        if old not in text:
            return f"old text missing from {file}"
        path.write_text(text.replace(old, new, 1))
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        argv = ["-q", "-p", "no:cacheprovider", "--hypothesis-profile=ci", *tests]
        done = subprocess.run(
            [sys.executable, "-c", RUNNER, src, *argv], cwd=ROOT, env=env, capture_output=True, text=True
        )
    # pytest exits 1 when tests ran and some failed, 0 when all passed
    if done.returncode == 1:
        return "killed"
    if done.returncode == 0:
        return "survived"
    return f"pytest exited {done.returncode}:\n{done.stdout}{done.stderr}"


def main() -> int:
    bad = 0
    started = time.perf_counter()
    for file, old, new, tests in ROWS:
        t0 = time.perf_counter()
        verdict = run_row(file, old, new, tests)
        bad += verdict != "killed"
        print(f"{time.perf_counter() - t0:6.1f} s  {verdict:8}  {file}: {old.strip()!r}", flush=True)
    print(f"{len(ROWS) - bad} of {len(ROWS)} mutants killed in {time.perf_counter() - started:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
