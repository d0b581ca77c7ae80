"""Self-tests of the benchmark harness.

Run from the root of a checkout: python3 -m unittest perfbench/selftest.py

They check that generated models load with validation on, that a perturbed
record or oracle value fails a job, that every span predicted to move a
workload records calls on it, that a run reports exactly the metrics
BENCHMARK.json names, and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _predictions():
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as handle:
        return json.load(handle)["predictions"]


def _run(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class GeneratedModels(unittest.TestCase):
    def test_every_generated_model_loads_with_validation(self):
        from dgcalc.parser import parse_model

        seen = set()
        for name in workloads.WORKLOADS:
            for job in workloads.universe(name):
                if job.text is not None and job.model not in seen:
                    seen.add(job.model)
                    parse_model(job.text, validate=True)
        self.assertGreater(len(seen), 50)

    def test_same_seed_same_inputs(self):
        first = [[j.key for j in r] for r in workloads.rounds("pairs", 7, 4)]
        again = [[j.key for j in r] for r in workloads.rounds("pairs", 7, 4)]
        other = [[j.key for j in r] for r in workloads.rounds("pairs", 8, 4)]
        self.assertEqual(first, again)
        self.assertNotEqual(first, other)

    def test_every_job_has_a_recorded_output(self):
        golden = checks.load_golden()
        for name in workloads.WORKLOADS:
            for job in workloads.universe(name):
                self.assertIn(job.key, golden["jobs"])


class OutputChecks(unittest.TestCase):
    def setUp(self):
        self.golden = checks.load_golden()
        job = workloads.betti_nil(6, 2)(workloads.random.Random(0))
        self.spec = job.as_dict("unused")
        self.recorded = self.golden["jobs"][job.key]

    def problems(self, code, records, golden=None):
        return checks.job_problems(self.spec, code, records, golden or self.golden)

    def test_recorded_output_passes(self):
        self.assertEqual(self.problems(self.recorded["exit"], self.recorded["records"]), [])

    def test_perturbed_record_fails(self):
        records = [r.replace("betti.2=", "betti.2=1") if r.startswith("betti.2=") else r
                   for r in self.recorded["records"]]
        self.assertNotEqual(self.problems(0, records), [])

    def test_wrong_exit_code_fails(self):
        self.assertNotEqual(self.problems(1, self.recorded["records"]), [])

    def test_oracle_catches_a_value_the_recording_also_has(self):
        # Break Poincare duality in both the output and the recording.
        records = [r.replace("betti.1=", "betti.1=9") if r.startswith("betti.1=") else r
                   for r in self.recorded["records"]]
        golden = copy.deepcopy(self.golden)
        golden["jobs"][self.spec["key"]]["records"] = records
        self.assertIn("Poincare duality fails", self.problems(0, records, golden))

    def test_twisted_oracle(self):
        self.assertIn("twisted even != odd", checks.oracle_problems(
            {"twisted": True}, 0, {"status": "pass", "twisted.ev": "4", "twisted.od": "6"}))

    def test_law_oracle(self):
        fields = {"status": "pass", "seed": "3", "law.jacobi": "fail"}
        self.assertIn("a law failed", checks.oracle_problems({"laws": True, "seed": 3, "trials": 2}, 0, fields))

    def test_changed_model_text_is_reported(self):
        self.assertEqual(checks.model_problems({"t8": "model t8\n"}, self.golden), ["t8"])


class Metrics(unittest.TestCase):
    def test_workload_names_match_benchmark_json(self):
        self.assertEqual({w["name"] for w in _bench()["workloads"]}, set(workloads.WORKLOADS))

    def test_predictions_cover_every_per_layer_metric(self):
        covered = [m for p in _predictions() for m in p["metrics"]]
        self.assertCountEqual(covered, run.metric_units(ROOT)["per_layer"])

    def test_predicted_spans_are_called(self):
        """A short traced run per workload: every count and time predicted to
        move a workload is above 0 on it, and the run reports exactly the
        per-layer metrics of BENCHMARK.json."""
        units = run.metric_units(ROOT)["per_layer"]
        for name in workloads.WORKLOADS:
            code, result = _run("--workload", name, "--seed", "1", "--seconds", "1", "--trace", "1")
            self.assertEqual(code, 0, name)
            metrics = result["metrics"]
            self.assertEqual(list(metrics), list(units))
            self.assertGreater(metrics["trace.overhead"]["value"], 0)
            for p in _predictions():
                if name not in p["called_on"]:
                    continue
                for metric in p["metrics"]:
                    if units[metric] != "ratio":
                        self.assertGreater(metrics[metric]["value"], 0, f"{metric} on {name}")

    def test_times_are_scaled_by_the_reference(self):
        # The 2 s jobs ran while the reference took twice its nominal time.
        ref = run.REFERENCE_S
        result = {"jobs": [{"seconds": 1.0, "reference_s": [ref, ref]},
                           {"seconds": 2.0, "reference_s": [2 * ref, 2 * ref]}] * 6,
                  "setup_s": [[0.1, ref], [0.2, 2 * ref]], "peak_rss_kib": 1024}
        metrics, _, _ = run.end_to_end(result)
        self.assertAlmostEqual(metrics["job_p50_s"], 1.0)
        self.assertAlmostEqual(metrics["jobs_per_s"], 1.0)
        self.assertAlmostEqual(metrics["setup_s"], 0.1)

    def test_untraced_run_reports_end_to_end_metrics(self):
        code, result = _run("--workload", "samples", "--seed", "2", "--seconds", "1", "--trace", "0")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertCountEqual(result["metrics"], run.metric_units(ROOT)["end_to_end"])
        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))


class Refusal(unittest.TestCase):
    def test_refuses_without_the_program(self):
        os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
        bare = tempfile.mkdtemp(dir=os.path.join(HERE, ".work"))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns(".work", "__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "samples",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
