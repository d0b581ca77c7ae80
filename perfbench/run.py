"""dgcalc benchmark: seeded workloads against `dgcalc.cli.main`, checked outputs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N            # all four workloads in turn

NAME is one of cohomology, identities, pairs, samples, or all.  Each workload
runs in its own worker process (worker.py): one caller, closed loop, whole
rounds until the jobs have taken S host-scaled seconds.  The inputs are generated from
the seed and written before timing starts.  Every job's exit code and report
are checked (checks.py); the run exits 1 if any check fails.

With --trace 0 the result line carries the end-to-end metrics; setup_s is
the median of the set-up probes the worker runs after each round, and
every time is scaled to a steady host speed (worker.host_scale).  With
--trace 1 the worker spends S/2 seconds untraced, then runs the same jobs
again with spans around each module's public functions (tracer.py); the
result line carries the per-layer metrics and trace.overhead, the traced over
the untraced job time.

The metrics reported, and their units, are the ones BENCHMARK.json names.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import REFERENCE_S, host_scale  # noqa: E402

PLAN_ROUNDS = 32
WORKER_TIMEOUT_S = 160
TAIL_BEYOND = 10


def metric_units(root):
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    return {kind: {m["name"]: m["unit"] for m in bench[kind]} for kind in ("end_to_end", "per_layer")}


# -- one workload --------------------------------------------------------------


def write_inputs(root, workdir, workload, seed):
    """Generate the rounds and their model files; returns (plan rounds, texts, specs)."""
    model_dir = os.path.relpath(os.path.join(workdir, "models"), root)
    os.makedirs(os.path.join(root, model_dir), exist_ok=True)
    texts, specs, plan = {}, {}, []
    for jobs in workloads.rounds(workload, seed, PLAN_ROUNDS):
        plan.append([])
        for job in jobs:
            if job.model not in texts:
                if job.text is None:
                    with open(os.path.join(root, job.path(model_dir)), encoding="utf-8") as handle:
                        texts[job.model] = handle.read()
                else:
                    texts[job.model] = job.text
                    with open(os.path.join(root, job.path(model_dir)), "w", encoding="utf-8") as handle:
                        handle.write(job.text)
            spec = job.as_dict(model_dir)
            specs[job.key] = spec
            plan[-1].append(spec)
    return plan, texts, specs


def run_worker(root, workdir, plan):
    plan_path = os.path.join(workdir, "plan.json")
    result_path = os.path.join(workdir, "result.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    with subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path],
                          cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True) as proc:
        try:
            _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed: {err.strip()[-800:]}")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def count_failures(jobs, specs, golden, bad_models):
    failed = []
    for job in jobs:
        spec = specs[job["key"]]
        problems = checks.job_problems(spec, job["exit"], job["records"], golden)
        if job["key"].split()[1] in bad_models:
            problems.append("model text differs from the recorded one")
        if problems:
            failed.append((job["key"], problems))
    return failed


def tail(times):
    """Highest percentile with at least TAIL_BEYOND jobs beyond it.

    Returns (value, percentile, jobs beyond); a run of TAIL_BEYOND jobs or
    fewer has no such percentile and reports its fastest job.
    """
    ordered = sorted(times)
    n = len(ordered)
    index = max(n - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / n, n - index - 1


def end_to_end(result):
    scales = [host_scale(j) for j in result["jobs"]]
    times = [j["seconds"] * f for j, f in zip(result["jobs"], scales)]
    value, pct, beyond = tail(times)
    metrics = {
        "job_p50_s": statistics.median(times),
        "job_tail_s": value,
        "jobs_per_s": len(times) / sum(times),
        "setup_s": statistics.median(s * REFERENCE_S / r for s, r in result["setup_s"]),
        "peak_rss_mib": result["peak_rss_kib"] / 1024.0,
    }
    raw = statistics.median(j["seconds"] for j in result["jobs"])
    note = (f"host scale {statistics.median(scales):.3f} (median over jobs), "
            f"unscaled job_p50_s {raw:.6g} s")
    return metrics, f"p{pct:.1f}, {beyond} of {len(times)} jobs beyond", note


def per_layer(result, spans_prefix):
    """Every figure the trace gives: calls and self_s of each span, the size
    counters, and the ratios derived from them."""
    index, columns = tracer.read_spans(spans_prefix)
    calls, self_s = tracer.layer_totals(index, columns)
    out = dict(index["counters"])
    for span in calls:
        out[f"{span}.calls"] = calls[span]
        out[f"{span}.self_s"] = self_s[span]
    entries = out["linalg.rank.entries"] + out["linalg.kernel_basis.entries"]
    nonzeros = out["linalg.rank.nonzeros"] + out["linalg.kernel_basis.nonzeros"]
    out["linalg.density"] = nonzeros / entries if entries else 0.0
    builds = out["cohomology.CochainSpace.builds"]
    distinct = out["cohomology.CochainSpace.distinct"]
    out["cohomology.CochainSpace.repeat_share"] = 1 - distinct / builds if builds else 0.0
    untraced = sum(j["seconds"] for j in result["jobs"])
    out["trace.overhead"] = sum(j["seconds"] for j in result["traced"]) / untraced
    return out


def pick(computed, units):
    """The metrics BENCHMARK.json names, in its order, from what a run computed."""
    missing = [name for name in units if name not in computed]
    if missing:
        raise RuntimeError(f"BENCHMARK.json names metrics the run does not compute: {missing}")
    return {name: computed[name] for name in units}


def run_workload(root, workload, seed, seconds, trace, golden, units):
    """Run one workload; returns (summary dict, human-readable lines).

    `units` maps the metric names to report to their units.
    """
    workdir = os.path.join(HERE, ".work", f"{workload}-{seed}-{os.getpid()}")
    spans_prefix = os.path.join(HERE, ".work", f"trace-{workload}")
    os.makedirs(workdir)
    try:
        rounds, texts, specs = write_inputs(root, workdir, workload, seed)
        bad_models = set(checks.model_problems(texts, golden))
        plan = {"src": os.path.join(root, "src"), "rounds": rounds,
                "seconds": seconds / 2 if trace else seconds, "trace": trace, "probe": not trace,
                "report": os.path.join(workdir, "report.txt"), "spans": spans_prefix}
        result = run_worker(root, workdir, plan)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    jobs = result["jobs"] + result.get("traced", [])
    failed = count_failures(jobs, specs, golden, bad_models)
    lines = [f"{workload}: {len(result['jobs'])} jobs in {sum(j['seconds'] for j in result['jobs']):.2f} s, "
             f"{sum(1 for j in result['jobs'] if j['round'] == 0)} per round, seed {seed}"]
    if trace:
        reported = pick(per_layer(result, spans_prefix), units)
        lines.append(f"  traced pass: {len(result['traced'])} jobs, spans in {spans_prefix}.*")
    else:
        computed, tail_note, host_note = end_to_end(result)
        reported = pick(computed, units)
        lines.append(f"  {host_note}")
    for name, value in reported.items():
        note = f"  ({tail_note})" if name == "job_tail_s" else ""
        lines.append(f"  {name:<40} {value:.6g} {units[name]}{note}")
    lines.append(f"  {'failed_ratio':<40} {len(failed) / len(jobs):.6g} ({len(failed)} of {len(jobs)})")
    for key, problems in failed[:5]:
        lines.append(f"  FAILED {key}: {'; '.join(problems)}")
    summary = {"attempted": len(jobs), "failed": len(failed), "metrics": reported}
    return summary, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dgcalc", "cli.py")):
        print(f"error: no dgcalc sources under {root}/src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        units = metric_units(root)["per_layer" if trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as err:
        print(f"error: cannot read the metrics from BENCHMARK.json: {err!r}", file=sys.stderr)
        return 2
    golden = checks.load_golden()
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            summary, lines = run_workload(root, name, args.seed, args.seconds, trace, golden, units)
            print("\n".join(lines), flush=True)
            attempted += summary["attempted"]
            failed += summary["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            for metric, value in summary["metrics"].items():
                metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    except (RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
