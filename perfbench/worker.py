"""One workload's worker: a single caller running jobs in a closed loop.

Usage: python3 perfbench/worker.py PLAN RESULT      run the plan, write the result
       python3 perfbench/worker.py --probe          import dgcalc.cli, print "ready"

The plan (JSON, written by run.py) names the checkout's `src` directory, the
rounds of jobs, the time to measure, whether to trace and whether to probe
set-up.  The worker calls `dgcalc.cli.main(argv)` in-process, one job after
another, and times only that call.  It runs whole rounds until the time is
up.  In a traced plan it first runs the rounds untraced, then installs the
tracer and runs the same jobs again, so the two passes time identical work.

Between jobs the worker times a fixed reference computation, from which
run.py scales each job's time to a steady host speed.  After each round it
runs, if asked, one set-up probe.  Spreading the probes over the run
matters: on a host whose speed shifts every few seconds, probes taken in one
burst land in one phase.  Neither is counted as job time.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from time import perf_counter


def import_cli(src: str):
    """Import dgcalc.cli from the checkout's src directory, and from nowhere else."""
    sys.path.insert(0, src)
    import dgcalc.cli

    where = os.path.realpath(dgcalc.cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"dgcalc was imported from {where}, not from {src}")
    return dgcalc.cli


PROBE_TIMEOUT_S = 30
# The reference work's time on the 2-vCPU VM the benchmark was defined on,
# with the host quiet.  Job times are scaled as if the host ran at that speed.
REFERENCE_S = 0.0085
# On a slow host a run takes longer to reach its budget of scaled job time;
# it stops after the round that takes its wall time past this many times the
# budget, so that the benchmark's total time stays bounded.
MAX_STRETCH = 1.5


def _reference_work():
    """Fraction row reduction and a sparse product of monomials, as dgcalc
    does, but written here so that no change to dgcalc can change it."""
    rng = random.Random(20260)
    n = 12
    rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = 1 / rows[rank][col]
        rows[rank] = [x * inverse for x in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    terms = [(tuple(rng.randrange(3) for _ in range(6)), rng.choice((-2, -1, 1, 2))) for _ in range(40)]
    product = {}
    for a, ca in terms:
        for b, cb in terms:
            key = tuple(x + y for x, y in zip(a, b))
            product[key] = product.get(key, 0) + ca * cb
    return rank, len(product)


def reference_seconds():
    """Time of the reference work, with the collector off so that objects the
    program keeps alive cannot slow it."""
    gc.disable()
    try:
        start = perf_counter()
        _reference_work()
        return perf_counter() - start
    finally:
        gc.enable()


def host_scale(job):
    """REFERENCE_S over the mean of the reference times just before and after the job."""
    return 2 * REFERENCE_S / sum(job["reference_s"])


def probe_setup():
    """Seconds from starting a fresh interpreter until dgcalc.cli is imported."""
    start = perf_counter()
    with subprocess.Popen([sys.executable, os.path.abspath(__file__), "--probe"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("set-up probe timed out")
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {err.strip()[-400:]}")
    return elapsed


def run_job(cli, argv, report):
    """Run one CLI call; returns (seconds, exit code or error text, report records)."""
    if os.path.exists(report):
        os.remove(report)
    sink = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except SystemExit as stop:
        code = stop.code
    except Exception as err:  # a traceback is a failed job, not a failed benchmark
        code = f"{type(err).__name__}: {err}"
    seconds = perf_counter() - start
    records = []
    if os.path.exists(report):
        with open(report, encoding="utf-8") as handle:
            records = handle.read().splitlines()
    return seconds, code, records


def run_pass(cli, jobs, report, tracer=None, reference=False):
    """Run the jobs in order.  With `reference`, the reference work is timed
    before the first job and after each one, and each job records the times
    just before and just after it."""
    out = []
    before = reference_seconds() if reference else None
    for index, (round_no, key, argv_template) in enumerate(jobs):
        argv = [report if a == "{report}" else a for a in argv_template]
        if tracer is not None:
            tracer.start_job(index)
        seconds, code, records = run_job(cli, argv, report)
        job = {"round": round_no, "key": key, "argv": argv_template,
               "seconds": seconds, "exit": code, "records": records}
        if reference:
            after = reference_seconds()
            job["reference_s"] = [before, after]
            before = after
        out.append(job)
    return out


def closed_loop(cli, rounds, seconds, report, probe):
    """Whole rounds, cycling through the plan, until the jobs have taken
    `seconds` in all, host-scaled, so that a run does the same work whatever
    the host's speed (up to MAX_STRETCH).

    Returns {"jobs", "setup_s"}.  Each job carries the reference times around
    it.  With `probe` a set-up probe follows each round; setup_s pairs its
    time with the reference time just before it.
    """
    done, setup = [], []
    scaled = 0.0
    round_no = 0
    start = perf_counter()
    while scaled < seconds and perf_counter() - start < MAX_STRETCH * seconds:
        jobs = rounds[round_no % len(rounds)]
        ran = run_pass(cli, [(round_no, j["key"], j["argv"]) for j in jobs], report, reference=True)
        scaled += sum(j["seconds"] * host_scale(j) for j in ran)
        done.extend(ran)
        round_no += 1
        if probe:
            setup.append([probe_setup(), ran[-1]["reference_s"][1]])
    return {"jobs": done, "setup_s": setup}


def main(argv):
    if argv == ["--probe"]:
        import_cli(os.path.join(os.getcwd(), "src"))
        print("ready", flush=True)
        return 0
    plan_path, result_path = argv
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    cli = import_cli(plan["src"])
    report = plan["report"]
    result = closed_loop(cli, plan["rounds"], plan["seconds"], report, plan["probe"])
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if plan["trace"]:
        from tracer import Tracer

        replay = [(j["round"], j["key"], j["argv"]) for j in result["jobs"]]
        tracer = Tracer()
        tracer.install()
        result["traced"] = run_pass(cli, replay, report, tracer)
        tracer.write(plan["spans"])
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
