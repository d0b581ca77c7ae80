"""Record golden.json: the expected exit code and report of every job the
workloads can generate, and the digest of every model they read.

Usage (from the root of a checkout): python3 perfbench/record.py [WORKLOAD ...]

Recording merges into the existing golden.json.  A job whose output fails
its oracle is not recorded; the script lists it and exits 1.  Re-record only
on a commit whose outputs are known to be right, since every later run is
compared against these values.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import import_cli, run_job  # noqa: E402


def main(argv):
    names = argv or sorted(workloads.WORKLOADS)
    root = os.getcwd()
    cli = import_cli(os.path.join(root, "src"))
    golden = checks.load_golden() if os.path.exists(checks.GOLDEN) else {"models": {}, "jobs": {}}
    bad = []
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        report = os.path.join(tmp, "report.txt")
        for name in names:
            jobs = workloads.universe(name)
            print(f"{name}: {len(jobs)} jobs", flush=True)
            for job in jobs:
                path = os.path.join(root, job.path(tmp))
                if job.text is not None:
                    with open(path, "w", encoding="utf-8") as handle:
                        handle.write(job.text)
                with open(path, encoding="utf-8") as handle:
                    golden["models"][job.model] = checks.digest(handle.read())
                _, code, records = run_job(cli, job.argv(tmp, report), report)
                problems = checks.oracle_problems(job.oracle, code, checks.parse_records(records))
                if problems:
                    bad.append((job.key, problems))
                    continue
                golden["jobs"][job.key] = {"exit": code, "records": records}
    with open(checks.GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=0, sort_keys=True)
        handle.write("\n")
    for key, problems in bad:
        print(f"not recorded: {key}: {'; '.join(problems)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
