"""Output checks: each job's exit code and report records against the values
recorded in golden.json, plus oracles that do not depend on the recording.

A job that fails any check counts as failed.  The oracles:

- `betti` on an exterior model with n degree-1 generators (the generated
  nilmanifolds and tori): b_0 = 1, b_k = b_{n-k}, b_k = 0 above n, and the
  alternating sum is 0; on a torus b_k = C(n, k).
- `twisted`: even = odd, since the Euler characteristic is 0.
- `ses-verify`, `iso-check`, `tmap-verify`: every row passes, the induced
  rank equals both dimensions, the global sign is +1.
- `sym`: the structured family never exceeds the full kernel.
- Randomized law suites: every law passes, and the echoed seed and trial
  count are the ones asked for.
"""

from __future__ import annotations

import hashlib
import json
import os
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def parse_records(records):
    out = {}
    for line in records:
        key, _, value = line.partition("=")
        out[key] = value
    return out


def _betti(fields):
    return {int(k.split(".")[1]): int(v) for k, v in fields.items() if k.startswith("betti.")}


def oracle_problems(oracle, code, fields):
    """Problems found by the oracles named in the job's spec."""
    problems = []
    want_exit = oracle.get("exit", 0)
    if code != want_exit:
        problems.append(f"exit {code!r}, expected {want_exit}")
    if fields.get("status") != ("pass" if want_exit == 0 else "fail"):
        problems.append(f"status {fields.get('status')!r}")
    if "exterior" in oracle:
        n = oracle["exterior"]
        b = _betti(fields)
        if b.get(0) != 1:
            problems.append("b_0 != 1")
        if any(b.get(k) != b.get(n - k) for k in range(n + 1)):
            problems.append("Poincare duality fails")
        if any(v for k, v in b.items() if k > n):
            problems.append("cohomology above the dimension")
        if sum((-1) ** k * v for k, v in b.items()) != 0:
            problems.append("Euler characteristic != 0")
        if "torus" in oracle and any(b.get(k) != comb(n, k) for k in range(n + 1)):
            problems.append("torus Betti numbers are not binomial")
    if oracle.get("twisted") and fields.get("twisted.ev") != fields.get("twisted.od"):
        problems.append("twisted even != odd")
    if oracle.get("ses-verify"):
        if any(v != "pass" for k, v in fields.items() if k.startswith("ses.")) or fields.get("les") != "pass":
            problems.append("exact sequence row failed")
    if oracle.get("iso-check"):
        dims = {fields.get("dim_source"), fields.get("dim_target"), fields.get("induced_rank")}
        if len(dims) != 1:
            problems.append("induced map is not an isomorphism")
    if oracle.get("tmap-verify") and fields.get("sign") != "1":
        problems.append("comparison map sign != +1")
    if oracle.get("sym") and int(fields.get("sym0.structured", -1)) > int(fields.get("sym0.kernel", -2)):
        problems.append("structured family exceeds the kernel")
    if oracle.get("laws"):
        if any(v != "pass" for k, v in fields.items() if k.startswith("law.")):
            problems.append("a law failed")
        if fields.get("seed") != str(oracle["seed"]):
            problems.append("seed not echoed")
        if "trials" in fields and fields["trials"] != str(oracle["trials"]):
            problems.append("trials not echoed")
    return problems


def job_problems(job, code, records, golden):
    """All problems with one job's output; empty means the job passed."""
    expected = golden["jobs"].get(job["key"])
    if expected is None:
        return ["no recorded output for this job"]
    problems = []
    if code != expected["exit"]:
        problems.append(f"exit {code!r}, recorded {expected['exit']}")
    if records != expected["records"]:
        problems.append("records differ from the recorded ones")
    return problems + oracle_problems(job["oracle"], code, parse_records(records))


def model_problems(texts, golden):
    """Generated or repo models whose text differs from the recorded one."""
    recorded = golden["models"]
    return [stem for stem, text in texts.items() if recorded.get(stem) != digest(text)]
