"""Job templates and seeded rounds for the four benchmark workloads.

A round runs every slot of a workload once; a run repeats whole rounds until
its time is up, so every run has the same job mix.  Each workload is built
from three cost classes: about a third of the slots are light, the middle
third holds the median and the top fifth to quarter holds the tail, so
`job_p50_s` and `job_tail_s` fall inside one class rather than on the edge
between two, and they stay there if a change makes a run 2x faster or slower.

The seed picks, per slot and round, the model variant, the CLI `--seed` and
`--trials` of the randomized suites, and the order of the round.  Variants
and CLI seeds come from finite pools, so every job the benchmark can run has
an expected report in `golden.json`.
"""

from __future__ import annotations

import random

import inputs

VARIANTS = 8
CLI_SEEDS = 8
MODELS = "models"

# The 13 command lines of the README, on models/ exactly as listed there.
README_COMMANDS = [
    "validate nil_pair",
    "betti s3_volume --lo 0 --hi 6",
    "twisted s3_volume",
    "mc-check mc_fail",
    "tdualize t2_pair",
    "tmap-verify t2_pair --cap 8",
    "ses-verify hopf_pair --cap 8",
    "iso-check t2_pair --k 2",
    "sym t2_pair",
    "derived-bracket nil_pair --a u --b v",
    "bn-check bn_selfdual --trials 25 --seed 0",
    "e6-check e6_flux --trials 10",
    "identities nil_pair --trials 25 --seed 0",
]


class Job:
    """One CLI call: the model it reads, its arguments and its output oracle."""

    def __init__(self, cmd, model, extra=(), oracle=None, text=None):
        self.cmd = cmd
        self.model = model  # generated stem, or "models/<name>" for repo files
        self.extra = list(extra)
        self.oracle = oracle or {}
        self.text = text  # model source for generated models, else None

    @property
    def key(self) -> str:
        return " ".join([self.cmd, self.model] + self.extra)

    def path(self, model_dir: str) -> str:
        if self.text is None:
            return f"{self.model}.dgm"
        return f"{model_dir}/{self.model}.dgm"

    def argv(self, model_dir: str, report: str):
        return [self.cmd, self.path(model_dir), "--report", report] + self.extra

    def as_dict(self, model_dir: str):
        return {"key": self.key, "argv": self.argv(model_dir, "{report}"), "oracle": self.oracle}


# -- templates: each is a function rng -> Job ------------------------------------


def betti_nil(n, m):
    def make(rng):
        v = rng.randrange(VARIANTS)
        return Job("betti", f"nil{n}_{m}_v{v}", oracle={"exterior": n + m},
                   text=inputs.nilmanifold(n, m, v))
    return make


def twisted_nil(n, m):
    def make(rng):
        v = rng.randrange(VARIANTS)
        return Job("twisted", f"nil{n}_{m}_v{v}", ["--form", "h"], {"twisted": True},
                   inputs.nilmanifold(n, m, v))
    return make


def betti_torus(n):
    def make(rng):
        return Job("betti", f"t{n}", oracle={"exterior": n, "torus": n}, text=inputs.torus(n))
    return make


def twisted_torus(n):
    def make(rng):
        return Job("twisted", f"t{n}", ["--form", "h"], {"twisted": True}, inputs.torus(n))
    return make


def pair_cmd(cmd, n, selfdual=False):
    def make(rng):
        v = rng.randrange(VARIANTS)
        stem = f"{'sd' if selfdual else 'pair'}{n}_v{v}"
        return Job(cmd, stem, oracle={cmd: True}, text=inputs.pair(n, v, selfdual))
    return make


def repo_cmd(cmd, name, extra=()):
    def make(rng):
        return Job(cmd, f"{MODELS}/{name}", extra, {cmd: True})
    return make


def suite(cmd, model, trials, selfdual=False):
    """A randomized law suite with --trials drawn from `trials` and a pooled --seed."""

    def make(rng):
        t = rng.choice(trials)
        s = rng.randrange(CLI_SEEDS)
        extra = ["--trials", str(t), "--seed", str(s)]
        oracle = {"laws": True, "seed": s, "trials": t}
        if isinstance(model, int):
            v = rng.randrange(VARIANTS)
            stem = f"{'sd' if selfdual else 'pair'}{model}_v{v}"
            return Job(cmd, stem, extra, oracle, inputs.pair(model, v, selfdual))
        return Job(cmd, f"{MODELS}/{model}", extra, oracle)

    return make


def readme(line):
    cmd, name, *extra = line.split()
    oracle = {"exit": 1} if cmd == "mc-check" else {}
    return lambda rng: Job(cmd, f"{MODELS}/{name}", extra, oracle)


# -- workloads: (template, copies per round) -------------------------------------

WORKLOADS = {
    "cohomology": [
        # light
        (betti_nil(5, 2), 2),
        (twisted_nil(4, 1), 1),
        (betti_torus(8), 1),
        (twisted_torus(6), 1),
        # median
        (betti_nil(6, 2), 3),
        (twisted_nil(4, 2), 1),
        (betti_torus(9), 1),
        # tail
        (betti_nil(7, 2), 1),
        (betti_nil(6, 3), 1),
        (twisted_nil(5, 2), 1),
        (twisted_torus(7), 1),
    ],
    "identities": [
        # light
        (suite("e6-check", "e6_flux", (2, 4)), 2),
        (suite("bn-check", "bn_selfdual", (2, 4)), 2),
        (suite("bn-check", 3, (2, 4), selfdual=True), 1),
        # median
        (suite("identities", "e6_flux", (4, 6)), 1),
        (suite("identities", "nil_pair", (2, 3)), 1),
        (suite("identities", 3, (2, 3)), 1),
        (suite("bn-check", 4, (4, 6), selfdual=True), 1),
        # tail
        (suite("identities", "nil_pair", (4, 5)), 1),
        (suite("identities", 4, (4, 6)), 1),
        (suite("identities", "bn_selfdual", (4, 6)), 1),
        (suite("identities", "t7_flux", (2,)), 1),
        (suite("e6-check", "t7_flux", (4, 6)), 1),
    ],
    "pairs": [
        # light
        (repo_cmd("ses-verify", "t2_pair"), 1),
        (repo_cmd("tmap-verify", "hopf_pair"), 1),
        (repo_cmd("sym", "s3_pair"), 1),
        (repo_cmd("iso-check", "hopf_pair"), 1),
        (pair_cmd("iso-check", 3), 1),
        (pair_cmd("sym", 3), 1),
        # median
        (pair_cmd("tmap-verify", 3), 1),
        (pair_cmd("iso-check", 4), 1),
        (pair_cmd("sym", 4), 1),
        (repo_cmd("tmap-verify", "nil_pair"), 1),
        (pair_cmd("tmap-verify", 4), 1),
        (pair_cmd("ses-verify", 3), 1),
        (pair_cmd("sym", 5), 1),
        # tail
        (pair_cmd("ses-verify", 4), 1),
        (repo_cmd("ses-verify", "nil_pair"), 1),
        (pair_cmd("tmap-verify", 5), 1),
        (pair_cmd("iso-check", 5), 1),
    ],
    "samples": [(readme(line), 1) for line in README_COMMANDS],
}


def rounds(workload: str, seed: int, count: int):
    """`count` seeded rounds of the workload, each a shuffled list of Jobs."""
    rng = random.Random(f"{workload}/{seed}")
    slots = [(make, _Balanced(rng)) for make, copies in WORKLOADS[workload] for _ in range(copies)]
    out = []
    for _ in range(count):
        jobs = [draws.job(make) for make, draws in slots]
        rng.shuffle(jobs)
        out.append(jobs)
    return out


class _Balanced:
    """Seeded draws for one slot that stay balanced over the rounds.

    The k-th draw of a job (variant, trial count, CLI seed) walks through a
    seeded permutation of its pool, so every value comes up once per cycle.
    Runs with different seeds then differ in pairing and order, not in how
    often the heavy variants occur, which keeps the job mix of a run steady.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.cycles = {}
        self.position = 0

    def job(self, make):
        self.position = 0
        return make(self)

    def randrange(self, n):
        key = self.position
        self.position += 1
        if not self.cycles.get(key):
            cycle = list(range(n))
            self.rng.shuffle(cycle)
            self.cycles[key] = cycle
        return self.cycles[key].pop()

    def choice(self, seq):
        return seq[self.randrange(len(seq))]


def universe(workload: str):
    """Every distinct job the workload can run, for recording goldens."""
    seen = {}
    for make, _ in WORKLOADS[workload]:
        # every combination of at most 4 trial counts, CLI seeds and variants
        for value in range(VARIANTS * CLI_SEEDS * 4):
            job = make(_Fixed(value))
            seen.setdefault(job.key, job)
    return list(seen.values())


class _Fixed(random.Random):
    """An rng whose draws enumerate the pools: value is read as mixed-radix digits."""

    def __init__(self, value: int):
        super().__init__(0)
        self.value = value

    def randrange(self, n):
        self.value, digit = divmod(self.value, n)
        return digit

    def choice(self, seq):
        return seq[self.randrange(len(seq))]
