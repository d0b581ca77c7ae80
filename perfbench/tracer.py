"""Spans around the public functions of each dgcalc module, installed from outside.

A span has a name, a start, an end, a parent span and the job it ran in.  The
spans stay in flat arrays in memory and are written out once, at the end of
the run.  Size counters (matrix entries, nonzeros, basis monomials, cochain
spaces built) are summed at the same boundaries.  They are computed after the
span ends, and the time that takes is booked as a gap in the parent span, so
it counts as no layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from time import perf_counter

# span name -> (module, attribute path of the traced callable)
SPANS = {
    "linalg.rank": ("linalg", "rank"),
    "linalg.kernel_basis": ("linalg", "kernel_basis"),
    "cohomology.operator_matrix": ("cohomology", "operator_matrix"),
    "cohomology.betti": ("cohomology", "betti"),
    "cohomology.twisted_betti": ("cohomology", "twisted_betti"),
    "cohomology.CochainSpace": ("cohomology", "CochainSpace.__init__"),
    "graded.Element.mul": ("graded", "Element.__mul__"),
    "graded.Model.d": ("graded", "Model.d"),
    "graded.Model.basis": ("graded", "Model.basis"),
    "derivations.Derivation.apply": ("derivations", "Derivation.__call__"),
    "derivations.commutator": ("derivations", "commutator"),
    "derivations.exp_apply": ("derivations", "exp_apply"),
    "tduality.TDualPair.tmap": ("tduality", "TDualPair.tmap"),
    "tduality.ses_verify": ("tduality", "ses_verify"),
    "tduality.les_check": ("tduality", "les_check"),
    "tduality.tduality_iso_check": ("tduality", "tduality_iso_check"),
    "tduality.ChainMap.verify": ("tduality", "ChainMap.verify"),
    "symmetries.decompose": ("symmetries", "decompose"),
    "symmetries.derived_bracket": ("symmetries", "derived_bracket"),
    "symmetries.sym0_dimensions": ("symmetries", "sym0_dimensions"),
    "parser.load_path": ("parser", "load_path"),
    "cli.main": ("cli", "main"),
}


def _matrix_size(rows, ncols=None):
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    nonzeros = sum(1 for row in rows for x in row if x)
    return len(rows) * ncols, nonzeros


def _rank_sizes(args, kwargs, result):
    return _matrix_size(args[0])


def _kernel_sizes(args, kwargs, result):
    return _matrix_size(args[0], args[1])


def _basis_sizes(args, kwargs, result):
    return (len(result),)


# span name -> (counter names, function (args, kwargs, result) -> amounts)
SIZES = {
    "linalg.rank": (("entries", "nonzeros"), _rank_sizes),
    "linalg.kernel_basis": (("entries", "nonzeros"), _kernel_sizes),
    "graded.Model.basis": (("monomials",), _basis_sizes),
}

# Every counter a run can record; each starts at 0, so a workload that never
# reaches a span still reports it.
COUNTERS = [f"{span}.{key}" for span, (keys, _) in SIZES.items() for key in keys] + [
    "cohomology.CochainSpace.builds",
    "cohomology.CochainSpace.distinct",
]


class Tracer:
    """Records spans and counters for calls made through the installed wrappers."""

    def __init__(self):
        self.names = list(SPANS)
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_job = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_gap = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.stack = []
        self.job = -1
        self._spaces = {}

    # -- job boundaries ------------------------------------------------------

    def start_job(self, index: int):
        self.job = index
        self._spaces = {}

    def _count(self, key: str, amount):
        self.counters[key] += amount

    def _note_space(self, space, degree):
        """Count a CochainSpace build; distinct is per job by (space object, degree)."""
        self._count("cohomology.CochainSpace.builds", 1)
        key = (id(space), degree)
        if key not in self._spaces:
            self._spaces[key] = space  # the reference keeps the id from being reused
            self._count("cohomology.CochainSpace.distinct", 1)

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name: str, fn):
        ident = self.name_id[name]
        keys, sizes = SIZES.get(name, ((), None))
        is_space = name == "cohomology.CochainSpace"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.span_start)
            self.span_name.append(ident)
            self.span_job.append(self.job)
            self.span_parent.append(self.stack[-1] if self.stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_gap.append(0.0)
            self.stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.span_start[index] = start
                self.span_end[index] = end
            if sizes is not None:
                for key, amount in zip(keys, sizes(args, kwargs, result)):
                    self._count(f"{name}.{key}", amount)
            if is_space:
                self._note_space(args[1], args[2] if len(args) > 2 else kwargs["degree"])
            if self.stack:
                self.span_gap[self.stack[-1]] += perf_counter() - end
            return result

        return traced

    def install(self, package: str = "dgcalc"):
        """Wrap each traced callable where it is defined and wherever it is imported."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for name, (modname, path) in SPANS.items():
            module = importlib.import_module(f"{package}.{modname}")
            *owners, attr = path.split(".")
            holder = module
            for owner in owners:
                holder = getattr(holder, owner)
            original = getattr(holder, attr)
            wrapper = self.wrap(name, original)
            setattr(holder, attr, wrapper)
            if owners:
                continue  # methods are looked up on the class
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapper)

    # -- output --------------------------------------------------------------

    def write(self, prefix: str):
        """Write the spans as flat binary arrays plus a JSON index."""
        columns = {
            "name": self.span_name,
            "job": self.span_job,
            "parent": self.span_parent,
            "start": self.span_start,
            "end": self.span_end,
            "gap": self.span_gap,
        }
        for column, values in columns.items():
            with open(f"{prefix}.{column}", "wb") as handle:
                values.tofile(handle)
        with open(f"{prefix}.json", "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "count": len(self.span_start),
                       "types": {c: v.typecode for c, v in columns.items()},
                       "counters": self.counters}, handle)


def read_spans(prefix: str):
    """Load what Tracer.write wrote: (index dict, {column: array})."""
    with open(f"{prefix}.json", encoding="utf-8") as handle:
        index = json.load(handle)
    columns = {}
    for column, typecode in index["types"].items():
        values = array(typecode)
        with open(f"{prefix}.{column}", "rb") as handle:
            values.fromfile(handle, index["count"])
        columns[column] = values
    return index, columns


def layer_totals(index, columns):
    """Per span name: calls and self time (duration minus child spans and gaps)."""
    names = index["names"]
    n = index["count"]
    child_time = [0.0] * n
    parent, start, end, gap = (columns[c] for c in ("parent", "start", "end", "gap"))
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child_time[p] += end[i] - start[i]
    calls = {name: 0 for name in names}
    self_s = {name: 0.0 for name in names}
    name_of = columns["name"]
    for i in range(n):
        name = names[name_of[i]]
        calls[name] += 1
        self_s[name] += end[i] - start[i] - child_time[i] - gap[i]
    return calls, self_s
