"""Span recording for the traced benchmark run, installed from outside the program.

`install(tracer)` replaces each traced permlab function with a wrapper that
records one span per call: name, start, end, parent span and op id (the
index of the timed batch it ran in).  The wrapper is set where the function
is defined and under every other module attribute that holds the same object
(names imported with `from ... import`), so no call goes unseen.  Spans stay in memory; `write_spans` saves them when
the run ends, and `layer_metrics` derives counts and self times from them.

The bit helpers in `permlab.subsets` (popcount, bits_of, ...) are not
wrapped: they cost less than a span does.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import weakref
from array import array
from time import perf_counter

import numpy as np

# (module, attribute or Class.method, span name)
TARGETS = [
    ("permlab.lattice", "MinorTable.add_level", "lattice.add_level"),
    ("permlab.lattice", "MinorTable.heavy_count", "lattice.query"),
    ("permlab.lattice", "MinorTable.heavy_masks", "lattice.query"),
    ("permlab.lattice", "MinorTable.value", "lattice.query"),
    ("permlab.lattice", "build_lattice", "lattice.build_lattice"),
    ("permlab.lattice", "parent_histogram", "lattice.parent_histogram"),
    ("permlab.lattice", "split_events", "lattice.split_events"),
    ("permlab.subsets", "masks_by_level", "subsets.masks_by_level"),
    ("permlab.growth", "run_growth", "growth.run_growth"),
    ("permlab.growth", "classify_step", "growth.classify_step"),
    ("permlab.endgame", "run_endgame_path", "endgame.path"),
    ("permlab.endgame", "find_disjoint_heavy_family", "endgame.family"),
    ("permlab.endgame", "propagate_down", "endgame.propagate"),
    ("permlab.endgame", "final_row_heaviness", "endgame.final_row"),
    ("permlab.engines", "permanent_naive", "engines.naive"),
    ("permlab.engines", "permanent_ryser", "engines.ryser"),
    ("permlab.engines", "ryser_batch", "engines.ryser_batch"),
    ("permlab.engines", "permanent_mod", "engines.permanent_mod"),
    ("permlab.engines", "determinant_exact", "engines.determinant"),
    ("permlab.checks", "check_second_moment", "checks.second_moment"),
    ("permlab.checks", "check_alon", "checks.alon"),
    ("permlab.checks", "check_parent_child", "checks.parent_child"),
    ("permlab.checks", "check_many_children", "checks.many_children"),
    ("permlab.checks", "check_littlewood_offord", "checks.littlewood_offord"),
    ("permlab.checks", "check_singularity", "checks.singularity"),
    ("permlab.checks", "check_growth_rate", "checks.growth_rate"),
    ("permlab.checks", "check_maintain_grow_events", "checks.maintain_grow_events"),
    ("permlab.cli", "main", "cli.main"),
    ("permlab.cli", "cmd_compute", "cli.cmd_compute"),
    ("permlab.cli", "cmd_growth", "cli.cmd_growth"),
    ("permlab.cli", "cmd_verify", "cli.cmd_verify"),
    ("permlab.matrices", "sample_sign_matrix", "matrices.sample_matrix"),
    ("permlab.matrices", "sample_row", "matrices.sample"),
]

ENDGAME_STAGES = ("path", "family", "propagate", "final_row")
ENGINES = ("naive", "ryser", "ryser_batch", "permanent_mod", "determinant")
CHECKS = ("second_moment", "alon", "parent_child", "many_children", "littlewood_offord",
          "singularity", "growth_rate", "maintain_grow_events")


class Tracer:
    """In-memory span store plus the counters that are taken at span entry."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self.active = False  # spans are recorded only inside timed batches
        self.op_id = -1
        self.epoch = 0  # matrices sampled so far; tells one matrix's levels from another's
        self.subsets = 0  # sum of C(n, k) over add_level calls
        self.table_n = 0  # largest n of a lattice level built
        self._chain = weakref.WeakKeyDictionary()  # table -> hash of the rows it has built
        self.levels: set[int] = set()  # distinct (matrix, rows-so-far) level keys built
        self.matrices = 0  # matrices passed to ryser_batch

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_enter=None):
        nid = self._nid(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.op.append(tracer.op_id)
            tracer.end.append(0.0)
            if on_enter is not None:
                on_enter(*args, **kwargs)
            tracer._stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer._stack.pop()

        return wrapper

    # -- counters taken at span entry -------------------------------------

    def _on_add_level(self, table, row):
        # A level is identified by the sampled matrix and the rows exposed so
        # far, so the same level rebuilt by a later stage counts once.
        self.subsets += math.comb(table.n, table.k_max + 1)
        self.table_n = max(self.table_n, table.n)
        row_bytes = np.asarray(row, dtype=np.int8).tobytes()
        key = hash((self._chain.get(table, self.epoch), row_bytes))
        self._chain[table] = key
        self.levels.add(key)

    def _on_sample_matrix(self, *args, **kwargs):
        self.epoch += 1

    def _on_ryser_batch(self, mats, *args, **kwargs):
        self.matrices += len(mats)


def install(tracer: Tracer) -> None:
    """Wrap every target where it is defined and under every permlab name that holds it."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "permlab" or name.startswith("permlab."))]
    hooks = {"lattice.add_level": tracer._on_add_level,
             "engines.ryser_batch": tracer._on_ryser_batch,
             "matrices.sample_matrix": tracer._on_sample_matrix}
    for mod_name, attr, span in TARGETS:
        owner = sys.modules[mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            orig = getattr(cls, meth)
            setattr(cls, meth, tracer.wrap(span, orig, hooks.get(span)))
            continue
        orig = getattr(owner, attr)
        wrapped = tracer.wrap(span, orig, hooks.get(span))
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)


def self_times(tracer: Tracer) -> list[float]:
    """Span duration minus the time its direct children cover."""
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    own = list(dur)
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            own[p] -= dur[i]
    return own


def layer_metrics(tracer: Tracer, ops: int, counts: dict) -> dict[str, tuple[float, str]]:
    """Per-layer counts and times per op, keyed by metric name -> (value, unit)."""
    own = self_times(tracer)
    names = tracer.names
    calls = {n: 0 for n in names}
    self_s = {n: 0.0 for n in names}
    incl_s = {n: 0.0 for n in names}
    for i, nid in enumerate(tracer.name_id):
        name = names[nid]
        calls[name] += 1
        self_s[name] += own[i]
        incl_s[name] += tracer.end[i] - tracer.start[i]

    def c(name):
        return calls.get(name, 0) / ops

    def s(name):
        return self_s.get(name, 0.0) / ops

    add_calls = calls.get("lattice.add_level", 0)
    levels = len(tracer.levels)
    out = {
        "lattice.add_level.calls": (c("lattice.add_level"), "calls/op"),
        "lattice.add_level.s": (s("lattice.add_level"), "s/op"),
        "lattice.add_level.subsets": (tracer.subsets / ops, "subsets/op"),
        "lattice.add_level.ns_per_subset": (
            1e9 * self_s.get("lattice.add_level", 0.0) / tracer.subsets if tracer.subsets else 0.0,
            "ns/subset"),
        "lattice.levels_per_op": (levels / ops, "levels/op"),
        "lattice.useful_level_frac": (levels / add_calls if add_calls else 0.0, "fraction"),
        "lattice.query.calls": (c("lattice.query"), "calls/op"),
        "lattice.query.s": (s("lattice.query"), "s/op"),
        "lattice.parent_histogram.s": (s("lattice.parent_histogram"), "s/op"),
        "lattice.table_bytes": (8 << tracer.table_n if tracer.table_n else 0, "bytes"),
        "subsets.masks_by_level.s": (s("subsets.masks_by_level"), "s/op"),
        "growth.run_growth.self_s": (s("growth.run_growth"), "s/op"),
        "growth.classify_step.calls": (c("growth.classify_step"), "calls/op"),
        "growth.classify_step.s": (s("growth.classify_step"), "s/op"),
    }
    for stage in ENDGAME_STAGES:
        name = f"endgame.{stage}"
        out[f"{name}.s"] = (incl_s.get(name, 0.0) / ops, "s/op")
        out[f"{name}.self_s"] = (s(name), "s/op")
    out["endgame.precondition_failures"] = (counts.get("endgame.precondition_failures", 0) / ops,
                                            "count/op")
    for eng in ENGINES:
        name = f"engines.{eng}"
        out[f"{name}.calls"] = (c(name), "calls/op")
        out[f"{name}.s"] = (s(name), "s/op")
    out["engines.ryser_batch.matrices"] = (tracer.matrices / ops, "matrices/op")
    for chk in CHECKS:
        out[f"checks.{chk}.s"] = (s(f"checks.{chk}"), "s/op")
    cli_self = sum(v for k, v in self_s.items() if k.startswith("cli."))
    out["cli.self_s"] = (cli_self / ops, "s/op")
    out["cli.bytes_written"] = (counts.get("cli.bytes_written", 0) / ops, "bytes/op")
    out["matrices.sample.s"] = (s("matrices.sample_matrix") + s("matrices.sample"), "s/op")
    return out


def write_spans(tracer: Tracer, path) -> None:
    """One JSON line per span: name, start, end (s, run-relative), parent index, op id."""
    t0 = tracer.start[0] if len(tracer.start) else 0.0
    with gzip.open(path, "wt") as fh:
        for i, nid in enumerate(tracer.name_id):
            fh.write(json.dumps([tracer.names[nid], round(tracer.start[i] - t0, 9),
                                 round(tracer.end[i] - t0, 9), tracer.parent[i], tracer.op[i]]) + "\n")
