"""Level-by-level growth runs over the minor lattice.

A run walks levels k0..k1 of one matrix.  At each level it holds a tracked
count of heavy minors and a heaviness threshold; the step to the next level
is classified into one of five types by testing, against exact lattice
counts, whether enough heavy children exist at the same or at a grown
threshold.  A potential accumulates (1 - eps/2) per step and is paid back by
the threshold-growing and count-exploding step types, so a low final
potential certifies that the threshold grew on most levels.

The tracked count is deliberately a lower-bound token: the exact heavy count
from the lattice is logged next to it at every level.  From k0 on, each
level is built with its heavy sets at the step's threshold selected in the
same pass (MinorTable.add_heavy_level).  Only a high-multiplicity step (type
III or IV) reads level k+1 at the grown threshold, in one query of the built
level, and a type III step carries that set forward.  In the runs measured
at the CLI's configs every step was type I (see the README), so they query
no built level.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .lattice import (
    MinorTable,
    SplitVerdict,
    build_lattice,
    parent_histogram,
    split_events,
)
from .matrices import SignMatrix


class StepType(str, Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"


def count_threshold(x: float) -> int:
    """Counting events need integer thresholds: round up, floor at 1."""
    return max(1, math.ceil(x))


@dataclass(frozen=True)
class ProcessConfig:
    """Knobs for growth and endgame runs.

    eps_prime and c default to eps/6 and eps, set once on construction; k0,
    k1 and L default to the bench-scale formulas below, which keep every
    branch reachable at n <= 22 (the asymptotic formulas collapse to 0
    there).  The good-child threshold, grow factor and keep fraction are
    fixed formulas.
    """

    eps: float = 0.25
    eps_prime: Optional[float] = None
    c: Optional[float] = None
    k0: Optional[int] = None
    k1: Optional[int] = None
    L: Optional[int] = None

    def __post_init__(self) -> None:
        if self.eps_prime is None:
            object.__setattr__(self, "eps_prime", self.eps / 6)
        if self.c is None:
            object.__setattr__(self, "c", self.eps)
        if not 0 < self.eps < 1:
            raise ValueError(f"eps must be in (0, 1), got {self.eps}")
        if not 0 < self.eps_prime:
            raise ValueError("eps_prime must be positive")
        if self.eps_prime > self.eps / 6:
            raise ValueError(
                f"eps_prime must be at most eps/6 = {self.eps / 6:.6g}, got {self.eps_prime}"
            )
        if not 0 < self.c < 1:
            raise ValueError(f"c must be in (0, 1), got {self.c}")

    def start_level(self, n: int) -> int:
        return self.k0 if self.k0 is not None else math.floor(self.eps * n) + 1

    def end_level(self, n: int) -> int:
        return self.k1 if self.k1 is not None else math.floor((1 - self.eps) * n)

    def endgame_depth(self, n: int) -> int:
        # Bench-scale stand-in for log(n)/100, which is 0 for any feasible n.
        return self.L if self.L is not None else max(1, math.floor(math.log(n)) - 1)

    def lam_grow_factor(self, n: int) -> float:
        return float(n) ** (0.5 - self.eps)

    def keep_frac(self) -> float:
        return self.eps / 6

    def describe(self, n: int) -> dict:
        return {
            "eps": self.eps,
            "eps_prime": self.eps_prime,
            "c": self.c,
            "k0": self.start_level(n),
            "k1": self.end_level(n),
            "L": self.endgame_depth(n),
            "t_good": max(2, math.floor(n**0.1)),
            "grow_factor": self.lam_grow_factor(n),
            "keep_fraction": self.keep_frac(),
        }


@dataclass(frozen=True)
class LevelRecord:
    """State at one level, plus the classification of the step leaving it."""

    k: int
    tracked: int
    true_heavy: int
    threshold: float
    potential: float
    step_type: Optional[StepType]
    branch: Optional[SplitVerdict] = None
    next_at_threshold: Optional[int] = None
    next_at_grown: Optional[int] = None
    grown_threshold: Optional[float] = None


@dataclass
class ProcessTrace:
    n: int
    cfg: ProcessConfig
    table: MinorTable
    records: list[LevelRecord] = field(default_factory=list)
    successful: bool = False

    @property
    def final(self) -> LevelRecord:
        return self.records[-1]

    def step_type_counts(self) -> dict[str, int]:
        counts = {t.value: 0 for t in StepType}
        for rec in self.records:
            if rec.step_type is not None:
                counts[rec.step_type.value] += 1
        return counts


def potential_increment(step_type: StepType, cfg: ProcessConfig) -> float:
    inc = 1 - cfg.eps / 2
    if step_type is StepType.I:
        inc -= 3
    elif step_type is StepType.III:
        inc -= 1
    return inc


def classify_step(table: MinorTable, k: int, masks: np.ndarray, heavy_next: np.ndarray,
                  tracked: int, threshold: float, cfg: ProcessConfig,
                  potential: float) -> tuple[LevelRecord, int, float, np.ndarray]:
    """Classify the step from level k given the heavy sets of levels k and k+1.

    `masks` is heavy_masks(k, threshold) and `heavy_next` level k+1's heavy
    masks at the threshold.  A DOUBLE_PRIME step also reads level k+1, built
    in the table, at the grown threshold cfg.lam_grow_factor(n) * threshold;
    a PRIME step does not, and its record's next_at_grown is None.  The
    family is the `tracked` lexicographically-smallest members of `masks`
    (any witness set is allowed; the smallest ones make runs reproducible).
    Exactly one type is returned; V is the fallback with tracked count 0.
    Returns the level's record, the next tracked count and threshold, and the
    heavy set of level k+1 at that threshold.
    """
    if tracked < 1:
        raise ValueError("classification needs a nonempty tracked family")
    n = table.n
    if len(masks) < tracked:
        raise ValueError(f"tracked count {tracked} exceeds exact heavy count {len(masks)}")
    counts = parent_histogram(table, k, masks[:tracked])
    branch = split_events(counts, cfg.eps, cfg.c, tracked)

    grown_threshold = cfg.lam_grow_factor(n) * threshold
    next_at_threshold = len(heavy_next)
    next_at_grown = None
    next_heavy = heavy_next
    explode_count = count_threshold(n**cfg.eps * tracked / 4)
    keep_count = count_threshold(cfg.keep_frac() * tracked)
    shrunk = count_threshold(cfg.eps_prime * tracked)

    if branch is SplitVerdict.PRIME:
        if next_at_threshold >= explode_count:
            step, new = StepType.I, (explode_count, threshold)
        elif next_at_threshold >= keep_count:
            step, new = StepType.II, (shrunk, threshold)
        else:
            step, new = StepType.V, (0, threshold)
    else:
        heavy_grown = table.heavy_masks(k + 1, grown_threshold)
        next_at_grown = len(heavy_grown)
        if next_at_grown >= shrunk:
            step, new = StepType.III, (shrunk, grown_threshold)
            next_heavy = heavy_grown
        elif next_at_threshold >= keep_count:
            step, new = StepType.IV, (shrunk, threshold)
        else:
            step, new = StepType.V, (0, threshold)

    record = LevelRecord(
        k=k,
        tracked=tracked,
        true_heavy=len(masks),
        threshold=threshold,
        potential=potential,
        step_type=step,
        branch=branch,
        next_at_threshold=next_at_threshold,
        next_at_grown=next_at_grown,
        grown_threshold=grown_threshold,
    )
    return record, new[0], new[1], next_heavy


def run_growth(matrix: SignMatrix, cfg: ProcessConfig) -> ProcessTrace:
    """Run one growth pass over a fixed matrix.

    Start: the tracked count is 1 if some level-k0 minor has |value| >= 1,
    else 0 and the run can only fail.  A zero tracked count propagates
    unchanged to k1 (no classification happens on those levels).  Success at
    k1 requires a nonzero tracked count and potential <= eps' * n / 2.
    """
    n = matrix.n
    k0 = cfg.start_level(n)
    k1 = cfg.end_level(n)
    if not 1 <= k0 <= k1 <= n:
        raise ValueError(f"bad level range k0={k0}, k1={k1} for n={n}")

    # Levels below k0 are built plain; level k0 at threshold 1, and each next
    # level at the threshold of the level below.
    table = build_lattice(matrix, k0 - 1)
    threshold = 1.0
    heavy = table.add_heavy_level(matrix.row(k0 - 1), threshold)
    tracked = 1 if len(heavy) else 0
    potential = 0.0

    trace = ProcessTrace(n=n, cfg=cfg, table=table)
    for k in range(k0, k1):
        heavy_next = table.add_heavy_level(matrix.row(k), threshold)
        if tracked == 0:
            trace.records.append(LevelRecord(k, 0, len(heavy), threshold, potential, None))
            heavy = heavy_next
            continue
        rec, tracked, threshold, heavy = classify_step(
            table, k, heavy, heavy_next, tracked, threshold, cfg, potential)
        trace.records.append(rec)
        potential += potential_increment(rec.step_type, cfg)

    trace.records.append(LevelRecord(k1, tracked, len(heavy), threshold, potential, None))
    trace.successful = is_successful(trace, cfg)
    return trace


def is_successful(trace: ProcessTrace, cfg: ProcessConfig) -> bool:
    """Nonzero tracked count at k1 and potential at most eps' * n / 2 (inclusive)."""
    last = trace.records[-1]
    return last.tracked != 0 and last.potential <= cfg.eps_prime * trace.n / 2


def trace_level_dicts(trace: ProcessTrace) -> list[dict]:
    """Per-level dicts in the stable wire format."""
    rows = []
    for rec in trace.records:
        rows.append(
            {
                "k": rec.k,
                "N_k": rec.tracked,
                "true_heavy_count": rec.true_heavy,
                "lambda_k": rec.threshold,
                "W_k": rec.potential,
                "step_type": rec.step_type.value if rec.step_type is not None else None,
            }
        )
    return rows


def write_trace_jsonl(trace: ProcessTrace, path, seed: int, stream: int) -> None:
    """One header record, then one record per level; bit-stable per (seed, config)."""
    header = {"record": "header", "n": trace.n, "config": trace.cfg.describe(trace.n),
              "seed": seed, "stream": stream}
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for row in trace_level_dicts(trace):
            fh.write(json.dumps(row, sort_keys=True) + "\n")
