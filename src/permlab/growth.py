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
no built level.  A run computes its count targets once per tracked count
(step_targets).  Trace lines are formatted from their fixed sorted key order
with the bytes of json.dumps(record, sort_keys=True), which
tests/test_growth.py test_trace_writer_bytes_equal_json_dumps pins.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .lattice import LATTICE_MAX_N, MinorTable, SplitVerdict, build_lattice, parent_histogram, split_events
from .matrices import CapError, SignMatrix


class StepType(str, Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"


# Each type's name, and its trace spelling, read from tables: a .value read
# is a Python-level enum descriptor call.
_STEP_NAMES = {t: t.value for t in StepType}
_STEP_JSON = {None: "null", **{t: json.dumps(name) for t, name in _STEP_NAMES.items()}}
_POTENTIAL_PAYBACK = {StepType.I: 3, StepType.III: 1}


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


@dataclass(slots=True)
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
        names = [_STEP_NAMES[rec.step_type] for rec in self.records if rec.step_type is not None]
        return {name: names.count(name) for name in _STEP_NAMES.values()}


def potential_increment(step_type: StepType, cfg: ProcessConfig) -> float:
    return 1 - cfg.eps / 2 - _POTENTIAL_PAYBACK.get(step_type, 0)


def step_targets(n: int, cfg: ProcessConfig, tracked: int) -> tuple[float, int, int, int]:
    """A step's grow factor and its explode, keep and shrunk counts from a
    tracked count, which run_growth computes once per run and tracked count."""
    return (cfg.lam_grow_factor(n), count_threshold(n**cfg.eps * tracked / 4),
            count_threshold(cfg.keep_frac() * tracked), count_threshold(cfg.eps_prime * tracked))


def classify_step(table: MinorTable, k: int, masks: np.ndarray, heavy_next: np.ndarray,
                  tracked: int, threshold: float, cfg: ProcessConfig, potential: float,
                  targets: tuple[float, int, int, int]) -> tuple[LevelRecord, int, float, np.ndarray]:
    """Classify the step from level k given the heavy sets of levels k and k+1.

    `masks` is heavy_masks(k, threshold) and `heavy_next` level k+1's heavy
    masks at the threshold.  A DOUBLE_PRIME step also reads level k+1, built
    in the table, at the grown threshold cfg.lam_grow_factor(n) * threshold;
    a PRIME step does not, and its record's next_at_grown is None.  The
    family is the `tracked` lexicographically-smallest members of `masks`
    (any witness set is allowed; the smallest ones make runs reproducible).
    `targets` is step_targets(n, cfg, tracked).
    Exactly one type is returned; V is the fallback with tracked count 0.
    Returns the level's record, the next tracked count and threshold, and the
    heavy set of level k+1 at that threshold.
    """
    if tracked < 1:
        raise ValueError("classification needs a nonempty tracked family")
    if len(masks) < tracked:
        raise ValueError(f"tracked count {tracked} exceeds exact heavy count {len(masks)}")
    counts = parent_histogram(table, k, masks[:tracked])
    branch = split_events(counts, cfg.eps, cfg.c, tracked)

    grow_factor, explode_count, keep_count, shrunk = targets
    grown_threshold = grow_factor * threshold
    next_at_threshold = len(heavy_next)
    next_at_grown = None
    next_heavy = heavy_next

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

    record = LevelRecord(k, tracked, len(masks), threshold, potential, step, branch,
                         next_at_threshold, next_at_grown, grown_threshold)
    return record, new[0], new[1], next_heavy


def level_range(n: int, cfg: ProcessConfig) -> tuple[int, int]:
    """A run's first and last levels (k0, k1), checked before any work; each
    refusal names the growth flags that set it."""
    if n > LATTICE_MAX_N:
        raise CapError(f"minor lattice is capped at n <= {LATTICE_MAX_N} (2**n table), got --n {n}")
    k0, k1 = cfg.start_level(n), cfg.end_level(n)
    if not 1 <= k0 <= k1 <= n:
        raise ValueError(f"bad level range k0={k0}, k1={k1} for n={n}: --n {n} with --eps {cfg.eps}"
                         " leaves no level to grow through (growth needs 1 <= k0 <= k1 <= n)")
    return k0, k1


def run_growth(matrix: SignMatrix, cfg: ProcessConfig) -> ProcessTrace:
    """Run one growth pass over a fixed matrix.

    Start: the tracked count is 1 if some level-k0 minor has |value| >= 1,
    else 0 and the run can only fail.  A zero tracked count propagates
    unchanged to k1 (no classification happens on those levels).  Success at
    k1 requires a nonzero tracked count and potential <= eps' * n / 2.
    """
    n = matrix.n
    k0, k1 = level_range(n, cfg)

    # Levels below k0 are built plain; level k0 at threshold 1, and each next
    # level at the threshold of the level below.
    table = build_lattice(matrix, k0 - 1)
    threshold = 1.0
    heavy = table.add_heavy_level(matrix.row(k0 - 1), threshold)
    tracked = 1 if len(heavy) else 0
    potential = 0.0
    by_count: dict[int, tuple] = {}  # tracked count -> its step_targets

    trace = ProcessTrace(n=n, cfg=cfg, table=table)
    for k in range(k0, k1):
        heavy_next = table.add_heavy_level(matrix.row(k), threshold)
        if tracked == 0:
            trace.records.append(LevelRecord(k, 0, len(heavy), threshold, potential, None))
            heavy = heavy_next
            continue
        targets = by_count.get(tracked) or by_count.setdefault(tracked, step_targets(n, cfg, tracked))
        rec, tracked, threshold, heavy = classify_step(
            table, k, heavy, heavy_next, tracked, threshold, cfg, potential, targets)
        trace.records.append(rec)
        potential += potential_increment(rec.step_type, cfg)

    trace.records.append(LevelRecord(k1, tracked, len(heavy), threshold, potential, None))
    trace.successful = is_successful(trace, cfg)
    return trace


def is_successful(trace: ProcessTrace, cfg: ProcessConfig) -> bool:
    """Nonzero tracked count at k1 and potential at most eps' * n / 2 (inclusive)."""
    last = trace.records[-1]
    return last.tracked != 0 and last.potential <= cfg.eps_prime * trace.n / 2


@functools.lru_cache(maxsize=8)
def _header_head(cfg: ProcessConfig, n: int) -> str:
    """A trace header up to its seed: the config is serialised once per (cfg, n)."""
    config = json.dumps(cfg.describe(n), sort_keys=True)
    return f'{{"config": {config}, "n": {n}, "record": "header", "seed": '


def _json_number(x: float) -> str:
    """What json.dumps writes for x: float.__repr__ for a finite float (not
    repr, which numpy 2 writes as "np.float64(1.0)"), else json.dumps."""
    return float.__repr__(x) if isinstance(x, float) and math.isfinite(x) else json.dumps(x)


def write_trace_jsonl(trace: ProcessTrace, path, seed: int, stream: int) -> None:
    """One header record, then one record per level, in one write; bit-stable per
    (seed, config).  Each line is formatted from its fixed sorted key order."""
    lines = [f'{_header_head(trace.cfg, trace.n)}{seed}, "stream": {stream}}}\n']
    for rec in trace.records:
        lines.append(f'{{"N_k": {rec.tracked}, "W_k": {_json_number(rec.potential)}, "k": {rec.k},'
                     f' "lambda_k": {_json_number(rec.threshold)}, "step_type": {_STEP_JSON[rec.step_type]},'
                     f' "true_heavy_count": {rec.true_heavy}}}\n')
    with open(path, "w") as fh:
        fh.write("".join(lines))
