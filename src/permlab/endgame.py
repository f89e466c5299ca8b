"""Endgame runs: carry heaviness from a mid-size minor to the full matrix.

Each stage takes the first k rows of a matrix (`SignMatrix.prefix(k)`) and
the matrix itself, and reads the one minor table of that matrix, extended
one exposed row at a time.  The table outlives a stage: the next stage on
the same matrix object extends it further instead of rebuilding its
prefix, so a matrix taken through all stages builds each level once.
Stages still read only the levels of the rows they expose.

- a path run extends one heavy column set level by level, preferring
  columns outside a protected block so the final set covers everything
  except (part of) the block;
- several path runs over disjoint protected blocks yield a family of heavy
  sets whose complements are pairwise disjoint;
- each further exposed row shrinks those complements by one (threshold
  divided by n per level), until the last row closes the full permanent via
  the cofactor expansion.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .growth import ProcessConfig
from .lattice import MinorTable
from .matrices import SignMatrix
from .subsets import bits_of


class PreconditionError(ValueError):
    """A documented run precondition does not hold for the given inputs."""


def _exposed(prefix: np.ndarray, source: SignMatrix) -> int:
    """Number k of prefix rows, checked to be the first k rows of source."""
    k = len(prefix)
    if not np.array_equal(source.entries[:k], prefix):
        raise ValueError("matrix row source disagrees with the prefix rows")
    return k


class _Slot(threading.local):
    source: Optional[SignMatrix] = None
    table: Optional[MinorTable] = None


_slot = _Slot()


def _table(source: SignMatrix, k: int) -> MinorTable:
    """The minor table of source, built through at least level k.

    One table is kept (per thread), for the matrix object last passed
    (`is`, never equal content, so two draws never share a table).  A new
    matrix drops the old table before its own is allocated, so at most one
    table is alive.
    """
    if _slot.source is not source:
        _slot.source = _slot.table = None
        _slot.table = MinorTable(source.n)
        _slot.source = source
    table = _slot.table
    while table.k_max < k:
        table.add_level(source.row(table.k_max))
    return table


@dataclass(frozen=True)
class PathStep:
    j: int  # level being extended (the new set has j+1 columns)
    chosen: int  # column index added
    rule: str  # "outside" | "protected" | "fallback"
    heavy: bool  # new set heavy at the threshold
    remaining: int  # columns still outside (block | current set)


@dataclass
class PathResult:
    protected: int  # block mask
    heavy_set: Optional[int]  # final set iff heavy and it covers all non-block columns
    steps: list[PathStep] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.heavy_set is not None


def _validate_block(n: int, k: int, protected: int, depth: int) -> None:
    if protected >> n:
        raise PreconditionError("protected block has bits outside the column range")
    if protected & ((1 << k) - 1):
        raise PreconditionError("protected block must avoid the first k columns")
    if protected.bit_count() != 2 * depth:
        raise PreconditionError(
            f"protected block must have exactly {2 * depth} columns, got {protected.bit_count()}"
        )


def _choose_extension(table: MinorTable, current: int, protected: int,
                      tint: int) -> tuple[int, str]:
    """Smallest eligible column, preferring heavy outside, then heavy in the
    block, then any column at all (ties broken by index for determinism)."""
    n = table.n
    outside = ((1 << n) - 1) & ~(protected | current)
    for i in bits_of(outside):
        if abs(table.value(current | (1 << i))) >= tint:
            return i, "outside"
    for i in bits_of(protected & ~current):
        if abs(table.value(current | (1 << i))) >= tint:
            return i, "protected"
    return bits_of(((1 << n) - 1) & ~current)[0], "fallback"


def _grow_sets(source: SignMatrix, k: int, blocks: list[int], depth: int, tint: int,
               steps: Optional[list[PathStep]] = None) -> tuple[MinorTable, list[int]]:
    """Grow the leading k-column set once per block, one column per exposed row.

    Rows k..n-depth-1 of source are exposed in turn, each extending the
    matrix's one table (`_table`); after each, every block's set gains the
    column `_choose_extension` picks.  With `steps` (single-block runs) each
    extension is recorded.  Returns the table and the final sets.
    """
    n = source.n
    table = _table(source, k)
    start = (1 << k) - 1
    if abs(table.value(start)) < tint:
        raise PreconditionError("the leading k-column set is not heavy at the threshold")
    current = [start] * len(blocks)
    for j in range(k, n - depth):
        table = _table(source, j + 1)
        for b, block in enumerate(blocks):
            i, rule = _choose_extension(table, current[b], block, tint)
            current[b] |= 1 << i
            if steps is not None:
                heavy = abs(table.value(current[b])) >= tint
                steps.append(PathStep(j=j, chosen=i, rule=rule, heavy=heavy,
                                      remaining=n - (block | current[b]).bit_count()))
    return table, current


def _heavy_cover(table: MinorTable, current: int, block: int, tint: int) -> Optional[int]:
    """The set if it contains every column outside the block and is heavy, else None."""
    covers = ((1 << table.n) - 1) & ~(block | current) == 0
    return current if covers and abs(table.value(current)) >= tint else None


def run_endgame_path(prefix: np.ndarray, protected: int, threshold, cfg: ProcessConfig,
                     source: SignMatrix) -> PathResult:
    """Grow the leading k-column set to size n-L, avoiding the protected block.

    Requires the set of the first k columns to be heavy at the threshold
    (callers relabel columns to arrange this) and a block of 2L columns
    drawn from outside the first k.  Further rows come from the matrix
    `source`, whose first k rows must be the prefix.  heavy_set is the
    final set when it is verified heavy and contains every non-block column,
    else None.
    """
    n, k = source.n, _exposed(prefix, source)
    depth = cfg.endgame_depth(n)
    if k > n - depth:
        raise PreconditionError(f"start level {k} is above the target level {n - depth}")
    _validate_block(n, k, protected, depth)
    tint = math.ceil(threshold)
    steps: list[PathStep] = []
    table, (final,) = _grow_sets(source, k, [protected], depth, tint, steps)
    return PathResult(protected=protected, heavy_set=_heavy_cover(table, final, protected, tint),
                      steps=steps)


@dataclass
class FamilyResult:
    blocks: list[int]
    members: list[int]  # heavy sets found, one per successful block
    per_block: list[Optional[int]] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return len(self.members) == len(self.blocks)


def find_disjoint_heavy_family(prefix: np.ndarray, threshold, count: int, L: int,
                               cfg: ProcessConfig, source: SignMatrix) -> FamilyResult:
    """Run `count` path constructions over disjoint blocks, sharing rows.

    Blocks are consecutive 2L-column slices of the non-leading columns.  All
    paths see the same exposed rows.  Returned members are re-verified heavy
    and their complements re-verified pairwise disjoint.  `cfg` is not read;
    it stays in the positional signature that the pilots and the endgame
    benchmark workload call.
    """
    n, k = source.n, _exposed(prefix, source)
    if count < 1:
        raise ValueError("count must be at least 1")
    if count * 2 * L > n - k:
        raise PreconditionError(
            f"need {count * 2 * L} block columns but only {n - k} lie outside the first {k}"
        )
    cols = list(range(k, n))
    blocks = [sum(1 << c for c in cols[2 * L * b : 2 * L * (b + 1)]) for b in range(count)]
    tint = math.ceil(threshold)
    table, current = _grow_sets(source, k, blocks, L, tint)
    per_block = [_heavy_cover(table, cur, block, tint) for cur, block in zip(current, blocks)]
    members = [m for m in per_block if m is not None]
    _verify_family(table, members, tint, n)
    return FamilyResult(blocks=blocks, members=members, per_block=per_block)


def _verify_family(table: MinorTable, members: list[int], tint: int, n: int) -> None:
    """Exact postcondition check: heavy members, pairwise-disjoint complements."""
    if any(abs(table.value(m)) < tint for m in members):
        raise AssertionError("family member failed the heaviness recheck")
    if not complements_disjoint(members, n):
        raise AssertionError("family complements are not pairwise disjoint")


def complements_disjoint(members, n: int) -> bool:
    union = 0
    total = 0
    for m in members:
        comp = ((1 << n) - 1) & ~int(m)
        union |= comp
        total += comp.bit_count()
    return union.bit_count() == total


@dataclass
class PropagateResult:
    children: list[int]  # one chosen child per input member
    kept: list[int]  # children heavy at the reduced threshold
    new_threshold: Fraction

    @property
    def retained_fraction(self) -> float:
        return len(self.kept) / len(self.children) if self.children else 0.0


def propagate_down(prefix: np.ndarray, members, threshold, cfg: ProcessConfig,
                   source: SignMatrix) -> PropagateResult:
    """Expose one row and push a complement-disjoint family up one level.

    Each member gets one child (smallest absent column); the new threshold
    is the old one divided by n.  Returns the children found heavy at the
    reduced threshold; their complements stay disjoint by construction and
    are re-verified.  `cfg` is not read; it stays in the positional
    signature that the pilots and the endgame benchmark workload call.
    """
    n, k = source.n, _exposed(prefix, source)
    members = [int(m) for m in members]
    if k >= n:
        raise ValueError("no next row: all rows exposed")
    for m in members:
        if m.bit_count() != k:
            raise ValueError("family members must sit at the exposed level")
    if not complements_disjoint(members, n):
        raise PreconditionError("family complements must be pairwise disjoint")

    table = _table(source, k + 1)
    new_threshold = Fraction(threshold) / n
    tint = math.ceil(new_threshold)

    children = []
    for m in members:
        missing = bits_of(((1 << n) - 1) & ~m)[0]
        children.append(m | (1 << missing))
    kept = [ch for ch in children if abs(table.value(ch)) >= tint]
    if not complements_disjoint(kept, n):
        raise AssertionError("kept children lost complement disjointness")
    return PropagateResult(children=children, kept=kept, new_threshold=new_threshold)


@dataclass(frozen=True)
class FinalRowResult:
    permanent: int
    heavy: bool


def final_row_heaviness(prefix: np.ndarray, threshold_final,
                        source: SignMatrix) -> FinalRowResult:
    """Expose the last row and close the full permanent via the cofactor step."""
    n, k = source.n, _exposed(prefix, source)
    if k != n - 1:
        raise ValueError(f"final-row step needs exactly n-1 = {n - 1} rows, got {k}")
    table = _table(source, k + 1)
    per = table.top_value()
    return FinalRowResult(permanent=per, heavy=abs(per) >= math.ceil(threshold_final))
