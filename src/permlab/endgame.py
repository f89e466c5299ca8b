"""Endgame runs: carry heaviness from a mid-size minor to the full matrix.

Each stage takes the first k rows of a matrix (`SignMatrix.prefix(k)`) and
the matrix itself, builds the minor table of those rows and extends it one
exposed row of the matrix at a time:

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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .growth import ProcessConfig
from .lattice import MinorTable, build_lattice, threshold_int
from .matrices import SignMatrix
from .subsets import bits_of, full_mask, popcount


class PreconditionError(ValueError):
    """A documented run precondition does not hold for the given inputs."""


def _exposed(prefix: np.ndarray, source: SignMatrix) -> int:
    """Number k of prefix rows, checked to be the first k rows of source."""
    k = len(prefix)
    if not np.array_equal(source.entries[:k], prefix):
        raise ValueError("matrix row source disagrees with the prefix rows")
    return k


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
    if popcount(protected) != 2 * depth:
        raise PreconditionError(
            f"protected block must have exactly {2 * depth} columns, got {popcount(protected)}"
        )


def _choose_extension(table: MinorTable, current: int, protected: int,
                      tint: int) -> tuple[int, str]:
    """Smallest eligible column, preferring heavy outside, then heavy in the
    block, then any column at all (ties broken by index for determinism)."""
    n = table.n
    outside = full_mask(n) & ~(protected | current)
    for i in bits_of(outside):
        if abs(table.value(current | (1 << i))) >= tint:
            return i, "outside"
    for i in bits_of(protected & ~current):
        if abs(table.value(current | (1 << i))) >= tint:
            return i, "protected"
    return bits_of(full_mask(n) & ~current)[0], "fallback"


def _grow_sets(source: SignMatrix, k: int, blocks: list[int], depth: int, tint: int,
               steps: Optional[list[PathStep]] = None) -> tuple[MinorTable, list[int]]:
    """Grow the leading k-column set once per block, one column per exposed row.

    Rows k..n-depth-1 of source are exposed in turn; after each, every
    block's set gains the column `_choose_extension` picks.  With `steps`
    (single-block runs) each extension is recorded.  Returns the table and
    the final sets.
    """
    n = source.n
    table = build_lattice(source, k)
    start = (1 << k) - 1
    if abs(table.value(start)) < tint:
        raise PreconditionError("the leading k-column set is not heavy at the threshold")
    current = [start] * len(blocks)
    for j in range(k, n - depth):
        table.add_level(source.row(j))
        for b, block in enumerate(blocks):
            i, rule = _choose_extension(table, current[b], block, tint)
            current[b] |= 1 << i
            if steps is not None:
                heavy = abs(table.value(current[b])) >= tint
                steps.append(PathStep(j=j, chosen=i, rule=rule, heavy=heavy,
                                      remaining=n - popcount(block | current[b])))
    return table, current


def _heavy_cover(table: MinorTable, current: int, block: int, tint: int) -> Optional[int]:
    """The set if it contains every column outside the block and is heavy, else None."""
    covers = (full_mask(table.n) & ~block) & ~current == 0
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
    tint = threshold_int(threshold)
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
    and their complements re-verified pairwise disjoint.
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
    tint = threshold_int(threshold)
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
        comp = full_mask(n) & ~int(m)
        union |= comp
        total += popcount(comp)
    return popcount(union) == total


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
        if popcount(m) != k:
            raise ValueError("family members must sit at the exposed level")
    if not complements_disjoint(members, n):
        raise PreconditionError("family complements must be pairwise disjoint")

    table = build_lattice(source, k + 1)
    new_threshold = Fraction(threshold) / n
    tint = threshold_int(new_threshold)

    children = []
    for m in members:
        missing = bits_of(full_mask(n) & ~m)[0]
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
    table = build_lattice(source, k + 1)
    per = table.top_value()
    return FinalRowResult(permanent=per, heavy=abs(per) >= threshold_int(threshold_final))
