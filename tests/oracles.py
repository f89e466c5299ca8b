"""Independent brute-force oracles for the test suite.

Everything here is deliberately written the slow, obvious way (itertools
loops over permutations / sign assignments / subsets) so it shares no code
path with the engines it checks.  Two exceptions use numpy:
`numpy_level_table` builds the whole minor lattice with gathers,
independently of the compiled kernel that builds it in the program, and
`brute_parent_counts` counts each child's family parents from the child's
side, independently of the program's loop over the family's members.
`subsets_of_size` walks the masks of one level with Gosper's hack,
independently of `masks_by_level`; `arange_masks_by_level` groups every
mask by popcount with one numpy selection a level, the definition that
`masks_by_level` must reproduce in order; and `level_values` reads a built
table's values at those masks straight from its storage (through
`table_values`, which multiplies each level back by the power of two it is
stored divided by), independently of `MinorTable.value` and the heaviness
queries.
`enumerate_all_sign_matrices` builds the canonical counter order one matrix
at a time, independently of the exact checks' batch enumeration;
`all_sign_matrices` builds the same order as one array, and
`definition_permanents` sums a batch's permanents over all n! permutations,
one numpy product per permutation, independently of the naive engine's
walk.
`generator` is numpy's own Philox Generator on a stream's key, and
`numpy_sign_draw` its sign draw, which the compiled sign draws must
reproduce bit for bit; the program itself never calls numpy's Generator.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations, permutations, product
from typing import Iterator

import numpy as np

from permlab.matrices import SignMatrix
from permlab.rng import RngStream

ENUM_CELL_LIMIT = 20  # enumerate_all_sign_matrices walks 2**(n*n) matrices


def mask_of(cols) -> int:
    """The mask of a set of columns."""
    m = 0
    for c in cols:
        m |= 1 << c
    return m


def all_ones(n: int) -> SignMatrix:
    """The n x n all-ones matrix, whose permanent is n!."""
    return SignMatrix(np.ones((n, n), np.int8))


def brute_permanent(entries) -> int:
    """Sum over all permutations of the product of picked entries."""
    n = len(entries)
    return sum(
        math.prod(entries[i][sigma[i]] for i in range(n))
        for sigma in permutations(range(n))
    )


def matrix_from_counter(n: int, counter: int) -> SignMatrix:
    """Canonical counter order: entry (i, j) is +1 if bit i*n+j of the counter is set, else -1."""
    return SignMatrix([[1 if (counter >> (i * n + j)) & 1 else -1 for j in range(n)]
                       for i in range(n)])


def enumerate_all_sign_matrices(n: int) -> Iterator[SignMatrix]:
    """Every n x n sign matrix exactly once, in canonical counter order."""
    if n * n > ENUM_CELL_LIMIT:
        raise ValueError(f"enumeration is capped at n*n <= {ENUM_CELL_LIMIT} cells, got n={n}")
    for counter in range(1 << (n * n)):
        yield matrix_from_counter(n, counter)


def all_sign_matrices(n: int) -> np.ndarray:
    """Every n x n sign matrix as one (2**(n*n), n, n) int8 array, in
    canonical counter order (n*n <= 20)."""
    if n * n > ENUM_CELL_LIMIT:
        raise ValueError(f"enumeration is capped at n*n <= {ENUM_CELL_LIMIT} cells, got n={n}")
    counters = np.arange(1 << (n * n), dtype=np.int64)
    bits = counters[:, None] >> np.arange(n * n) & 1
    return (2 * bits - 1).astype(np.int8).reshape(-1, n, n)


def definition_permanents(mats) -> np.ndarray:
    """Permanents of a (B, n, n) batch as int64: the sum over all n!
    permutations sigma of the product of entries [i, sigma(i)], taken for
    the whole batch at once, one permutation at a time."""
    mats = np.asarray(mats, dtype=np.int64)
    n = mats.shape[1]
    total = np.zeros(len(mats), dtype=np.int64)
    for sigma in permutations(range(n)):
        total += mats[:, np.arange(n), sigma].prod(axis=1)
    return total


def generator(rng: RngStream) -> np.random.Generator:
    """numpy's Generator(Philox(key=[seed, stream])) at the start of rng's stream.

    The key is an explicit uint64 array: numpy would coerce a list through
    float64 above 2**63 and collapse adjacent streams.
    """
    key = np.array([rng.seed, rng.stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def numpy_sign_draw(seed: int, stream: int, shape) -> np.ndarray:
    """2 * generator(RngStream(seed, stream)).integers(0, 2, size=shape, dtype=int8) - 1."""
    return 2 * generator(RngStream(seed, stream)).integers(0, 2, size=shape, dtype=np.int8) - 1


def brute_determinant(entries) -> int:
    n = len(entries)
    total = 0
    for sigma in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if sigma[i] > sigma[j]
        )
        total += (-1) ** inversions * math.prod(entries[i][sigma[i]] for i in range(n))
    return total


def brute_minor_permanent(matrix, cols) -> int:
    """Permanent of the minor on the first len(cols) rows and the given columns."""
    cols = sorted(cols)
    sub = [[int(matrix.entries[r][c]) for c in cols] for r in range(len(cols))]
    return brute_permanent(sub)


def numpy_level_table(matrix) -> np.ndarray:
    """Flat int64 table of every minor permanent, indexed by column mask (n <= 20).

    Level k is the cofactor recursion over row k-1: one gather per column,
    added or subtracted by the sign of that row's entry.  For a mask without
    bit i the gather lands on level k+1, which is still all 0, so it adds
    nothing.  Every partial sum is bounded by k! <= 20! < 2**63.
    """
    entries = np.asarray(matrix.entries, dtype=np.int64)
    n = entries.shape[0]
    all_masks = np.arange(1 << n, dtype=np.int64)
    popc = np.bitwise_count(all_masks)
    table = np.zeros(1 << n, dtype=np.int64)
    table[0] = 1
    for k in range(1, n + 1):
        masks = all_masks[popc == k]
        acc = np.zeros(len(masks), dtype=np.int64)
        for i, sign in enumerate(entries[k - 1].tolist()):
            term = table[masks ^ (1 << i)]
            if sign > 0:
                acc += term
            else:
                acc -= term
        table[masks] = acc
    return table


def subsets_of_size(n: int, k: int) -> Iterator[int]:
    """All masks over n bits with exactly k bits set, ascending (Gosper's hack)."""
    if k == 0:
        yield 0
        return
    if k > n:
        return
    m = (1 << k) - 1
    top = 1 << n
    while m < top:
        yield m
        low = m & -m
        ripple = m + low
        m = ripple | (((m ^ ripple) >> 2) // low)


def arange_masks_by_level(n: int) -> tuple[np.ndarray, ...]:
    """Every mask over n bits, grouped by popcount with one selection a
    level; each level ascending."""
    all_masks = np.arange(1 << n, dtype=np.int64)
    popc = np.bitwise_count(all_masks)
    return tuple(all_masks[popc == k] for k in range(n + 1))


@functools.cache
def _gosper_masks(n: int, k: int) -> np.ndarray:
    masks = np.fromiter(subsets_of_size(n, k), dtype=np.int64)
    masks.flags.writeable = False
    return masks


# Level k of a MinorTable is stored divided by 2**(k - floor(log2 k) - 1),
# the power of two that divides every k x k sign permanent (Kräuter and
# Seifter, 1984).
_SCALES = np.array([k - k.bit_length() for k in range(64)], dtype=np.int64)


def table_values(table, masks=None) -> np.ndarray:
    """The minor permanents of a MinorTable at masks of levels <= 20 (default:
    every mask of a table of n <= 20, in mask order), read from its int64
    storage and multiplied back by each level's power of two; an unbuilt
    level reads 0."""
    masks = np.arange(1 << table.n, dtype=np.int64) if masks is None else np.asarray(masks)
    levels = np.bitwise_count(masks)
    if levels.max(initial=0) > 20:
        raise ValueError("a level past 20 does not fit int64 unscaled")
    return table._vals[masks] << _SCALES[levels]


def level_values(table, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The masks of level k <= 20 of a built MinorTable, ascending, and their
    minor permanents, gathered from the table's flat int64 storage; above
    level 20 the unscaled value no longer fits int64."""
    if not 0 <= k <= min(table.k_max, 20):
        raise ValueError(f"level {k} is not a built level <= 20 (k_max={table.k_max})")
    masks = _gosper_masks(table.n, k)
    return masks, table_values(table, masks)


def brute_heavy_sets(matrix, k: int, threshold) -> list[int]:
    """Masks of all size-k column sets whose minor permanent reaches threshold."""
    n = matrix.n
    out = []
    for cols in combinations(range(n), k):
        if abs(brute_minor_permanent(matrix, cols)) >= threshold:
            out.append(sum(1 << c for c in cols))
    return sorted(out)


def brute_parent_counts(family_masks, n: int) -> dict[int, int]:
    """child mask -> number of family members it extends by one column, for
    each child with at least one.

    Counted from the child's side: every set one larger than the members
    (all of one size k) looks each of its one-smaller subsets up in the
    family, one column at a time over all such sets at once.
    """
    family = np.array(sorted({int(mask) for mask in family_masks}), dtype=np.int64)
    if not len(family):
        return {}
    every = np.arange(1 << n, dtype=np.int64)
    children = every[np.bitwise_count(every) == int(family[0]).bit_count() + 1]
    parents = np.zeros(len(children), dtype=np.int64)
    for c in range(n):
        has = (children >> c & 1).astype(bool)
        parents[has] += np.isin(children[has] ^ (1 << c), family)
    found = parents > 0
    return dict(zip(children[found].tolist(), parents[found].tolist()))


def brute_signed_sums(v) -> list[float]:
    """All 2**m values of +-v_1 +- ... +- v_m."""
    return [sum(s * x for s, x in zip(signs, v)) for signs in product((1, -1), repeat=len(v))]


def brute_max_interval_count(sums, length) -> int:
    """Max number of sums inside any open interval of the given length."""
    s = sorted(sums)
    best = 0
    for a in s:
        best = max(best, sum(1 for x in s if a <= x < a + length))
    return best
