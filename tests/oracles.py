"""Independent brute-force oracles for the test suite.

Everything here is deliberately written the slow, obvious way (itertools
loops over permutations / sign assignments / subsets) so it shares no code
path with the engines it checks.  The one exception, `numpy_level_table`,
builds the whole minor lattice with numpy gathers, independently of the
compiled kernel that builds it in the program.  `subsets_of_size` walks the
masks of one level with Gosper's hack, independently of `masks_by_level`,
and `level_values` reads a built table's values at those masks straight
from its storage, independently of the compiled heaviness queries.
`enumerate_all_sign_matrices` builds the canonical counter order one matrix
at a time, independently of the exact checks' batch enumeration.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations, permutations, product
from typing import Iterator

import numpy as np

from permlab.matrices import SignMatrix

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


@functools.cache
def _gosper_masks(n: int, k: int) -> np.ndarray:
    masks = np.fromiter(subsets_of_size(n, k), dtype=np.int64)
    masks.flags.writeable = False
    return masks


def level_values(table, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The masks of level k <= 20 of a built MinorTable, ascending, and their
    minor permanents, gathered from the table's flat int64 storage."""
    if not 0 <= k <= min(table.k_max, 20):
        raise ValueError(f"level {k} is not a built int64 level (k_max={table.k_max})")
    masks = _gosper_masks(table.n, k)
    return masks, table._vals[masks]


def brute_heavy_sets(matrix, k: int, threshold) -> list[int]:
    """Masks of all size-k column sets whose minor permanent reaches threshold."""
    n = matrix.n
    out = []
    for cols in combinations(range(n), k):
        if abs(brute_minor_permanent(matrix, cols)) >= threshold:
            out.append(sum(1 << c for c in cols))
    return sorted(out)


def brute_parent_counts(family_masks, n: int) -> dict[int, int]:
    """child mask -> number of family members it extends by one column."""
    counts: dict[int, int] = {}
    for mask in family_masks:
        for i in range(n):
            if not (int(mask) >> i) & 1:
                child = int(mask) | (1 << i)
                counts[child] = counts.get(child, 0) + 1
    return counts


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
