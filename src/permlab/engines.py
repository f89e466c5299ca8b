"""Exact permanent and determinant engines for sign matrices.

Every public result is a plain Python int, so arithmetic is exact and can
never overflow.  Vectorized int64 paths exist only where a proven bound
keeps all intermediates below 2**63; they are cross-checked against the
pure-Python engines in the test suite.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .lattice import build_lattice
from .matrices import CapError, SignMatrix

NAIVE_MAX_N = 10  # n! enumeration
RYSER_MAX_N = 30  # 2**n subset scan
# Batched Ryser accumulates |sum| <= 2**n * n**n, which fits int64 through n=13.
_BATCH_MAX_N = 13
# Vectorized modular path holds one 2**n work array per step.
_MOD_VECTOR_MAX_N = 20
_MOD_VECTOR_MAX_MODULUS = 1 << 31


@lru_cache(maxsize=3)
def _flat_permutation_table(n: int) -> np.ndarray:
    """All n! permutations sigma of range(n) as an (n, n!) uint8 array of r*n + sigma(r).

    Column p holds permutation p as flat indices into an n x n array (at
    most 99 for n <= 10); rows are contiguous, so a parity reduces over
    axis 0 one whole row at a time.
    """
    table = np.zeros((1, 1), dtype=np.int8)
    for k in range(2, n + 1):
        blocks = []
        for lead in range(k):
            rest = np.where(table >= lead, table + 1, table)
            lead_row = np.full((1, table.shape[1]), lead, dtype=np.int8)
            blocks.append(np.vstack([lead_row, rest]))
        table = np.hstack(blocks)
    table += np.arange(0, n * n, n, dtype=np.int8)[:, None]
    return table.view(np.uint8)


def permanent_naive(m: SignMatrix) -> int:
    """Permanent as the defining sum over all n! permutations.

    For sign entries each permutation contributes +1 or -1, decided by the
    parity of the -1 entries it picks, so the sum reduces to a parity count
    over the full permutation table.  Ground-truth oracle for the other
    engines; capped at n <= 10.
    """
    n = m.n
    if n > NAIVE_MAX_N:
        raise CapError(f"permanent_naive is capped at n <= {NAIVE_MAX_N} (n! terms), got n={n}")
    neg = (m.entries < 0).astype(np.uint8).reshape(-1)
    picks = neg[_flat_permutation_table(n)]
    odd = int(np.count_nonzero(np.bitwise_xor.reduce(picks, axis=0)))
    return math.factorial(n) - 2 * odd


def permanent_ryser(m: SignMatrix) -> int:
    """Permanent by the inclusion-exclusion subset scan with Gray-code updates.

    Each step toggles one column in the current subset, updates the per-row
    partial sums, and accumulates the signed product.  O(2**n * n) time,
    exact Python ints throughout.
    """
    n = m.n
    if n > RYSER_MAX_N:
        raise CapError(f"permanent_ryser is capped at n <= {RYSER_MAX_N} (2**n subsets), got n={n}")
    cols = [[int(m.entries[r, j]) for r in range(n)] for j in range(n)]
    partial = [0] * n
    gray = 0
    size = 0
    total = 0
    for step in range(1, 1 << n):
        j = (step & -step).bit_length() - 1
        bit = 1 << j
        gray ^= bit
        col = cols[j]
        if gray & bit:
            size += 1
            for r in range(n):
                partial[r] += col[r]
        else:
            size -= 1
            for r in range(n):
                partial[r] -= col[r]
        prod = math.prod(partial)
        if prod:
            total += prod if ((n - size) & 1) == 0 else -prod
    return total


def _subset_sum_products(mats: np.ndarray, reduce_mod: int | None = None) -> np.ndarray:
    """(B, n, n) -> (B, 2**n) products over rows of subset column sums."""
    b, n, _ = mats.shape
    prods = np.ones((b, 1 << n), dtype=np.int64)
    for r in range(n):
        sums = np.zeros((b, 1), dtype=np.int64)
        for j in range(n):
            sums = np.concatenate([sums, sums + mats[:, r, j : j + 1]], axis=1)
        if reduce_mod is not None:
            prods = (prods * (sums % reduce_mod)) % reduce_mod
        else:
            prods *= sums
    return prods


def _ryser_sign_vector(n: int) -> np.ndarray:
    """(-1)**(n - |S|) for every subset mask S of n columns."""
    sizes = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)
    return np.where((n - sizes) % 2 == 0, 1, -1).astype(np.int64)


def ryser_batch(mats: np.ndarray) -> np.ndarray:
    """Exact permanents for a batch of small sign matrices, vectorized.

    Input (B, n, n) with entries in {-1,+1}; returns (B,) int64.  Capped at
    n <= 13 so every intermediate provably fits int64.
    """
    mats = np.asarray(mats, dtype=np.int64)
    b, n, n2 = mats.shape
    if n != n2:
        raise ValueError("matrices must be square")
    if n > _BATCH_MAX_N:
        raise CapError(f"ryser_batch is capped at n <= {_BATCH_MAX_N}, got n={n}")
    if n == 0:
        return np.ones(b, dtype=np.int64)
    sign = _ryser_sign_vector(n)
    out = np.empty(b, dtype=np.int64)
    chunk = max(1, (1 << 23) // (1 << n))
    for lo in range(0, b, chunk):
        prods = _subset_sum_products(mats[lo : lo + chunk])
        out[lo : lo + chunk] = prods @ sign
    return out


def permanent_mod(m: SignMatrix, modulus: int) -> int:
    """Permanent residue in [0, modulus).

    Within the int64 bound (n <= 20, modulus < 2**31) a vectorized
    subset-sum table reduces every product mod `modulus`.  Outside it the
    exact permanent_ryser value is reduced, which keeps every residue
    independent of the minor lattice.
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    n = m.n
    if n > RYSER_MAX_N:
        raise CapError(f"permanent_mod is capped at n <= {RYSER_MAX_N} (2**n subsets), got n={n}")
    if n <= _MOD_VECTOR_MAX_N and modulus < _MOD_VECTOR_MAX_MODULUS:
        prods = _subset_sum_products(m.entries[None, :, :].astype(np.int64), reduce_mod=modulus)[0]
        sign = _ryser_sign_vector(n)
        # Residues are in [0, modulus); 2**n of them stay below 2**63 here.
        total = int(np.where(sign > 0, prods, (-prods) % modulus).sum(dtype=np.int64))
        return total % modulus
    return permanent_ryser(m) % modulus


def permanent(m: SignMatrix) -> int:
    """Exact permanent of the full matrix: the top value of its minor lattice.

    The one entry point for callers that need the permanent itself; the
    other engines serve as test oracles, batches and residues.  Capped at
    n <= lattice.LATTICE_MAX_N = 22 by the lattice's 2**n table.
    """
    return build_lattice(m).top_value()


def determinant_exact(m: SignMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination over Python ints."""
    n = m.n
    a = [[int(v) for v in row] for row in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]
