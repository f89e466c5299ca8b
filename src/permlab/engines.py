"""Exact permanent and determinant engines for sign matrices.

Every scalar result is a plain Python int, so arithmetic is exact and can
never overflow.  The batch and modular engines run Ryser's formula in the
compiled `ryser` kernel (`_kernels.c`), in int64 only under the bounds
stated there; they are cross-checked against the pure-Python engines in the
test suite.  On a (k+1) x k block the same kernel's one subset scan gives all
k+1 row-deleted permanents (`ryser_cofactors`), along which
`checks.check_many_children` expands every child of a parent.  The naive
engine's kernel, `naive_odd`, walks every permutation and shares no code with
the others, so it stays their ground truth.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import _kernels, build_lattice
from .matrices import CapError, SignMatrix

NAIVE_MAX_N = 10  # n! enumeration
RYSER_MAX_N = 30  # 2**n subset scan
# Exact Ryser accumulates |sum| <= 2**n * n**n, which fits int64 through n=13,
# and the cofactor scan of a 13 x 12 block at most 2**13 * 13**12.
_BATCH_MAX_N = 13
# The modular kernel keeps every residue below 2**31 (see _kernels.c).
_KERNEL_MAX_MODULUS = 1 << 31


def permanent_naive(m: SignMatrix) -> int:
    """Permanent as the defining sum over all n! permutations.

    For sign entries each permutation contributes +1 or -1, decided by the
    parity of the -1 entries it picks, so the sum is n! - 2 * (the number of
    odd permutations).  The compiled `naive_odd` counts them in one
    depth-first walk over the rows, which takes each row's -1 columns as a
    mask.  Ground-truth oracle for the other engines; capped at n <= 10.
    """
    n = m.n
    if n > NAIVE_MAX_N:
        raise CapError(f"permanent_naive is capped at n <= {NAIVE_MAX_N} (n! terms), got n={n}")
    neg = ((m.entries < 0) << np.arange(n, dtype=np.uint64)).sum(axis=1, dtype=np.uint64)
    return math.factorial(n) - 2 * _kernels().naive_odd(neg.ctypes.data, n)


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


def _ryser_blocks(blocks: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Run the exact `ryser` kernel on a (B, rows, cols) batch of sign blocks into `out`."""
    b, rows, cols = blocks.shape
    if not np.all(np.abs(blocks) == 1):
        raise ValueError("matrix entries must be -1 or +1")
    blocks = np.ascontiguousarray(blocks, dtype=np.int8)
    _kernels().ryser(blocks.ctypes.data, b, rows, cols, 0, out.ctypes.data)
    return out


def ryser_batch(mats: np.ndarray) -> np.ndarray:
    """Exact permanents for a batch of small sign matrices, in one kernel call.

    Input (B, n, n) with entries in {-1,+1}; returns (B,) int64.  Capped at
    n <= 13 so every intermediate provably fits int64.
    """
    mats = np.asarray(mats)
    b, n, n2 = mats.shape
    if n != n2:
        raise ValueError("matrices must be square")
    if n > _BATCH_MAX_N:
        raise CapError(f"ryser_batch is capped at n <= {_BATCH_MAX_N}, got n={n}")
    return _ryser_blocks(mats, np.empty(b, dtype=np.int64))


def ryser_cofactors(blocks: np.ndarray) -> np.ndarray:
    """Exact row-deleted permanents for a batch of (k+1) x k sign blocks, in one kernel call.

    Input (B, k+1, k) with entries in {-1,+1}; returns (B, k+1) int64 whose
    [b, r] entry is the permanent of block b without row r.  One subset scan
    of the block gives all k+1 of them.  By Laplace expansion along an added
    column c, Per([block b | c]) = sum over r of c[r] * out[b, r].  Capped at
    k+1 <= 13 rows, like ryser_batch.
    """
    blocks = np.asarray(blocks)
    b, rows, cols = blocks.shape
    if cols != rows - 1:
        raise ValueError(f"blocks must have one row more than columns, got {rows} x {cols}")
    if rows > _BATCH_MAX_N:
        raise CapError(f"ryser_cofactors is capped at {_BATCH_MAX_N} rows, got {rows}")
    return _ryser_blocks(blocks, np.empty((b, rows), dtype=np.int64))


def permanent_mod(m: SignMatrix, modulus: int) -> int:
    """Permanent residue in [0, modulus).

    For modulus < 2**31 the compiled Ryser kernel reduces every product mod
    `modulus`; a larger modulus reduces the exact permanent_ryser value.
    Neither path reads the minor lattice, so residues can check it.
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    n = m.n
    if n > RYSER_MAX_N:
        raise CapError(f"permanent_mod is capped at n <= {RYSER_MAX_N} (2**n subsets), got n={n}")
    if modulus < _KERNEL_MAX_MODULUS:
        out = np.empty(1, dtype=np.int64)
        _kernels().ryser(m.entries.ctypes.data, 1, n, n, modulus, out.ctypes.data)  # C-ordered int8
        return out.item()
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
