"""Exact permanent and determinant engines for sign matrices.

Every scalar result is a plain Python int, so arithmetic is exact and can
never overflow.  Every exact square permanent the program reads, from
`permanent`, `permanents` and `ryser_batch`, comes from one compiled kernel,
`glynn` (`_kernels.c`), which runs Glynn's formula in wrapping arithmetic
that is exact under the bounds stated there, for every n <= 30.  The `ryser`
kernel keeps two sweeps that share no code with it: the modular one behind
`permanent_mod`, whose residues are the CRT oracle for `glynn` and the
lattice, and, on a (k+1) x k block, the one subset scan that gives all k+1
row-deleted permanents (`ryser_cofactors`), along which
`checks.check_many_children` expands every child of a parent.  The naive
engine's kernel, `naive_odd`, walks every permutation and shares no code
with the others, so it stays their ground truth, with the pure-Python
`permanent_ryser`.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import _kernels
from .matrices import CapError, SignMatrix

NAIVE_MAX_N = 10  # n! enumeration
RYSER_MAX_N = 30  # 2**n subset scan
PERMANENT_MAX_N = 30  # the glynn kernel's stated bound (see _kernels.c)
# ryser_batch returns int64, and the cofactor scan of a 13 x 12 block sums
# at most 2**13 * 13**12 < 2**63.
_BATCH_MAX_N = 13
_WORD = 2**64 - 1
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


def _sign_entries(mats: np.ndarray) -> np.ndarray:
    """A batch of sign blocks as the C-ordered int8 array the kernels read."""
    if not np.all(np.abs(mats) == 1):
        raise ValueError("matrix entries must be -1 or +1")
    return np.ascontiguousarray(mats, dtype=np.int8)


def _glynn(mats: np.ndarray) -> np.ndarray:
    """The `glynn` kernel's (B, 2) int64 low and high words of the
    permanents of a (B, n, n) batch of sign matrices, n != 29 (see permanents)."""
    mats = np.asarray(mats)
    b, n, n2 = mats.shape
    if n != n2:
        raise ValueError("matrices must be square")
    if n > PERMANENT_MAX_N:
        raise CapError(f"permanent is capped at n <= {PERMANENT_MAX_N}"
                       f" (2**(n-1) sign vectors), got n={n}")
    mats = _sign_entries(mats)
    out = np.empty((b, 2), dtype=np.int64)
    _kernels().glynn(mats.ctypes.data, b, n, out.ctypes.data)
    return out


def permanents(mats: np.ndarray) -> list[int]:
    """Exact permanents of a (B, n, n) batch of sign matrices, in one kernel call.

    Python ints, since they pass int64 above n = 20; n <= 30.  At n = 29, past
    the kernel's 128-bit total, each A is bordered to 30 x 30 by a last row and
    column of +1 with corner +1 or -1: the two permanents differ by 2 Per(A).
    """
    mats = np.asarray(mats)
    if mats.shape[1:] == (29, 29):
        bordered = np.ones((len(mats), 2, 30, 30), dtype=np.result_type(mats, np.int8))
        bordered[:, :, :29, :29] = mats[:, None]
        bordered[:, 1, 29, 29] = -1
        pers = permanents(bordered.reshape(-1, 30, 30))
        return [(plus - minus) // 2 for plus, minus in zip(pers[::2], pers[1::2])]
    return [hi << 64 | lo & _WORD for lo, hi in _glynn(mats).tolist()]


def ryser_batch(mats: np.ndarray) -> np.ndarray:
    """Exact permanents for a batch of small sign matrices, in one `glynn` call.

    Input (B, n, n) with entries in {-1,+1}; returns (B,) int64.  Capped at
    n <= 13, where |Per| <= 13!, so the kernel's low word is the permanent.
    (The name predates the kernel, which runs Glynn's formula, not Ryser's.)
    """
    n = np.shape(mats)[1]
    if n > _BATCH_MAX_N:
        raise CapError(f"ryser_batch is capped at n <= {_BATCH_MAX_N}, got n={n}")
    return _glynn(mats)[:, 0].copy()


def ryser_cofactors(blocks: np.ndarray) -> np.ndarray:
    """Exact row-deleted permanents for a batch of (k+1) x k sign blocks, in one kernel call.

    Input (B, k+1, k) with entries in {-1,+1}; returns (B, k+1) int64 whose
    [b, r] entry is the permanent of block b without row r.  One subset scan
    of the block gives all k+1 of them.  By Laplace expansion along an added
    column c, Per([block b | c]) = sum over r of c[r] * out[b, r].  Capped at
    k+1 <= 13 rows.
    """
    blocks = np.asarray(blocks)
    b, rows, cols = blocks.shape
    if cols != rows - 1:
        raise ValueError(f"blocks must have one row more than columns, got {rows} x {cols}")
    if rows > _BATCH_MAX_N:
        raise CapError(f"ryser_cofactors is capped at {_BATCH_MAX_N} rows, got {rows}")
    blocks = _sign_entries(blocks)  # bound here, so the copy outlives the call
    out = np.empty((b, rows), dtype=np.int64)
    _kernels().ryser(blocks.ctypes.data, b, rows, cols, 0, out.ctypes.data)
    return out


def permanent_mod(m: SignMatrix, modulus: int) -> int:
    """Permanent residue in [0, modulus), for 2 <= modulus < 2**31.

    The compiled Ryser kernel reduces every product mod `modulus`.  It reads
    neither the minor lattice nor the `glynn` kernel, so residues can check
    both: their CRT over primes whose product passes 2 n! is the permanent.
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if modulus >= _KERNEL_MAX_MODULUS:
        raise ValueError(f"permanent_mod takes a modulus below 2**31, got {modulus}")
    n = m.n
    if n > RYSER_MAX_N:
        raise CapError(f"permanent_mod is capped at n <= {RYSER_MAX_N} (2**n subsets), got n={n}")
    out = np.empty(1, dtype=np.int64)
    _kernels().ryser(m.entries.ctypes.data, 1, n, n, modulus, out.ctypes.data)  # C-ordered int8
    return out.item()


def permanent(m: SignMatrix) -> int:
    """Exact permanent of the full matrix, from the compiled `glynn` kernel.

    The one entry point for callers that need the permanent itself; the
    other engines serve as test oracles, batches and residues; n <= 30.
    """
    return permanents(m.entries[None])[0]


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
