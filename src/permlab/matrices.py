"""Sign matrices, seeded sampling, and the text fixture format.

A sign matrix is an n x n array with entries in {-1, +1}.  Its first k rows
(`SignMatrix.prefix(k)`) are a read-only k x n array; the minor lattice and
the growth and endgame runs expose the rows of one matrix one at a time.

Every seeded draw runs in the compiled `sign_draws` kernel (`_kernels.c`):
stream (seed, stream) draws bit for bit what numpy's
`Generator(Philox(key=[seed, stream])).integers(0, 2, dtype=int8)` gives,
times 2, minus 1; a shorter draw is a prefix of a longer one.  That
Generator is only the tests' oracle (`tests/oracles.py`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compiled import _kernels
from .rng import RngStream

MAX_N = 63  # column sets must fit a single machine word


class CapError(ValueError):
    """A documented size cap was exceeded."""


def _check_dimension(n: int) -> None:
    if not 1 <= n <= MAX_N:
        raise ValueError(f"dimension must be in 1..{MAX_N}, got {n}")


@dataclass(frozen=True, eq=False)
class SignMatrix:
    """Immutable n x n matrix with entries in {-1, +1}."""

    entries: np.ndarray

    def __init__(self, entries) -> None:
        arr = np.asarray(entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("entries must be a square 2-d array")
        _check_dimension(arr.shape[0])
        # checked before the int8 cast, which would wrap e.g. 257 to 1
        if not ((arr == 1) | (arr == -1)).all():
            raise ValueError("entries must be -1 or +1")
        # a C-ordered int8 copy: the compiled kernels read it row by row
        arr = np.array(arr, dtype=np.int8, order="C")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def row(self, i: int) -> np.ndarray:
        return self.entries[i]

    def prefix(self, k: int) -> np.ndarray:
        """First k rows, a read-only k x n view."""
        if not 0 <= k <= self.n:
            raise ValueError(f"prefix length must be in 0..{self.n}")
        return self.entries[:k]

    def __eq__(self, other) -> bool:
        return isinstance(other, SignMatrix) and np.array_equal(self.entries, other.entries)

    def __hash__(self) -> int:
        return hash((self.n, self.entries.tobytes()))

    def __repr__(self) -> str:
        return f"SignMatrix(n={self.n})"


def _sign_draws(cells: int, keys: np.ndarray) -> np.ndarray:
    """A (len(keys), cells) int8 array of iid uniform signs, row b drawn from
    the uint64 (seed, stream) key keys[b]."""
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    out = np.empty((len(keys), cells), dtype=np.int8)
    _kernels().sign_draws(keys.ctypes.data, len(keys), cells, out.ctypes.data)
    return out


def sample_row(n: int, rng: RngStream) -> np.ndarray:
    """One row of n iid uniform signs."""
    _check_dimension(n)
    return _sign_draws(n, [(rng.seed, rng.stream)])[0]


def sample_sign_matrix(n: int, rng: RngStream) -> SignMatrix:
    """An n x n matrix of iid uniform signs, drawn row-major."""
    _check_dimension(n)
    return SignMatrix(_sign_draws(n * n, [(rng.seed, rng.stream)]).reshape(n, n))


def sample_sign_matrices(n: int, rng: RngStream, trials, rows: int | None = None) -> np.ndarray:
    """A (len(trials), rows, n) int8 array, in one kernel call: entry b is the
    first `rows` (default n) rows of sample_sign_matrix(n, rng.substream(trials[b]))."""
    _check_dimension(n)
    rows = rows or n
    return _sign_draws(rows * n, rng.substream_keys(trials)).reshape(-1, rows, n)


# Text fixture format: first line is n, then n lines of n space-separated
# entries; "1", "+1" and "-1" are accepted on input, "1"/"-1" are printed.

def to_text(m: SignMatrix) -> str:
    lines = [str(m.n)]
    for i in range(m.n):
        lines.append(" ".join(str(int(v)) for v in m.row(i)))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> SignMatrix:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise ValueError(f"first line must be the dimension, got {lines[0]!r}") from None
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows after the dimension line, got {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        vals = []
        for tok in ln.split():
            if tok in ("1", "+1"):
                vals.append(1)
            elif tok == "-1":
                vals.append(-1)
            else:
                raise ValueError(f"bad entry {tok!r}; expected 1, +1 or -1")
        rows.append(vals)
    return SignMatrix(rows)
