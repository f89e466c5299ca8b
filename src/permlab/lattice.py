"""Exact permanents of every minor, organized as a subset lattice.

Level k of the table holds, for every size-k column set A, the permanent of
the minor on the first k rows and the columns A.  Levels are linked by the
cofactor recursion over the newly exposed row:

    value(A) = sum over i in A of  row_k[i] * value(A minus {i}),   |A| = k.

A level-k value is bounded by k!, and 20! < 2**63, so levels up to 20 live
in one flat int64 array indexed by mask; the handful of subsets on higher
levels (n = 21, 22) are kept as Python ints.  Heaviness thresholds compare
an integer |value| against a real threshold, which is exact after rounding
the threshold up to the next integer.  Both queries, heavy_count and
heavy_masks, read the same list of heavy masks of the level.
parent_histogram returns, for a family of size-k sets, the plain
length-(n+1) array of how many children have exactly l family parents;
split_events reads n and the low-multiplicity mass from that array.

The int64 levels and both queries on them run in C, in `_kernels.c`:
`add_level` takes the row's n int8 entries, refuses any but -1 and +1
before it writes, and, for each mask of the level, sums the values one
level down over the mask's +1 columns and subtracts the sum over its -1
columns; `select_heavy` writes a level's heavy masks in one branchless
pass, or only counts them; `parent_histogram` counts each child's family
parents in a 2**n-byte scratch array that the table keeps and the kernel
leaves zeroed.  That file also holds the engines' kernels: Glynn's
formula, which gives every exact square permanent through n = 30
(`engines.permanent`, `permanents`, `ryser_batch`); the Ryser kernel,
which scans the row subsets of a square matrix for the modular engine or
of a (k+1) x k block for its k+1 row-deleted cofactors
(`engines.ryser_cofactors`, read by `checks.check_many_children`); and the
permutation walk of the naive engine.  It is compiled with gcc on
first use into a per-user cache, $XDG_CACHE_HOME/permlab (default
~/.cache/permlab), under a name that carries the SHA-256 of the source and
the compiler flags, and loaded with ctypes; a missing gcc, a failed
compile or an unwritable cache is an OSError that names the compiler or the
path.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import hashlib
import math
import os
import subprocess
import tempfile
from enum import Enum
from pathlib import Path

import numpy as np

from .matrices import CapError, SignMatrix
from .subsets import bits_of, masks_by_level

LATTICE_MAX_N = 22  # a 2**n table: 26 * 2**22 bytes ~ 109 MB at its build peak
_INT64_LEVEL_MAX = 20
_INT64_MAX = 2**63 - 1
DUMP_MAX_N = 12
_KERNEL_SOURCE = Path(__file__).with_name("_kernels.c")
_KERNEL_CC = ("gcc", "-O2", "-shared", "-fPIC")


@functools.cache
def _kernels() -> ctypes.CDLL:
    """The compiled kernels, compiled once per cache and loaded once per process.

    The library is compiled under a temporary name in the cache directory and
    renamed into place, so processes that race to build it all end up loading
    one complete file.  Kernels take raw addresses of C-contiguous arrays
    (ndpointer's checks cost more than a small level's work), and an address
    handed to a kernel comes from a name bound in the calling frame: in
    `f(np.ascontiguousarray(x).ctypes.data)` a copy is freed before f runs.
    """
    source = _KERNEL_SOURCE.read_bytes()
    digest = hashlib.sha256(source + " ".join(_KERNEL_CC).encode()).hexdigest()
    cache = Path(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")) / "permlab"
    lib = cache / f"_kernels-{digest}.so"
    if not lib.exists():
        try:
            cache.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=cache, prefix=".kernels-", suffix=".tmp")
        except OSError as exc:
            raise OSError(f"cannot write the kernel cache {cache}: {exc}") from None
        os.close(fd)
        try:
            subprocess.run([*_KERNEL_CC, "-x", "c", "-", "-o", tmp],
                           input=source, capture_output=True, check=True)
        except FileNotFoundError:
            raise OSError(f"the permlab kernels need the C compiler {_KERNEL_CC[0]},"
                          " which is not on PATH") from None
        except subprocess.CalledProcessError as exc:
            raise OSError(f"{_KERNEL_CC[0]} failed to compile {_KERNEL_SOURCE}:"
                          f" {exc.stderr.decode(errors='replace').strip()}") from None
        else:
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    kernels = ctypes.CDLL(str(lib))
    addr, i64 = ctypes.c_void_p, ctypes.c_int64
    kernels.add_level.argtypes = [addr, addr, i64, addr, i64]
    kernels.select_heavy.argtypes = [addr, addr, i64, i64, addr]
    kernels.parent_histogram.argtypes = [addr, i64, i64, i64, addr, addr]
    kernels.ryser.argtypes = [addr, i64, i64, i64, i64, addr]
    kernels.glynn.argtypes = [addr, i64, i64, addr]
    kernels.naive_odd.argtypes = [addr, i64]
    kernels.ryser.restype = kernels.glynn.restype = None
    kernels.add_level.restype = kernels.select_heavy.restype = i64
    kernels.parent_histogram.restype = kernels.naive_odd.restype = i64
    return kernels


@functools.lru_cache(maxsize=4)
def _level_masks(n: int) -> tuple[tuple[np.ndarray, ...], tuple[int, ...]]:
    """masks_by_level(n) and the kernel address of each level's array, cached
    together once per n, so an address lives exactly as long as its array."""
    levels = masks_by_level(n)
    return levels, tuple(masks.ctypes.data for masks in levels)


def _physical_memory_bytes() -> int | None:
    """Installed physical memory, or None where the OS does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


class MinorTable:
    """Minor permanents for all column subsets up to a completed level."""

    def __init__(self, n: int):
        if n > LATTICE_MAX_N:
            raise CapError(f"minor lattice is capped at n <= {LATTICE_MAX_N} (2**n table), got n={n}")
        # Peak bytes per mask: the int64 table (8) and, while masks_by_level
        # builds, its full arange (8), its per-level copies (8), the popcount
        # array (1) and the level selector (1).
        need = 26 << n
        have = _physical_memory_bytes()
        if have is not None and need > have:
            raise CapError(
                f"minor lattice at n={n} needs about {need / 2**30:.1f} GiB"
                f" ({need} bytes, 26 * 2**n), more than the {have} bytes of physical memory"
            )
        self.n = n
        self.k_max = 0
        self._vals = np.zeros(1 << n, dtype=np.int64)
        self._vals[0] = 1  # empty minor
        self._big: dict[int, int] = {}
        self._row = np.empty(n, dtype=np.int8)  # add_level's copy of its row
        # Kernel arguments that the table holds, so they outlive every call
        # (see _kernels); each is C-contiguous by construction.
        self._levels, self._levels_at = _level_masks(n)
        self._vals_at, self._row_at = self._vals.ctypes.data, self._row.ctypes.data

    def add_level(self, row: np.ndarray) -> None:
        """Complete level k_max+1 from the next exposed row."""
        k = self.k_max + 1
        if k > self.n:
            raise ValueError("all levels already built")
        row = np.asarray(row).reshape(-1)
        if len(row) != self.n:
            raise ValueError(f"row has {len(row)} entries, expected {self.n}")
        # The kernel checks an int8 row (and above level 20 only checks it); a
        # wider one is checked before the cast, which would wrap 257 to 1.
        if row.dtype != np.int8 and not ((row == 1) | (row == -1)).all():
            raise ValueError("row entries must be -1 or +1")
        self._row[:] = row
        masks, big = self._levels[k], k > _INT64_LEVEL_MAX
        count = 0 if big else len(masks)
        if _kernels().add_level(self._vals_at, self._levels_at[k], count, self._row_at, self.n):
            raise ValueError("row entries must be -1 or +1")
        if big:
            for mask in masks.tolist():
                total = 0
                for i in bits_of(mask):
                    total += int(row[i]) * self.value(mask ^ (1 << i))
                self._big[mask] = total
        self.k_max = k

    def value(self, mask: int) -> int:
        """Exact permanent of the minor indexed by this column mask."""
        mask = int(mask)
        if mask < 0 or mask >> self.n:
            raise ValueError(f"mask {mask} is outside [0, 2**{self.n})")
        level = mask.bit_count()
        if level > self.k_max:
            raise ValueError(f"level {level} not built (k_max={self.k_max})")
        if level > _INT64_LEVEL_MAX:
            return self._big[mask]
        return self._vals.item(mask)

    def level_masks(self, k: int) -> np.ndarray:
        return self._levels[k]

    def _heavy(self, k: int, threshold, keep: bool = True):
        """Masks of level k whose |value| reaches the threshold, ascending;
        only their number unless keep.

        Every heaviness query goes through here.  The int64 levels are read
        by the compiled select_heavy, with the threshold clamped to
        [0, 2**63 - 1] first, because ctypes would silently truncate a larger
        int (|value| <= 20! < 2**63 - 1, so the clamp changes no answer);
        the Python-int levels compare in Python.
        """
        if not 0 <= k <= self.k_max:
            raise ValueError(f"level {k} not built (k_max={self.k_max})")
        masks = self._levels[k]
        t = math.ceil(threshold)  # exact, and a Python int, for int, numpy int, float and Fraction
        if k > _INT64_LEVEL_MAX:
            heavy = masks[np.array([abs(self._big[m]) >= t for m in masks.tolist()], dtype=bool)]
            return heavy if keep else len(heavy)
        out = np.empty_like(masks) if keep else None
        count = _kernels().select_heavy(self._vals_at, self._levels_at[k], len(masks),
                                        min(max(t, 0), _INT64_MAX), out.ctypes.data if keep else None)
        return out[:count] if keep else count

    def heavy_count(self, k: int, threshold) -> int:
        """Number of size-k column sets whose |value| reaches the threshold."""
        return self._heavy(k, threshold, keep=False)

    def heavy_masks(self, k: int, threshold) -> np.ndarray:
        """Masks of the heavy size-k sets, ascending."""
        return self._heavy(k, threshold)

    @functools.cached_property
    def _scratch_at(self) -> int:
        """parent_histogram's 2**n bytes, made on first use; its kernel leaves
        them zero, so two calls on one table must not overlap."""
        self._scratch = np.zeros(1 << self.n, dtype=np.uint8)
        return self._scratch.ctypes.data

    def top_value(self) -> int:
        """Permanent of the full matrix; requires all levels built."""
        if self.k_max != self.n:
            raise ValueError("table incomplete; top value needs k_max = n")
        return self.value((1 << self.n) - 1)


def build_lattice(matrix: SignMatrix, k_max: int | None = None) -> MinorTable:
    """Build the minor table through level k_max (default n) from the first rows."""
    if k_max is None:
        k_max = matrix.n
    if k_max > matrix.n:
        raise ValueError(f"k_max={k_max} exceeds the {matrix.n} rows")
    table = MinorTable(matrix.n)
    for j in range(k_max):
        table.add_level(matrix.row(j))
    return table


def parent_histogram(table: MinorTable, k: int, members) -> np.ndarray:
    """counts[l] = number of size-(k+1) sets with exactly l parents in a
    family of distinct size-k column sets (masks); length n+1.

    A parent of A' is any A = A' minus one element that belongs to the
    family; counts[0] stays 0 (children with no family parent are not
    tracked).  Counted by the compiled parent_histogram over the table's
    2**n-byte scratch array; a member outside [0, 2**n), not of size k, or
    repeated is a ValueError.
    """
    n = table.n
    if k + 1 > n:
        raise ValueError("family is at the top level; no children exist")
    try:
        members = np.ascontiguousarray(members, dtype=np.int64).reshape(-1)
    except OverflowError:
        raise ValueError(f"family members must be masks in [0, 2**{n})") from None
    counts = np.zeros(n + 1, dtype=np.int64)
    bad = _kernels().parent_histogram(members.ctypes.data, len(members), n, k,
                                      table._scratch_at, counts.ctypes.data)
    if bad:
        mask = int(members[bad - 1])
        if mask < 0 or mask >> n:
            raise ValueError(f"family member {mask} is outside [0, 2**{n})")
        if mask.bit_count() != k:
            raise ValueError(f"family member {mask} is not a size-{k} set")
        raise ValueError(f"family member {mask} is repeated")
    return counts


class SplitVerdict(Enum):
    """Which side of the parent-count dichotomy a histogram falls on."""

    PRIME = "prime"  # mass concentrated on children with few parents
    DOUBLE_PRIME = "double_prime"  # mass on children with many parents


def split_cut(n: int, eps: float, c: float) -> int:
    """Parent-count cutoff K = floor((eps/8) * n**(1-c)), clamped to >= 1.

    At bench sizes the unclamped value is 0 for natural (eps, c); the clamp
    keeps the dichotomy meaningful and is reported as-is in traces.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if not 0 < c < 1:
        raise ValueError(f"c must be in (0, 1), got {c}")
    return max(1, math.floor((eps / 8.0) * n ** (1.0 - c)))


def split_events(counts: np.ndarray, eps: float, c: float, family_size: int) -> SplitVerdict:
    """Decide the dichotomy on a parent_histogram: PRIME iff the
    low-multiplicity mass is large.

    n is len(counts) - 1.  PRIME means counts[1..K] >= eps*n*N / (2K);
    otherwise DOUBLE_PRIME.
    When every family member has at least eps*n children, at least one side
    always holds, so a verdict is always returned.
    """
    n = len(counts) - 1
    cut = split_cut(n, eps, c)
    low_mass = int(counts[1 : cut + 1].sum())
    # Exact comparison in integers: eps enters as its binary-float value.
    num, den = eps.as_integer_ratio()
    prime = low_mass * den * 2 * cut >= num * n * family_size
    return SplitVerdict.PRIME if prime else SplitVerdict.DOUBLE_PRIME


def dump_lattice_csv(table: MinorTable, path) -> None:
    """Write (mask, level, value) rows for every built subset; n <= 12 only."""
    if table.n > DUMP_MAX_N:
        raise CapError(f"lattice dump is capped at n <= {DUMP_MAX_N}, got n={table.n}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mask", "level", "value"])
        for k in range(table.k_max + 1):
            for mask in table.level_masks(k):
                writer.writerow([int(mask), k, table.value(int(mask))])
