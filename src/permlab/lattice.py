"""Exact permanents of every minor, organized as a subset lattice.

Level k of the table holds, for every size-k column set A, the permanent of
the minor on the first k rows and the columns A.  Levels are linked by the
cofactor recursion over the newly exposed row:

    value(A) = sum over i in A of  row_k[i] * value(A minus {i}),   |A| = k.

Every k x k sign matrix has a permanent divisible by 2**s_k, with
s_k = k - floor(log2 k) - 1 = k - k.bit_length() (Kräuter and Seifter,
1984), so level k is stored divided by 2**s_k (_SCALE[k]): a stored value is at
most k! / 2**s_k, and the kernel's sums before the division at most
k! / 2**s_(k-1).  Both are below 2**31 through k = 15 (638,512,875 and
1,277,025,750 at k = 15) and below 2**63 through k = 24, past
LATTICE_MAX_N, so every level sits in one buffer at the narrowest width its
bound allows: a level k <= 15 value of mask m is an int32 at byte 4 m
(_vals32[m]), a level k >= 16 value an int64 at byte 8 m (_vals[m]).  The
int64 slot of m covers the int32 slots of 2 m and 2 m + 1, whose popcounts
are at least popcount(m) >= 16, so no int32 level is stored there: an int64
write never overwrites a live int32 value, an int64 read never reads one,
and nothing is widened.  The buffer is 4 * 2**n bytes for n <= 15 and
8 * 2**n past it.  value() is the one place that multiplies a stored value
back.  The masks
of each level are one ascending uint32 array (masks_by_level, built by
doubling and cached per n; 2**22 - 1 fits 32 bits), which the kernel walks;
the heavy masks that the queries and add_heavy_level return are int64.
Heaviness thresholds compare an integer |value| against a real threshold,
which is exact after dividing the threshold by 2**s_k and rounding it up to
the next integer (_threshold_at, the one rounding), so a stored |value| is
compared with a threshold scaled like it, and clamped to the level's width.
add_heavy_level builds a level and selects its heavy masks at one threshold
in the same pass; the queries of a built level, heavy_count and
heavy_masks, read its values with numpy.
parent_histogram returns, for a family of size-k sets, the plain
length-(n+1) array of how many children have exactly l family parents,
counted member by member in Python over each member's n - k free columns;
split_events reads n and the low-multiplicity mass from that array.

The build of every level runs in C, in `_kernels.c`: `add_level` takes the
row's n int8 entries, refuses any but -1 and +1 before it writes, and, for
each mask of the level, sums the values one level down over the mask's +1
columns, subtracts the sum over its -1 columns, and halves the difference
unless k is a power of two (s_k - s_(k-1) is 0 or 1); given a threshold, it
also stores each heavy mask, in mask order, into the heavy list as it writes
the value.  A set bit that a halving would drop means a value that no sign
matrix has: the kernel reports it, and add_level raises ArithmeticError.
On a host with AVX-512F (checked at run time) it builds the first
count & ~15 masks of a level k <= 15 sixteen at a time, one int32 gather of
sixteen parents per column, the first count & ~7 of a level k >= 16 eight
at a time in int64, and the rest one by one; every other host builds them
all one by one, with the same bytes.  That file's header lists every
kernel.
`compiled._kernels` builds and loads the library; `lattice._kernels` is
that same cached function.
"""

from __future__ import annotations

import csv
import functools
import math
import numbers
import os
from enum import Enum

import numpy as np

from .compiled import _kernels
from .matrices import CapError, SignMatrix
from .subsets import masks_by_level

# a 2**n table, int32 slots through level 15 and int64 ones past it:
# 14 * 2**22 bytes ~ 59 MB at its build peak
LATTICE_MAX_N = 22
# the highest level stored as int32: 16! / 2**_SCALE[15] passes 2**31
_NARROW_MAX_K = 15
_INT32_MAX, _INT64_MAX = 2**31 - 1, 2**63 - 1
# level k is stored divided by 2**_SCALE[k], the power of two that divides
# every k x k sign permanent
_SCALE = tuple(k - k.bit_length() for k in range(LATTICE_MAX_N + 1))
DUMP_MAX_N = 12


@functools.lru_cache(maxsize=4)
def _level_masks(n: int) -> tuple[tuple[np.ndarray, ...], tuple[int, ...]]:
    """masks_by_level(n), each level's uint32 masks, and the kernel address of
    each level's array, cached together once per n, so an address lives
    exactly as long as its array.  Every table of that n shares the arrays,
    so they are read-only: a write through level_masks would change how each
    later table is built."""
    levels = masks_by_level(n)
    for masks in levels:
        masks.flags.writeable = False
    return levels, tuple(masks.ctypes.data for masks in levels)


def _threshold_at(k: int, threshold) -> int:
    """The integer a stored level-k |value| must reach to be heavy:
    ceil(threshold / 2**s) with s = _SCALE[k], computed as
    ceil(ceil(threshold) / 2**s) in integers, exact for int, numpy int,
    float and Fraction (an integer is taken as it is: math.ceil would round
    a numpy int past 2**53 through a float).  It is clamped to the level's
    width, [0, 2**31 - 1] at k <= 15 and [0, 2**63 - 1] past it, for
    add_level's kernel, which compares in that width, and because ctypes
    would silently truncate a larger int (a stored |value| is at most
    15! / 2**11 at k <= 15 and 22! / 2**17 past it, so the clamp changes no
    answer).
    """
    rounded = int(threshold) if isinstance(threshold, numbers.Integral) else math.ceil(threshold)
    return min(max(-(-rounded >> _SCALE[k]), 0), _INT32_MAX if k <= _NARROW_MAX_K else _INT64_MAX)


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
        # Peak bytes per mask: the table, which holds every level (8 past
        # n = 15, 4 below), the uint32 level masks (4) and, while
        # masks_by_level runs its last doubling, the levels over n - 1 bits
        # (2).  That bounds the whole peak of every table, growth tables
        # included: parent_histogram keeps nothing on the table.
        need = 14 << n
        have = _physical_memory_bytes()
        if have is not None and need > have:
            raise CapError(
                f"minor lattice at n={n} needs about {need / 2**30:.1f} GiB"
                f" ({need} bytes, 14 * 2**n), more than the {have} bytes of physical memory"
            )
        self.n = n
        self.k_max = 0
        # levels through 15 as int32, past it as int64 (module docstring)
        self._vals = np.zeros(1 << n, dtype=np.int32 if n <= _NARROW_MAX_K else np.int64)
        self._vals32 = self._vals.view(np.int32)
        self._vals32[0] = 1  # empty minor
        self._row = np.empty(n, dtype=np.int8)  # add_level's copy of its row
        self._select: int | None = None  # add_heavy_level's scaled threshold
        self._count = np.empty(1, dtype=np.int64)  # the kernel's threshold in, count out
        # Kernel arguments that the table holds, so they outlive every call
        # (see _kernels); each is C-contiguous by construction.
        self._levels, self._levels_at = _level_masks(n)
        self._vals_at, self._row_at = self._vals.ctypes.data, self._row.ctypes.data
        self._count_at = self._count.ctypes.data

    def add_level(self, row: np.ndarray) -> np.ndarray | None:
        """Complete level k_max+1 from the next exposed row.

        Returns the new level's heavy masks at the threshold that
        add_heavy_level set, or None for a plain build.
        """
        k = self.k_max + 1
        if k > self.n:
            raise ValueError("all levels already built")
        row = np.asarray(row).reshape(-1)
        if len(row) != self.n:
            raise ValueError(f"row has {len(row)} entries, expected {self.n}")
        # The kernel checks an int8 row; a wider one is checked before the
        # cast, which would wrap 257 to 1.
        if row.dtype != np.int8 and not ((row == 1) | (row == -1)).all():
            raise ValueError("row entries must be -1 or +1")
        self._row[:] = row
        masks, select = self._levels[k], self._select
        count_at = out_at = None  # a plain build
        if select is not None:
            # The kernel takes the threshold in _count and leaves there the
            # number of masks it wrote to out.
            self._count[0] = select
            out = np.empty(len(masks), dtype=np.int64)
            count_at, out_at = self._count_at, out.ctypes.data
        bad = _kernels().add_level(self._vals_at, self._levels_at[k], len(masks), self._row_at, self.n,
                                   _SCALE[k] - _SCALE[k - 1], count_at, out_at)
        if bad < 0:
            raise ArithmeticError(
                f"minor lattice at n={self.n}, level {k}: a {k} x {k} minor's permanent is not a"
                f" multiple of 2**{_SCALE[k]}, which every {k} x {k} sign permanent is"
                " (Kräuter and Seifter, 1984)")
        if bad:
            raise ValueError("row entries must be -1 or +1")
        self.k_max = k
        return None if select is None else out[:self._count.item()]

    def add_heavy_level(self, row: np.ndarray, threshold) -> np.ndarray:
        """add_level(row), and the new level's heavy masks at the threshold,
        as heavy_masks gives them, selected while the build writes each value.

        The threshold reaches add_level through the table, not an argument, so
        that every level, fused or plain, is built by one add_level(row) call.
        """
        self._select = _threshold_at(self.k_max + 1, threshold)
        try:
            return self.add_level(row)
        finally:
            self._select = None

    def value(self, mask: int) -> int:
        """Exact permanent of the minor indexed by this column mask."""
        mask = int(mask)
        if mask < 0 or mask >> self.n:
            raise ValueError(f"mask {mask} is outside [0, 2**{self.n})")
        level = mask.bit_count()
        if level > self.k_max:
            raise ValueError(f"level {level} not built (k_max={self.k_max})")
        return self._stored(level).item(mask) << _SCALE[level]

    def _stored(self, k: int) -> np.ndarray:
        """The buffer at level k's width, indexed by mask: int32 through
        level 15, int64 past it."""
        return self._vals32 if k <= _NARROW_MAX_K else self._vals

    def level_masks(self, k: int) -> np.ndarray:
        """The masks of the size-k column sets, ascending, as a read-only
        uint32 array that every table of this n shares."""
        if not 0 <= k <= self.n:
            raise ValueError(f"level {k} is outside [0, {self.n}]")
        return self._levels[k]

    def _heavy(self, k: int, threshold) -> np.ndarray:
        """Masks of level k whose |value| reaches the threshold, ascending.

        Every heaviness query of a built level goes through here, reading
        the stored level with numpy against the threshold scaled with it;
        the masks are returned as int64, the dtype of add_heavy_level's.
        """
        if not 0 <= k <= self.k_max:
            raise ValueError(f"level {k} not built (k_max={self.k_max})")
        masks = self._levels[k]
        return masks[np.abs(self._stored(k)[masks]) >= _threshold_at(k, threshold)].astype(np.int64)

    def heavy_count(self, k: int, threshold) -> int:
        """Number of size-k column sets whose |value| reaches the threshold."""
        return len(self._heavy(k, threshold))

    def heavy_masks(self, k: int, threshold) -> np.ndarray:
        """Masks of the heavy size-k sets, ascending."""
        return self._heavy(k, threshold)

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
    tracked).  A member outside [0, 2**n), not of size k, or repeated is a
    ValueError, raised for the first bad member in order.
    """
    n = table.n
    if k + 1 > n:
        raise ValueError("family is at the top level; no children exist")
    try:
        members = np.ascontiguousarray(members, dtype=np.int64).reshape(-1)
    except OverflowError:
        raise ValueError(f"family members must be masks in [0, 2**{n})") from None
    family: set[int] = set()
    children: dict[int, int] = {}  # child mask -> its parents in the family so far
    for mask in members.tolist():
        if mask < 0 or mask >> n:
            raise ValueError(f"family member {mask} is outside [0, 2**{n})")
        if mask.bit_count() != k:
            raise ValueError(f"family member {mask} is not a size-{k} set")
        if mask in family:
            raise ValueError(f"family member {mask} is repeated")
        family.add(mask)
        free = ((1 << n) - 1) ^ mask  # the n - k columns a child adds, lowest first
        while free:
            bit = free & -free
            free ^= bit
            children[mask | bit] = children.get(mask | bit, 0) + 1
    counts = [0] * (n + 1)
    for parents in children.values():
        counts[parents] += 1
    return np.array(counts, dtype=np.int64)


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
    low_mass = sum(counts.tolist()[1 : cut + 1])
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
