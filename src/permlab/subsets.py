"""Bitmask encoding of column subsets.

A set of columns A over {0, ..., n-1} is an int with bit i set when column
i belongs to A.  Masks sort in lexicographic order numerically, which is the
canonical iteration order everywhere in this package.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np


def popcount(mask: int) -> int:
    return mask.bit_count()


def bits_of(mask: int) -> list[int]:
    """Set bit positions, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(cols) -> int:
    m = 0
    for c in cols:
        m |= 1 << c
    return m


def full_mask(n: int) -> int:
    return (1 << n) - 1


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


@lru_cache(maxsize=4)
def masks_by_level(n: int) -> tuple[np.ndarray, ...]:
    """Masks over n bits grouped by popcount; each array ascending. Cached per n."""
    all_masks = np.arange(1 << n, dtype=np.int64)
    popc = np.bitwise_count(all_masks)
    return tuple(all_masks[popc == k] for k in range(n + 1))
