"""Bitmask encoding of column subsets.

A set of columns A over {0, ..., n-1} is an int with bit i set when column
i belongs to A.  Masks sort in lexicographic order numerically, which is the
canonical iteration order everywhere in this package.
"""

from __future__ import annotations

import numpy as np


def bits_of(mask: int) -> list[int]:
    """Set bit positions, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def masks_by_level(n: int) -> tuple[np.ndarray, ...]:
    """Masks over n bits grouped by popcount; each array ascending."""
    all_masks = np.arange(1 << n, dtype=np.int64)
    popc = np.bitwise_count(all_masks)
    return tuple(all_masks[popc == k] for k in range(n + 1))
