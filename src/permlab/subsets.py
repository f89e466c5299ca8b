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
    """Masks over n bits grouped by popcount; each a C-contiguous ascending
    uint32 array (n <= 32).

    Built by doubling: the size-k masks over m+1 bits are the size-k masks
    over m bits, then the size-(k-1) ones with bit m added.  Every mask with
    bit m clear is below every mask with it set, so each level stays
    ascending.  The peak is the last doubling: the n-1 bit levels (2 bytes a
    mask over n bits) and the n bit ones (4 bytes a mask).
    """
    levels = [np.zeros(1, dtype=np.uint32)]
    for m in range(n):
        bit = np.uint32(1 << m)
        grown = [levels[0]]
        for low, high in zip([*levels[1:], levels[0][:0]], levels):
            level = np.empty(len(low) + len(high), dtype=np.uint32)
            level[:len(low)] = low
            np.add(high, bit, out=level[len(low):])
            grown.append(level)
        levels = grown
    return tuple(levels)
