"""Straightforward dict-and-loop reimplementation of the growth run.

Independent oracle for golden traces: no numpy and no shared code with
permlab.growth.  It reads only the fields of the configuration (eps,
eps_prime, c, k0, k1) and derives every default and rate from them with its
own formulas.  Same documented choices (lexicographically-smallest
witnesses, ceil-with-floor-1 counts, K clamp).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations


def minor_levels(matrix, k_max):
    """List of dicts mask -> exact minor permanent, levels 0..k_max."""
    n = matrix.n
    levels = [{0: 1}]
    for k in range(1, k_max + 1):
        row = [int(v) for v in matrix.entries[k - 1]]
        prev = levels[k - 1]
        cur = {}
        for cols in combinations(range(n), k):
            mask = sum(1 << c for c in cols)
            cur[mask] = sum(row[i] * prev[mask ^ (1 << i)] for i in cols)
        levels.append(cur)
    return levels


def heavy_masks_at(level_vals, lam):
    t = math.ceil(Fraction(lam))
    return sorted(m for m, v in level_vals.items() if abs(v) >= t)


def ceil_floor1(x):
    return max(1, math.ceil(x))


def reference_trace(matrix, cfg):
    """Per-level tuples (k, tracked, true_heavy, lam, w, step_type_or_None)."""
    n = matrix.n
    eps = cfg.eps
    eps_prime = eps / 6 if cfg.eps_prime is None else cfg.eps_prime
    c = eps if cfg.c is None else cfg.c
    k0 = math.floor(eps * n) + 1 if cfg.k0 is None else cfg.k0
    k1 = math.floor((1 - eps) * n) if cfg.k1 is None else cfg.k1
    grow_factor = float(n) ** (0.5 - eps)
    keep_frac = eps / 6
    levels = minor_levels(matrix, k1)

    tracked = 1 if len(heavy_masks_at(levels[k0], 1)) >= 1 else 0
    lam = 1.0
    w = 0.0
    records = []
    for k in range(k0, k1):
        heavy_here = heavy_masks_at(levels[k], lam)
        if tracked == 0:
            records.append((k, 0, len(heavy_here), lam, w, None))
            continue
        family = heavy_here[:tracked]
        # parent-count histogram over the family's children
        counts = {}
        for mask in family:
            for i in range(n):
                if not (mask >> i) & 1:
                    child = mask | (1 << i)
                    counts[child] = counts.get(child, 0) + 1
        cut = max(1, math.floor((eps / 8.0) * n ** (1.0 - c)))
        low_mass = sum(1 for v in counts.values() if 1 <= v <= cut)
        prime = low_mass >= Fraction(eps) * n * tracked / (2 * cut)

        heavy_next = heavy_masks_at(levels[k + 1], lam)
        grown_lam = grow_factor * lam
        heavy_next_grown = heavy_masks_at(levels[k + 1], grown_lam)
        explode = ceil_floor1(n**eps * tracked / 4)
        keep = ceil_floor1(keep_frac * tracked)
        shrunk = ceil_floor1(eps_prime * tracked)

        if prime:
            if len(heavy_next) >= explode:
                step = "I"
                new_tracked, new_lam = explode, lam
            elif len(heavy_next) >= keep:
                step = "II"
                new_tracked, new_lam = shrunk, lam
            else:
                step = "V"
                new_tracked, new_lam = 0, lam
        else:
            if len(heavy_next_grown) >= shrunk:
                step = "III"
                new_tracked, new_lam = shrunk, grown_lam
            elif len(heavy_next) >= keep:
                step = "IV"
                new_tracked, new_lam = shrunk, lam
            else:
                step = "V"
                new_tracked, new_lam = 0, lam

        records.append((k, tracked, len(heavy_here), lam, w, step))
        inc = 1 - eps / 2
        if step == "I":
            inc -= 3
        elif step == "III":
            inc -= 1
        w += inc
        tracked, lam = new_tracked, new_lam

    records.append((k1, tracked, len(heavy_masks_at(levels[k1], lam)), lam, w, None))
    successful = tracked != 0 and w <= eps_prime * n / 2
    return records, successful
