"""Pilot calibration runs behind the frozen statistical bands.

Protocol: every pilot uses seed 0xC0FFEE and the trial counts recorded in
its output.  `python -m permlab.pilots` prints the JSON that is committed at
data/pilot_bands.json; after committing, the bands are frozen and acceptance
runs exercise them with a different seed (0).

Margins, chosen once and documented here:
- frequency thresholds are pilot value minus max(0.10, 4 * binomial SE);
- the growth-rate median-log-ratio band is pilot value +/- 0.06.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .endgame import PreconditionError, find_disjoint_heavy_family, propagate_down, run_endgame_path
from .engines import permanent
from .growth import ProcessConfig, run_growth
from .matrices import sample_sign_matrix
from .rng import RngStream

PILOT_SEED = 0xC0FFEE


def _freq_threshold(p: float, trials: int) -> float:
    se = math.sqrt(max(p * (1 - p), 0.0) / trials)
    return round(max(0.0, p - max(0.10, 4 * se)), 4)


def pilot_growth_rate(n: int = 16, trials: int = 500) -> dict:
    rng = RngStream(PILOT_SEED)
    logs = []
    zeros = 0
    for t in range(trials):
        m = sample_sign_matrix(n, rng.substream(n, t))
        per = permanent(m)
        if per == 0:
            zeros += 1
        else:
            logs.append(math.log(abs(per)))
    med = float(np.median(logs))
    ratio = 2 * med / math.log(math.factorial(n))
    return {
        "trials": trials,
        "pilot_median_log_ratio": round(ratio, 6),
        "pilot_nonzero_fraction": 1 - zeros / trials,
        "median_log_ratio_band": [round(ratio - 0.06, 4), round(ratio + 0.06, 4)],
        "min_nonzero_fraction": 0.99,
    }


def pilot_growth_success(n: int = 16, trials: int = 200) -> dict:
    cfg = ProcessConfig()
    successes = 0
    for t in range(trials):
        m = sample_sign_matrix(n, RngStream(PILOT_SEED, t))
        if run_growth(m, cfg).successful:
            successes += 1
    return {
        "trials": trials,
        "seed": PILOT_SEED,
        "success_count": successes,
        "success_fraction": successes / trials,
    }


def pilot_endgame_path(n: int = 18, L: int = 2, threshold: int = 1,
                       start_k: int | None = None, trials: int = 200) -> dict:
    cfg = ProcessConfig(L=L)
    k = start_k if start_k is not None else cfg.end_level(n)
    block = sum(1 << i for i in range(k, k + 2 * L))
    successes = 0
    precondition_failures = 0
    for t in range(trials):
        m = sample_sign_matrix(n, RngStream(PILOT_SEED, t))
        try:
            res = run_endgame_path(m.prefix(k), block, threshold, cfg, m)
        except PreconditionError:
            precondition_failures += 1
            continue
        if res.succeeded:
            successes += 1
    p = successes / trials
    return {
        "trials": trials,
        "L": L,
        "threshold": threshold,
        "start_k": k,
        "success_count": successes,
        "precondition_failures": precondition_failures,
        "success_fraction": p,
        "min_success_fraction": _freq_threshold(p, trials),
    }


def pilot_disjoint_family(n: int = 18, L: int = 2, threshold: int = 1, start_k: int = 6,
                          count: int = 3, trials: int = 200) -> dict:
    cfg = ProcessConfig(L=L)
    complete = 0
    precondition_failures = 0
    for t in range(trials):
        m = sample_sign_matrix(n, RngStream(PILOT_SEED, t))
        try:
            fam = find_disjoint_heavy_family(m.prefix(start_k), threshold, count, L, cfg, m)
        except PreconditionError:
            precondition_failures += 1
            continue
        if fam.complete:
            complete += 1
    p = complete / trials
    return {
        "trials": trials,
        "L": L,
        "threshold": threshold,
        "start_k": start_k,
        "count": count,
        "complete_count": complete,
        "precondition_failures": precondition_failures,
        "complete_fraction": p,
        "min_complete_fraction": _freq_threshold(p, trials),
    }


def pilot_propagate(n: int = 16, L: int = 2, threshold: int = 1, start_k: int = 4,
                    count: int = 3, trials: int = 200) -> dict:
    """Family at level n-L via disjoint blocks, then one downward step."""
    cfg = ProcessConfig(L=L)
    with_family = 0
    retained_ok = 0
    precondition_failures = 0
    for t in range(trials):
        m = sample_sign_matrix(n, RngStream(PILOT_SEED, t))
        try:
            fam = find_disjoint_heavy_family(m.prefix(start_k), threshold, count, L, cfg, m)
        except PreconditionError:
            precondition_failures += 1
            continue
        if not fam.members:
            continue
        with_family += 1
        res = propagate_down(m.prefix(n - L), fam.members, threshold, cfg, m)
        if res.retained_fraction >= 0.1:
            retained_ok += 1
    p = retained_ok / with_family if with_family else 0.0
    return {
        "trials": trials,
        "L": L,
        "threshold": threshold,
        "start_k": start_k,
        "count": count,
        "trials_with_family": with_family,
        "precondition_failures": precondition_failures,
        "retained_ok_count": retained_ok,
        "retained_ok_fraction": p,
        "min_retained_ok_fraction": _freq_threshold(p, with_family if with_family else 1),
    }


def run_all_pilots() -> dict:
    return {
        "_protocol": {
            "seed": PILOT_SEED,
            "description": (
                "frozen statistical bands; regenerate with `python -m permlab.pilots` "
                "and commit the output as data/pilot_bands.json"
            ),
            "margins": "frequencies: pilot - max(0.10, 4*SE); median-log-ratio: pilot +/- 0.06",
        },
        "growth_rate": {"16": pilot_growth_rate(16, 500)},
        "growth_success": {"16": pilot_growth_success(16, 200)},
        "endgame_path": {"18": pilot_endgame_path(18, 2, 1, None, 200)},
        "disjoint_family": {"18": pilot_disjoint_family(18, 2, 1, 6, 3, 200)},
        "propagate": {"16": pilot_propagate(16, 2, 1, 4, 3, 200)},
    }


if __name__ == "__main__":
    json.dump(run_all_pilots(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
