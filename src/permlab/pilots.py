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
import sys

from .checks import _binom_se, growth_rate_statistics, sample_permanents
from .endgame import PreconditionError, find_disjoint_heavy_family, propagate_down, run_endgame_path
from .growth import ProcessConfig, run_growth
from .matrices import sample_sign_matrix
from .rng import RngStream

PILOT_SEED = 0xC0FFEE
# The sizes the pilots run at; each pilot records its own in its output.
GROWTH_N, GROWTH_RATE_TRIALS = 16, 500  # growth_rate and growth_success
ENDGAME_N, PROPAGATE_N = 18, 16  # endgame_path and disjoint_family; propagate
TRIALS = 200  # every pilot but growth_rate
L, THRESHOLD, COUNT = 2, 1, 3  # endgame depth, heaviness threshold, family size
FAMILY_START_K, PROPAGATE_START_K = 6, 4
_ENDGAME_CFG = ProcessConfig(L=L)


def _freq_threshold(p: float, trials: int) -> float:
    return round(max(0.0, p - max(0.10, 4 * _binom_se(p, trials))), 4)


def _endgame_trials(n: int, start_k: int, stage) -> tuple[list, dict]:
    """stage(m) on the TRIALS pilot matrices of size n: the results of the
    draws whose run precondition held, and the fields every endgame pilot
    reports, precondition_failures counting the other draws."""
    results = []
    failures = 0
    for t in range(TRIALS):
        try:
            results.append(stage(sample_sign_matrix(n, RngStream(PILOT_SEED, t))))
        except PreconditionError:
            failures += 1
    return results, {"trials": TRIALS, "L": L, "threshold": THRESHOLD, "start_k": start_k,
                     "precondition_failures": failures}


def pilot_growth_rate() -> dict:
    """growth_rate's own statistics, on the draws check_growth_rate makes at the pilot seed."""
    pers = sample_permanents(GROWTH_N, GROWTH_RATE_TRIALS, RngStream(PILOT_SEED).substream(GROWTH_N))
    stats = growth_rate_statistics(GROWTH_N, pers)
    ratio = stats["median_log_per2_over_log_nfact"]
    return {
        "trials": GROWTH_RATE_TRIALS,
        "pilot_median_log_ratio": round(ratio, 6),
        "pilot_nonzero_fraction": stats["nonzero_fraction"],
        "median_log_ratio_band": [round(ratio - 0.06, 4), round(ratio + 0.06, 4)],
        "min_nonzero_fraction": 0.99,
    }


def pilot_growth_success() -> dict:
    cfg = ProcessConfig()
    successes = sum(run_growth(sample_sign_matrix(GROWTH_N, RngStream(PILOT_SEED, t)), cfg).successful
                    for t in range(TRIALS))
    return {
        "trials": TRIALS,
        "seed": PILOT_SEED,
        "success_count": successes,
        "success_fraction": successes / TRIALS,
    }


def pilot_endgame_path() -> dict:
    k = _ENDGAME_CFG.end_level(ENDGAME_N)
    block = sum(1 << i for i in range(k, k + 2 * L))
    results, shared = _endgame_trials(ENDGAME_N, k, lambda m: run_endgame_path(
        m.prefix(k), block, THRESHOLD, _ENDGAME_CFG, m).succeeded)
    successes = sum(results)
    p = successes / TRIALS
    return {
        **shared,
        "success_count": successes,
        "success_fraction": p,
        "min_success_fraction": _freq_threshold(p, TRIALS),
    }


def _family(m, start_k: int):
    return find_disjoint_heavy_family(m.prefix(start_k), THRESHOLD, COUNT, L, _ENDGAME_CFG, m)


def pilot_disjoint_family() -> dict:
    results, shared = _endgame_trials(ENDGAME_N, FAMILY_START_K,
                                      lambda m: _family(m, FAMILY_START_K).complete)
    complete = sum(results)
    p = complete / TRIALS
    return {
        **shared,
        "count": COUNT,
        "complete_count": complete,
        "complete_fraction": p,
        "min_complete_fraction": _freq_threshold(p, TRIALS),
    }


def _propagated(m) -> bool | None:
    """Whether one downward step keeps a tenth of the family; None without a family."""
    fam = _family(m, PROPAGATE_START_K)
    if not fam.members:
        return None
    res = propagate_down(m.prefix(PROPAGATE_N - L), fam.members, THRESHOLD, _ENDGAME_CFG, m)
    return res.retained_fraction >= 0.1


def pilot_propagate() -> dict:
    """Family at level n-L via disjoint blocks, then one downward step."""
    results, shared = _endgame_trials(PROPAGATE_N, PROPAGATE_START_K, _propagated)
    with_family = sum(r is not None for r in results)
    retained_ok = sum(r is True for r in results)
    p = retained_ok / with_family if with_family else 0.0
    return {
        **shared,
        "count": COUNT,
        "trials_with_family": with_family,
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
        "growth_rate": {str(GROWTH_N): pilot_growth_rate()},
        "growth_success": {str(GROWTH_N): pilot_growth_success()},
        "endgame_path": {str(ENDGAME_N): pilot_endgame_path()},
        "disjoint_family": {str(ENDGAME_N): pilot_disjoint_family()},
        "propagate": {str(PROPAGATE_N): pilot_propagate()},
    }


if __name__ == "__main__":
    json.dump(run_all_pilots(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
