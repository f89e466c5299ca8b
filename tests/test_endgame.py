import math
from fractions import Fraction

import numpy as np
import pytest

from permlab.endgame import (
    PreconditionError,
    complements_disjoint,
    final_row_heaviness,
    find_disjoint_heavy_family,
    propagate_down,
    run_endgame_path,
)
from permlab.engines import permanent_ryser
from permlab.growth import ProcessConfig
from permlab.matrices import SignMatrix, all_ones, sample_sign_matrix
from permlab.rng import RngStream
from permlab.subsets import mask_of


def block_after(k, L):
    return mask_of(range(k, k + 2 * L))


def test_exposed_lattice_rejects_mismatched_matrix():
    # every stage refuses a row source whose leading rows are not the prefix
    m = sample_sign_matrix(6, RngStream(50))
    other = sample_sign_matrix(6, RngStream(50, 9))
    cfg = ProcessConfig(L=1)
    with pytest.raises(ValueError, match="disagrees with the prefix rows"):
        final_row_heaviness(m.prefix(5), 1, other)
    with pytest.raises(ValueError, match="disagrees with the prefix rows"):
        propagate_down(m.prefix(4), [], 1, cfg, other)
    with pytest.raises(ValueError, match="disagrees with the prefix rows"):
        run_endgame_path(m.prefix(3), block_after(3, 1), 1, cfg, other)
    with pytest.raises(ValueError, match="disagrees with the prefix rows"):
        find_disjoint_heavy_family(m.prefix(3), 1, 1, 1, cfg, other)
    with pytest.raises(ValueError, match="disagrees with the prefix rows"):
        final_row_heaviness(m.prefix(5), 1, all_ones(7))  # wrong size


def test_all_ones_path_succeeds():
    n, L = 10, 2
    cfg = ProcessConfig(L=L)
    m = all_ones(n)
    k = 5
    res = run_endgame_path(m.prefix(k), block_after(k, L), 1, cfg, m)
    assert res.succeeded
    assert res.heavy_set.bit_count() == n - L
    # the result always contains every non-block column
    assert ((1 << n) - 1) & ~(res.protected | res.heavy_set) == 0
    # every step found a heavy extension (all minors of all-ones are heavy)
    assert all(s.heavy for s in res.steps)
    assert all(s.rule in ("outside", "protected") for s in res.steps)


def test_impossible_threshold_is_a_precondition_failure():
    n, L = 8, 1
    m = all_ones(n)
    cfg = ProcessConfig(L=L)
    with pytest.raises(PreconditionError):
        run_endgame_path(m.prefix(4), block_after(4, L), math.factorial(n) + 1, cfg, m)


def test_malformed_block_rejected():
    m = all_ones(8)
    cfg = ProcessConfig(L=1)
    with pytest.raises(PreconditionError):
        run_endgame_path(m.prefix(4), mask_of([0, 5]), 1, cfg, m)  # overlaps [k]
    with pytest.raises(PreconditionError):
        run_endgame_path(m.prefix(4), mask_of([5]), 1, cfg, m)  # wrong size
    with pytest.raises(PreconditionError):
        run_endgame_path(m.prefix(4), mask_of([5, 6, 7]) | (1 << 9), 1, cfg, m)  # out of range


def test_remaining_counter_dynamics():
    # remaining-columns counter never increases and drops by at most 1 per step
    cfg = ProcessConfig(L=2)
    for t in range(30):
        m = sample_sign_matrix(12, RngStream(51, t))
        k = 5
        try:
            res = run_endgame_path(m.prefix(k), block_after(k, 2), 1, cfg, m)
        except PreconditionError:
            continue
        w = 12 - k - 4  # initial remaining count
        for step in res.steps:
            assert step.remaining in (w, w - 1)
            assert step.remaining >= 0
            w = step.remaining
        if res.succeeded:
            assert w == 0


def test_path_heavy_set_verified_against_ryser():
    cfg = ProcessConfig(L=2)
    hits = 0
    for t in range(20):
        m = sample_sign_matrix(10, RngStream(52, t))
        try:
            res = run_endgame_path(m.prefix(4), block_after(4, 2), 1, cfg, m)
        except PreconditionError:
            continue
        if res.heavy_set is None:
            continue
        hits += 1
        cols = [i for i in range(10) if (res.heavy_set >> i) & 1]
        sub = SignMatrix(m.entries[np.ix_(range(len(cols)), cols)])
        assert abs(permanent_ryser(sub)) >= 1
    assert hits > 0


def outcome(stage, *args):
    try:
        return stage(*args)
    except PreconditionError:
        return None


def test_disjoint_family_single_block_reduces_to_path():
    n, L, k = 10, 2, 4
    m = all_ones(n)
    cfg = ProcessConfig(L=L)
    fam = find_disjoint_heavy_family(m.prefix(k), 1, 1, L, cfg, m)
    path = run_endgame_path(m.prefix(k), block_after(k, L), 1, cfg, m)
    assert fam.members == [path.heavy_set]
    # the same on random matrices, including the precondition outcome
    n, k = 12, 5
    ran = 0
    for t in range(30):
        m = sample_sign_matrix(n, RngStream(58, t))
        fam = outcome(find_disjoint_heavy_family, m.prefix(k), 1, 1, L, cfg, m)
        path = outcome(run_endgame_path, m.prefix(k), block_after(k, L), 1, cfg, m)
        assert (fam is None) == (path is None)
        if fam is not None:
            ran += 1
            assert fam.blocks == [path.protected]
            assert fam.per_block[0] == path.heavy_set
    assert 0 < ran < 30


def test_disjoint_family_postconditions():
    cfg = ProcessConfig(L=2)
    found = 0
    for t in range(25):
        m = sample_sign_matrix(14, RngStream(53, t))
        try:
            fam = find_disjoint_heavy_family(m.prefix(4), 1, 2, 2, cfg, m)
        except PreconditionError:
            continue
        found += len(fam.members)
        assert complements_disjoint(fam.members, 14)
        for mask in fam.members:
            assert mask.bit_count() == 12
            comp = ((1 << 14) - 1) & ~mask
            # complement sits inside the block that produced the member
            assert any(comp & ~b == 0 for b in fam.blocks)
    assert found > 0


def test_disjoint_family_infeasible_count():
    m = all_ones(10)
    cfg = ProcessConfig(L=2)
    with pytest.raises(PreconditionError):
        find_disjoint_heavy_family(m.prefix(4), 1, 3, 2, cfg, m)  # 12 > 10-4


def test_propagate_empty_family():
    m = all_ones(8)
    cfg = ProcessConfig()
    res = propagate_down(m.prefix(6), [], 1, cfg, m)
    assert res.children == [] and res.kept == []
    assert res.new_threshold == Fraction(1, 8)


def test_propagate_all_ones_keeps_everything():
    n = 12
    m = all_ones(n)
    cfg = ProcessConfig()
    members = [((1 << n) - 1) ^ mask_of([a, b]) for a, b in [(0, 1), (2, 3), (4, 5)]]
    res = propagate_down(m.prefix(n - 2), members, math.factorial(n - 2), cfg, m)
    assert len(res.kept) == 3
    assert res.new_threshold == Fraction(math.factorial(n - 2), n)
    assert complements_disjoint(res.kept, n)
    # children chose the smallest absent column each
    assert res.children[0] == members[0] | 1


def test_propagate_validates_input():
    m = all_ones(8)
    cfg = ProcessConfig()
    overlapping = [((1 << 8) - 1) ^ mask_of([0, 1]), ((1 << 8) - 1) ^ mask_of([1, 2])]
    with pytest.raises(PreconditionError):
        propagate_down(m.prefix(6), overlapping, 1, cfg, m)
    with pytest.raises(ValueError):
        propagate_down(m.prefix(6), [mask_of([0, 1, 2])], 1, cfg, m)  # wrong level
    with pytest.raises(ValueError):
        propagate_down(m.prefix(8), [(1 << 8) - 1], 1, cfg, m)  # no next row


def test_propagate_kept_children_verified():
    cfg = ProcessConfig(L=2)
    for t in range(20):
        m = sample_sign_matrix(12, RngStream(54, t))
        try:
            fam = find_disjoint_heavy_family(m.prefix(4), 1, 2, 2, cfg, m)
        except PreconditionError:
            continue
        if not fam.members:
            continue
        res = propagate_down(m.prefix(10), fam.members, 1, cfg, m)
        tint = math.ceil(Fraction(res.new_threshold))
        for child in res.kept:
            cols = [i for i in range(12) if (child >> i) & 1]
            sub = SignMatrix(m.entries[np.ix_(range(len(cols)), cols)])
            assert abs(permanent_ryser(sub)) >= tint


def test_final_row_hand_case():
    m = SignMatrix([[1, 1], [1, -1]])
    res = final_row_heaviness(m.prefix(1), 1, m)
    assert res.permanent == 0 and not res.heavy
    ones = all_ones(5)
    res2 = final_row_heaviness(ones.prefix(4), math.factorial(5), ones)
    assert res2.permanent == math.factorial(5) and res2.heavy


def test_final_row_cross_engine():
    for t in range(10):
        m = sample_sign_matrix(9, RngStream(55, t))
        res = final_row_heaviness(m.prefix(8), 1, m)
        assert res.permanent == permanent_ryser(m)


def test_propagate_ensemble_meets_pilot_band():
    # one downward step at n = 16 retains at least a tenth of the family in
    # at least the committed fraction of trials (band frozen from the pilot)
    from permlab.checks import pilot_bands

    band = pilot_bands()["propagate"]["16"]
    cfg = ProcessConfig(L=band["L"])
    trials = 60
    with_family = 0
    retained_ok = 0
    for t in range(trials):
        m = sample_sign_matrix(16, RngStream(0, (11 << 20) | t))
        try:
            fam = find_disjoint_heavy_family(
                m.prefix(band["start_k"]), band["threshold"], band["count"], band["L"], cfg, m
            )
        except PreconditionError:
            continue
        if not fam.members:
            continue
        with_family += 1
        res = propagate_down(m.prefix(16 - band["L"]), fam.members, band["threshold"], cfg, m)
        if res.retained_fraction >= 0.1:
            retained_ok += 1
    assert with_family > 0
    assert retained_ok / with_family >= band["min_retained_ok_fraction"]
