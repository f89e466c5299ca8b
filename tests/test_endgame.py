import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from permlab import endgame
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
from permlab.lattice import MinorTable
from permlab.matrices import SignMatrix, sample_sign_matrix
from permlab.rng import RngStream

from oracles import all_ones, mask_of


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


def endgame_sequence(m, fresh=False):
    """The endgame on one matrix, with the benchmark op's parameters: path
    from cfg.end_level(n), family from k = 6 with 3 blocks (L = 2),
    propagate at n - L when the family has members, final row at n - 1.

    Returns each stage's result, None where it did not run.  With `fresh`,
    every stage reads a new content-equal copy of m, so it builds its own
    table from row 0.
    """
    n, L = m.n, 2
    cfg = ProcessConfig(L=L)
    k = cfg.end_level(n)

    def source():
        return SignMatrix(m.entries) if fresh else m

    path = outcome(run_endgame_path, m.prefix(k), block_after(k, L), 1, cfg, source())
    family = outcome(find_disjoint_heavy_family, m.prefix(6), 1, 3, L, cfg, source())
    propagated = None
    if family is not None and family.members:
        propagated = propagate_down(m.prefix(n - L), family.members, 1, cfg, source())
    return [path, family, propagated, final_row_heaviness(m.prefix(n - 1), 1, source())]


# Draws 0 and 8 of RngStream(18, i) at n = 18: all four stages run on the
# first; on the second the family stage stops on its precondition.
@pytest.mark.parametrize("draw, family_runs", [(0, True), (8, False)])
def test_endgame_sequence_builds_each_level_once(monkeypatch, draw, family_runs):
    m = sample_sign_matrix(18, RngStream(18, draw))
    built = []
    add_level = MinorTable.add_level

    def counted(table, row):
        built.append(table.k_max + 1)
        add_level(table, row)

    monkeypatch.setattr(MinorTable, "add_level", counted)
    shared = endgame_sequence(m)
    assert built == list(range(1, 19))  # 18 calls, each level once
    path, family, propagated, _ = shared
    assert path is not None and path.steps
    assert (family is not None) == family_runs
    assert (propagated is not None) == family_runs
    assert shared == endgame_sequence(m, fresh=True)


def test_stages_read_only_the_levels_of_their_exposed_rows(monkeypatch):
    # The table a stage reads may already be built past its rows by an
    # earlier stage; no stage may read a level it has not asked for.
    n, L = 18, 2
    cfg = ProcessConfig(L=L)
    k = cfg.end_level(n)
    m = sample_sign_matrix(n, RngStream(18, 0))
    asked = [0]  # highest level the running stage has asked _table for
    table_of, value = endgame._table, MinorTable.value

    def tracked(source, level):
        asked[0] = max(asked[0], level)
        return table_of(source, level)

    def checked(table, mask):
        assert int(mask).bit_count() <= asked[0]
        return value(table, mask)

    monkeypatch.setattr(endgame, "_table", tracked)
    monkeypatch.setattr(MinorTable, "value", checked)

    def run(stage, *args):
        asked[0] = 0
        result = stage(*args)
        return result, asked[0]

    for _ in range(2):  # the second pass starts with all n levels built
        _, top = run(run_endgame_path, m.prefix(k), block_after(k, L), 1, cfg, m)
        assert top == n - L
        family, top = run(find_disjoint_heavy_family, m.prefix(6), 1, 3, L, cfg, m)
        assert top == n - L and family.members
        _, top = run(propagate_down, m.prefix(n - L), family.members, 1, cfg, m)
        assert top == n - L + 1
        _, top = run(final_row_heaviness, m.prefix(n - 1), 1, m)
        assert top == n


def test_table_slot_holds_one_matrix_at_a_time(monkeypatch):
    n, L = 18, 2
    cfg = ProcessConfig(L=L)
    k = cfg.end_level(n)
    a, b = (sample_sign_matrix(n, RngStream(18, i)) for i in (0, 1))
    want = {a: endgame_sequence(a, fresh=True), b: endgame_sequence(b, fresh=True)}
    stages = [
        lambda m: run_endgame_path(m.prefix(k), block_after(k, L), 1, cfg, m),
        lambda m: find_disjoint_heavy_family(m.prefix(6), 1, 3, L, cfg, m),
        lambda m: propagate_down(m.prefix(n - L), want[m][1].members, 1, cfg, m),
        lambda m: final_row_heaviness(m.prefix(n - 1), 1, m),
    ]
    for s, stage in enumerate(stages):  # A, then B, then A again at every stage
        for m in (a, b, a):
            assert stage(m) == want[m][s]

    # A new matrix object, even a content-equal copy, gets its own table,
    # allocated only after the old one is gone.
    init = MinorTable.__init__
    alive_at_alloc = []

    def tracked_init(table, size):
        alive_at_alloc.append(old() is not None)
        init(table, size)

    monkeypatch.setattr(MinorTable, "__init__", tracked_init)
    copy = SignMatrix(b.entries)
    for m in (b, copy):
        old = weakref.ref(endgame._slot.table)
        assert stages[3](m) == want[b][3]
        assert old() is None and endgame._slot.source is m
    assert alive_at_alloc == [False, False]

    # The prefix check still refuses a mismatched pair while the slot holds
    # the source's table, and leaves that table in place.
    held = endgame._slot.table
    with pytest.raises(ValueError, match="disagrees with the prefix rows"):
        final_row_heaviness(a.prefix(n - 1), 1, copy)
    with pytest.raises(ValueError, match="disagrees with the prefix rows"):
        run_endgame_path(a.prefix(k), block_after(k, L), 1, cfg, copy)
    assert endgame._slot.table is held and endgame._slot.source is copy
    assert stages[3](copy) == want[b][3]
