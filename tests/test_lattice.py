import math
import multiprocessing
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permlab import lattice
from permlab.engines import permanent_ryser
from permlab.lattice import (
    MinorTable,
    SplitVerdict,
    build_lattice,
    dump_lattice_csv,
    parent_histogram,
    split_cut,
    split_events,
)
from permlab.matrices import CapError, SignMatrix, sample_sign_matrix
from permlab.rng import RngStream
from permlab.subsets import bits_of

from oracles import (
    all_ones,
    brute_heavy_sets,
    brute_minor_permanent,
    brute_parent_counts,
    enumerate_all_sign_matrices,
    mask_of,
    matrix_from_counter,
    numpy_level_table,
    subsets_of_size,
)


def test_heavy_query_rounds_threshold_up():
    # every level-2 minor of the all-ones matrix has permanent 2, and an
    # integer |value| reaches a real threshold iff it reaches its ceiling
    t = build_lattice(all_ones(4), 2)
    level = t.level_masks(2).tolist()
    for threshold in (2, np.int64(2), 2.0, np.float64(1.5), Fraction(3, 2), 0, -1.5):
        assert t.heavy_count(2, threshold) == 6
        assert t.heavy_masks(2, threshold).tolist() == level
    for threshold in (2.5, np.float32(2.5), Fraction(5, 2), 3, 2**70):
        assert t.heavy_count(2, threshold) == 0
        assert t.heavy_masks(2, threshold).tolist() == []


def test_level_one_is_first_row():
    m = sample_sign_matrix(5, RngStream(1))
    t = build_lattice(m, 1)
    for i in range(5):
        assert t.value(1 << i) == int(m.entries[0, i])
    assert t.value(0) == 1


def test_empty_minor_value():
    t = build_lattice(all_ones(3), 0)
    assert t.value(0) == 1
    with pytest.raises(ValueError):
        t.value(0b11)  # level not built


def test_value_rejects_masks_outside_the_table():
    n = 4
    t = build_lattice(all_ones(n))
    assert t.value((1 << n) - 1) == math.factorial(n)
    for mask in (-1, -2, 1 << n):
        with pytest.raises(ValueError, match="outside"):
            t.value(mask)


def test_hand_value_n2():
    m = SignMatrix([[1, 1], [1, -1]])
    t = build_lattice(m)
    assert t.value(0b11) == 0


def test_full_lattice_matches_engines_all_n3():
    for m in enumerate_all_sign_matrices(3):
        t = build_lattice(m)
        assert t.top_value() == permanent_ryser(m)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_cofactor_recursion_exhaustive(n):
    m = sample_sign_matrix(n, RngStream(31, n))
    t = build_lattice(m)
    for k in range(1, n + 1):
        row = m.entries[k - 1]
        for mask in subsets_of_size(n, k):
            expected = sum(int(row[i]) * t.value(mask ^ (1 << i)) for i in bits_of(mask))
            assert t.value(mask) == expected


@pytest.mark.parametrize("n", [7, 9])
def test_partial_builds_match_brute_minors(n):
    m = sample_sign_matrix(n, RngStream(37, n))
    brute = {mask: brute_minor_permanent(m, bits_of(mask))
             for k in range(1, n + 1) for mask in subsets_of_size(n, k)}
    for k_max in range(1, n + 1):
        t = build_lattice(m, k_max)
        assert t.k_max == k_max
        for k in range(1, k_max + 1):
            for mask in subsets_of_size(n, k):
                assert t.value(mask) == brute[mask], (k_max, mask)


def test_multi_block_levels_match_ryser_n18():
    # the wide levels of an n = 18 table (up to 48620 masks), checked against
    # the pure-Python subset scan, which shares nothing with the compiled
    # kernel: sampled minors on levels 12, 15 and 18 plus the last mask of each
    n = 18
    m = sample_sign_matrix(n, RngStream(38))
    t = build_lattice(m)
    gen = np.random.default_rng(38)
    for k in (12, 15, 18):
        masks = t.level_masks(k)
        picked = gen.choice(masks, size=min(20, len(masks)), replace=False)
        for mask in {*picked.tolist(), int(masks[-1])}:
            minor = SignMatrix(m.entries[:k][:, bits_of(mask)])
            assert t.value(mask) == permanent_ryser(minor), (k, mask)


def test_full_table_matches_numpy_oracle():
    for n in range(1, 19):
        m = sample_sign_matrix(n, RngStream(39, n))
        assert np.array_equal(build_lattice(m)._vals, numpy_level_table(m)), n


@pytest.mark.parametrize("signs", [[1] * 12, [-1] * 12, [1, -1] * 6])
def test_constant_rows_n12(signs):
    # row r is all signs[r], so every size-k minor is k! * signs[0] * ... * signs[k-1]
    m = SignMatrix(np.outer(signs, np.ones(12, dtype=np.int64)))
    t = build_lattice(m)
    assert np.array_equal(t._vals, numpy_level_table(m))
    for k in range(13):
        expected = math.factorial(k) * math.prod(signs[:k])
        assert set(t._vals[t.level_masks(k)].tolist()) == {expected}


def _build_n10_table(barrier, out_path):
    barrier.wait()
    m = sample_sign_matrix(10, RngStream(40))
    np.save(out_path, build_lattice(m)._vals)


def test_concurrent_first_builds_share_one_library(tmp_path, monkeypatch):
    # three fresh processes compile the kernel at once into one empty cache
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(3)
    outs = [tmp_path / f"table{j}.npy" for j in range(3)]
    procs = [ctx.Process(target=_build_n10_table, args=(barrier, out)) for out in outs]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
    codes = [p.exitcode for p in procs]
    for p in procs:
        if p.is_alive():
            p.kill()
    assert codes == [0, 0, 0]
    tables = [np.load(out) for out in outs]
    assert all(np.array_equal(tables[0], t) for t in tables[1:])
    assert np.array_equal(tables[0], numpy_level_table(sample_sign_matrix(10, RngStream(40))))
    files = sorted(os.listdir(tmp_path / "cache" / "permlab"))
    assert len(files) == 1 and files[0].startswith("_kernels-") and files[0].endswith(".so"), files


def _run_cli(tmp_path, args=("compute", "--random", "8"), **env):
    return subprocess.run(
        [sys.executable, "-m", "permlab.cli", *args],
        capture_output=True, text=True,
        env={**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache"), **env},
    )


# the lattice, modular, naive and batch engines all load the kernels
@pytest.mark.parametrize("args", [
    ("compute", "--random", "8"),
    ("compute", "--random", "8", "--mod", "7"),
    ("compute", "--random", "8", "--engine", "naive"),
    ("verify", "--suite", "parent_child", "--n", "4", "--trials", "10"),
], ids=["compute", "compute-mod", "compute-naive", "verify-parent-child"])
def test_missing_compiler_is_clean_error(tmp_path, args):
    empty = tmp_path / "bin"
    empty.mkdir()
    res = _run_cli(tmp_path, args, PATH=str(empty))
    assert res.returncode == 2
    assert "gcc" in res.stderr and "Traceback" not in res.stderr, res.stderr
    assert not os.listdir(tmp_path / "cache" / "permlab")  # no temporary file left


def test_unwritable_kernel_cache_is_clean_error(tmp_path):
    (tmp_path / "cache").write_text("a file, not a directory")
    res = _run_cli(tmp_path)
    assert res.returncode == 2
    assert str(tmp_path / "cache") in res.stderr and "Traceback" not in res.stderr, res.stderr


def test_failed_compile_names_the_compiler(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(lattice, "_KERNEL_CC", (*lattice._KERNEL_CC, "-no-such-flag"))
    lattice._kernels.cache_clear()
    try:
        with pytest.raises(OSError, match="gcc failed to compile"):
            build_lattice(all_ones(3))
    finally:
        lattice._kernels.cache_clear()
    assert not os.listdir(tmp_path / "permlab")


@pytest.mark.parametrize("bad", [0, 2, 257, -255, 1.5])
def test_add_level_rejects_non_sign_entries(bad):
    # a wider row is checked before the int8 cast: 257 and -255 would wrap
    # to 1, and 1.5 would truncate to 1
    t = MinorTable(4)
    row = np.array([1, -1, bad, 1])
    with pytest.raises(ValueError, match="-1 or \\+1"):
        t.add_level(row)
    assert t.k_max == 0
    t.add_level(np.array([1, -1, -1, 1]))
    assert t.k_max == 1


@pytest.mark.parametrize("bad", [0, 2, -128, 127])
def test_add_level_kernel_refuses_an_int8_row_before_any_write(bad):
    t = build_lattice(all_ones(4), 2)
    before = [t.value(mask) for mask in range(16) if mask.bit_count() <= 2]
    with pytest.raises(ValueError, match="-1 or \\+1"):
        t.add_level(np.array([1, -1, bad, 1], dtype=np.int8))
    assert t.k_max == 2 and t._vals[t.level_masks(3)].tolist() == [0] * 4
    assert [t.value(mask) for mask in range(16) if mask.bit_count() <= 2] == before


def test_every_row_form_builds_the_same_table():
    # the int8 row as the matrix holds it, a wider copy, a (1, n) array, a
    # list, and non-contiguous int8 columns (giving the transpose's table)
    m = sample_sign_matrix(9, RngStream(39))
    tables = [MinorTable(9) for _ in range(5)]
    for i in range(9):
        row = m.row(i)
        for t, form in zip(tables, (row, row.astype(np.int64), row.reshape(1, -1), row.tolist())):
            t.add_level(form)
        tables[4].add_level(m.entries[:, i])
    values = [[t.value(mask) for mask in range(1 << 9)] for t in tables]
    assert values[1:4] == values[:1] * 3
    transpose = build_lattice(SignMatrix(m.entries.T))
    assert values[4] == [transpose.value(mask) for mask in range(1 << 9)]
    with pytest.raises(ValueError, match="8 entries, expected 9"):
        MinorTable(9).add_level(m.row(0)[:8])


def test_memory_guard_names_the_estimate(monkeypatch):
    # 26 * 2**n bytes: the int64 table plus the peak of building the level masks
    monkeypatch.setattr(lattice, "_physical_memory_bytes", lambda: (26 << 10) - 1)
    with pytest.raises(CapError, match="26624 bytes"):
        MinorTable(10)
    MinorTable(9)
    monkeypatch.setattr(lattice, "_physical_memory_bytes", lambda: None)
    MinorTable(10)


def test_lattice_matches_brute_minors():
    m = sample_sign_matrix(5, RngStream(32))
    t = build_lattice(m)
    for k in range(1, 6):
        for mask in subsets_of_size(5, k):
            assert t.value(mask) == brute_minor_permanent(m, bits_of(mask))


def test_heavy_masks_and_monotonicity():
    m = sample_sign_matrix(6, RngStream(33))
    t = build_lattice(m)
    # every singleton has |value| = 1
    assert len(t.heavy_masks(1, 1)) == 6
    # lam = 0 catches everything
    assert len(t.heavy_masks(3, 0)) == math.comb(6, 3)
    # lam > n! catches nothing
    assert len(t.heavy_masks(6, math.factorial(6) + 1)) == 0
    # monotone in the threshold
    for k in range(1, 7):
        prev = None
        for lam in (0, 1, 2, 4, 8, 100):
            members = set(int(x) for x in t.heavy_masks(k, lam))
            if prev is not None:
                assert members <= prev
            prev = members
    # against brute enumeration
    for k in (2, 4):
        for lam in (1, 3):
            assert sorted(int(x) for x in t.heavy_masks(k, lam)) == brute_heavy_sets(m, k, lam)


def test_heavy_count_matches_members():
    m = sample_sign_matrix(7, RngStream(34))
    t = build_lattice(m)
    for k in (1, 3, 5):
        for lam in (0, 1, 2.5, 10):
            assert t.heavy_count(k, lam) == len(t.heavy_masks(k, lam))


@pytest.mark.parametrize("n", range(1, 9))
def test_heavy_queries_match_brute_on_every_level(n):
    # thresholds 2**63 and 2**64 + 1 do not fit in int64; unclamped, ctypes
    # would pass them on truncated (2**64 + 1 as 1)
    m = sample_sign_matrix(n, RngStream(37, n))
    t = build_lattice(m)
    for k in range(n + 1):
        for lam in (0, 1, math.factorial(k), math.factorial(k) + 1, 2**63, 2**64 + 1):
            brute = brute_heavy_sets(m, k, lam)
            assert t.heavy_masks(k, lam).tolist() == brute, (k, lam)
            assert t.heavy_count(k, lam) == len(brute), (k, lam)


@pytest.mark.parametrize("n", range(6, 13))
def test_parent_histogram_random_families_against_brute(n):
    gen = np.random.default_rng(38 + n)
    t = MinorTable(n)
    for k in range(1, n):
        level = t.level_masks(k)
        members = gen.choice(level, size=gen.integers(1, len(level) + 1), replace=False)
        counts = parent_histogram(t, k, members)
        brute = brute_parent_counts(members.tolist(), n)
        assert counts.tolist() == [0] + [sum(1 for c in brute.values() if c == l)
                                         for l in range(1, n + 1)], k
        assert parent_histogram(t, k, np.array([], dtype=np.int64)).tolist() == [0] * (n + 1)


@pytest.mark.parametrize("member, message", [
    (1 << 8, "outside"),  # one past the table
    (-1, "outside"),
    (2**64, "masks in"),  # does not fit in int64
    (0b111, "not a size-2 set"),
    (0b11, "repeated"),
], ids=["past-table", "negative", "beyond-int64", "wrong-level", "repeated"])
def test_parent_histogram_rejects_bad_members(member, message):
    t = MinorTable(8)
    with pytest.raises(ValueError, match=message):
        parent_histogram(t, 2, [0b11, 0b101, member])


@pytest.mark.parametrize("member", [1 << 8, 0b111, 0b11], ids=["past-table", "wrong-level",
                                                                "repeated"])
def test_parent_histogram_after_a_refused_family(member):
    # the table keeps one scratch array; a refused family clears its marks,
    # so the next family on the same table is counted from zero
    t = MinorTable(8)
    family = [0b11, 0b101, 0b1001, 0b110, 0b11000000]
    with pytest.raises(ValueError):
        parent_histogram(t, 2, [*family, member])
    for _ in range(2):
        counts = parent_histogram(t, 2, family)
        brute = brute_parent_counts(family, 8)
        assert counts.tolist() == [0] + [sum(1 for c in brute.values() if c == l)
                                         for l in range(1, 9)]
        assert not t._scratch.any()


def test_parent_histogram_complete_family():
    n = 6
    t = build_lattice(all_ones(n))
    members = t.heavy_masks(1, 1)  # all singletons
    counts = parent_histogram(t, 1, members)
    assert len(counts) == n + 1
    # every 2-set has exactly 2 parents
    assert counts[2] == math.comb(n, 2)
    assert counts[1] == 0
    # double count: sum of l * counts[l] = |family| * (n - k)
    assert int(np.arange(n + 1) @ counts) == len(members) * (n - 1)


def test_parent_histogram_single_member():
    n = 6
    t = build_lattice(all_ones(n))
    counts = parent_histogram(t, 3, np.array([mask_of([0, 1, 2])]))
    assert counts[1] == n - 3
    assert int(np.arange(n + 1) @ counts) == n - 3
    assert parent_histogram(t, 3, []).tolist() == [0] * (n + 1)


def test_parent_histogram_against_brute():
    m = sample_sign_matrix(6, RngStream(35, 4))
    t = build_lattice(m)
    members = t.heavy_masks(3, 2)
    counts = parent_histogram(t, 3, members)
    brute = brute_parent_counts([int(x) for x in members], 6)
    for l in range(1, 7):
        assert counts[l] == sum(1 for c in brute.values() if c == l)
    # double-count identity
    assert int(np.arange(7) @ counts) == len(members) * (6 - 3)


def test_split_events_trivial_cases():
    n = 12
    counts = np.zeros(n + 1, dtype=np.int64)
    counts[1] = 10**6
    assert split_events(counts, 0.3, 0.5, 10) is SplitVerdict.PRIME
    counts2 = np.zeros(n + 1, dtype=np.int64)
    counts2[n] = 10**6
    assert split_events(counts2, 0.3, 0.5, 10) is SplitVerdict.DOUBLE_PRIME


def test_split_cut_clamped():
    assert split_cut(12, 0.3, 0.5) == 1  # (0.3/8)*sqrt(12) < 1
    assert split_cut(10**4, 0.8, 0.1) >= 1
    with pytest.raises(ValueError):
        split_cut(12, 1.5, 0.5)


def test_split_dichotomy_always_decides():
    # with the clamp, one side always holds when every member has >= eps*n children
    eps, c = 0.3, 0.5
    for t in range(20):
        m = sample_sign_matrix(12, RngStream(36, t))
        table = build_lattice(m, 6)
        k = 4
        members = table.heavy_masks(k, 1)
        size = len(members)
        if size == 0:
            continue
        counts = parent_histogram(table, k, members)
        assert int(np.arange(13) @ counts) == size * (12 - k)
        verdict = split_events(counts, eps, c, size)
        cut = split_cut(12, eps, c)
        low = int(counts[1 : cut + 1].sum())
        high = int(counts[cut + 1 :].sum())
        if verdict is SplitVerdict.PRIME:
            assert low >= Fraction(eps) * 12 * size / (2 * cut)
        else:
            # the counting argument guarantees the other side
            assert high >= Fraction(eps) * size / 2


def test_python_int_levels_n22():
    # levels 21 and 22 exceed int64 and are kept as Python ints
    n = 22
    entries = np.ones((n, n), dtype=np.int8)
    entries[0, 0] = -1
    t = build_lattice(SignMatrix(entries))
    full = (1 << n) - 1
    f = math.factorial
    assert t.top_value() == f(22) - 2 * f(21)
    # only the 21-set without column 0 avoids the -1 entry
    assert t.heavy_count(21, f(21)) == 1
    assert t.heavy_masks(21, f(21)).tolist() == [full ^ 1]
    assert t.value(full ^ 2) == f(21) - 2 * f(20)
    # threshold 0 selects every set and k!+1 none, on both Python-int levels
    for k in (21, 22):
        assert t.heavy_count(k, 0) == math.comb(n, k)
        assert t.heavy_masks(k, 0).tolist() == t.level_masks(k).tolist()
        assert t.heavy_count(k, f(k) + 1) == 0
        assert t.heavy_masks(k, f(k) + 1).tolist() == []


def test_lattice_cap():
    with pytest.raises(CapError, match="capped at n <= 22"):
        build_lattice(all_ones(23))


def test_dump_csv(tmp_path):
    m = matrix_from_counter(3, 0b101010101)
    t = build_lattice(m)
    path = tmp_path / "lattice.csv"
    dump_lattice_csv(t, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "mask,level,value"
    assert len(lines) == 1 + 2**3
    # spot-check the top row
    mask, level, value = lines[-1].split(",")
    assert int(mask) == 0b111 and int(level) == 3
    assert int(value) == permanent_ryser(m)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**25 - 1), st.floats(0.1, 30), st.floats(0.1, 30))
def test_heavy_monotone_property(bits, lam_a, lam_b):
    lo, hi = sorted([lam_a, lam_b])
    m = matrix_from_counter(5, bits)
    t = build_lattice(m)
    for k in (2, 3):
        big = set(int(x) for x in t.heavy_masks(k, hi))
        small = set(int(x) for x in t.heavy_masks(k, lo))
        assert big <= small
