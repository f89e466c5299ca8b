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

from permlab import compiled, lattice
from permlab.engines import permanent, permanent_mod, permanent_ryser, permanents
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
from permlab.subsets import bits_of, masks_by_level

from oracles import (
    all_ones,
    arange_masks_by_level,
    brute_heavy_sets,
    brute_minor_permanent,
    brute_parent_counts,
    enumerate_all_sign_matrices,
    mask_of,
    matrix_from_counter,
    numpy_level_table,
    subsets_of_size,
    table_values,
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


def test_heavy_query_rounds_a_numpy_int_exactly():
    # 20! + 1 is not a float: a numpy int past 2**53 must be rounded as an
    # integer, on the fused build and on the queries alike
    f = math.factorial(20)
    for dtype in (np.int64, np.uint64):
        for threshold, want in ((dtype(f), [(1 << 20) - 1]), (dtype(f + 1), [])):
            t = build_lattice(all_ones(20), 19)
            assert t.add_heavy_level(np.ones(20), threshold).tolist() == want
            assert t.heavy_masks(20, threshold).tolist() == want


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
        assert np.array_equal(table_values(build_lattice(m)), numpy_level_table(m)), n


@pytest.mark.parametrize("signs", [[1] * 12, [-1] * 12, [1, -1] * 6])
def test_constant_rows_n12(signs):
    # row r is all signs[r], so every size-k minor is k! * signs[0] * ... * signs[k-1]
    m = SignMatrix(np.outer(signs, np.ones(12, dtype=np.int64)))
    t = build_lattice(m)
    assert np.array_equal(table_values(t), numpy_level_table(m))
    for k in range(13):
        expected = math.factorial(k) * math.prod(signs[:k])
        assert set(table_values(t, t.level_masks(k)).tolist()) == {expected}


def _build_n10_table(barrier, out_path):
    barrier.wait()
    m = sample_sign_matrix(10, RngStream(40))
    np.save(out_path, table_values(build_lattice(m)))


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


# the sign draws of --random and the batch engine of parent_child load the kernels
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
    monkeypatch.setattr(compiled, "_KERNEL_CC", (*compiled._KERNEL_CC, "-no-such-flag"))
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
    assert t.k_max == 2 and table_values(t, t.level_masks(3)).tolist() == [0] * 4
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
    # 14 * 2**n bytes: the int64 table, the uint32 level masks and the
    # half-size levels held through the masks' last doubling
    monkeypatch.setattr(lattice, "_physical_memory_bytes", lambda: (14 << 10) - 1)
    with pytest.raises(CapError, match=r"14336 bytes, 14 \* 2\*\*n"):
        MinorTable(10)
    MinorTable(9)
    monkeypatch.setattr(lattice, "_physical_memory_bytes", lambda: None)
    MinorTable(10)


# A fresh interpreter, so its peak before the build is its import, not
# another test's arrays.  The peak is VmHWM, the high-water RSS of the
# child's own address space: ru_maxrss outlives exec, so a child started
# from the test runner reports at least the runner's own peak.
_FULL_N20_BUILD = """
from permlab.lattice import MinorTable
from permlab.matrices import sample_sign_matrix
from permlab.rng import RngStream

def peak():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) << 10 for line in fh if line.startswith("VmHWM:"))

m = sample_sign_matrix(20, RngStream(20))
before = peak()
t = MinorTable(20)
for j in range(20):
    t.add_level(m.row(j))
print(peak() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_memory_guard_charges_what_a_full_build_measures():
    # the 14 * 2**20 byte charge bounds the peak a full n = 20 build adds,
    # with 2 MiB of slack for the interpreter's own allocations, the kernel
    # library and page rounding; the int64 table alone is 8 * 2**20 bytes,
    # so a smaller rise would mean the build was not measured
    src = os.path.dirname(os.path.dirname(lattice.__file__))
    res = subprocess.run([sys.executable, "-c", _FULL_N20_BUILD], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr
    rise = int(res.stdout)
    assert 8 << 20 <= rise <= (14 << 20) + (2 << 20), rise


@pytest.mark.parametrize("n", range(19))
def test_masks_by_level_matches_the_arange_oracle(n):
    levels = masks_by_level(n)
    assert len(levels) == n + 1
    for k, (masks, want) in enumerate(zip(levels, arange_masks_by_level(n))):
        assert masks.dtype == np.uint32 and masks.flags.c_contiguous
        assert len(masks) == math.comb(n, k)
        assert np.array_equal(masks, want), k


def test_masks_by_level_at_the_cap():
    n = lattice.LATTICE_MAX_N
    levels = masks_by_level(n)
    assert [len(masks) for masks in levels] == [math.comb(n, k) for k in range(n + 1)]
    assert all(masks.dtype == np.uint32 and (masks[1:] > masks[:-1]).all() for masks in levels)


def test_level_masks_refuses_a_level_outside_the_table():
    t = MinorTable(5)
    assert t.level_masks(0).tolist() == [0] and t.level_masks(5).tolist() == [31]
    for k in (-1, 6):
        with pytest.raises(ValueError, match=r"level %d is outside \[0, 5\]" % k):
            t.level_masks(k)


def test_heavy_masks_are_int64_over_uint32_levels():
    t = build_lattice(all_ones(6), 3)
    assert t.level_masks(3).dtype == np.uint32
    assert t.heavy_masks(3, 0).dtype == np.int64
    assert t.heavy_masks(3, 0).tolist() == t.level_masks(3).tolist()


def test_shared_level_masks_are_read_only():
    # every table of an n reads one cached array per level: a write through
    # level_masks would rebuild each later table on the wrong masks
    m = sample_sign_matrix(6, RngStream(4, 0))
    t = build_lattice(m)
    with pytest.raises(ValueError, match="read-only"):
        t.level_masks(2)[0] = 5
    assert build_lattice(m).top_value() == permanent(m)


# levels of 1, 7, 8, 9, 45 and 165 masks: the AVX-512F sweep, where the host
# has it, builds the first count & ~7 masks eight at a time, and the scalar
# sweep builds the rest; level 3 is halved (shift 1) and holds negative values
@pytest.mark.parametrize("n, k", [(7, 7), (7, 1), (8, 1), (9, 1), (10, 2), (11, 3)])
def test_one_level_built_by_both_sweeps(n, k):
    m = sample_sign_matrix(n, RngStream(53, n))
    masks = masks_by_level(n)[k]
    want = numpy_level_table(m)[masks]
    plain = build_lattice(m, k)
    # Python ints: multiplied back in int64, a value shifted logically would
    # wrap round to the right one
    assert [plain.value(mask) for mask in masks.tolist()] == want.tolist()
    # the first group of eight whose |values| differ (else the first masks):
    # its median and its largest |value|, which splits it
    sizes = np.abs(want)
    first = next((j for j in range(0, len(masks) - 7, 8) if len(set(sizes[j:j + 8])) > 1), 0)
    group = np.sort(sizes[first:first + 8])
    for threshold in (0, int(group[len(group) // 2]), int(group[-1]), int(sizes.max()) + 1):
        fused = build_lattice(m, k - 1)
        heavy = fused.add_heavy_level(m.row(k - 1), threshold).tolist()
        assert heavy == masks[sizes >= threshold].tolist() == plain.heavy_masks(k, threshold).tolist()
        assert heavy == sorted(heavy) and np.array_equal(fused._vals, plain._vals)
    if n >= 10:
        assert len(group) == 8 and group[0] < group[-1]


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
    # thresholds 2**63 and 2**64 + 1 do not fit in the int64 values they are
    # compared with
    m = sample_sign_matrix(n, RngStream(37, n))
    t = build_lattice(m)
    for k in range(n + 1):
        for lam in (0, 1, math.factorial(k), math.factorial(k) + 1, 2**63, 2**64 + 1):
            brute = brute_heavy_sets(m, k, lam)
            assert t.heavy_masks(k, lam).tolist() == brute, (k, lam)
            assert t.heavy_count(k, lam) == len(brute), (k, lam)


# every form a threshold takes: negative, fractional, exact rational, numpy
# int, and past int64 (clamped for the kernel)
_FUSED_THRESHOLDS = (0, -3, 2.5, Fraction(7, 2), np.int64(5), 2**70)


@pytest.mark.parametrize("n", (3, 7, 10))
def test_fused_selection_matches_heavy_masks(n):
    m = sample_sign_matrix(n, RngStream(48, n))
    plain = build_lattice(m)
    for t in _FUSED_THRESHOLDS:
        fused = MinorTable(n)
        for k in range(1, n + 1):
            heavy = fused.add_heavy_level(m.row(k - 1), t)
            assert heavy.dtype == np.int64
            assert heavy.tolist() == plain.heavy_masks(k, t).tolist(), (k, t)
        assert np.array_equal(fused._vals, plain._vals)


def test_fused_selection_past_level_20():
    # level 21 of n = 21, whose one value passes 2**63 and is stored divided
    # by 2**16, and levels 19-20 below it: a threshold past 2**63 is scaled
    # with the level, and only then clamped
    n = 21
    entries = np.ones((n, n), dtype=np.int8)
    entries[0, 0] = -1
    m = SignMatrix(entries)
    f = math.factorial
    plain = build_lattice(m)
    top = plain.top_value()
    assert top == f(21) - 2 * f(20) > 2**65
    thresholds = (*_FUSED_THRESHOLDS, f(20) - 2 * f(19), f(20), 2**63, top, top + 1)
    expected = {20: {f(20): [(1 << n) - 2], 2**63: []}, 21: {top: [(1 << n) - 1], top + 1: []}}
    for t in thresholds:
        fused = build_lattice(m, 18)
        for k in (19, 20, 21):
            heavy = fused.add_heavy_level(m.row(k - 1), t)
            assert heavy.tolist() == plain.heavy_masks(k, t).tolist(), (k, t)
            if t in expected.get(k, {}):
                assert heavy.tolist() == expected[k][t], (k, t)
        assert fused.top_value() == top


def _n22_entries(which):
    if which == "random":
        return sample_sign_matrix(22, RngStream(52)).entries
    entries = np.ones((22, 22), dtype=np.int8)
    entries[0, 0] = 1 if which == "ones" else -1
    return entries


@pytest.mark.parametrize("which", ["ones", "one-negated", "random"])
def test_levels_21_and_22_match_the_engines(which):
    # the two levels past 20, stored divided by 2**16 and 2**17, against
    # engines that share no code with the lattice: the Glynn kernel and the
    # modular Ryser sweep
    n, f = 22, math.factorial
    entries = _n22_entries(which)
    m, full = SignMatrix(entries), (1 << n) - 1
    plain = build_lattice(m)
    # each level-21 value is the permanent of the 21 x 21 minor on the first
    # 21 rows
    minors = np.stack([np.delete(entries[:21], j, axis=1) for j in range(n)])
    assert [plain.value(full ^ 1 << j) for j in range(n)] == permanents(minors)
    top = plain.top_value()
    assert top == permanent(m)
    # top mod p * q, from the CRT of its residues mod two primes below 2**31
    p, q = 2**31 - 1, 2**31 - 19
    rp, rq = permanent_mod(m, p), permanent_mod(m, q)
    assert top % (p * q) == rp + p * ((rq - rp) * pow(p, -1, q) % q)
    for t in (2**63, f(22), abs(top), abs(top) + 1):
        fused = build_lattice(m, 20)
        for k in (21, 22):
            heavy = fused.add_heavy_level(m.row(k - 1), t).tolist()
            assert heavy == plain.heavy_masks(k, t).tolist(), (k, t)
            # and against the values as Python ints, with no threshold rounding
            level = plain.level_masks(k).tolist()
            assert heavy == [mask for mask in level if abs(plain.value(mask)) >= t], (k, t)
        assert heavy == ([full] if abs(top) >= t else []), t  # level 22's one mask


@pytest.mark.parametrize("n, k", [(6, 3), (21, 21)])
def test_fused_build_refuses_a_row_before_any_write(n, k):
    m = sample_sign_matrix(n, RngStream(50, n))
    t = build_lattice(m, k - 1)
    vals = t._vals.copy()
    bad = m.row(k - 1).copy()
    bad[n // 2] = 2
    with pytest.raises(ValueError, match="-1 or \\+1"):
        t.add_heavy_level(bad, 1)
    assert t.k_max == k - 1
    assert np.array_equal(t._vals, vals)
    # a later plain build takes no threshold from the refused one
    assert t.add_level(m.row(k - 1)) is None


@pytest.mark.parametrize("n", range(6, 13))
def test_parent_histogram_random_families_against_brute(n):
    gen = np.random.default_rng(38 + n)
    t = MinorTable(n)
    for k in range(n):  # k = 0 is the family {empty set}
        level = t.level_masks(k)
        members = gen.choice(level, size=gen.integers(1, len(level) + 1), replace=False)
        counts = parent_histogram(t, k, members)
        brute = brute_parent_counts(members.tolist(), n)
        assert counts.tolist() == [0] + [sum(1 for c in brute.values() if c == l)
                                         for l in range(1, n + 1)], k
        # the same family as int32, uint32, a list and a strided view
        for other in (members.astype(np.int32), members.astype(np.uint32), members.tolist(),
                      np.repeat(members, 2)[::2]):
            assert np.array_equal(parent_histogram(t, k, other), counts), k
        assert parent_histogram(t, k, np.array([], dtype=np.int64)).tolist() == [0] * (n + 1)


@pytest.mark.parametrize("n, k, size, member, message", [
    (8, 2, 2, 1 << 8, "outside"),  # one past the table, after 0b11 and 0b101
    (8, 2, 2, -1, "outside"),
    (8, 2, 2, 2**64, "masks in"),  # does not fit in int64
    (8, 2, 2, 0b111, "not a size-2 set"),
    (8, 2, 2, 0b11, "repeated"),
    (20, 10, 1000, 2**10 - 1, "repeated"),  # the first of 1,000 members, again
], ids=["past-table", "negative", "beyond-int64", "wrong-level", "repeated",
        "repeated-after-1000"])
def test_parent_histogram_rejects_bad_members(n, k, size, member, message):
    t = MinorTable(n)
    with pytest.raises(ValueError, match=message):
        parent_histogram(t, k, [*t.level_masks(k)[:size].tolist(), member])


@pytest.mark.parametrize("member", [1 << 8, 0b111, 0b11], ids=["past-table", "wrong-level",
                                                                "repeated"])
def test_parent_histogram_after_a_refused_family(member):
    # a refused family leaves nothing behind: the next family on the same
    # table is counted from zero
    t = MinorTable(8)
    family = [0b11, 0b101, 0b1001, 0b110, 0b11000000]
    with pytest.raises(ValueError):
        parent_histogram(t, 2, [*family, member])
    for _ in range(2):
        counts = parent_histogram(t, 2, family)
        brute = brute_parent_counts(family, 8)
        assert counts.tolist() == [0] + [sum(1 for c in brute.values() if c == l)
                                         for l in range(1, 9)]


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
    # levels 21 and 22, whose values pass 2**63: stored divided by 2**16 and
    # 2**17, and read back as Python ints
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
    # threshold 0 selects every set and k!+1 none, on both levels past 20
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
