"""The compiled kernels under the compiler's own checks: a warning-free
build; every kernel run at its stated bound with undefined-behaviour
sanitizing on, and every kernel entry point fed inputs that its caller must
copy with address sanitizing on, each in a child process with its own
kernel cache, which fails if its script never calls some export; the
golden verify reports and a batch of seeded draws replayed on a heap whose
freed blocks glibc overwrites; and each size cap recomputed from the bound
its kernel states."""

import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from permlab import compiled, engines, lattice

_TESTS = str(Path(__file__).parent)

# Each kernel at its stated bound, through the program's own entry points.
# The all-ones matrix makes every column sum, product and minor as large as
# it gets; negated rows and columns give the negative extremes.
_AT_THE_BOUNDS = textwrap.dedent("""
    import math
    import numpy as np
    from permlab import engines, lattice, matrices
    from permlab.rng import RngStream
    from oracles import all_ones, numpy_sign_draw

    f = math.factorial
    # n = 1, whose 8 lanes are all padding but one, each lane width at its
    # widest n and at the first n past it, the widest odd n in 64 bits (19),
    # and odd and even n in 128 bits; n = 29 stays out, at about 3 s a
    # matrix unsanitized
    for n in (1, 8, 9, 15, 16, 17, 19, 20, 21, 22, 23, 24):
        ones = np.ones((3, n, n), dtype=np.int8)
        ones[1] *= -1
        ones[2, 0] *= -1
        assert engines.permanents(ones) == [f(n), (-1) ** n * f(n), -f(n)], n
    # cofactors at every row count, so both lane widths and both parities of
    # the row count (odd ones halve their doubled cofactors) are run: all
    # ones, a negated first column (none at one row), which negates every
    # cofactor, and a negated row, which negates all but its own
    for rows in range(1, 14):
        blocks = np.ones((3, rows, rows - 1), dtype=np.int8)
        blocks[1, :, :1] = -1
        blocks[2, rows // 2] = -1
        top = f(rows - 1)
        want = [[top] * rows, [-top if rows > 1 else top] * rows,
                [top if r == rows // 2 else -top for r in range(rows)]]
        assert engines.cofactors(blocks).tolist() == want, rows
    top = 2**64 - 1
    draw = matrices.sample_sign_matrix(63, RngStream(top, top)).entries
    assert np.array_equal(draw, numpy_sign_draw(top, top, (63, 63)))
    p = 2**31 - 1
    assert engines.permanent_mod(all_ones(20), p) == f(20) % p
    # the naive walk at every n, with a row negated in its tallied first rows
    # from n = 5 and one in its expanded last four
    for n in range(1, 11):
        ones = np.ones((2, n, n), dtype=np.int8)
        ones[1, list({0, n - 1})] = -1
        want = [f(n), (-1) ** len({0, n - 1}) * f(n)]
        assert [engines.permanent_naive(matrices.SignMatrix(a)) for a in ones] == want, n
    table = lattice.build_lattice(all_ones(20))
    assert table.value((1 << 20) - 1) == f(20)
    assert all(table.level_masks(k).dtype == np.uint32 for k in range(21))
    for bad in (0, 2):
        try:
            lattice.build_lattice(all_ones(4), 2).add_level(np.array([1, 1, bad, 1], dtype=np.int8))
        except ValueError:
            pass
        else:
            raise AssertionError(f"add_level took the int8 entry {bad}")
    # add_level with a threshold: level 20 from a negated row, whose one
    # value is -20!, at 0, at 20! and at 2**70 (clamped); and level 10 at
    # t = 0, which fills the output buffer to its last slot; all rows int16
    full = [(1 << 20) - 1]
    for threshold, want in ((0, full), (f(20), full), (2**70, [])):
        fused = lattice.build_lattice(all_ones(20), 19)
        heavy = fused.add_heavy_level(-np.ones(20, dtype=np.int16), threshold)
        assert heavy.tolist() == want
        assert fused.top_value() == -f(20)
    fused = lattice.build_lattice(all_ones(20), 9)
    heavy = fused.add_heavy_level(np.ones(20, dtype=np.int16), 0)
    assert np.array_equal(heavy, table.level_masks(10))
    # n = 22 through level 22, whose sum before the shift, 22! / 2**16, is
    # the largest the lattice makes; every size-k minor is k!, so each level
    # is checked whole, through both sweeps where the host has AVX-512F (the
    # first count & ~7 masks of a level eight at a time, the rest one by
    # one), with the shift and |value| at the largest values each level
    # stores; then levels 21 and 22 with a threshold, each from a negated row
    # (values -21! and 22!), at 0, at 22! and at 2**70, which the scaled
    # clamp takes: level 21's first 16 masks go through the eight-mask sweep
    table = lattice.build_lattice(all_ones(22))
    assert table.top_value() == f(22)
    for k in range(23):
        masks = table.level_masks(k)
        assert table.heavy_count(k, f(k)) == len(masks) and not table.heavy_count(k, f(k) + 1), k
        assert table.value(int(masks[0])) == table.value(int(masks[-1])) == f(k), k
    full, level21 = (1 << 22) - 1, table.level_masks(21).tolist()
    for threshold, want in ((0, (level21, [full])), (f(22), ([], [full])), (2**70, ([], []))):
        fused = lattice.build_lattice(all_ones(22), 20)
        heavy = [fused.add_heavy_level(-np.ones(22, dtype=np.int16), threshold).tolist()
                 for _ in range(2)]
        assert heavy == list(want) and fused.top_value() == f(22), threshold
""")


# Every kernel entry point, fed the same sign entries in layouts that its
# caller must copy before the kernel reads them: strided slices, transposes,
# int16 and int64 arrays, and lists.  Each answer must equal the one for the
# C-ordered int8 array.  The arrays exceed numpy's small-block cache, so a
# freed copy goes back to malloc, where the sanitizer poisons it.
_COPIED_INPUTS = textwrap.dedent("""
    import numpy as np
    from permlab import engines, lattice, matrices
    from permlab.matrices import SignMatrix
    from permlab.rng import RngStream

    def layouts(a):
        yield np.repeat(a, 2, axis=-1)[..., ::2]  # strided slice
        if a.ndim > 1:
            yield np.ascontiguousarray(np.swapaxes(a, -1, -2)).swapaxes(-1, -2)  # transpose
        yield a.astype(np.int16)
        yield a.astype(np.int64)
        yield a.tolist()

    def agree(fn, a):
        want = fn(a)
        for other in layouts(a):
            got = fn(other)
            assert np.array_equal(got, want), fn

    gen = np.random.default_rng(0)
    signs = lambda *shape: 2 * gen.integers(0, 2, size=shape, dtype=np.int8) - 1
    agree(engines.permanents, signs(600, 4, 4))
    agree(engines.permanents, signs(200, 8, 8))
    agree(engines.permanents, signs(8, 16, 16))
    agree(engines.permanents, signs(2, 21, 21))
    agree(engines.ryser_batch, signs(40, 12, 12))
    agree(engines.cofactors, signs(100, 9, 8))
    agree(engines.cofactors, signs(100, 12, 11))
    agree(engines.cofactors, signs(40, 13, 12))

    # trials as a list, a tuple, a uint64 array and a strided view, with keys
    # up to 2**64 - 1 (stream 0's trial t has key t + 1); each batch's keys
    # and draws exceed the small-block cache
    rng = RngStream(2**64 - 1)
    top = np.arange(2**64 - 401, 2**64 - 1, dtype=np.uint64)
    want = np.stack([matrices.sample_sign_matrix(16, rng.substream(t)).entries for t in top.tolist()])
    for trials in (top.tolist(), tuple(top.tolist()), top, np.repeat(top, 2)[::2]):
        assert np.array_equal(matrices.sample_sign_matrices(16, rng, trials), want)
        assert np.array_equal(matrices.sample_sign_matrices(16, rng, trials, rows=3), want[:, :3])
    agree(lambda a: engines.permanent(SignMatrix(a)), signs(20, 20))
    agree(lambda a: engines.permanent_mod(SignMatrix(a), 2**31 - 1), signs(16, 16))
    agree(lambda a: engines.permanent_naive(SignMatrix(a)), signs(9, 9))

    rows = signs(16, 16)
    def table_of(rows):
        table = lattice.MinorTable(16)
        for row in rows:
            table.add_level(row)
        return table
    table = table_of(rows)
    assert table.level_masks(8).dtype == np.uint32
    for other in layouts(rows):
        copy = table_of(other)
        assert all(copy.value(m) == table.value(m) for m in table.level_masks(8).tolist())
    # the build with a threshold from the same rows; t = 0 fills the buffer
    def fused_of(rows, threshold):
        table = lattice.MinorTable(16)
        return [table.add_heavy_level(row, threshold).tolist() for row in rows]
    for threshold in (100, 0):
        want = fused_of(rows, threshold)
        assert want[7] == table.heavy_masks(8, threshold).tolist()
        for other in layouts(rows):
            assert fused_of(other, threshold) == want
""")


# Seeded random sign matrices at each width of the glynn sweep, checked
# against the modular Ryser residues, which share no code with the sweep:
# every n <= 8 and every cofactor row count, in batches that leave the
# vector block sweep's last group of 8 or 4 blocks part padding.  The scalar
# sweep's steps past 8 lanes mostly skip a product with a 0 lane and
# sometimes multiply; a host with AVX-512BW and DQ gives every batch here to
# the vector sweeps, which skip nothing, so the UBSan child runs the script
# again with the run-time check compiled out.
_RANDOM_SWEEPS = textwrap.dedent("""
    import numpy as np
    from permlab import engines
    from permlab.matrices import SignMatrix
    from permlab.rng import RngStream
    from oracles import generator

    p = 2**31 - 1
    residue = lambda a: engines.permanent_mod(SignMatrix(a), p)
    for n, count in [(n, 67) for n in range(1, 9)] + [(16, 16), (20, 4), (22, 2)]:
        mats = 2 * generator(RngStream(36, n)).integers(0, 2, size=(count, n, n), dtype=np.int8) - 1
        assert [x % p for x in engines.permanents(mats)] == [residue(m) for m in mats], n
    for rows, count in [(rows, 19 if rows <= 9 else 7) for rows in range(2, 14)]:
        gen = generator(RngStream(37, rows))
        blocks = 2 * gen.integers(0, 2, size=(count, rows, rows - 1), dtype=np.int8) - 1
        want = [[residue(np.delete(block, r, axis=0)) for r in range(rows)] for block in blocks]
        assert (engines.cofactors(blocks) % p).tolist() == want, rows
""")


# Run before each sanitized child's script: the kernels built with the
# sanitizer's flags, and each export wrapped with a call counter (every
# caller looks its kernel up on the one cached library at each call).
_COUNT_CALLS = textwrap.dedent("""
    import collections
    from permlab import compiled

    calls = collections.Counter()

    def counted(name, kernel):
        def call(*args):
            calls[name] += 1
            return kernel(*args)
        return call

    def build(*flags):
        compiled._KERNEL_CC = (*compiled._KERNEL_CC, *flags)
        compiled._kernels.cache_clear()
        lib = compiled._kernels()
        for name in compiled._SIGNATURES:
            setattr(lib, name, counted(name, getattr(lib, name)))

    build(*SANITIZER_FLAGS)
""")

# The sanitized kernels rebuilt so that every run-time CPU check reads false.
_SCALAR_ONLY = 'build("-D__builtin_cpu_supports(feature)=0")\n'

# Run after it: a sanitizer checks only the exports that the script ran.
_ALL_CALLED = textwrap.dedent("""
    uncalled = sorted(set(compiled._SIGNATURES) - set(calls))
    assert not uncalled, f"exports never called: {uncalled}"
""")


def _sanitized_child(tmp_path, runtime: str, flags: tuple[str, ...], script: str, **env) -> None:
    """script run in a child with the kernels built with flags, the
    sanitizer runtime preloaded, its own kernel cache, and the test oracles
    importable; the child fails if the script never calls some export."""
    lib = subprocess.run(["gcc", f"-print-file-name={runtime}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    if not os.path.isabs(lib):
        pytest.skip(f"gcc has no {runtime} runtime")
    program = "\n".join([f"SANITIZER_FLAGS = {flags!r}", _COUNT_CALLS, script, _ALL_CALLED])
    res = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                         env={**os.environ, "XDG_CACHE_HOME": str(tmp_path), "LD_PRELOAD": lib,
                              "PYTHONPATH": os.pathsep.join([_TESTS, os.environ["PYTHONPATH"]]), **env})
    assert res.returncode == 0, res.stderr
    assert os.listdir(tmp_path / "permlab")  # the sanitized build, not a cached one


def test_each_cap_is_the_largest_its_bound_allows():
    # each inequality stated in _kernels.c, recomputed in Python integers
    f = math.factorial
    largest = lambda ok: max(n for n in range(64) if ok(n))
    source = compiled._KERNEL_SOURCE.read_text()
    # level k is stored divided by 2**s_k, s_k = k - floor(log2 k) - 1, and
    # add_level's sums before the shift are at most k! / 2**s_(k-1): below
    # 2**63 through k = 24, past the lattice's cap
    levels = range(1, lattice.LATTICE_MAX_N + 1)
    assert lattice._SCALE == tuple(k - k.bit_length() for k in range(lattice.LATTICE_MAX_N + 1))
    assert all(lattice._SCALE[k] == k - math.floor(math.log2(k)) - 1 for k in levels)
    assert all(f(k) // 2 ** lattice._SCALE[k - 1] < 2**63 for k in levels)
    assert largest(lambda k: k > 0 and f(k) // 2 ** (k - 1 - (k - 1).bit_length()) < 2**63) == 24
    # a glynn lane is at most ceil(n/2) in absolute value, and the 16 lanes of
    # two chains multiply in int64: 15**16 < 2**63 <= 16**16
    assert engines.PERMANENT_MAX_N == largest(lambda n: ((n + 1) // 2) ** 16 < 2**63) == 30
    assert f(engines.PERMANENT_MAX_N) // 2 < 2**107
    # the lanes are int8: a column sum adds at most n + 1 signs (row 0 twice
    # at odd n), 31 < 2**7, before it is halved to a lane of at most 15; the
    # sweep holds the n - 1 flippable rows of n <= 30 in two 16-lane vectors,
    # and copies each n x n block followed by the up to 32 bytes that its
    # last row's vectors read past it
    assert engines.PERMANENT_MAX_N + 1 == 31 < 2**7 and (engines.PERMANENT_MAX_N + 1) // 2 == 15
    assert "typedef int8_t lanes16 __attribute__((vector_size(16)));" in source
    assert f"step[2][{engines.PERMANENT_MAX_N - 1}][2]" in source
    assert 2 * 16 >= engines.PERMANENT_MAX_N
    assert f"int8_t a[{engines.PERMANENT_MAX_N} * {engines.PERMANENT_MAX_N} + 32];" in source
    # the vector sweep (walks_sweep), from n = 9, multiplies every step out
    # in its lanes: a lane is at most 15, a pair at most 225 < 2**15, a quad
    # at most 50,625 < 2**31, and a 16-lane group at most 15**16 < 2**63; a
    # vpmuldq takes two quads, or at n <= 20 two octets, as signed 32-bit
    # operands, and an octet is at most ceil(20/2)**8 < 2**31 only through
    # n = 20; past it, two 16-lane products multiply in 128 bits exactly
    assert "if (n > 0 && host_has_avx512(1))" in source
    assert "n <= 8 ? blocks_8 : n <= 16 ? walks_16 : n <= 20 ? walks_32 : walks_wide" in source
    lane = (engines.PERMANENT_MAX_N + 1) // 2
    assert lane == 15 and lane**2 == 225 < 2**15 and lane**4 == 50_625 < 2**31 and lane**16 < 2**63
    assert ((20 + 1) // 2) ** 8 < 2**31 <= lane**8 and lane**32 < 2**127
    # four walks of 16 lanes fix log2(4) = 2 deltas and two of 32 fix 1,
    # which leaves at least one delta to step at the smallest n; the steps of
    # the largest n fill the step table, and each block is copied with the 32
    # bytes that its last row's 32 lanes read past it, as in the scalar sweep
    fixed = {16: 2, 32: 1}
    assert all(2**fixed[lanes] * lanes == 64 for lanes in fixed)
    sizes = range(9, engines.PERMANENT_MAX_N + 1)
    assert min(n - 1 - fixed[16 if n <= 16 else 32] for n in sizes) == 6 >= 1
    assert f"step[2][{engines.PERMANENT_MAX_N - 1 - fixed[32]}]" in source
    assert source.count(f"int8_t a[{engines.PERMANENT_MAX_N} * {engines.PERMANENT_MAX_N} + 32];") == 2
    # the block sweep (blocks_sweep) holds 8 blocks of 8 lanes (n <= 8, and
    # cofactor blocks of at most 9 rows) or 4 of 16 (10-13 rows) in a vector:
    # a lane is at most ceil(9/2) = 5 with 8 lanes, so a block's product is
    # at most 5**8 < 2**31, and at most ceil(13/2) = 7 with 16 lanes, so an
    # octet is at most 7**8 < 2**31 for the vpmuldq and a block, whose lanes
    # past its 12 columns hold 1, at most 7**12 < 2**63; its step and flip
    # tables hold the 12 rows that flip at 13 rows, and a group's copy the
    # larger of 8 blocks of 9 x 8 and 4 of 13 x 12, and the 16 bytes that its
    # last row's lanes read past it
    assert "rows <= 9 ? cofactor_blocks_8 : cofactor_blocks_16" in source
    small, large = (9 + 1) // 2, (engines._BATCH_MAX_N + 1) // 2
    assert (small, large) == (5, 7) and (8 + 1) // 2 <= small
    assert small**8 < 2**31 and large**8 < 2**31 and large**12 < 2**63
    rows = engines._BATCH_MAX_N
    assert f"step[2][{rows - 1}]" in source and f"flips[2][{rows - 1}]" in source
    assert 8 * 9 * 8 <= 4 * rows * (rows - 1) and "int8_t a[4 * 13 * 12 + 16];" in source
    # ryser_mod reduces its product after every 6 factors |colsum| <= n:
    # 2**31 * 30**6 < 2**61, and 2**n reduced products stay below 2**61
    modulus = engines._KERNEL_MAX_MODULUS
    assert modulus == 2 ** largest(lambda b: 2**b * engines.PERMANENT_MAX_N**6 < 2**61) == 2**31
    assert 2**engines.PERMANENT_MAX_N * modulus <= 2**61
    # _BATCH_MAX_N is below what int64 allows (ryser_batch's low word is the
    # permanent through 20! < 2**63, and cofactor accumulators stay below
    # 2 * 12! < 2**63): glynn_sweep keeps one cof and one mark per row, 13 each
    assert engines._BATCH_MAX_N < largest(lambda n: f(n) < 2**63) == 20
    assert 2 * f(engines._BATCH_MAX_N - 1) < 2**63
    arrays = re.search(r"cof\[(\d+)\] = \{0\}, mark\[(\d+)\] = \{0\}", source).groups()
    assert arrays == (str(engines._BATCH_MAX_N),) * 2
    # a memory cap: the lattice's 2**n table, which holds every level, takes
    # 14 bytes a subset at its build peak, about 59 MB at n = 22; and
    # add_level reads each mask as a uint32
    assert 14 * 2**lattice.LATTICE_MAX_N < 110 * 10**6 < 14 * 2 ** (lattice.LATTICE_MAX_N + 1)
    assert lattice.LATTICE_MAX_N < 32 and "const uint32_t *masks" in source
    # a time cap: naive_odd's count of n! permutations fits int64 through
    # n = 20, but its walk tallies every arrangement of all rows but the last
    # four, n! / 4! of them, 151,200 at n = 10; the tally, 2**n x 2 int64 on
    # the stack, takes 16 KiB at the cap
    assert engines.NAIVE_MAX_N == 10 < largest(lambda n: f(n) < 2**63)
    assert f(engines.NAIVE_MAX_N) // f(4) == 151_200
    assert f"#define NAIVE_MAX_N {engines.NAIVE_MAX_N}\n" in source
    assert "int64_t tally[2 << NAIVE_MAX_N];" in source
    assert 2**engines.NAIVE_MAX_N * 2 * 8 == 16 * 1024


def _c_functions(source: str) -> dict[str, bool]:
    """Each function defined in C source, mapped to whether it is static: the
    text between two top-level statements that opens a body and ends in a
    parameter list, once comments, directives and macro instantiations are
    dropped."""
    text = re.sub(r"/\*.*?\*/", " ", source, flags=re.S)
    text = re.sub(r"(?m)^#(?:.*\\\n)*.*$", " ", text)
    text = re.sub(r"(?m)^[A-Z][A-Z0-9_]*\(.*\)$", " ", text)
    found, depth, start = {}, 0, 0
    for i, ch in enumerate(text):
        if ch == "{":
            head = re.search(r"(\w+)\s*\([^()]*\)\s*$", text[start:i])
            if depth == 0 and head:
                found[head.group(1)] = text[start:i].split()[0] == "static"
            depth += 1
        elif ch == "}":
            depth -= 1
        if depth == 0 and ch in ";}":
            start = i + 1
    return found


def test_every_export_is_bound_and_listed_once():
    # the non-static functions of _kernels.c, the binding table and the
    # file's header list name the same kernels
    source = compiled._KERNEL_SOURCE.read_text()
    functions = _c_functions(source)
    assert {"level_sweep", "glynn_sweep", "naive_tally", "mulhilo"} <= set(functions)
    exported = {name for name, static in functions.items() if not static}
    header = re.match(r"/\*(.*?)\*/", source, re.S).group(1)
    listed = set(re.findall(r"(\w+): ", header[header.index("- "):]))
    assert exported == set(compiled._SIGNATURES) == listed == {
        "add_level", "glynn", "glynn_cofactors", "ryser_mod", "naive_odd", "sign_draws"}


def test_kernels_compile_without_warnings():
    res = subprocess.run(["gcc", "-O2", "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
                          str(compiled._KERNEL_SOURCE)], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_kernels_at_their_bounds_under_ubsan(tmp_path):
    _sanitized_child(tmp_path, "libubsan.so", ("-fsanitize=undefined", "-fno-sanitize-recover=all"),
                     _AT_THE_BOUNDS + _RANDOM_SWEEPS + _SCALAR_ONLY + _RANDOM_SWEEPS)


def test_kernels_read_no_freed_copy_under_asan(tmp_path):
    """Every kernel entry point on copied inputs, built with
    -fsanitize=address.

    gcc (12.2) instruments add_level's plain loads and stores, the 32-byte
    load of eight uint32 masks among them, but not the AVX-512F gather,
    scatter or compress-store builtins: a test program that gathered,
    scattered or compress-stored 32 bytes past a 64-byte heap block ran with
    no report, while the same access as a plain or 32-byte load was reported.
    So a green run does not check the eight-mask sweep's table accesses; their
    indices are masks of the level and their parents, all below 2**n, the
    table's length.  Python's own allocations are never freed at exit, so
    leaks are not reported."""
    _sanitized_child(tmp_path, "libasan.so", ("-fsanitize=address", "-fno-omit-frame-pointer"),
                     _COPIED_INPUTS + _RANDOM_SWEEPS, ASAN_OPTIONS="detect_leaks=0")


# Full tables and fused selections at sizes whose levels have from 1 to
# 12870 masks, permanents at every n = 1..30 (seeded batches, and through
# n = 24 the all-ones matrix with its first or last row negated), and the
# cofactors at every row count 1..13 and permanents at every n <= 8 of
# seeded batches of 0, 1-7 and 67 blocks, so the vector block sweep's last
# group is empty, partly padded or full, printed as hashes: run in one child
# whose kernels take the host's vector sweeps and one whose kernels never do.
_SWEEP_TABLES = textwrap.dedent("""
    import hashlib
    import numpy as np
    from permlab import engines, lattice
    from permlab.matrices import sample_sign_matrices, sample_sign_matrix
    from permlab.rng import RngStream

    digest = hashlib.sha256()
    for n in (1, 7, 9, 10, 13, 16):
        m = sample_sign_matrix(n, RngStream(54, n))
        digest.update(lattice.build_lattice(m)._vals.tobytes())
        for threshold in (0, 3, 2**n):
            fused = lattice.MinorTable(n)
            for k in range(n):
                digest.update(fused.add_heavy_level(m.row(k), threshold).tobytes())
    for n in range(1, 31):
        ones = np.ones((3 if n <= 24 else 0, n, n), dtype=np.int8)
        ones[1:2, 0] = ones[2:, -1] = -1  # none past n = 24
        count = 64 if n <= 16 else 8 if n <= 20 else 1
        mats = np.concatenate([sample_sign_matrices(n, RngStream(55, n), range(count)), ones])
        digest.update(repr(engines.permanents(mats)).encode())
    for rows in range(1, 14):
        for count in (0, *range(1, 8), 67):
            draws = sample_sign_matrices(rows, RngStream(56, rows), range(count))
            digest.update(engines.cofactors(draws[:, :, 1:]).tobytes())
            if rows <= 8:
                digest.update(repr(engines.permanents(draws)).encode())
    print(digest.hexdigest())
""")


def test_scalar_sweep_alone_builds_the_same_tables(tmp_path):
    # a host without AVX-512F, BW and DQ, or outside x86-64, builds every mask
    # and sweeps every permanent with the scalar sweeps: the same bytes as
    # this host's build; the one helper that holds every run-time check is
    # what the compiled-out build defines away
    source = compiled._KERNEL_SOURCE.read_text()
    helper = re.search(r"static int host_has_avx512\(int bytes\)\n\{.*?\n\}", source, re.S).group()
    checks = re.findall(r'__builtin_cpu_supports\("(\w+)"\)', source)
    assert checks == re.findall(r'__builtin_cpu_supports\("(\w+)"\)', helper) == ["avx512f", "avx512bw", "avx512dq"]
    scalar = ("from permlab import compiled\n"
              "compiled._KERNEL_CC = (*compiled._KERNEL_CC, '-D__builtin_cpu_supports(feature)=0')\n")
    # the two children run side by side
    children = [subprocess.Popen([sys.executable, "-c", prefix + _SWEEP_TABLES], stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True,
                                 env={**os.environ, "XDG_CACHE_HOME": str(tmp_path / cache)})
                for prefix, cache in (("", "host"), (scalar, "scalar"))]
    runs = [(child.communicate(), child.returncode) for child in children]
    assert [code for _, code in runs] == [0, 0], [err for (_, err), _ in runs]
    assert runs[0][0][0] == runs[1][0][0]
    assert len(os.listdir(tmp_path / "scalar" / "permlab")) == 1


def test_verify_golden_on_a_perturbed_heap():
    # glibc fills every freed block with 165's complement, so a kernel that
    # reads a freed copy sees other signs and a golden report or a batch of
    # draws near the top keys changes
    res = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          os.path.join(_TESTS, "test_verify_golden.py"),
                          os.path.join(_TESTS, "test_matrices.py::test_sample_sign_matrices_near_the_top_keys")],
                         capture_output=True, text=True, env={**os.environ, "MALLOC_PERTURB_": "165"})
    assert res.returncode == 0, res.stdout + res.stderr
