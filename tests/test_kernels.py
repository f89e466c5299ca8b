"""The compiled kernels under the compiler's own checks: a warning-free
build; every kernel run at its stated bound with undefined-behaviour
sanitizing on, and every kernel entry point fed inputs that its caller must
copy with address sanitizing on, each in a child process with its own
kernel cache; the golden verify reports and a batch of seeded draws
replayed on a heap whose freed blocks glibc overwrites; and each size cap
recomputed from the bound its kernel states."""

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
    from permlab import compiled, engines, lattice, matrices
    from permlab.rng import RngStream
    from oracles import all_ones, numpy_sign_draw

    compiled._KERNEL_CC = (*compiled._KERNEL_CC, "-fsanitize=undefined", "-fno-sanitize-recover=all")
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
    assert engines.permanent_naive(all_ones(10)) == f(10)
    table = lattice.build_lattice(all_ones(20))
    assert table.value((1 << 20) - 1) == f(20)
    for bad in (0, 2):
        try:
            lattice.build_lattice(all_ones(4), 2).add_level(np.array([1, 1, bad, 1], dtype=np.int8))
        except ValueError:
            pass
        else:
            raise AssertionError(f"add_level took the int8 entry {bad}")
    # heavy_count reads no output buffer
    assert table.heavy_count(20, f(20)) == 1 and table.heavy_count(10, 2**70) == 0
    assert table.heavy_count(10, 0) == math.comb(20, 10)
    family = table.level_masks(10)[:1000]
    try:
        lattice.parent_histogram(table, 10, np.append(family, family[0]))
    except ValueError:
        pass
    else:
        raise AssertionError("parent_histogram took a repeated member")
    assert lattice.parent_histogram(table, 10, family)[1:].sum() > 0
""")


# Every kernel entry point, fed the same sign entries in layouts that its
# caller must copy before the kernel reads them: strided slices, transposes,
# int16 and int64 arrays, and lists.  Each answer must equal the one for the
# C-ordered int8 array.  The arrays exceed numpy's small-block cache, so a
# freed copy goes back to malloc, where the sanitizer poisons it.
_COPIED_INPUTS = textwrap.dedent("""
    import numpy as np
    from permlab import compiled, engines, lattice, matrices
    from permlab.matrices import SignMatrix
    from permlab.rng import RngStream

    compiled._KERNEL_CC = (*compiled._KERNEL_CC, "-fsanitize=address", "-fno-omit-frame-pointer")

    def layouts(a, dtypes):
        yield np.repeat(a, 2, axis=-1)[..., ::2]  # strided slice
        if a.ndim > 1:
            yield np.ascontiguousarray(np.swapaxes(a, -1, -2)).swapaxes(-1, -2)  # transpose
        for dtype in dtypes:
            yield a.astype(dtype)
        yield a.tolist()

    def agree(fn, a, dtypes=(np.int16, np.int64)):
        want = fn(a)
        for other in layouts(a, dtypes):
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
    for other in layouts(rows, (np.int16, np.int64)):
        copy = table_of(other)
        assert all(copy.value(m) == table.value(m) for m in table.level_masks(8).tolist())
    for k in (8, 12):
        heavy = table.heavy_masks(k, 100)
        assert table.heavy_count(k, 100) == len(heavy) > 0
    family = table.level_masks(8)[:600]
    agree(lambda a: lattice.parent_histogram(table, 8, a), family, (np.int32, np.uint32))
""")


def _sanitized_child(tmp_path, runtime: str, script: str, **env) -> None:
    """script run in a child with the sanitizer runtime preloaded, its own
    kernel cache, and the test oracles importable."""
    lib = subprocess.run(["gcc", f"-print-file-name={runtime}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    if not os.path.isabs(lib):
        pytest.skip(f"gcc has no {runtime} runtime")
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "XDG_CACHE_HOME": str(tmp_path), "LD_PRELOAD": lib,
                              "PYTHONPATH": os.pathsep.join([_TESTS, os.environ["PYTHONPATH"]]), **env})
    assert res.returncode == 0, res.stderr
    assert os.listdir(tmp_path / "permlab")  # the sanitized build, not a cached one


def test_each_cap_is_the_largest_its_bound_allows():
    # each inequality stated in _kernels.c, recomputed in Python integers
    f = math.factorial
    largest = lambda ok: max(n for n in range(64) if ok(n))
    source = compiled._KERNEL_SOURCE.read_text()
    # a level-k minor is at most k! in absolute value: 20! < 2**63 <= 21!
    assert lattice._INT64_LEVEL_MAX == largest(lambda k: f(k) < 2**63) == 20
    # a glynn lane is at most ceil(n/2) in absolute value, and the 16 lanes of
    # two chains multiply in int64: 15**16 < 2**63 <= 16**16; the sweep holds
    # the n - 1 flippable rows of n <= 30 in 32 lanes
    assert engines.PERMANENT_MAX_N == largest(lambda n: ((n + 1) // 2) ** 16 < 2**63) == 30
    assert f(engines.PERMANENT_MAX_N) // 2 < 2**107
    assert f"step[2][{engines.PERMANENT_MAX_N - 1}][32]" in source
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
    # a memory cap: the lattice's 2**n table takes 26 bytes a subset at its
    # build peak, about 109 MB at n = 22, and its levels past 20 are Python ints
    assert 26 * 2**lattice.LATTICE_MAX_N < 110 * 10**6 < 26 * 2 ** (lattice.LATTICE_MAX_N + 1)
    # a time cap: naive_odd's count of n! permutations fits int64 through
    # n = 20, but it walks them one by one, 3.6 million at n = 10
    assert engines.NAIVE_MAX_N == 10 < largest(lambda n: f(n) < 2**63)


def test_kernels_compile_without_warnings():
    res = subprocess.run(["gcc", "-O2", "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
                          str(compiled._KERNEL_SOURCE)], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_kernels_at_their_bounds_under_ubsan(tmp_path):
    _sanitized_child(tmp_path, "libubsan.so", _AT_THE_BOUNDS)


def test_kernels_read_no_freed_copy_under_asan(tmp_path):
    # Python's own allocations are never freed at exit, so leaks are not reported
    _sanitized_child(tmp_path, "libasan.so", _COPIED_INPUTS, ASAN_OPTIONS="detect_leaks=0")


def test_verify_golden_on_a_perturbed_heap():
    # glibc fills every freed block with 165's complement, so a kernel that
    # reads a freed copy sees other signs and a golden report or a batch of
    # draws near the top keys changes
    res = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          os.path.join(_TESTS, "test_verify_golden.py"),
                          os.path.join(_TESTS, "test_matrices.py::test_sample_sign_matrices_near_the_top_keys")],
                         capture_output=True, text=True, env={**os.environ, "MALLOC_PERTURB_": "165"})
    assert res.returncode == 0, res.stdout + res.stderr
