"""The compiled kernels under the compiler's own checks: a warning-free
build; every kernel run at its stated bound with undefined-behaviour
sanitizing on, and every kernel entry point fed inputs that its caller must
copy with address sanitizing on, each in a child process with its own
kernel cache; and the golden verify reports replayed on a heap whose freed
blocks glibc overwrites."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from permlab import lattice

_TESTS = str(Path(__file__).parent)

# Each kernel at its stated bound, through the program's own entry points.
# The all-ones matrix makes every column sum, product and minor as large as
# it gets; negated rows and columns give the negative extremes.
_AT_THE_BOUNDS = textwrap.dedent("""
    import math
    import numpy as np
    from permlab import engines, lattice
    from oracles import all_ones

    lattice._KERNEL_CC = (*lattice._KERNEL_CC, "-fsanitize=undefined", "-fno-sanitize-recover=all")
    f = math.factorial
    for n in (15, 16, 20, 22, 23, 24):
        ones = np.ones((3, n, n), dtype=np.int8)
        ones[1] *= -1
        ones[2, 0] *= -1
        assert engines.permanents(ones) == [f(n), (-1) ** n * f(n), -f(n)], n
    blocks = np.ones((2, 13, 12), dtype=np.int8)
    blocks[1, :, 5] = -1
    assert engines.ryser_cofactors(blocks).tolist() == [[f(12)] * 13, [-f(12)] * 13]
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
    from permlab import engines, lattice
    from permlab.matrices import SignMatrix

    lattice._KERNEL_CC = (*lattice._KERNEL_CC, "-fsanitize=address", "-fno-omit-frame-pointer")

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
    agree(engines.permanents, signs(8, 16, 16))
    agree(engines.permanents, signs(2, 21, 21))
    agree(engines.ryser_batch, signs(40, 12, 12))
    agree(engines.ryser_cofactors, signs(100, 12, 11))
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


def test_kernels_compile_without_warnings():
    res = subprocess.run(["gcc", "-O2", "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
                          str(lattice._KERNEL_SOURCE)], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_kernels_at_their_bounds_under_ubsan(tmp_path):
    _sanitized_child(tmp_path, "libubsan.so", _AT_THE_BOUNDS)


def test_kernels_read_no_freed_copy_under_asan(tmp_path):
    # Python's own allocations are never freed at exit, so leaks are not reported
    _sanitized_child(tmp_path, "libasan.so", _COPIED_INPUTS, ASAN_OPTIONS="detect_leaks=0")


def test_verify_golden_on_a_perturbed_heap():
    # glibc fills every freed block with 165's complement, so a kernel that
    # reads a freed copy sees other signs and a golden report changes
    res = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          os.path.join(_TESTS, "test_verify_golden.py")],
                         capture_output=True, text=True, env={**os.environ, "MALLOC_PERTURB_": "165"})
    assert res.returncode == 0, res.stdout + res.stderr
