"""The compiled kernels under the compiler's own checks: a warning-free
build, and every kernel run at its stated bound with undefined-behaviour
sanitizing on, in a child process with its own kernel cache."""

import os
import subprocess
import sys
import textwrap

import pytest

from permlab import lattice

# Each kernel at its stated bound, through the program's own entry points.
# The all-ones matrix makes every column sum, product and minor as large as
# it gets; negated rows and columns give the negative extremes.
_AT_THE_BOUNDS = textwrap.dedent("""
    import math
    import numpy as np
    from permlab import engines, lattice
    from permlab.matrices import all_ones

    lattice._KERNEL_CC = (*lattice._KERNEL_CC, "-fsanitize=undefined", "-fno-sanitize-recover=all")
    f = math.factorial
    for n in (15, 16, 20, 22):
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


def test_kernels_compile_without_warnings():
    res = subprocess.run(["gcc", "-O2", "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
                          str(lattice._KERNEL_SOURCE)], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_kernels_at_their_bounds_under_ubsan(tmp_path):
    runtime = subprocess.run(["gcc", "-print-file-name=libubsan.so"],
                             capture_output=True, text=True, check=True).stdout.strip()
    if not os.path.isabs(runtime):
        pytest.skip("gcc has no libubsan runtime")
    res = subprocess.run([sys.executable, "-c", _AT_THE_BOUNDS], capture_output=True, text=True,
                         env={**os.environ, "XDG_CACHE_HOME": str(tmp_path), "LD_PRELOAD": runtime})
    assert res.returncode == 0, res.stderr
    assert os.listdir(tmp_path / "permlab")  # the sanitized build, not a cached one
