"""Kernel speed per width: ns per matrix of `glynn` at every n = 1-30, ns
per block of `glynn_cofactors` at every row count 2-13 and ns per
`permanent_naive` call at every n = 4-10, for this host's build and for the
build with every run-time CPU check compiled out (the scalar sweeps that
hosts without AVX-512BW and DQ run), side by side.  The naive walk has no
run-time check, so its two columns time the same code.

    python3 tests/kernel_widths.py

Each build is compiled from this checkout's src/permlab into its own
temporary kernel cache and timed in its own child process, one after the
other, on the same seeded random sign matrices; each figure is the best of
several kernel calls (one call from n = 24 on, where a call takes 20 ms to
2 s).  The whole run takes about 15 s.  Not a test: pytest collects only
the test_*.py files.
"""

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

_COMPILED_OUT = "-D__builtin_cpu_supports(feature)=0"
_TESTS = Path(__file__).resolve().parent


def _best_ns(call, items: int) -> float:
    """The best of several calls, in ns per item."""
    reps = 1 if items == 1 else 5
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return min(times) / items * 1e9


def _measure() -> dict:
    """ns per matrix, per block and per naive call of this process's kernel build."""
    from permlab.compiled import _kernels
    from permlab.engines import permanent_naive
    from permlab.matrices import SignMatrix

    kernels = _kernels()
    gen = np.random.default_rng(0)
    signs = lambda *shape: 2 * gen.integers(0, 2, size=shape, dtype=np.int8) - 1
    found = {}
    for n in range(1, 31):
        count = max(1, min(4096, 2 ** (23 - n)))
        mats, out = signs(count, n, n), np.empty((count, 2), dtype=np.int64)
        found[f"glynn n={n}"] = _best_ns(
            lambda: kernels.glynn(mats.ctypes.data, count, n, out.ctypes.data), count)
    for rows in range(2, 14):
        count = max(16, min(4096, 2 ** (22 - rows)))
        blocks, out = signs(count, rows, rows - 1), np.empty((count, rows), dtype=np.int64)
        found[f"cofactors rows={rows}"] = _best_ns(
            lambda: kernels.glynn_cofactors(blocks.ctypes.data, count, rows, out.ctypes.data), count)
    for n in range(4, 11):
        calls, m = 2 ** (14 - n), SignMatrix(signs(n, n))
        found[f"naive n={n}"] = _best_ns(lambda: [permanent_naive(m) for _ in range(calls)], calls)
    return found


def main() -> None:
    builds = {}
    with tempfile.TemporaryDirectory() as cache:
        for label, prefix in (("host", ""),
                              ("compiled out", "from permlab import compiled\n"
                               f"compiled._KERNEL_CC = (*compiled._KERNEL_CC, {_COMPILED_OUT!r})\n")):
            script = prefix + "import json, kernel_widths\nprint(json.dumps(kernel_widths._measure()))\n"
            env = {**os.environ, "XDG_CACHE_HOME": os.path.join(cache, label.replace(" ", "-")),
                   "PYTHONPATH": os.pathsep.join([str(_TESTS), str(_TESTS.parent / "src")])}
            res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
            if res.returncode:
                sys.exit(res.stderr)
            builds[label] = json.loads(res.stdout)
    print(f"{'kernel':<18} {'host ns':>14} {'compiled-out ns':>16} {'ratio':>7}")
    for name, host in builds["host"].items():
        scalar = builds["compiled out"][name]
        print(f"{name:<18} {host:>14,.0f} {scalar:>16,.0f} {scalar / host:>7.2f}")


if __name__ == "__main__":
    main()
