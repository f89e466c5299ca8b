"""Self-tests of the benchmark: its correctness gates and its exact counts.

    python3 perfbench/selftest.py

The gate tests feed each workload's gate a real output and then a corrupted
copy of it; the program itself is never patched.  The count tests run the
traced worker at a fixed seed and check counts that must come out exactly.
Takes about a minute.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
SCRATCH = HERE.parent / ".perfbench_out"
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tests")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Batch, Compute, Endgame, Growth, Verify  # noqa: E402

SEED = 3
# reference.zip holds src/permlab as of the commit that added the benchmark.
REFERENCE_SHA256 = "12a18d5c91da62983f810a031907b731195867a70a66892060d5f3b953f60e0c"
COUNT_UNITS = {"calls/op", "subsets/op", "levels/op", "fraction", "bytes", "count/op",
               "matrices/op", "bytes/op"}


class GateRejectsCorruption(unittest.TestCase):
    def setUp(self):
        SCRATCH.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=SCRATCH)
        self.tmp = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def test_growth_summary_and_reference(self):
        wl = Growth(SEED, self.tmp)
        batch = wl.run_batch(0)
        self.assertEqual(wl.gate(batch), 0)
        _, out_dir, _ = batch.data
        summary = out_dir / "summary.csv"
        with summary.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        rows[1]["W_k1"] = str(float(rows[1]["W_k1"]) + 1.0)
        with summary.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        self.assertEqual(workloads.gate_growth_summary(out_dir, batch.ops), 1)

        trace = out_dir / "trace_00000.jsonl"
        lines = trace.read_text().splitlines()
        level = json.loads(lines[1])
        level["true_heavy_count"] += 1
        lines[1] = json.dumps(level, sort_keys=True)
        trace.write_text("\n".join(lines) + "\n")
        self.assertGreaterEqual(wl.gate(batch), 1)

    def test_endgame_closing_permanent(self):
        wl = Endgame(SEED, self.tmp)
        closing, stopped = workloads.endgame_op(SEED, wl.indices[0])
        self.assertEqual(wl.gate(Batch(1, [(closing, stopped)])), 0)
        self.assertEqual(wl.gate(Batch(1, [(closing + 2, stopped)])), 1)
        self.assertEqual(wl.gate(Batch(1, [ValueError("raised")])), 1)

    def test_verify_verdicts(self):
        wl = Verify(SEED, self.tmp)
        for b in (3, 4, 6):  # alon at n=3 (PASS), n=7 (FAIL by design), littlewood_offord m=2
            batch = wl.run_batch(b)
            self.assertEqual(wl.gate(batch), 0)
        rc, path, name, n, _ = batch.data
        report = json.loads(path.read_text())
        self.assertTrue(workloads.gate_verify(rc, [report], name, n))
        self.assertFalse(workloads.gate_verify(1, [report], name, n))
        self.assertFalse(workloads.gate_verify(rc, [dict(report, passed=False)], name, n))
        self.assertFalse(workloads.gate_verify(rc, [report, report], name, n))
        self.assertFalse(workloads.gate_verify(rc, [report], "alon", 7))
        alon7 = {"name": "alon", "n": 7, "descriptive": False}
        self.assertTrue(workloads.gate_verify(1, [dict(alon7, passed=False)], "alon", 7))
        self.assertFalse(workloads.gate_verify(0, [dict(alon7, passed=True)], "alon", 7))

    def test_verify_growth_rate_statistics(self):
        # A 40-trial request keeps the test short; the gate is the one run on
        # the 500-trial requests of the workload.
        n, trials, seed = 16, 40, 1420008690000
        path = self.tmp / "growth_rate.jsonl"
        rc, _ = workloads._quiet(["verify", "--suite", "growth_rate", "--n", str(n), "--trials",
                                  str(trials), "--seed", str(seed), "--out", str(path)])
        report = json.loads(path.read_text())
        want = workloads.growth_rate_reference(seed, n, trials)
        self.assertTrue(workloads.gate_growth_rate(rc, [report], n, want))
        self.assertTrue(workloads.gate_growth_rate(rc, [report], n, None))
        self.assertFalse(workloads.gate_growth_rate(1 - rc, [report], n, None))
        self.assertFalse(workloads.gate_growth_rate(rc, [dict(report, passed=not report["passed"])], n, None))
        self.assertFalse(workloads.gate_growth_rate(rc, [report, report], n, want))
        stats = report["statistics"]["per_n"][str(n)]
        for key, bump in (("mean_per2_ratio", 1e-6), ("zero_count", 1)):
            corrupt = json.loads(json.dumps(report))
            corrupt["statistics"]["per_n"][str(n)][key] = stats[key] + bump
            self.assertFalse(workloads.gate_growth_rate(rc, [corrupt], n, want))
        # A passing report whose statistics are made to fail the 3*SE rule.
        self.assertTrue(report["passed"])
        failing = json.loads(json.dumps(report))
        failing["statistics"]["per_n"][str(n)]["se_per2_ratio"] = 1e-9
        self.assertFalse(workloads.gate_growth_rate(rc, [failing], n, None))

    def test_compute_answers(self):
        wl = Compute(SEED, self.tmp)
        batch = wl.run_batch(0)
        self.assertEqual(wl.gate(batch), 0)
        for i in range(len(batch.data)):
            first, _, rest = batch.data[i][1].partition("\n")
            corrupt = [list(o) for o in batch.data]
            corrupt[i][1] = f"{int(first) + 1}\n{rest}"
            self.assertEqual(wl.gate(Batch(batch.ops, [tuple(o) for o in corrupt])), 1)

    def test_crt_round_trip(self):
        for value in (0, 1, -1, 6402373705728000, -6402373705728000, 123456789):
            res = workloads.crt_permanent(value % workloads.PRIME_A, value % workloads.PRIME_B)
            self.assertEqual(res, value)


class FrozenReference(unittest.TestCase):
    def test_reference_program_is_unchanged(self):
        digest = hashlib.sha256((HERE / "reference.zip").read_bytes()).hexdigest()
        self.assertEqual(digest, REFERENCE_SHA256)


class ExactCounts(unittest.TestCase):
    def traced_layers(self, workload: str, batches: int) -> dict:
        SCRATCH.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            child = run.Child(workload, SEED, "paired", Path(tmp), time.monotonic() + 170, traced=True)
            try:
                child.await_ready()
                for _ in range(batches):
                    child.step()
                result, _ = child.finish()
            finally:
                child.kill()
        self.assertEqual(result["failed"], 0)
        return {k: v for k, (v, unit) in result["layers"].items() if unit in COUNT_UNITS}

    def test_growth_counts_repeat_and_levels_are_all_useful(self):
        first = self.traced_layers("growth", 2)
        second = self.traced_layers("growth", 2)
        self.assertEqual(first, second)
        self.assertEqual(first["lattice.useful_level_frac"], 1.0)
        self.assertEqual(first["lattice.add_level.calls"], 12.0)  # k1 = 12 at n = 16

    def test_endgame_counts_repeat(self):
        self.assertEqual(self.traced_layers("endgame", 1), self.traced_layers("endgame", 1))

    def test_endgame_full_matrix_builds_67_levels(self):
        i = next(i for i in range(50) if not workloads.endgame_op(SEED, i)[1])
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.active = True
        workloads.endgame_op(SEED, i)
        tracer.active = False
        layers = tracing.layer_metrics(tracer, 1, {})
        self.assertEqual(layers["lattice.add_level.calls"][0], 16 + 16 + 17 + 18)
        self.assertEqual(layers["lattice.levels_per_op"][0], 18)


if __name__ == "__main__":
    unittest.main(verbosity=2)
