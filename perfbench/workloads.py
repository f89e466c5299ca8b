"""The four benchmark workloads: seeded inputs, timed batches, correctness gates.

A workload turns the benchmark seed into inputs and runs them in batches.
`run_batch(b)` is the timed unit; it returns a `Batch` holding the op count
and whatever the gate needs.  `gate(batch)` runs outside the timed region
and returns how many of the batch's ops failed.  An op fails if it raised
or if its output disagrees with an independent computation; the gate
functions below are plain functions of data so they can be fed corrupted
values directly.

The program is always reached through module attributes (`cli.main`,
`endgame.run_endgame_path`, ...), so wrappers the tracer installs on those
attributes see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from permlab import checks, cli, endgame, engines, lattice, matrices
from permlab.growth import ProcessConfig
from permlab.rng import RngStream

import reference_growth

# Two primes below 2**31 whose product exceeds 2 * 18!, so residues at both
# pin down any n <= 18 permanent exactly.
PRIME_A = 2_147_483_647
PRIME_B = 2_147_483_629


@dataclass
class Batch:
    ops: int
    data: object
    counts: dict = field(default_factory=dict)  # workload-measured layer counts


def _batch_seed(seed: int, b: int) -> int:
    return seed * 10_000 + b


def _quiet(argv: list[str]) -> tuple[int, str]:
    """Run one CLI request with its stdout captured; return (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _failed(exc: BaseException) -> str:
    """Record an op that raised: print its traceback to stderr, return its repr."""
    traceback.print_exception(exc, file=sys.stderr)
    return repr(exc)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# growth: `permlab growth --n 16`, one batch = one CLI call of TRIALS trials
# ---------------------------------------------------------------------------

def gate_growth_summary(out_dir: Path, trials: int) -> int:
    """Trials missing from summary.csv or whose row disagrees with their own trace file."""
    with open(out_dir / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    bad = max(0, trials - len(rows))
    for row in rows:
        trial = int(row["trial"])
        lines = (out_dir / f"trace_{trial:05d}.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        levels = [json.loads(ln) for ln in lines[1:]]
        cfg = header["config"]
        last = levels[-1]
        steps = [lv["step_type"] for lv in levels if lv["step_type"] is not None]
        successful = last["N_k"] != 0 and last["W_k"] <= cfg["eps_prime"] * header["n"] / 2
        expected = {
            "trial": trial,
            "successful": int(successful),
            "N_k1": last["N_k"],
            "W_k1": last["W_k"],
            **{f"type_{t}": steps.count(t) for t in ("I", "II", "III", "IV", "V")},
        }
        got = {k: (float(v) if k == "W_k1" else int(v)) for k, v in row.items()}
        if got != expected:
            bad += 1
    return bad


def gate_growth_reference(trace_text: str, matrix, cfg: ProcessConfig) -> bool:
    """True when a trace file matches the independent dict-and-loop oracle."""
    levels = [json.loads(ln) for ln in trace_text.splitlines()[1:]]
    got = [(lv["k"], lv["N_k"], lv["true_heavy_count"], lv["lambda_k"], lv["W_k"], lv["step_type"])
           for lv in levels]
    ref_records, _ = reference_growth.reference_trace(matrix, cfg)
    return got == ref_records


class Growth:
    name = "growth"
    N = 16
    TRIALS = 20
    REFERENCE_BATCHES = 3  # batches whose trial 0 is recomputed by the oracle

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out

    def _request(self, seed: int, trials: int, out_dir: Path) -> int:
        rc, _ = _quiet(["growth", "--n", str(self.N), "--trials", str(trials),
                        "--seed", str(seed), "--out", str(out_dir)])
        return rc

    def warm_up(self) -> None:
        self._request(_batch_seed(self.seed, 9_999), 1, self.out / "warm")

    def run_batch(self, b: int) -> Batch:
        out_dir = self.out / f"b{b:05d}"
        try:
            rc = self._request(_batch_seed(self.seed, b), self.TRIALS, out_dir)
        except (Exception, SystemExit) as exc:  # an op that raises is a failed op
            rc = _failed(exc)
        return Batch(self.TRIALS, (b, out_dir, rc))

    def gate(self, batch: Batch) -> int:
        b, out_dir, rc = batch.data
        if rc != 0:
            return batch.ops
        try:
            bad = gate_growth_summary(out_dir, batch.ops)
            if b < self.REFERENCE_BATCHES:
                matrix = matrices.sample_sign_matrix(self.N, RngStream(_batch_seed(self.seed, b), 0))
                text = (out_dir / "trace_00000.jsonl").read_text()
                bad += 0 if gate_growth_reference(text, matrix, ProcessConfig()) else 1
        except (OSError, ValueError, KeyError, IndexError):
            return batch.ops
        return min(bad, batch.ops)

    def layer_counts(self, batch: Batch) -> dict:
        return {"cli.bytes_written": _dir_bytes(batch.data[1])}

    def discard(self, batch: Batch) -> None:
        shutil.rmtree(batch.data[1], ignore_errors=True)


# ---------------------------------------------------------------------------
# endgame: n=18 matrices through path, family, propagate and final-row stages
# ---------------------------------------------------------------------------

def crt_permanent(res_a: int, res_b: int) -> int:
    """The integer in (-PA*PB/2, PA*PB/2] with the given residues mod PRIME_A, PRIME_B."""
    mod = PRIME_A * PRIME_B
    x = (res_a + PRIME_A * ((res_b - res_a) * pow(PRIME_A, -1, PRIME_B) % PRIME_B)) % mod
    return x - mod if x > mod // 2 else x


def endgame_reference(matrix) -> int:
    """The permanent rebuilt from modular residues, independent of the lattice."""
    return crt_permanent(engines.permanent_mod(matrix, PRIME_A),
                         engines.permanent_mod(matrix, PRIME_B))


def endgame_op(seed: int, i: int, n: int = 18) -> tuple[int, list[str]]:
    """One matrix through all four stages with the pilot-band parameters.

    Returns the closing permanent and the stages that did not run to the end:
    "path" or "family" on a failed precondition (an expected outcome, not a
    failed op), "propagate" when the family came back empty.
    """
    L = 2
    cfg = ProcessConfig(L=L)
    m = matrices.sample_sign_matrix(n, RngStream(seed, i))
    k_path = cfg.end_level(n)
    stopped = []
    try:
        endgame.run_endgame_path(m.prefix(k_path), sum(1 << c for c in range(k_path, k_path + 2 * L)),
                                 1, cfg, m)
    except endgame.PreconditionError:
        stopped.append("path")
    family = None
    try:
        family = endgame.find_disjoint_heavy_family(m.prefix(6), 1, 3, L, cfg, m)
    except endgame.PreconditionError:
        stopped.append("family")
    if family is not None and family.members:
        endgame.propagate_down(m.prefix(n - L), family.members, 1, cfg, m)
    else:
        stopped.append("propagate")
    closing = endgame.final_row_heaviness(m.prefix(n - 1), 1, m).permanent
    return closing, stopped


def leading_permanent(matrix, k: int) -> int:
    """Permanent of the leading k x k block by the defining sum, independent of permlab."""
    rows = matrix.entries[:k, :k].tolist()
    return sum(math.prod(rows[r][p[r]] for r in range(k)) for p in itertools.permutations(range(k)))


class Endgame:
    name = "endgame"
    N = 18
    # Every batch runs the same 8 seeded matrices in a fixed mix: 6 whose
    # leading 6x6 minor is nonzero, so the family stage runs, and 2 where it
    # is zero, so that stage stops on its precondition (about 30% of random
    # matrices do).  A fixed mix keeps the cost of a batch from depending
    # on how many early stops a seed happens to draw.
    FULL, STOPPED = 6, 2

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        picked = {True: [], False: []}
        i = 0
        while len(picked[True]) < self.FULL or len(picked[False]) < self.STOPPED:
            m = matrices.sample_sign_matrix(self.N, RngStream(seed, i))
            picked[leading_permanent(m, 6) != 0].append(i)
            i += 1
        self.indices = sorted(picked[True][: self.FULL] + picked[False][: self.STOPPED])
        self._checked: dict[int, int] = {}

    def warm_up(self) -> None:
        endgame_op(self.seed, self.indices[0], self.N)

    def run_batch(self, b: int) -> Batch:
        outs = []
        for i in self.indices:
            try:
                outs.append(endgame_op(self.seed, i, self.N))
            except (Exception, SystemExit) as exc:
                _failed(exc)
                outs.append(exc)
        stops = sum(st in ("path", "family") for o in outs if isinstance(o, tuple) for st in o[1])
        return Batch(len(outs), outs, {"endgame.precondition_failures": stops})

    def gate(self, batch: Batch) -> int:
        bad = 0
        for i, out in zip(self.indices, batch.data):
            if isinstance(out, Exception):
                bad += 1
                continue
            if i not in self._checked:
                matrix = matrices.sample_sign_matrix(self.N, RngStream(self.seed, i))
                self._checked[i] = endgame_reference(matrix)
            bad += out[0] != self._checked[i]
        return bad

    def layer_counts(self, batch: Batch) -> dict:
        return dict(batch.counts)

    def discard(self, batch: Batch) -> None:
        pass


# ---------------------------------------------------------------------------
# verify: the 26 checks of `permlab verify --suite all`, one request per check
# ---------------------------------------------------------------------------

# (CLI check name, report name, report n, flags): the checks, sizes and trial
# counts of checks.default_suite, in its order.  Run as single-check requests
# so two programs can alternate check by check; the whole suite in one call
# is a 10-second unit, too coarse to pair.
GROWTH_RATE_N, GROWTH_RATE_TRIALS = 16, 500
VERIFY_REQUESTS = (
    [("second_moment", "second_moment", n, ["--n", str(n), "--mode", "exact"]) for n in (2, 3, 4)]
    + [("alon", "alon", 3, ["--n", "3"]),
       ("alon", "alon", 7, ["--n", "7", "--trials", "1000"]),
       ("alon", "alon", 15, ["--n", "15", "--trials", "100"]),
       ("parent_child", "parent_child", 10, ["--n", "10", "--trials", "10000"]),
       ("many_children", "many_children", 14, ["--n", "14", "--trials", "10000", "--i-size", "6"])]
    + [("littlewood_offord", "littlewood_offord", m, ["--m", str(m)]) for m in range(2, 15)]
    + [("singularity", "singularity", n, ["--n", str(n), "--mode", "exact"]) for n in (2, 3, 4)]
    + [("growth_rate", "growth_rate", None,
        ["--n", str(GROWTH_RATE_N), "--trials", str(GROWTH_RATE_TRIALS)]),
       ("maintain_grow", "maintain_grow_events", 14, ["--n", "14", "--trials", "300"])]
)
EXPECTED_FAILS = {("alon", 7), ("alon", 15)}  # the refuted residue claim, by design


def gate_verify(rc, reports: list[dict], name: str, n) -> bool:
    """True when a check request gave its one report with the expected verdict.

    Only alon at n=7 and n=15 may FAIL (and exit 1); every other check gated
    here must PASS or be descriptive (and exit 0).  growth_rate is gated by
    gate_growth_rate instead, since its verdict depends on the seed.
    """
    if len(reports) != 1 or (reports[0]["name"], reports[0]["n"]) != (name, n):
        return False
    r = reports[0]
    verdict = "DESC" if r["descriptive"] else ("PASS" if r["passed"] else "FAIL")
    want_fail = (name, n) in EXPECTED_FAILS
    return (verdict == "FAIL") == want_fail and rc == int(want_fail)


GROWTH_RATE_STATS = ("nonzero_fraction", "mean_per2_ratio", "se_per2_ratio",
                     "median_log_per2_over_log_nfact")


def growth_rate_reference(seed: int, n: int, trials: int) -> dict:
    """growth_rate's statistics for one request, with every permanent rebuilt
    from modular residues rather than read off the lattice."""
    rng = RngStream(seed)
    target = math.factorial(n)
    pers = [endgame_reference(matrices.sample_sign_matrix(n, rng.substream(n, t)))
            for t in range(trials)]
    ratios = [p * p / target for p in pers]
    logs = [math.log(abs(p)) for p in pers if p]
    return {
        "zero_count": trials - len(logs),
        "nonzero_fraction": len(logs) / trials,
        "mean_per2_ratio": statistics.fmean(ratios),
        "se_per2_ratio": statistics.stdev(ratios) / math.sqrt(trials),
        "median_log_per2_over_log_nfact": 2 * statistics.median(logs) / math.log(target),
    }


def growth_rate_verdict(stats: dict, n: int) -> bool:
    """The check's documented rule: nonzero fraction at least the committed
    minimum, mean Per**2/n! within 3*SE of 1, median log ratio inside the
    committed pilot band.  Per**2/n! is heavy-tailed, so on some seeds the
    3*SE test fails; FAIL is then the right verdict."""
    band = checks.pilot_bands()["growth_rate"][str(n)]
    lo, hi = band["median_log_ratio_band"]
    return (stats["nonzero_fraction"] >= band["min_nonzero_fraction"]
            and abs(stats["mean_per2_ratio"] - 1.0) <= 3 * stats["se_per2_ratio"]
            and lo <= stats["median_log_per2_over_log_nfact"] <= hi)


def gate_growth_rate(rc, reports: list[dict], n: int, want: dict | None) -> bool:
    """True when a growth_rate request gave one report whose verdict and exit
    code follow from its statistics, and those match `want` (from
    growth_rate_reference) when given."""
    if len(reports) != 1 or reports[0]["name"] != "growth_rate" or reports[0]["descriptive"]:
        return False
    r = reports[0]
    per_n = r["statistics"]["per_n"]
    if list(per_n) != [str(n)]:
        return False
    got = per_n[str(n)]
    if want is not None and not (
            got["zero_count"] == want["zero_count"]
            and all(math.isclose(got[k], want[k], rel_tol=1e-9) for k in GROWTH_RATE_STATS)):
        return False
    passed = growth_rate_verdict(got, n)
    return got["passed"] == r["passed"] == passed and rc == int(not passed)


class Verify:
    name = "verify"

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out

    def warm_up(self) -> None:
        _quiet(["verify", "--suite", "growth_rate", "--n", "16", "--trials", "2",
                "--seed", str(_batch_seed(self.seed, 9_999))])

    def run_batch(self, b: int) -> Batch:
        check, name, n, flags = VERIFY_REQUESTS[b % len(VERIFY_REQUESTS)]
        path = self.out / f"report_{b:05d}.jsonl"
        try:
            rc, _ = _quiet(["verify", "--suite", check, *flags, "--seed", str(self._seed(b)),
                            "--out", str(path)])
        except (Exception, SystemExit) as exc:
            rc = _failed(exc)
        return Batch(1, (rc, path, name, n, b))

    def _seed(self, b: int) -> int:
        return _batch_seed(self.seed, b // len(VERIFY_REQUESTS))

    def gate(self, batch: Batch) -> int:
        rc, path, name, n, b = batch.data
        try:
            reports = [json.loads(ln) for ln in path.read_text().splitlines()]
            if name == "growth_rate":
                # Rebuilding 500 permanents takes about 20 s, so only the
                # first cycle's statistics are recomputed; every cycle's
                # verdict must follow from its statistics.
                want = (growth_rate_reference(self._seed(b), GROWTH_RATE_N, GROWTH_RATE_TRIALS)
                        if b < len(VERIFY_REQUESTS) else None)
                return int(not gate_growth_rate(rc, reports, GROWTH_RATE_N, want))
        except (OSError, ValueError, KeyError, TypeError):
            return 1
        return int(not gate_verify(rc, reports, name, n))

    def layer_counts(self, batch: Batch) -> dict:
        path = batch.data[1]
        manifest = path.with_suffix(path.suffix + ".manifest.json")
        return {"cli.bytes_written": sum(p.stat().st_size for p in (path, manifest) if p.exists())}

    def discard(self, batch: Batch) -> None:
        path = batch.data[1]
        for p in (path, path.with_suffix(path.suffix + ".manifest.json")):
            p.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# compute: a closed loop over a fixed mix of `permlab compute --random` requests
# ---------------------------------------------------------------------------

COMPUTE_MIX = (
    (22, ["--engine", "lattice", "--det"]),
    (20, ["--mod", str(PRIME_A)]),
    (16, []),  # default engine: the Python Gray-code Ryser scan
    (10, ["--engine", "naive"]),
)


def expected_compute(n: int, flags: list[str], matrix) -> str:
    """The answer a request must print, from a different engine or an exact identity."""
    if n == 22:  # per(A) = per(A^T), det(A) = det(A^T)
        t = matrices.SignMatrix(matrix.entries.T)
        return f"{lattice.build_lattice(t).top_value()}\n{engines.determinant_exact(t)}\n"
    if "--mod" in flags:
        modulus = int(flags[flags.index("--mod") + 1])
        return f"{lattice.build_lattice(matrix).top_value() % modulus}\n"
    if "naive" in flags:
        return f"{int(engines.ryser_batch(matrix.entries[None, :, :])[0])}\n"
    return f"{lattice.build_lattice(matrix).top_value()}\n"


class Compute:
    name = "compute"

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.requests = [["compute", "--random", str(n), "--seed", str(seed), "--stream", str(i), *flags]
                         for i, (n, flags) in enumerate(COMPUTE_MIX)]
        self._want: dict[int, str] = {}

    def warm_up(self) -> None:
        # One request of each kind: each fills a different cache (the n=22
        # masks, the n=10 permutation table).
        for argv in self.requests:
            _quiet(argv)

    def run_batch(self, b: int) -> Batch:
        outs = []
        for argv in self.requests:
            try:
                outs.append(_quiet(argv))
            except (Exception, SystemExit) as exc:
                outs.append((_failed(exc), ""))
        return Batch(len(self.requests), outs,
                     {"cli.bytes_written": sum(len(o[1].encode()) for o in outs)})

    def gate(self, batch: Batch) -> int:
        bad = 0
        for i, (rc, stdout) in enumerate(batch.data):
            if i not in self._want:
                n, flags = COMPUTE_MIX[i]
                matrix = matrices.sample_sign_matrix(n, RngStream(self.seed, i))
                self._want[i] = expected_compute(n, flags, matrix)
            bad += rc != 0 or stdout != self._want[i]
        return bad

    def layer_counts(self, batch: Batch) -> dict:
        return dict(batch.counts)

    def discard(self, batch: Batch) -> None:
        pass


WORKLOADS = {w.name: w for w in (Growth, Endgame, Verify, Compute)}
