"""permlab benchmark driver: one command, four closed-loop workloads.

    python3 perfbench/run.py --workload growth --seed 1 --seconds 10 --trace 0

Each workload runs in fresh child processes (perfbench/worker.py) started
from this process, one worker each, with PERMLAB_THREADS removed and the
BLAS thread counts pinned to 1.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  A child of the
current program and a child of the frozen reference program (reference.zip)
take turns, one batch each on the same inputs, so that host speed drifts
cancel in their ratio:
  ops_per_s    current / reference throughput, times REFERENCE's ops/s
  setup_s      median over SETUPS pairs of current / reference set-up time
               (import + one warm-up op), times REFERENCE's seconds
  peak_rss_mb  peak RSS of the current program's child, from os.wait4
--trace 1 reports the per-layer metrics: an untraced and a traced child run
the same fixed batches; the traced child records spans around the program's
functions, and trace_overhead_frac is its slowdown against the untraced one.

Every op's output is gated for correctness outside the timed region.  The
last stdout line is one JSON object: correct, attempted, failed, metrics.
A fuller record (environment, batch times, all layer metrics) is written to
.perfbench_out/ in the checkout.  `--workload all` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"
WORKLOADS = ("growth", "endgame", "verify", "compute")
NOMINAL_BATCH_S = {"growth": 0.25, "endgame": 1.2, "verify": 0.4, "compute": 2.0}
# A run covers whole cycles of a workload's request mix: verify's 26 checks.
CYCLE = {"growth": 1, "endgame": 1, "verify": 26, "compute": 1}
SETUPS = 3  # pairs of fresh children whose set-up times give the setup_s median
# Throughput (ops/s) and set-up time (s) of the frozen reference program in
# reference.zip, measured on the host the benchmark was built on (2 vCPUs,
# 2 MiB L2, Python 3.11, numpy 2.4).  They only set the scale of the
# reported figures: the current program's speed relative to the reference,
# measured batch by batch in alternation, times these.
REFERENCE = {
    "growth": (96.5, 0.208),
    "endgame": (8.84, 0.289),
    "verify": (2.59, 0.205),
    "compute": (2.34, 2.37),
}
RUN_BUDGET_S = 170.0  # a run must end well inside 180 s
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}


class RunError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PERMLAB_THREADS", None)
    env.update(PINNED_ENV)
    return env


def git_sha() -> str | None:
    """HEAD commit read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cache_sizes() -> dict:
    """L2 and L3 sizes of cpu0 as the kernel reports them (read only)."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def environment(seed: int) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cache": cache_sizes(),
        "seed": seed,
        "child_env": {"PERMLAB_THREADS": "removed", **PINNED_ENV},
    }


class Child:
    """One worker process.  A paired child runs one batch per `step()`."""

    def __init__(self, workload: str, seed: int, role: str, scratch: Path, deadline: float,
                 program: str = "current", traced: bool = False, spans: Path | None = None):
        self.name = f"{workload} {program} {role}{' traced' if traced else ''}"
        self.deadline = deadline
        work = Path(tempfile.mkdtemp(prefix=f"{program}-{role}-", dir=scratch))
        self.result = work / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
               "--role", role, "--program", program, "--out", str(work / "out"),
               "--result", str(self.result)]
        if traced:
            cmd += ["--traced"] + (["--spans", str(spans)] if spans else [])
        paired = role == "paired"
        self.proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                                     stdin=subprocess.PIPE if paired else subprocess.DEVNULL,
                                     stdout=subprocess.PIPE if paired else subprocess.DEVNULL)

    def await_ready(self) -> None:
        """Wait until the child has set up, or has run and gated its last batch."""
        while not select.select([self.proc.stdout], [], [], 0.1)[0]:
            if time.monotonic() > self.deadline:
                raise RunError(f"{self.name} child exceeded the run budget")
        if self.proc.stdout.readline() != b"ready\n":
            raise RunError(f"{self.name} child stopped before its batch finished")

    def step(self) -> None:
        self.proc.stdin.write(b"go\n")
        self.proc.stdin.flush()
        self.await_ready()

    def finish(self) -> tuple[dict, float]:
        """Wait for the child to exit; returns its result and its peak RSS in MB."""
        if self.proc.stdin is not None:
            self.proc.stdin.write(b"stop\n")
            self.proc.stdin.close()
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > self.deadline:
                raise RunError(f"{self.name} child exceeded the run budget")
            time.sleep(0.02)
        if self.proc.returncode != 0:
            raise RunError(f"{self.name} child exited with code {self.proc.returncode}")
        return json.loads(self.result.read_text()), usage.ru_maxrss / 1024.0

    def kill(self) -> None:
        """Stop and reap the child if it is still running."""
        if self.proc.returncode is None:
            self.proc.kill()
            os.wait4(self.proc.pid, 0)
            self.proc.returncode = -signal.SIGKILL
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()


def take_turns(a: Child, b: Child, more) -> None:
    """One batch on each child per round, swapping who goes first, while
    more(rounds done, batch seconds per child so far) holds."""
    order, rounds, elapsed = [a, b], 0, 0.0
    while more(rounds, elapsed):
        t0 = time.monotonic()
        for child in order:
            child.step()
        elapsed += (time.monotonic() - t0) / 2
        rounds += 1
        order.reverse()


def throughput(batches: list) -> float:
    return sum(ops for ops, _ in batches) / sum(dt for _, dt in batches)


def measure(workload: str, seed: int, seconds: float, start) -> dict:
    """Alternate batches of the current program and the frozen reference."""
    cur = start("paired")
    ref = start("paired", program="reference")
    take_turns(cur, ref, lambda rounds, elapsed: elapsed < seconds or rounds % CYCLE[workload])
    main, rss = cur.finish()
    base, _ = ref.finish()
    setups = [(main["setup_s"], base["setup_s"])]
    for _ in range(SETUPS - 1):
        setups.append(tuple(start("setup", program=p).finish()[0]["setup_s"]
                            for p in ("current", "reference")))
    # Each batch ran right next to the reference's run of the same inputs, so
    # a slow spell of the host slows both sides of the ratio alike.
    speedup = throughput(main["batches"]) / throughput(base["batches"])
    return {
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {
            "ops_per_s": (speedup * REFERENCE[workload][0], "ops/s"),
            "setup_s": (statistics.median(c / r for c, r in setups) * REFERENCE[workload][1], "s"),
            "peak_rss_mb": (rss, "MB"),
            "failed_frac": (main["failed"] / main["attempted"], "fraction"),
            "wall.ops_per_s": (throughput(main["batches"]), "ops/s"),
            "wall.setup_s": (statistics.median(c for c, _ in setups), "s"),
            "reference.ops_per_s": (throughput(base["batches"]), "ops/s"),
            "reference.setup_s": (statistics.median(r for _, r in setups), "s"),
        },
        "detail": {"batches": main["batches"], "reference_batches": base["batches"], "setups": setups},
    }


def traced(workload: str, seed: int, seconds: float, start) -> dict:
    """Alternate an untraced and a traced child of the current program.

    Both run the same fixed batches (whole cycles, about seconds / 2 each),
    so counts repeat exactly for a seed.
    """
    cycle = CYCLE[workload]
    n = cycle * math.ceil(seconds / 2 / NOMINAL_BATCH_S[workload] / cycle)
    spans = OUT_ROOT / f"spans-{workload}-seed{seed}.jsonl.gz"
    plain_child = start("paired")
    traced_child = start("paired", traced=True, spans=spans)
    take_turns(plain_child, traced_child, lambda rounds, _: rounds < n)
    plain, _ = plain_child.finish()
    rec, _ = traced_child.finish()
    layers = {k: tuple(v) for k, v in rec["layers"].items()}
    layers["trace_overhead_frac"] = (throughput(plain["batches"]) / throughput(rec["batches"]) - 1,
                                     "fraction")
    return {
        "attempted": plain["attempted"] + rec["attempted"],
        "failed": plain["failed"] + rec["failed"],
        "metrics": layers,
        "detail": {"batches": n, "spans": rec["spans"], "span_file": str(spans.relative_to(ROOT))},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    OUT_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_ROOT))
    deadline = time.monotonic() + RUN_BUDGET_S
    with contextlib.ExitStack() as cleanup:
        cleanup.callback(shutil.rmtree, scratch, ignore_errors=True)

        def start(role: str, **kwargs) -> Child:
            child = Child(workload, seed, role, scratch, deadline, **kwargs)
            cleanup.callback(child.kill)
            if role == "paired":
                child.await_ready()
            return child

        run = (traced if trace else measure)(workload, seed, seconds, start)
    env = environment(seed)
    print("env", json.dumps(env, sort_keys=True))
    shown = {m["name"] for m in wanted}
    for name, (value, unit) in sorted(run["metrics"].items()):
        if value or name in shown:  # layers this workload never reaches read 0
            print(f"{workload:8} {name:40} {value:>16.6g} {unit}")
    print(f"{workload:8} ops attempted {run['attempted']}, failed {run['failed']}")
    metrics = {}
    for m in wanted:
        value, unit = run["metrics"][m["name"]]
        if unit != m["unit"] or not math.isfinite(value):
            raise RunError(f"metric {m['name']} measured as {value} {unit}, expected unit {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    line = {"correct": run["failed"] == 0, "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}
    record = {**line, "workload": workload, "seconds": seconds, "trace": int(trace),
              "env": env, "all_metrics": run["metrics"], "detail": run["detail"]}
    (OUT_ROOT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return line


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not 0 <= args.seed < 2**40:
        ap.error("--seed must be in [0, 2**40)")
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be in [1, 60]")
    for need in (ROOT / "src" / "permlab" / "cli.py", ROOT / "tests" / "reference_growth.py"):
        if not need.exists():
            print(f"error: {need.relative_to(ROOT)} is missing; run from a permlab checkout",
                  file=sys.stderr)
            return 2
    try:
        for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
            line = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(line), flush=True)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
