"""Command-line harness.

Subcommands: compute (one permanent/determinant), growth (trace ensembles),
verify (the check suite), ensemble (growth-rate dataset).  All randomness
flows from --seed; trial t uses stream t, so reruns are byte-identical.
compute reads its permanents and residues from `engines.permanent`, the
compiled Glynn kernel, up to its cap n <= 30; the naive and lattice engines
are asked for by name (--engine naive, --engine lattice, --dump-lattice).
verify runs one check by name, or every row of the suite; the check table
it reads its defaults from is `checks.CHECKS`, and the suite is
`checks.SUITE`.
Primary outputs (traces, CSV, reports) carry no timestamps; each command
also writes a manifest JSON holding the full configuration, the code
version, the output paths and the wall-clock time of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
from collections import Counter, deque
from collections.abc import Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path

from . import __version__
from .checks import CHECKS, _needs_trials, default_suite, run_check, suite_passed, summary_lines
from .engines import PERMANENT_MAX_N, determinant_exact, permanent, permanent_naive
from .growth import ProcessConfig, run_growth, write_trace_jsonl
from .lattice import DUMP_MAX_N, build_lattice, dump_lattice_csv
from .matrices import CapError, SignMatrix, from_text, sample_sign_matrix
from .rng import RngStream

_WINDOW = 4  # trials in flight per worker process


def _thread_count() -> int:
    """Worker processes from PERMLAB_THREADS, an integer clamped to 1..os.cpu_count()."""
    text = os.environ.get("PERMLAB_THREADS", "1")
    try:
        requested = int(text)
    except ValueError:
        raise ValueError(f"PERMLAB_THREADS must be an integer, got {text!r}") from None
    return max(1, min(requested, os.cpu_count() or 1))


def _map_trials(fn, payloads: Iterable) -> Iterator:
    """fn applied to each payload, yielded in payload order, on _thread_count() workers.

    Payloads are drawn from the iterable only as results are taken, at most
    _WINDOW per worker ahead, so memory does not grow with the trial count.
    """
    threads = _thread_count()
    if threads == 1:
        yield from map(fn, payloads)
        return
    with ProcessPoolExecutor(max_workers=threads) as pool:
        pending: deque = deque()
        for payload in payloads:
            if len(pending) == threads * _WINDOW:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, payload))
        while pending:
            yield pending.popleft().result()


def _positive_int(text: str) -> int:
    """argparse type for sizes and trial counts: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    """argparse type for radii: a finite real number >= 0."""
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    if math.isinf(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _size_list(text: str) -> list[int]:
    """argparse type for --n-list: comma-separated sizes in 1..PERMANENT_MAX_N, at least one."""
    tokens = [tok for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise argparse.ArgumentTypeError(f"needs at least one size, got {text!r}")
    try:
        sizes = [_positive_int(tok) for tok in tokens]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated integers >= 1, got {text!r}") from None
    for n in sizes:
        if n > PERMANENT_MAX_N:
            raise argparse.ArgumentTypeError(f"ensemble is capped at n <= {PERMANENT_MAX_N}, got n={n}")
    return sizes


def _write_manifest(path: Path, subcommand: str, config: dict, seed: int | None,
                    outputs: Iterable[str]) -> None:
    """The run's manifest: what json.dumps(..., indent=2, sort_keys=True)
    writes, with the outputs written one at a time as they are iterated, so
    a run of many trace files never holds all their names."""
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "version": __version__,
        "outputs": [],
        "created": datetime.now(timezone.utc).isoformat(),
    }
    head, tail = json.dumps(manifest, indent=2, sort_keys=True).split('"outputs": []')
    with open(path, "w") as fh:
        fh.write(head + '"outputs": [')
        empty = True
        for name in outputs:
            fh.write(("\n    " if empty else ",\n    ") + json.dumps(name))
            empty = False
        fh.write(("]" if empty else "\n  ]") + tail + "\n")


def _load_matrix(args) -> SignMatrix:
    if args.matrix is not None:
        return from_text(Path(args.matrix).read_text())
    if args.random is None:
        raise ValueError("either a matrix file or --random N is required")
    return sample_sign_matrix(args.random, RngStream(args.seed, args.stream))


def _refuse_ignored_flags(args) -> None:
    """Reject compute flag pairs where one flag would otherwise be ignored."""
    if args.mod is not None:
        for flag, given in (("--det", args.det), ("--engine", args.engine),
                            ("--dump-lattice", args.dump_lattice)):
            if given:
                raise ValueError(f"--mod prints only the residue; it cannot be combined with {flag}")
    if args.dump_lattice and args.engine not in (None, "lattice"):
        raise ValueError(f"--dump-lattice needs the lattice engine, not --engine {args.engine}")


def cmd_compute(args) -> int:
    """Print one matrix's permanent (and determinant, with --det) or residue (--mod).

    The default engine and --mod read `permanent()`, the compiled Glynn
    kernel; --engine lattice and --dump-lattice build the minor lattice.
    """
    _refuse_ignored_flags(args)
    matrix = _load_matrix(args)
    if args.mod is not None:
        if args.mod < 2:
            raise ValueError(f"modulus must be >= 2, got {args.mod}")
        print(permanent(matrix) % args.mod)
        return 0
    if args.engine == "naive":
        per = permanent_naive(matrix)
    elif args.engine is None and not args.dump_lattice:
        per = permanent(matrix)
    else:
        if args.dump_lattice and matrix.n > DUMP_MAX_N:
            raise CapError(f"--dump-lattice is capped at n <= {DUMP_MAX_N}, got n={matrix.n}")
        table = build_lattice(matrix)
        if args.dump_lattice:
            dump_lattice_csv(table, args.dump_lattice)
        per = table.top_value()
    print(per)
    if args.det:
        print(determinant_exact(matrix))
    return 0


def _trace_paths(out: Path, trials: int) -> Iterator[str]:
    """Each trial's trace file, in trial order.  "trace_" has no separator,
    so it joins `out` exactly as each full file name would."""
    prefix = str(out / "trace_")
    return (f"{prefix}{trial:05d}.jsonl" for trial in range(trials))


def _growth_trial(payload: tuple) -> dict:
    """Run one trial, write its trace file; return its summary row."""
    seed, trial, n, cfg, path = payload
    trace = run_growth(sample_sign_matrix(n, RngStream(seed, trial)), cfg)
    write_trace_jsonl(trace, path, seed=seed, stream=trial)
    final = trace.final
    return {
        "trial": trial,
        "successful": int(trace.successful),
        "N_k1": final.tracked,
        "W_k1": final.potential,
        **{f"type_{t}": c for t, c in trace.step_type_counts().items()},
    }


def cmd_growth(args) -> int:
    cfg = ProcessConfig(eps=args.eps, eps_prime=args.eps_prime, c=args.c)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payloads = ((args.seed, t, args.n, cfg, path)
                for t, path in enumerate(_trace_paths(out, args.trials)))
    summary_path = out / "summary.csv"
    successes = 0
    with _replace_when_done(summary_path) as fh:
        writer = None
        for row in _map_trials(_growth_trial, payloads):  # each row as its trial ends
            if writer is None:
                writer = csv.DictWriter(fh, fieldnames=list(row))
                writer.writeheader()
            writer.writerow(row)
            successes += row["successful"]

    _write_manifest(
        out / "manifest.json", "growth",
        {"n": args.n, "trials": args.trials, **cfg.describe(args.n)},
        args.seed, chain(_trace_paths(out, args.trials), [str(summary_path)]),
    )
    print(f"{args.trials} runs, {successes} successful ({successes / args.trials:.3f})")
    return 0


# The check-size flags of verify (dest -> flag); --suite all reads none of them.
_VERIFY_FLAGS = {"n": "--n", "trials": "--trials", "mode": "--mode",
                 "m": "--m", "x": "--x", "i_size": "--i-size"}


def _check_options(args) -> dict:
    """The options the chosen check reads: its defaults, overridden by the flags given.

    A flag the check does not read is a ValueError that names it (the size
    flags default to None, so a flag the user set is told apart from a
    default).  An exact run, in exact mode or alon at n = 3, reads no
    --trials; a Monte Carlo run needs it.  Both are refused here, before
    --out is opened.
    """
    _, reads = CHECKS.get(args.suite, (None, {}))
    given = {dest: getattr(args, dest) for dest in _VERIFY_FLAGS if getattr(args, dest) is not None}
    for dest in given:
        if dest not in reads:
            raise ValueError(f"verify --suite {args.suite} does not read {_VERIFY_FLAGS[dest]}")
    opts = {**reads, **given}
    if opts.get("mode") == "exact" or (args.suite == "alon" and opts["n"] == 3):
        if "trials" in given:
            raise ValueError(f"verify --suite {args.suite} is exact here and does not read --trials")
    elif "trials" in reads:
        _needs_trials(args.suite, opts["trials"])
    return opts


@contextlib.contextmanager
def _replace_when_done(path: Path):
    """A text file beside path, opened before the block runs so that an
    unwritable path fails at once, that replaces path only if the block returns."""
    if path.is_dir():
        raise IsADirectoryError(f"{path} is a directory")
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cmd_verify(args) -> int:
    opts = _check_options(args)
    out = Path(args.out) if args.out else None
    with _replace_when_done(out) if out else contextlib.nullcontext() as fh:
        if args.suite == "all":
            reports = default_suite(args.seed)
        else:
            reports = [run_check(args.suite, opts, RngStream(args.seed))]
        if fh is not None:
            for r in reports:
                fh.write(r.to_json() + "\n")
    if out:
        _write_manifest(
            out.with_suffix(out.suffix + ".manifest.json"), "verify",
            {"suite": args.suite, **dict.fromkeys(_VERIFY_FLAGS), **opts}, args.seed, [str(out)],
        )
    for line in summary_lines(reports):
        print(line)
    ok = suite_passed(reports)
    print("suite:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _ensemble_trial(payload: tuple) -> tuple[int, int, str, str]:
    seed, n, trial = payload
    matrix = sample_sign_matrix(n, RngStream(seed, (n << 32) | trial))
    per = permanent(matrix)
    det = determinant_exact(matrix)
    per_log = "ZERO" if per == 0 else f"{math.log(abs(per)):.10g}"
    det_log = "ZERO" if det == 0 else f"{math.log(abs(det)):.10g}"
    return n, trial, per_log, det_log


def cmd_ensemble(args) -> int:
    n_list = args.n_list
    # rows go out in (n, trial) order; a size listed twice gives each of its rows twice
    times = Counter(n_list)
    payloads = ((args.seed, n, t) for n in sorted(times) for t in range(args.trials)
                for _ in range(times[n]))
    out = Path(args.out)
    rows = 0
    with _replace_when_done(out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "trial", "per_abs_log", "det_abs_log"])
        for row in _map_trials(_ensemble_trial, payloads):
            writer.writerow(row)
            rows += 1
    _write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"), "ensemble",
        {"n_list": n_list, "trials": args.trials}, args.seed, [str(out)],
    )
    print(f"wrote {rows} rows to {out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The permlab parser, built once per process; main() picks each
    subcommand's cmd_* function by name when it runs."""
    parser = argparse.ArgumentParser(prog="permlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="permanent/determinant of one matrix")
    p.add_argument("matrix", nargs="?", help="matrix text file (omit with --random)")
    p.add_argument("--random", type=int, metavar="N", help="sample a random N x N matrix")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--engine", choices=["naive", "lattice"], default=None,
                   help="permanent engine (default: the compiled Glynn kernel, n <= 30)")
    p.add_argument("--det", action="store_true", help="also print the determinant")
    p.add_argument("--mod", type=int, help="print the permanent residue mod M")
    p.add_argument("--dump-lattice", metavar="CSV", help="dump the minor lattice (engine=lattice, n <= 12)")

    p = sub.add_parser("growth", help="growth-run ensemble with JSONL traces")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--eps-prime", type=float, default=None, dest="eps_prime")
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("verify", help="run verification checks")
    p.add_argument("--suite", choices=["all", *CHECKS], default="all")
    p.add_argument("--n", type=_positive_int, default=None)
    p.add_argument("--trials", type=_positive_int, default=None)
    p.add_argument("--seed", type=int, default=0)
    lo, mc = CHECKS["littlewood_offord"][1], CHECKS["many_children"][1]
    p.add_argument("--mode", choices=["exact", "monte_carlo"], default=None,
                   help=f"second_moment, singularity, littlewood_offord (default: {lo['mode']})")
    p.add_argument("--m", type=int, default=None,
                   help=f"vector length for littlewood_offord (default: {lo['m']})")
    p.add_argument("--x", type=_nonnegative_float, default=None,
                   help=f"tail radius multiplier for littlewood_offord (default: {lo['x']})")
    p.add_argument("--i-size", type=int, default=None, dest="i_size",
                   help=f"candidate columns for many_children (default: {mc['i_size']})")
    p.add_argument("--out", default=None, help="JSON-lines report file")

    p = sub.add_parser("ensemble", help="growth-rate dataset over several sizes")
    p.add_argument("--n-list", type=_size_list, required=True, dest="n_list",
                   help="comma-separated sizes")
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="CSV output path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:  # CapError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
