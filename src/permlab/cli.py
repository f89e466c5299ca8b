"""Command-line harness.

Subcommands: compute (one permanent/determinant), growth (trace ensembles),
verify (the check suite), ensemble (growth-rate dataset).  All randomness
flows from --seed; trial t uses stream t, so reruns are byte-identical.
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
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .checks import CHECKS, _needs_trials, default_suite, run_check, suite_passed, summary_lines
from .engines import determinant_exact, permanent, permanent_mod, permanent_naive, permanent_ryser
from .growth import ProcessConfig, run_growth, write_trace_jsonl
from .lattice import DUMP_MAX_N, LATTICE_MAX_N, build_lattice, dump_lattice_csv
from .matrices import CapError, SignMatrix, from_text, sample_sign_matrix
from .rng import RngStream


def _thread_count() -> int:
    """Worker processes from PERMLAB_THREADS, an integer clamped to 1..os.cpu_count()."""
    text = os.environ.get("PERMLAB_THREADS", "1")
    try:
        requested = int(text)
    except ValueError:
        raise ValueError(f"PERMLAB_THREADS must be an integer, got {text!r}") from None
    return max(1, min(requested, os.cpu_count() or 1))


def _map_trials(fn, payloads: list) -> list:
    """fn applied to each payload, in payload order, on _thread_count() workers."""
    threads = _thread_count()
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, payloads))
    return [fn(p) for p in payloads]


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
    """argparse type for --n-list: comma-separated sizes in 1..LATTICE_MAX_N, at least one."""
    tokens = [tok for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise argparse.ArgumentTypeError(f"needs at least one size, got {text!r}")
    try:
        sizes = [_positive_int(tok) for tok in tokens]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated integers >= 1, got {text!r}") from None
    for n in sizes:
        if n > LATTICE_MAX_N:
            raise argparse.ArgumentTypeError(f"ensemble is capped at n <= {LATTICE_MAX_N}, got n={n}")
    return sizes


def _write_manifest(path: Path, subcommand: str, config: dict, seed: int | None,
                    outputs: list[str]) -> None:
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "version": __version__,
        "outputs": outputs,
        "created": datetime.now(timezone.utc).isoformat(),
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


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
    _refuse_ignored_flags(args)
    matrix = _load_matrix(args)
    if args.mod is not None:
        print(permanent_mod(matrix, args.mod))
        return 0
    if args.engine == "naive":
        per = permanent_naive(matrix)
    elif args.engine == "ryser":
        per = permanent_ryser(matrix)
    else:
        if args.dump_lattice and matrix.n > DUMP_MAX_N:
            raise CapError(f"--dump-lattice is capped at n <= {DUMP_MAX_N}, got n={matrix.n}")
        try:
            table = build_lattice(matrix)
        except CapError as exc:
            raise CapError(f"{exc}; use --engine ryser, which keeps no table") from exc
        if args.dump_lattice:
            dump_lattice_csv(table, args.dump_lattice)
        per = table.top_value()
    print(per)
    if args.det:
        print(determinant_exact(matrix))
    return 0


def _growth_trial(payload: tuple) -> tuple[str, dict]:
    """Run one trial, write its trace file; return the path and the summary row."""
    seed, trial, n, cfg, out = payload
    trace = run_growth(sample_sign_matrix(n, RngStream(seed, trial)), cfg)
    path = out / f"trace_{trial:05d}.jsonl"
    write_trace_jsonl(trace, path, seed=seed, stream=trial)
    final = trace.final
    summary = {
        "trial": trial,
        "successful": int(trace.successful),
        "N_k1": final.tracked,
        "W_k1": final.potential,
        **{f"type_{t}": c for t, c in trace.step_type_counts().items()},
    }
    return str(path), summary


def cmd_growth(args) -> int:
    cfg = ProcessConfig(eps=args.eps, eps_prime=args.eps_prime, c=args.c)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payloads = [(args.seed, t, args.n, cfg, out) for t in range(args.trials)]
    results = _map_trials(_growth_trial, payloads)
    trace_paths = [path for path, _ in results]
    summary_rows = [row for _, row in results]

    summary_path = out / "summary.csv"
    with open(summary_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(summary_rows[0]))
        writer.writeheader()
        writer.writerows(summary_rows)

    _write_manifest(
        out / "manifest.json", "growth",
        {"n": args.n, "trials": args.trials, **cfg.describe(args.n)},
        args.seed, trace_paths + [str(summary_path)],
    )
    successes = sum(r["successful"] for r in summary_rows)
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
    payloads = [(args.seed, n, t) for n in n_list for t in range(args.trials)]
    out = Path(args.out)
    with _replace_when_done(out) as fh:
        rows = _map_trials(_ensemble_trial, payloads)
        rows.sort(key=lambda r: (r[0], r[1]))
        writer = csv.writer(fh)
        writer.writerow(["n", "trial", "per_abs_log", "det_abs_log"])
        writer.writerows(rows)
    _write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"), "ensemble",
        {"n_list": n_list, "trials": args.trials}, args.seed, [str(out)],
    )
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="permlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="permanent/determinant of one matrix")
    p.add_argument("matrix", nargs="?", help="matrix text file (omit with --random)")
    p.add_argument("--random", type=int, metavar="N", help="sample a random N x N matrix")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--engine", choices=["naive", "ryser", "lattice"], default=None,
                   help="permanent engine (default: lattice)")
    p.add_argument("--det", action="store_true", help="also print the determinant")
    p.add_argument("--mod", type=int, help="print the permanent residue mod M")
    p.add_argument("--dump-lattice", metavar="CSV", help="dump the minor lattice (engine=lattice, n <= 12)")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("growth", help="growth-run ensemble with JSONL traces")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--eps-prime", type=float, default=None, dest="eps_prime")
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_growth)

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
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ensemble", help="growth-rate dataset over several sizes")
    p.add_argument("--n-list", type=_size_list, required=True, dest="n_list",
                   help="comma-separated sizes")
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_ensemble)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # CapError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
