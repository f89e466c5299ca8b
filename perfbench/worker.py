"""One benchmark child process: set up, warm up, run batches, gate outputs.

Started by run.py in a fresh interpreter per role:

  setup     import permlab.cli, build the workload, run one warm-up op, exit
  paired    then run one batch per "go" line on stdin, answering "ready" on
            stdout before each, until "stop" (run.py has two such children
            take turns)

--program picks the code: "current" imports src/permlab, "reference" the
frozen copy in reference.zip.  Reference outputs are not gated.  --traced
records spans around every traced permlab function.  The child writes its
result JSON to --result; CLI output never reaches its stdout.
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
PROGRAMS = {"current": HERE.parent / "src", "reference": HERE / "reference.zip"}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--role", choices=["setup", "paired"], required=True)
    ap.add_argument("--program", choices=sorted(PROGRAMS), default="current")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", required=True, help="scratch directory for program outputs")
    ap.add_argument("--result", required=True, help="JSON result file")
    ap.add_argument("--spans", default=None, help="gzipped JSON-lines span file (--traced)")
    args = ap.parse_args()
    sys.path[:0] = [str(PROGRAMS[args.program]), str(HERE.parent / "tests")]
    replies, sys.stdout = sys.stdout, sys.stderr  # stdout carries only protocol lines

    import permlab.cli  # noqa: F401  (the import is part of set-up time)
    from workloads import WORKLOADS

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, out)
    wl.warm_up()
    result = {"setup_s": perf_counter() - T_START}
    if args.role == "setup":
        Path(args.result).write_text(json.dumps(result))
        return 0

    tracer = None
    if args.traced:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    batches = []  # (ops, seconds)
    attempted = failed = 0
    counts: dict[str, int] = {}
    b = 0
    while True:
        print("ready", file=replies, flush=True)
        if sys.stdin.readline().strip() != "go":
            break
        if tracer is not None:
            tracer.op_id = b
            tracer.active = True
        t0 = perf_counter()
        batch = wl.run_batch(b)
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        batches.append((batch.ops, dt))
        # Outside the timed region: gate the outputs, read layer counts, clean up.
        attempted += batch.ops
        if args.program == "current":
            failed += wl.gate(batch)
        if tracer is not None:
            for key, val in wl.layer_counts(batch).items():
                counts[key] = counts.get(key, 0) + val
        wl.discard(batch)
        b += 1

    result.update(batches=batches, attempted=attempted, failed=failed)
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, attempted, counts)
        result["spans"] = len(tracer.start)
        if args.spans:
            tracing.write_spans(tracer, args.spans)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
