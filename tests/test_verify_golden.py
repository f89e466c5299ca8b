"""Golden verify reports at seed 0, replayed in process through `cli.main`:
small single-check requests and the whole `verify --suite all` run must
write the committed report bytes and exit with the committed codes.

Each fixture was generated before the checks it pins were restructured, so
it pins every check's statistics, verdict and JSON layout.  Regenerate one
only when a report is meant to change:

    PYTHONPATH=src python tests/test_verify_golden.py > tests/data/golden_verify_seed0.jsonl
    PYTHONPATH=src python tests/test_verify_golden.py all > tests/data/golden_verify_all_seed0.jsonl
"""

import json
from pathlib import Path

from permlab import cli

GOLDEN = Path(__file__).parent / "data" / "golden_verify_seed0.jsonl"
# First line {"argv": ..., "exit": ...}; then the report file, one check a line.
GOLDEN_ALL = Path(__file__).parent / "data" / "golden_verify_all_seed0.jsonl"
SUITE_ALL = ["--suite", "all"]

REQUESTS = [
    ["--suite", "second_moment", "--n", "3", "--mode", "exact"],
    ["--suite", "second_moment", "--n", "6", "--mode", "monte_carlo", "--trials", "200"],
    ["--suite", "alon", "--n", "3"],
    ["--suite", "alon", "--n", "7", "--trials", "50"],
    ["--suite", "parent_child", "--n", "8", "--trials", "500"],
    ["--suite", "many_children", "--n", "10", "--trials", "500", "--i-size", "4"],
    ["--suite", "littlewood_offord", "--m", "6", "--x", "1.5", "--mode", "exact"],
    ["--suite", "littlewood_offord", "--m", "6", "--mode", "monte_carlo", "--trials", "2000"],
    ["--suite", "littlewood_offord", "--m", "6", "--mode", "monte_carlo", "--trials", "5000"],
    ["--suite", "singularity", "--n", "3", "--mode", "exact"],
    ["--suite", "singularity", "--n", "5", "--mode", "monte_carlo", "--trials", "200"],
    ["--suite", "growth_rate", "--n", "16", "--trials", "20"],
    ["--suite", "growth_rate", "--n", "8", "--trials", "50"],
    ["--suite", "maintain_grow", "--n", "10", "--trials", "10"],
]


def _run(argv, out: Path) -> tuple[int, str]:
    code = cli.main(["verify", *argv, "--seed", "0", "--out", str(out)])
    return code, out.read_text()


def test_verify_reports_match_golden(tmp_path):
    # --mode only has to agree with --trials, so each request also gives
    # the same report and exit code without its --mode pair
    golden = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert [g["argv"] for g in golden] == REQUESTS
    for i, g in enumerate(golden):
        argvs = [g["argv"]]
        if "--mode" in g["argv"]:
            at = g["argv"].index("--mode")
            argvs.append(g["argv"][:at] + g["argv"][at + 2:])
        for argv in argvs:
            code, report = _run(argv, tmp_path / f"r{i}.jsonl")
            assert (code, report) == (g["exit"], g["report"]), argv


def test_verify_suite_all_matches_golden(tmp_path):
    header, reports = GOLDEN_ALL.read_text().split("\n", 1)
    assert json.loads(header)["argv"] == SUITE_ALL
    code, report = _run(SUITE_ALL, tmp_path / "all.jsonl")
    assert (code, report) == (json.loads(header)["exit"], reports)


if __name__ == "__main__":
    import contextlib
    import io
    import sys
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        if sys.argv[1:] == ["all"]:
            with contextlib.redirect_stdout(io.StringIO()):
                code, report = _run(SUITE_ALL, Path(tmp) / "all.jsonl")
            print(json.dumps({"argv": SUITE_ALL, "exit": code}))
            print(report, end="")
        else:
            for i, argv in enumerate(REQUESTS):
                with contextlib.redirect_stdout(io.StringIO()):
                    code, report = _run(argv, Path(tmp) / f"r{i}.jsonl")
                print(json.dumps({"argv": argv, "exit": code, "report": report}))
