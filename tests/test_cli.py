import csv
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from permlab import cli, compiled, lattice, matrices
from permlab.engines import permanent_mod, permanent_ryser
from permlab.growth import ProcessConfig, run_growth
from permlab.matrices import sample_sign_matrix, to_text
from permlab.rng import RngStream

from oracles import all_ones

CLI = [sys.executable, "-m", "permlab.cli"]


def run_cli(*args, **kwargs):
    return subprocess.run([*CLI, *args], capture_output=True, text=True, **kwargs)


@pytest.fixture()
def ones3(tmp_path):
    path = tmp_path / "ones3.txt"
    path.write_text(to_text(all_ones(3)))
    return path


def test_compute_engines_agree(ones3):
    for flags in ([], ["--engine", "naive"], ["--engine", "lattice"]):
        res = run_cli("compute", str(ones3), *flags)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "6"
    # the pure-Python Ryser scan is no engine of the CLI
    res = run_cli("compute", str(ones3), "--engine", "ryser")
    assert res.returncode == 2 and "invalid choice: 'ryser'" in res.stderr


def test_compute_det_and_mod(ones3):
    res = run_cli("compute", str(ones3), "--det")
    assert res.stdout.split() == ["6", "0"]
    res2 = run_cli("compute", str(ones3), "--mod", "4")
    assert res2.stdout.strip() == "2"


def test_compute_random_mod_alon():
    res = run_cli("compute", "--random", "3", "--seed", "1", "--mod", "4")
    assert res.returncode == 0
    assert res.stdout.strip() == "2"


def test_compute_cap_is_clean_error(ones3):
    res = run_cli("compute", "--random", "12", "--engine", "naive")
    assert res.returncode == 2
    assert "capped" in res.stderr


def test_compute_default_engine_cap_is_clean_error():
    # the default engine, the Glynn kernel, refuses n=31
    res = run_cli("compute", "--random", "31")
    assert res.returncode == 2
    assert res.stderr == "error: permanent is capped at n <= 30 (2**(n-1) sign vectors), got n=31\n"


def _compute(capsys, n: int, *flags: str) -> str:
    """stdout of an in-process `compute --random n` request that must exit 0."""
    assert cli.main(["compute", "--random", str(n), *flags]) == 0
    return capsys.readouterr().out


_PRIME = 2**31 - 1  # the largest modulus the compiled Ryser sweep takes


@pytest.mark.parametrize("n", [15, 16, 21, 22])
def test_compute_mod_matches_the_modular_ryser_sweep(capsys, n):
    # n = 15, 16 sum in the Glynn kernel's 64-bit words, n = 21, 22 in its 128-bit ones
    matrix = sample_sign_matrix(n, RngStream(0, 0))
    assert _compute(capsys, n, "--mod", str(_PRIME)) == f"{permanent_mod(matrix, _PRIME)}\n"


def test_compute_mod_above_22_reads_the_glynn_kernel(capsys):
    matrix = sample_sign_matrix(23, RngStream(0, 0))
    assert _compute(capsys, 23, "--mod", "7") == f"{permanent_mod(matrix, 7)}\n"


def test_compute_mod_of_a_wide_modulus_matches_python_ryser(capsys):
    modulus = 2**61 - 1
    matrix = sample_sign_matrix(12, RngStream(0, 0))
    assert _compute(capsys, 12, "--mod", str(modulus)) == f"{permanent_ryser(matrix) % modulus}\n"


@pytest.mark.parametrize("n", [16, 22])
def test_compute_default_engine_matches_the_lattice(capsys, n):
    top = lattice.build_lattice(sample_sign_matrix(n, RngStream(0, 0))).top_value()
    assert _compute(capsys, n) == f"{top}\n"


def test_compute_default_and_mod_build_no_table(monkeypatch, capsys):
    def refuse(self, n):
        raise AssertionError(f"a minor table was built at n={n}")

    monkeypatch.setattr(lattice.MinorTable, "__init__", refuse)
    per = int(_compute(capsys, 22))
    assert int(_compute(capsys, 22, "--mod", str(_PRIME))) == per % _PRIME


def test_compute_default_engine_beyond_the_glynn_cap_names_it(capsys):
    for flags in ([], ["--mod", "7"]):
        assert cli.main(["compute", "--random", "31", *flags]) == 2
        assert capsys.readouterr().err.startswith("error: permanent is capped at n <= 30")
    # the lattice keeps its own cap
    assert cli.main(["compute", "--random", "23", "--engine", "lattice"]) == 2
    assert capsys.readouterr().err.startswith("error: minor lattice is capped at n <= 22")


@pytest.mark.parametrize("n", [5, 23])
@pytest.mark.parametrize("modulus", [1, 0, -7])
def test_compute_mod_below_two_refused_before_any_kernel(monkeypatch, capsys, n, modulus):
    monkeypatch.setattr(cli, "permanent", lambda *_a: pytest.fail("a kernel ran"))
    assert cli.main(["compute", "--random", str(n), "--mod", str(modulus)]) == 2
    assert capsys.readouterr() == ("", f"error: modulus must be >= 2, got {modulus}\n")


def test_parser_is_built_once_and_dispatches_at_call_time(monkeypatch, capsys):
    assert cli.main(["compute", "--random", "4"]) == 0
    assert cli.build_parser() is cli.build_parser()
    calls = []
    monkeypatch.setattr(cli, "cmd_compute", lambda args: calls.append(args.random) or 0)
    assert cli.main(["compute", "--random", "5"]) == 0
    assert calls == [5]


@pytest.mark.parametrize("argv", [[], ["compute"], ["growth"], ["verify"], ["ensemble"]],
                         ids=["top", "compute", "growth", "verify", "ensemble"])
def test_cached_parser_help_matches_a_fresh_one(capsys, argv):
    def help_text(parser) -> str:
        with pytest.raises(SystemExit):
            parser.parse_args([*argv, "--help"])
        return capsys.readouterr().out

    cached = help_text(cli.build_parser())
    assert cached == help_text(cli.build_parser.__wrapped__())
    assert cached == help_text(cli.build_parser())


@pytest.mark.parametrize("args, flag", [
    (["growth", "--n", "8", "--trials", "0", "--out", "{tmp}/g"], "--trials"),
    (["verify", "--suite", "alon", "--n", "3", "--trials", "0"], "--trials"),
    (["verify", "--suite", "second_moment", "--n", "0"], "--n"),
    (["ensemble", "--n-list", "8", "--trials", "0", "--out", "{tmp}/e.csv"], "--trials"),
    (["ensemble", "--n-list", "0", "--out", "{tmp}/e.csv"], "--n-list"),
], ids=["growth-trials", "verify-trials", "verify-n", "ensemble-trials", "ensemble-n-list"])
def test_counts_below_one_rejected(tmp_path, args, flag):
    res = run_cli(*(a.format(tmp=tmp_path) for a in args))
    assert res.returncode == 2
    assert f"argument {flag}: must be at least 1" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("args, flag, message", [
    (["verify", "--suite", "littlewood_offord", "--x", "-1"], "--x", "must be at least 0"),
    (["verify", "--suite", "littlewood_offord", "--x", "inf"], "--x", "must be finite, got inf"),
    (["ensemble", "--n-list", "8,x", "--out", "{tmp}/e.csv"], "--n-list", "must be comma-separated"),
    (["ensemble", "--n-list", ",", "--out", "{tmp}/e.csv"], "--n-list", "needs at least one size"),
    (["ensemble", "--n-list", "8,31", "--out", "{tmp}/e.csv"], "--n-list", "ensemble is capped at n <= 30"),
    (["verify", "--suite", "nope", "--out", "{tmp}/e.csv"], "--suite", "invalid choice: 'nope'"),
], ids=["verify-x-negative", "verify-x-infinite", "n-list-not-int", "n-list-empty",
        "n-list-above-cap", "verify-unknown-suite"])
def test_bad_values_rejected(tmp_path, args, flag, message):
    res = run_cli(*(a.format(tmp=tmp_path) for a in args))
    assert res.returncode == 2
    assert f"argument {flag}: {message}" in res.stderr
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize("args, message", [
    (["compute"], "error: either a matrix file or --random N is required"),
    (["verify", "--suite", "parent_child", "--n", "1"], "error: parent-child check needs n >= 2"),
    (["verify", "--suite", "second_moment", "--mode", "monte_carlo", "--n", "20", "--trials", "1"],
     "error: a Monte Carlo mean needs at least two draws (--trials 2 or more), got 1"),
    (["verify", "--suite", "growth_rate", "--n", "16", "--trials", "1"],
     "error: a Monte Carlo mean needs at least two draws (--trials 2 or more), got 1"),
    (["verify", "--suite", "parent_child", "--n", "4", "--trials", "1"],
     "error: a Monte Carlo frequency needs at least two draws (--trials 2 or more), got 1"),
    (["verify", "--suite", "many_children", "--n", "8", "--trials", "1", "--i-size", "2"],
     "error: a Monte Carlo frequency needs at least two draws (--trials 2 or more), got 1"),
    (["verify", "--suite", "second_moment", "--mode", "monte_carlo"],
     "error: a Monte Carlo second_moment run needs --trials"),
    (["verify", "--suite", "alon", "--n", "7"],
     "error: exact alon check is capped at n <= 4, got n=7; a Monte Carlo run needs --trials"),
    (["verify", "--suite", "growth_rate", "--n", "1", "--trials", "2"],
     "error: growth-rate check needs --n >= 2"),
    (["verify", "--suite", "alon", "--n", "31", "--trials", "2"],
     "error: n+1 must be a power of two in {4,8,16}, got n=31"),
    (["verify", "--suite", "maintain_grow", "--n", "1", "--trials", "2"],
     "error: maintain-grow check needs --n >= 2, got n=1"),
    (["verify", "--suite", "many_children", "--n", "3", "--trials", "2"],
     "error: --i-size must be in 1..--n - 1 = 2, got 6"),
], ids=["compute-no-input", "parent-child-n-1", "second-moment-one-draw", "growth-rate-one-draw",
        "parent-child-one-draw", "many-children-one-draw", "second-moment-no-trials",
        "alon-no-trials", "growth-rate-n-1", "alon-n-31", "maintain-grow-n-1",
        "many-children-i-size-default"])
def test_usage_errors_are_clean(args, message):
    res = run_cli(*args)
    assert res.returncode == 2
    assert res.stderr.startswith(message) and "Traceback" not in res.stderr


@pytest.mark.parametrize("args", [
    ["compute", "--random", "12", "--dump-lattice", "{tmp}/missing/x.csv"],
    ["compute", "{tmp}/missing.txt"],
    ["verify", "--suite", "alon", "--n", "3", "--out", "{tmp}/missing/r.jsonl"],
    ["ensemble", "--n-list", "3", "--trials", "2", "--out", "{tmp}/missing/e.csv"],
], ids=["dump-lattice", "matrix-file", "verify-out", "ensemble-out"])
def test_missing_paths_are_clean_errors(tmp_path, args):
    argv = [a.format(tmp=tmp_path) for a in args]
    res = run_cli(*argv)
    assert res.returncode == 2
    # the error names the path given, not a temporary file beside it
    given = next(a for a in argv if "missing" in a)
    assert res.stderr.startswith("error: ") and f"'{given}'" in res.stderr and ".tmp" not in res.stderr


@pytest.mark.parametrize("args", [
    ["verify", "--suite", "all", "--out", "{tmp}/missing/r.jsonl"],
    ["verify", "--suite", "growth_rate", "--out", "{tmp}/missing/r.jsonl"],
    ["verify", "--suite", "growth_rate", "--out", "{tmp}"],
    ["ensemble", "--n-list", "16", "--trials", "200", "--out", "{tmp}/missing/e.csv"],
    ["ensemble", "--n-list", "16", "--trials", "200", "--out", "{tmp}"],
], ids=["verify-all", "verify-one", "verify-directory", "ensemble", "ensemble-directory"])
def test_unwritable_out_fails_before_the_run(tmp_path, monkeypatch, capsys, args):
    def never(*_args, **_kwargs):
        raise AssertionError("the run started before --out was opened")

    monkeypatch.setattr(cli, "_growth_trial", never)
    monkeypatch.setattr(cli, "_ensemble_trial", never)
    monkeypatch.setattr(cli, "default_suite", never)
    monkeypatch.setattr(cli, "run_check", never)
    assert cli.main([a.format(tmp=tmp_path) for a in args]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("args, error", [
    (["verify", "--suite", "alon", "--n", "7"], "error: exact alon check is capped at n <= 4"),
    (["verify", "--suite", "second_moment", "--mode", "monte_carlo"],
     "error: a Monte Carlo second_moment run needs --trials"),
], ids=["alon", "second-moment"])
def test_missing_trials_leaves_out_untouched(tmp_path, capsys, args, error):
    # refused by the check before it enumerates (alon), or by the options
    # before --out is opened (--mode); either way an earlier report survives
    out = tmp_path / "r.jsonl"
    out.write_text("earlier report\n")
    assert cli.main([*args, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(error)
    assert out.read_text() == "earlier report\n"


@pytest.mark.parametrize("args, error", [
    (["verify", "--suite", "parent_child", "--n", "1"], "error: parent-child check needs n >= 2"),
    (["ensemble", "--n-list", "12", "--trials", "1"], "error: gcc failed to compile"),
], ids=["verify", "ensemble"])
def test_late_error_leaves_out_untouched(tmp_path, monkeypatch, capsys, args, error):
    # raised inside the run, after the output file is opened: the check
    # refuses its size, or the kernels, compiled on first use by the first
    # draw, fail to compile under a bad flag
    monkeypatch.setattr(compiled, "_KERNEL_CC", (*compiled._KERNEL_CC, "-no-such-flag"))
    out = tmp_path / "r.out"
    out.write_text("earlier output\n")
    lattice._kernels.cache_clear()
    try:
        assert cli.main([*args, "--out", str(out)]) == 2
    finally:
        lattice._kernels.cache_clear()
    assert capsys.readouterr().err.startswith(error)
    assert out.read_text() == "earlier output\n"
    assert os.listdir(tmp_path) == ["r.out"]  # no temporary file left


def test_lattice_memory_estimate_is_clean_error(monkeypatch, capsys):
    # the probe is patched, so no large table is ever requested
    monkeypatch.setattr(lattice, "_physical_memory_bytes", lambda: (14 << 12) - 1)
    assert cli.main(["compute", "--random", "12", "--engine", "lattice"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{14 << 12} bytes" in err and "physical memory" in err
    assert cli.main(["compute", "--random", "11", "--engine", "lattice"]) == 0
    assert capsys.readouterr().out.strip().lstrip("-").isdigit()


def test_a_dropped_bit_is_a_one_line_error(monkeypatch, capsys):
    # a kernel that reports a dropped bit at the first halved level (3): one
    # line naming n, the level and the theorem, its own exit code, no result
    kernels = lattice._kernels()

    class Broken:
        def __getattr__(self, name):
            return getattr(kernels, name)

        def add_level(self, *args):
            return -1 if args[5] else kernels.add_level(*args)

    monkeypatch.setattr(lattice, "_kernels", Broken)
    assert cli.main(["compute", "--random", "6", "--engine", "lattice"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1, err
    assert err.startswith("error: minor lattice at n=6, level 3: a 3 x 3 minor's permanent is not a"
                          " multiple of 2**1") and "Kräuter and Seifter" in err, err


def _peak_rss_kb(*argv: str) -> int:
    """Peak RSS of `permlab argv`, run in a forked child that first caps its
    own address space at 1.5 GiB."""
    pid = os.fork()
    if pid == 0:
        code = 3
        try:
            resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            code = cli.main(list(argv))
        finally:
            os._exit(code)
    _, status, usage = os.wait4(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    return usage.ru_maxrss


def test_growth_memory_does_not_grow_with_trials(tmp_path):
    # trials are drawn as they run and rows written as they end, so 8x the
    # trials keeps the same peak; a list of every trial's payload and row
    # costs about 1 kB a trial, 3.5 MB here
    few = _peak_rss_kb("growth", "--n", "4", "--trials", "500", "--out", str(tmp_path / "few"))
    many = _peak_rss_kb("growth", "--n", "4", "--trials", "4000", "--out", str(tmp_path / "many"))
    assert many - few < 2048, (few, many)
    with open(tmp_path / "many" / "summary.csv", newline="") as fh:
        assert [int(row["trial"]) for row in csv.DictReader(fh)] == list(range(4000))
    assert len(json.loads((tmp_path / "many" / "manifest.json").read_text())["outputs"]) == 4001


def test_parent_child_memory_does_not_grow_with_trials():
    # trials are drawn a block at a time, so 20x the trials keeps the same
    # peak; holding every trial's level and matrix at once costs about
    # 50 bytes a trial at n = 4, 19 MB here
    argv = ["verify", "--suite", "parent_child", "--n", "4", "--trials"]
    few = _peak_rss_kb(*argv, "20000")
    many = _peak_rss_kb(*argv, "400000")
    assert many - few < 2048, (few, many)


@pytest.mark.parametrize("args, message", [
    (["parent_child", "--n", "14", "--trials", "2"], "parent-child check is capped at --n <= 13, got n=14"),
    (["parent_child", "--n", "40", "--trials", "2"], "parent-child check is capped at --n <= 13, got n=40"),
    (["many_children", "--n", "100000", "--i-size", "99990", "--trials", "3000"],
     "many-children check is capped at --n <= 63, got n=100000"),
    (["many_children", "--n", "20", "--i-size", "2", "--trials", "3000"],
     "many-children check is capped at --n - --i-size + 1 <= 13 (the child minor size),"
     " got 19 (--n 20, --i-size 2)"),
    (["littlewood_offord", "--m", "100000", "--mode", "monte_carlo", "--trials", "10000"],
     "monte-carlo littlewood-offord check is capped at --m <= 63, got m=100000"),
    (["littlewood_offord", "--m", str(10**20), "--trials", "10000"],
     f"monte-carlo littlewood-offord check is capped at --m <= 63, got m={10**20}"),
    (["littlewood_offord", "--m", str(10**20)],
     f"exact enumeration is capped at m <= 20, got m={10**20}; a Monte Carlo run needs --trials"),
], ids=["parent-child-14", "parent-child-40", "many-children", "many-children-child-size",
        "littlewood-offord", "littlewood-offord-1e20", "littlewood-offord-1e20-exact"])
def test_oversized_checks_refused_before_drawing(monkeypatch, capsys, args, message):
    # the draw kernel is never called, so no draw, large or small, is requested
    monkeypatch.setattr(matrices, "_sign_draws", lambda *args: pytest.fail("drew before refusing"))
    assert cli.main(["verify", "--suite", *args]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_compute_lattice_dump(tmp_path, ones3):
    out = tmp_path / "lat.csv"
    res = run_cli("compute", str(ones3), "--engine", "lattice", "--dump-lattice", str(out))
    assert res.returncode == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "mask,level,value"
    assert len(rows) == 9


@pytest.mark.parametrize("args, flags", [
    (["--random", "5", "--mod", "7", "--det"], ("--mod", "--det")),
    (["--random", "5", "--mod", "7", "--engine", "lattice"], ("--mod", "--engine")),
    (["--random", "5", "--mod", "7", "--dump-lattice", "{tmp}/x.csv"], ("--mod", "--dump-lattice")),
    (["--random", "5", "--engine", "naive", "--dump-lattice", "{tmp}/x.csv"], ("--dump-lattice", "--engine")),
    (["{tmp}/m.txt", "--random", "5"], ("matrix file {tmp}/m.txt", "--random")),
    (["{tmp}/m.txt", "--seed", "0"], ("matrix file {tmp}/m.txt", "--seed")),
    (["{tmp}/m.txt", "--stream", "3"], ("matrix file {tmp}/m.txt", "--stream")),
], ids=["mod-det", "mod-engine", "mod-dump", "naive-dump", "file-random", "file-seed", "file-stream"])
def test_compute_ignored_flag_pairs_rejected(tmp_path, capsys, args, flags):
    (tmp_path / "m.txt").write_text("2\n1 1\n1 -1\n")
    argv = ["compute", *(a.format(tmp=tmp_path) for a in args)]
    flags = [flag.format(tmp=tmp_path) for flag in flags]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert all(flag in err for flag in flags)
    assert not (tmp_path / "x.csv").exists()


def _count_tables(monkeypatch) -> list:
    built = []
    init = lattice.MinorTable.__init__

    def counted(self, n):
        built.append(n)
        init(self, n)

    monkeypatch.setattr(lattice.MinorTable, "__init__", counted)
    return built


def test_compute_dump_builds_one_table(tmp_path, monkeypatch, capsys):
    built = _count_tables(monkeypatch)
    out = tmp_path / "lat.csv"
    assert cli.main(["compute", "--random", "6", "--dump-lattice", str(out)]) == 0
    assert built == [6]
    per = int(capsys.readouterr().out)
    assert per == permanent_ryser(sample_sign_matrix(6, RngStream(0, 0)))
    top = out.read_text().strip().splitlines()[-1]
    assert top == f"{(1 << 6) - 1},6,{per}"


def test_compute_dump_cap_checked_before_building(tmp_path, monkeypatch, capsys):
    built = _count_tables(monkeypatch)
    out = tmp_path / "lat.csv"
    assert cli.main(["compute", "--random", "13", "--dump-lattice", str(out)]) == 2
    assert built == []
    assert "--dump-lattice is capped at n <= 12" in capsys.readouterr().err
    assert not out.exists()


def test_growth_outputs_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        res = run_cli("growth", "--n", "10", "--trials", "2", "--seed", "9",
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
    for name in ("trace_00000.jsonl", "trace_00001.jsonl", "summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["subcommand"] == "growth"
    assert manifest["seed"] == 9
    assert str(out1 / "summary.csv") in manifest["outputs"]


def test_growth_summary_potential_algebra(tmp_path):
    out = tmp_path / "g"
    res = run_cli("growth", "--n", "10", "--trials", "3", "--seed", "4", "--out", str(out))
    assert res.returncode == 0
    eps = 0.25
    with open(out / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    for trial, row in enumerate(rows):
        trace_lines = (out / f"trace_{trial:05d}.jsonl").read_text().splitlines()
        levels = [json.loads(ln) for ln in trace_lines[1:]]
        classified = [lv for lv in levels if lv["step_type"] is not None]
        w_expected = sum(
            (1 - eps / 2) - 3 * (lv["step_type"] == "I") - (lv["step_type"] == "III")
            for lv in classified
        )
        assert abs(float(row["W_k1"]) - w_expected) < 1e-9
        assert levels[-1]["W_k"] == pytest.approx(w_expected)
        counts = {t: sum(1 for lv in classified if lv["step_type"] == t) for t in "I II III IV V".split()}
        for t, c in counts.items():
            assert int(row[f"type_{t}"]) == c


@pytest.mark.parametrize("flags, message", [
    (["--n", "16", "--eps", "0.9"], "bad level range k0=15, k1=1 for n=16: --n 16 with --eps 0.9"),
    (["--n", "23"], "minor lattice is capped at n <= 22 (2**n table), got --n 23"),
])
def test_growth_refuses_its_level_range_before_making_out(tmp_path, capsys, flags, message):
    # the one level-range check, which run_growth also makes, runs before
    # --out is created and names the flags
    out = tmp_path / "runs" / "g"
    assert cli.main(["growth", *flags, "--trials", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "runs").exists()
    n, eps = int(flags[1]), float(flags[3]) if len(flags) > 2 else 0.25
    with pytest.raises(ValueError, match=re.escape(message)):
        run_growth(sample_sign_matrix(n, RngStream(0)), ProcessConfig(eps=eps))


def test_growth_rejects_bad_eps_prime(tmp_path):
    res = run_cli("growth", "--n", "10", "--trials", "1", "--seed", "0",
                  "--eps", "0.3", "--eps-prime", "0.2", "--out", str(tmp_path / "x"))
    assert res.returncode == 2
    assert "eps_prime" in res.stderr


def test_verify_single_checks(tmp_path):
    res = run_cli("verify", "--suite", "second_moment", "--n", "3")
    assert res.returncode == 0
    assert "PASS second_moment" in res.stdout
    res2 = run_cli("verify", "--suite", "alon", "--n", "3")
    assert res2.returncode == 0
    res3 = run_cli("verify", "--suite", "littlewood_offord", "--m", "2")
    assert res3.returncode == 0
    out = tmp_path / "reports.jsonl"
    res4 = run_cli("verify", "--suite", "singularity", "--n", "2", "--out", str(out))
    assert res4.returncode == 0
    report = json.loads(out.read_text().splitlines()[0])
    assert report["name"] == "singularity" and report["passed"]


@pytest.mark.parametrize("args, error", [
    (["--suite", "alon", "--n", "3", "--mode", "monte_carlo"], "a Monte Carlo alon run needs --trials"),
    (["--suite", "alon", "--n", "3", "--trials", "7"], None),
    (["--suite", "alon", "--trials", "7"], None),
    (["--suite", "second_moment", "--n", "3", "--trials", "7"], None),
    (["--suite", "singularity", "--mode", "exact", "--trials", "7"],
     "verify --suite singularity is exact here and does not read --trials"),
    (["--suite", "littlewood_offord", "--m", "4", "--trials", "7"], None),
    (["--suite", "littlewood_offord", "--n", "5"], "verify --suite littlewood_offord does not read --n"),
    (["--suite", "parent_child", "--n", "8", "--i-size", "2"],
     "verify --suite parent_child does not read --i-size"),
    (["--suite", "parent_child", "--mode", "monte_carlo", "--trials", "7"],
     "verify --suite parent_child does not read --mode"),
    (["--suite", "growth_rate", "--x", "2"], "verify --suite growth_rate does not read --x"),
    (["--suite", "maintain_grow", "--m", "3"], "verify --suite maintain_grow does not read --m"),
    (["--suite", "all", "--n", "5"], "verify --suite all does not read --n"),
    (["--suite", "all", "--trials", "3"], "verify --suite all does not read --trials"),
], ids=["alon-mode", "alon-exact-trials", "alon-default-n-trials", "second-moment-exact-trials",
        "singularity-exact-trials", "littlewood-offord-exact-trials", "littlewood-offord-n",
        "parent-child-i-size", "parent-child-mode", "growth-rate-x", "maintain-grow-m", "all-n", "all-trials"])
def test_verify_refuses_flags_its_check_does_not_read(tmp_path, capsys, args, error):
    # a check with no default draw count reads --trials, which makes its run
    # Monte Carlo (error None: the request runs and writes its report), and
    # reads --mode only to check that it agrees with --trials
    out = tmp_path / "r.jsonl"
    code = cli.main(["verify", *args, "--out", str(out)])
    err = capsys.readouterr().err
    if error is None:
        assert code in (0, 1) and err == ""
        assert json.loads(out.read_text())["sample_size"] == int(args[-1])
    else:
        assert code == 2 and err == f"error: {error}\n"
        assert not out.exists()  # refused before the report is opened


def test_verify_manifest_records_the_options_read(tmp_path):
    out = tmp_path / "r.jsonl"
    argv = ["verify", "--suite", "littlewood_offord", "--trials", "50", "--out", str(out)]
    assert cli.main(argv) == 0
    manifest = json.loads((tmp_path / "r.jsonl.manifest.json").read_text())
    assert manifest["config"] == {"suite": "littlewood_offord", "n": None, "trials": 50,
                                  "mode": None, "m": 2, "x": 1.0, "i_size": None}


def test_verify_report_files_are_byte_stable(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for out in (a, b):
        res = run_cli("verify", "--suite", "parent_child", "--n", "8",
                      "--trials", "500", "--seed", "5", "--out", str(out))
        assert res.returncode == 0, res.stderr
    assert a.read_bytes() == b.read_bytes()


def test_verify_alon_7_reports_refutation():
    # the stated residue claim is refuted at n=7; exit code must be nonzero
    res = run_cli("verify", "--suite", "alon", "--n", "7", "--trials", "20")
    assert res.returncode == 1
    assert "FAIL alon" in res.stdout


def test_ensemble_deterministic_and_sane(tmp_path):
    out1 = tmp_path / "e1.csv"
    out2 = tmp_path / "e2.csv"
    for out in (out1, out2):
        res = run_cli("ensemble", "--n-list", "3,5", "--trials", "40",
                      "--seed", "2", "--out", str(out))
        assert res.returncode == 0, res.stderr
    assert out1.read_bytes() == out2.read_bytes()
    with open(out1) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 80
    n3 = [r for r in rows if r["n"] == "3"]
    # permanents at n=3 never vanish
    assert all(r["per_abs_log"] != "ZERO" for r in n3)
    # determinants can vanish; the flag is the only non-numeric value
    for r in rows:
        if r["det_abs_log"] != "ZERO":
            float(r["det_abs_log"])
    manifest = json.loads((tmp_path / "e1.csv.manifest.json").read_text())
    assert manifest["config"]["n_list"] == [3, 5]


def test_ensemble_repeated_size_computes_each_row_once(tmp_path, monkeypatch, capsys):
    calls, real = [], cli.permanent

    def counted(matrix):
        calls.append(matrix.n)
        return real(matrix)

    monkeypatch.setattr(cli, "permanent", counted)
    out = tmp_path / "e.csv"
    assert cli.main(["ensemble", "--n-list", "5,3,5", "--trials", "3", "--seed", "1",
                     "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote 9 rows to {out}\n"
    assert sorted(calls) == [3, 3, 3, 5, 5, 5]  # one permanent per (n, trial)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "trial", "per_abs_log", "det_abs_log"]
    assert [row[:2] for row in rows[1:]] == [
        ["3", "0"], ["3", "1"], ["3", "2"],
        ["5", "0"], ["5", "0"], ["5", "1"], ["5", "1"], ["5", "2"], ["5", "2"]]
    assert rows[4] == rows[5] and rows[6] == rows[7] and rows[8] == rows[9]


def test_growth_success_fraction_matches_pilot_fixture(tmp_path):
    # same-seed rerun of the committed pilot: the success fraction must
    # match the fixture exactly (zero tolerance by construction)
    from permlab.checks import pilot_bands

    fixture = pilot_bands()["growth_success"]["16"]
    out = tmp_path / "pilot_rerun"
    res = run_cli("growth", "--n", "16", "--trials", str(fixture["trials"]),
                  "--seed", str(fixture["seed"]), "--out", str(out))
    assert res.returncode == 0, res.stderr
    with open(out / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    successes = sum(int(r["successful"]) for r in rows)
    assert successes == fixture["success_count"]


def test_growth_trace_matches_golden_fixture(tmp_path):
    res = run_cli("growth", "--n", "16", "--trials", "1", "--seed", "0", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    golden = Path(__file__).parent / "data" / "golden_trace_n16_seed0.jsonl"
    got = (tmp_path / "trace_00000.jsonl").read_text().splitlines()
    assert got == golden.read_text().splitlines()


def test_importing_the_cli_starts_no_process_machinery():
    # every trial runs in the calling process, so nothing loads a process pool
    code = ("import sys, permlab.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert res.stdout == "[]\n"
