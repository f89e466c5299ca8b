import json
import math
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from permlab import growth
from permlab.growth import (
    LevelRecord,
    ProcessConfig,
    ProcessTrace,
    StepType,
    classify_step,
    count_threshold,
    is_successful,
    potential_increment,
    run_growth,
    step_targets,
    write_trace_jsonl,
)
from permlab.lattice import MinorTable, SplitVerdict, build_lattice, split_events
from permlab.matrices import sample_sign_matrix
from permlab.rng import RngStream

from oracles import all_ones, brute_parent_counts, level_values, subsets_of_size
from reference_growth import reference_trace

GOLDEN = Path(__file__).parent / "data" / "golden_trace_n16_seed0.jsonl"


def trace_level_dicts(trace: ProcessTrace) -> list[dict]:
    """Per-level dicts in the stable wire format: the writer's oracle."""
    return [
        {
            "k": rec.k,
            "N_k": rec.tracked,
            "true_heavy_count": rec.true_heavy,
            "lambda_k": rec.threshold,
            "W_k": rec.potential,
            "step_type": rec.step_type.value if rec.step_type is not None else None,
        }
        for rec in trace.records
    ]


def trace_jsonl_oracle(trace: ProcessTrace, seed: int, stream: int) -> bytes:
    """One json.dumps(sort_keys=True) line per record, header included."""
    header = {"record": "header", "n": trace.n, "config": trace.cfg.describe(trace.n),
              "seed": seed, "stream": stream}
    rows = [header, *trace_level_dicts(trace)]
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows).encode()


def replay_records(trace: ProcessTrace) -> list[tuple[int, float, float]]:
    """Re-derive (tracked, threshold, potential) per level from the step log.

    Replaying the update rules from each record must reproduce the next
    record exactly.
    """
    cfg = trace.cfg
    n = trace.n
    out = []
    rec0 = trace.records[0]
    tracked, threshold, potential = rec0.tracked, rec0.threshold, rec0.potential
    out.append((tracked, threshold, potential))
    for rec in trace.records[:-1]:
        st = rec.step_type
        if st is None:
            pass  # zero tracked count propagates unchanged
        else:
            if st is StepType.I:
                tracked = count_threshold(n**cfg.eps * rec.tracked / 4)
            elif st in (StepType.II, StepType.III, StepType.IV):
                tracked = count_threshold(cfg.eps_prime * rec.tracked)
            else:
                tracked = 0
            if st is StepType.III:
                threshold = cfg.lam_grow_factor(n) * rec.threshold
            potential += potential_increment(st, cfg)
        out.append((tracked, threshold, potential))
    return out


def test_config_validation():
    with pytest.raises(ValueError):
        ProcessConfig(eps=0.3, eps_prime=0.06)  # above eps/6
    with pytest.raises(ValueError):
        ProcessConfig(eps=1.2)
    with pytest.raises(ValueError):
        ProcessConfig(c=1.5)
    cfg = ProcessConfig(eps=0.3)
    assert cfg.eps_prime == pytest.approx(0.05)
    assert cfg.c == 0.3


def test_config_defaults_at_16():
    cfg = ProcessConfig()
    assert cfg.start_level(16) == math.floor(0.25 * 16) + 1 == 5
    assert cfg.end_level(16) == math.floor(0.75 * 16) == 12
    assert cfg.endgame_depth(16) == max(1, math.floor(math.log(16)) - 1)
    assert cfg.describe(16)["t_good"] == 2


def test_count_threshold():
    assert count_threshold(0.1) == 1
    assert count_threshold(1.0) == 1
    assert count_threshold(1.2) == 2
    assert count_threshold(7) == 7


def test_all_ones_never_type_v():
    cfg = ProcessConfig()
    trace = run_growth(all_ones(8), cfg)
    assert trace.successful
    counts = trace.step_type_counts()
    assert counts["V"] == 0
    for rec in trace.records:
        assert rec.tracked > 0


def test_replay_identity_random():
    cfg = ProcessConfig()
    for t in range(10):
        trace = run_growth(sample_sign_matrix(12, RngStream(40, t)), cfg)
        replayed = replay_records(trace)
        stored = [(r.tracked, r.threshold, r.potential) for r in trace.records]
        assert replayed == stored


def test_potential_update_rule():
    cfg = ProcessConfig(eps=0.3)
    assert potential_increment(StepType.I, cfg) == pytest.approx(1 - 0.15 - 3)
    assert potential_increment(StepType.III, cfg) == pytest.approx(1 - 0.15 - 1)
    assert potential_increment(StepType.II, cfg) == pytest.approx(1 - 0.15)


def test_success_boundary_inclusive():
    cfg = ProcessConfig()
    trace = run_growth(sample_sign_matrix(10, RngStream(41, 0)), cfg)
    last = trace.records[-1]
    # literal evaluation: equality on the potential bound counts as success
    bound = cfg.eps_prime * trace.n / 2
    assert is_successful(trace, cfg) == (last.tracked != 0 and last.potential <= bound)
    # synthetic boundary trace: potential exactly at the bound passes
    boundary = trace
    boundary.records[-1] = type(last)(
        k=last.k, tracked=5, true_heavy=max(5, last.true_heavy),
        threshold=last.threshold, potential=bound, step_type=None,
    )
    assert is_successful(boundary, cfg)


def test_zero_tracked_propagates():
    # hand-found prefix whose five level-4 minors all have zero permanent,
    # so the start condition fails and the zero count must propagate to k1
    from permlab.matrices import SignMatrix

    rows = [
        [1, -1, -1, 1, 1],
        [1, 1, 1, -1, -1],
        [-1, 1, -1, -1, -1],
        [-1, -1, 1, 1, 1],
        [1, 1, 1, 1, 1],
    ]
    cfg = ProcessConfig(k0=4, k1=5)
    trace = run_growth(SignMatrix(rows), cfg)
    assert trace.records[0].tracked == 0
    for rec in trace.records:
        assert rec.tracked == 0
        assert rec.step_type is None
        assert rec.threshold == 1.0 and rec.potential == 0.0
    assert not trace.successful


def test_type_soundness_recount():
    # every logged type's defining inequality re-verifies against the lattice
    cfg = ProcessConfig()
    for t in range(10):
        matrix = sample_sign_matrix(14, RngStream(43, t))
        trace = run_growth(matrix, cfg)
        table = trace.table
        n = trace.n
        for rec in trace.records[:-1]:
            if rec.step_type is None:
                continue
            at_same = table.heavy_count(rec.k + 1, rec.threshold)
            at_grown = table.heavy_count(rec.k + 1, rec.grown_threshold)
            explode = count_threshold(n**cfg.eps * rec.tracked / 4)
            keep = count_threshold(cfg.keep_frac() * rec.tracked)
            shrunk = count_threshold(cfg.eps_prime * rec.tracked)
            assert at_same == rec.next_at_threshold
            # only the high-multiplicity branch reads the grown threshold
            assert rec.next_at_grown == (at_grown if rec.branch is SplitVerdict.DOUBLE_PRIME else None)
            if rec.step_type is StepType.I:
                assert rec.branch is SplitVerdict.PRIME and at_same >= explode
            elif rec.step_type is StepType.II:
                assert rec.branch is SplitVerdict.PRIME and at_same < explode and at_same >= keep
            elif rec.step_type is StepType.III:
                assert rec.branch is SplitVerdict.DOUBLE_PRIME and at_grown >= shrunk
            elif rec.step_type is StepType.IV:
                assert rec.branch is SplitVerdict.DOUBLE_PRIME and at_grown < shrunk and at_same >= keep


def test_tracked_below_true_heavy():
    cfg = ProcessConfig()
    for t in range(10):
        trace = run_growth(sample_sign_matrix(12, RngStream(44, t)), cfg)
        for rec in trace.records:
            assert rec.tracked <= rec.true_heavy


def test_matches_reference_implementation():
    # default runs at n=12, plus a type III run, a type V followed by
    # untracked levels, and a V after two III steps
    cases = [(12, ProcessConfig(), RngStream(45, t)) for t in range(4)] + [
        (12, ProcessConfig(eps=0.9, k0=3, k1=10), RngStream(45, 0)),
        (5, ProcessConfig(k0=1, k1=5), RngStream(45, 41)),
        (5, ProcessConfig(eps=0.9, k0=1, k1=5), RngStream(45, 14)),
    ]
    seen = set()
    for n, cfg, rng in cases:
        matrix = sample_sign_matrix(n, rng)
        trace = run_growth(matrix, cfg)
        ref_records, ref_success = reference_trace(matrix, cfg)
        got = [
            (r.k, r.tracked, r.true_heavy, r.threshold, r.potential,
             r.step_type.value if r.step_type else None)
            for r in trace.records
        ]
        assert got == ref_records
        assert trace.successful == ref_success
        seen.update(r.step_type for r in trace.records)
    assert {StepType.I, StepType.III, StepType.V, None} <= seen


def test_matches_reference_n16_seed0():
    cfg = ProcessConfig()
    matrix = sample_sign_matrix(16, RngStream(0, 0))
    trace = run_growth(matrix, cfg)
    ref_records, ref_success = reference_trace(matrix, cfg)
    got = [
        (r.k, r.tracked, r.true_heavy, r.threshold, r.potential,
         r.step_type.value if r.step_type else None)
        for r in trace.records
    ]
    assert got == ref_records
    assert trace.successful == ref_success


def test_one_heavy_set_query_per_level(monkeypatch):
    # every heavy set a run reads is selected by the build of its level: one
    # add_level call per level through k1, and no query of a built level
    calls = []
    for name in ("add_level", "heavy_count", "heavy_masks"):
        method = getattr(MinorTable, name)

        def counted(self, *args, _method=method, _name=name):
            calls.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(MinorTable, name, counted)
    cfg = ProcessConfig()
    trace = run_growth(sample_sign_matrix(16, RngStream(0, 0)), cfg)
    levels = len(trace.records)
    classified = sum(rec.step_type is not None for rec in trace.records)
    assert (levels, classified) == (8, 7)
    assert calls == ["add_level"] * cfg.end_level(16) == ["add_level"] * 12


def test_cli_configs_classify_one_prime_family():
    # the regime the CLI's growth runs are in: at the golden trace's config
    # every level tracks one set and every step is type I on the PRIME
    # branch, and over n and eps the CLI takes, no step is DOUBLE_PRIME, so
    # no CLI run reads a level at the grown threshold
    trace = run_growth(sample_sign_matrix(16, RngStream(0, 0)), ProcessConfig())
    assert [rec.tracked for rec in trace.records] == [1] * 8
    for rec in trace.records[:-1]:
        assert (rec.step_type, rec.branch) == (StepType.I, SplitVerdict.PRIME)
    classified = 0
    for n in (8, 12, 16, 22):
        for eps in ((0.25, 0.45) if n == 22 else (0.05, 0.15, 0.25, 0.35, 0.45)):
            for t in range(2 if n == 22 else 3):
                trace = run_growth(sample_sign_matrix(n, RngStream(52, t)), ProcessConfig(eps=eps))
                for rec in trace.records:
                    if rec.step_type is not None:
                        classified += 1
                        assert rec.branch is SplitVerdict.PRIME, (n, eps, t, rec)
    assert classified > 100


def test_grown_threshold_read_only_on_double_prime_steps(monkeypatch):
    # a DOUBLE_PRIME step queries level k+1 at the grown threshold once, and
    # its count is the recounted one; a PRIME step queries nothing
    queries = []
    heavy_masks = MinorTable.heavy_masks

    def counted(self, k, threshold):
        queries.append((k, threshold))
        return heavy_masks(self, k, threshold)

    monkeypatch.setattr(MinorTable, "heavy_masks", counted)
    trace = run_growth(sample_sign_matrix(12, RngStream(45, 0)), ProcessConfig(eps=0.9, k0=3, k1=10))
    monkeypatch.undo()
    steps = trace.records[:-1]
    double = [rec for rec in steps if rec.branch is SplitVerdict.DOUBLE_PRIME]
    assert 0 < len(double) < len(steps)
    assert queries == [(rec.k + 1, rec.grown_threshold) for rec in double]
    for rec in steps:
        if rec.branch is SplitVerdict.PRIME:
            assert rec.next_at_grown is None
        else:
            magnitudes = np.abs(level_values(trace.table, rec.k + 1)[1])
            assert rec.next_at_grown == int((magnitudes >= math.ceil(rec.grown_threshold)).sum())


def test_type_iii_carries_the_grown_heavy_set_forward():
    # a threshold at the median |minor| of level 11 of n = 12 leaves fewer
    # heavy sets at the grown threshold than at it; the type III step
    # returns the grown set as level 11's heavy set
    cfg = ProcessConfig(eps=0.45)
    table = build_lattice(sample_sign_matrix(12, RngStream(53, 0)), 11)
    magnitudes = np.sort(np.abs(level_values(table, 11)[1]))
    threshold = float(magnitudes[len(magnitudes) // 2])
    heavy_next = table.heavy_masks(11, threshold)
    rec, _, next_threshold, heavy = classify_step(
        table, 10, table.heavy_masks(10, threshold), heavy_next, 1, threshold, cfg, 0.0,
        step_targets(12, cfg, 1))
    assert rec.step_type is StepType.III and next_threshold == rec.grown_threshold
    assert heavy.tolist() == table.heavy_masks(11, rec.grown_threshold).tolist()
    assert len(heavy) == rec.next_at_grown < rec.next_at_threshold == len(heavy_next)


def test_growth_selection_on_python_int_levels():
    # k1 = 21 at n = 21: the last step is built on level 21, whose values
    # pass 2**63 (stored divided by 2**16); each count the run logs equals
    # the post-hoc query of its finished table
    cfg = ProcessConfig(k0=19, k1=21)
    for t in range(3):
        trace = run_growth(sample_sign_matrix(21, RngStream(49, t)), cfg)
        table = trace.table
        assert table.k_max == 21 and [rec.k for rec in trace.records] == [19, 20, 21]
        for rec in trace.records:
            assert rec.true_heavy == table.heavy_count(rec.k, rec.threshold)
            if rec.step_type is not None:
                assert rec.next_at_threshold == table.heavy_count(rec.k + 1, rec.threshold)
                if rec.branch is SplitVerdict.DOUBLE_PRIME:
                    assert rec.next_at_grown == table.heavy_count(rec.k + 1, rec.grown_threshold)
                else:
                    assert rec.next_at_grown is None


def test_two_member_family_at_n22():
    # the one family of two that the CLI's growth runs reach: at n = 22 and
    # eps = 0.45, n**eps / 4 > 1 lets step I grow the family, and k0 = 10,
    # k1 = 12 leave a second step to classify it.  Each branch is recounted
    # from a child-side histogram of the first `tracked` heavy masks, read
    # one by one through value()
    cfg = ProcessConfig(eps=0.45)
    sizes = []
    for t in range(2):
        trace = run_growth(sample_sign_matrix(22, RngStream(51, t)), cfg)
        for rec in trace.records:
            if rec.step_type is None:
                continue
            heavy = (m for m in subsets_of_size(22, rec.k) if abs(trace.table.value(m)) >= rec.threshold)
            family = list(islice(heavy, rec.tracked))
            brute = brute_parent_counts(family, 22)
            counts = [0] + [sum(1 for c in brute.values() if c == l) for l in range(1, 23)]
            assert split_events(np.array(counts), cfg.eps, cfg.c, len(family)) is rec.branch
            sizes.append(len(family))
    assert 2 in sizes


def test_golden_trace_fixture(tmp_path):
    cfg = ProcessConfig()
    matrix = sample_sign_matrix(16, RngStream(0, 0))
    trace = run_growth(matrix, cfg)
    rows = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    header, levels = rows[0], rows[1:]
    assert header["n"] == 16 and header["seed"] == 0
    assert trace_level_dicts(trace) == levels
    # the writer's bytes, header included
    path = tmp_path / "trace.jsonl"
    write_trace_jsonl(trace, path, seed=0, stream=0)
    assert path.read_bytes() == GOLDEN.read_bytes()


def test_trace_jsonl_roundtrip(tmp_path):
    cfg = ProcessConfig()
    trace = run_growth(sample_sign_matrix(10, RngStream(46, 1)), cfg)
    path = tmp_path / "trace.jsonl"
    write_trace_jsonl(trace, path, seed=46, stream=1)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["record"] == "header"
    assert header["seed"] == 46
    levels = [json.loads(ln) for ln in lines[1:]]
    assert {"k", "N_k", "true_heavy_count", "lambda_k", "W_k", "step_type"} == set(levels[0])
    assert levels == trace_level_dicts(trace)
    # terminal record never carries a step type
    assert levels[-1]["step_type"] is None


def test_trace_writer_bytes_equal_json_dumps(tmp_path):
    # the fixed-order writer against one json.dumps(sort_keys=True) line per
    # record, header included: the golden config at n = 16 and, from the same
    # config object, n = 10 (the header is cached per config and n), then
    # built records at the edges of json's number spelling
    cfg = ProcessConfig()
    runs = [run_growth(sample_sign_matrix(n, RngStream(0, 0)), cfg) for n in (16, 10)]
    built = ProcessTrace(n=16, cfg=ProcessConfig(eps=0.3, eps_prime=0.01, c=0.5), table=None)
    built.records += [
        LevelRecord(5, 1, 2944, 1.0, 0.0, StepType.I),
        LevelRecord(6, 0, 0, 0.0, -0.0, None),
        LevelRecord(7, 3, 7, 2.5, -14.875, StepType.II),
        LevelRecord(8, 2**62, 2**62 + 1, np.float64(2.0), 1e300, StepType.III),
        LevelRecord(9, 1, 1, np.float64(-0.0), -1e300, StepType.IV),
        LevelRecord(10, 1, 1, math.inf, -math.inf, StepType.V),
        LevelRecord(11, 1, 1, np.float64(math.nan), 1e-300, None),
        LevelRecord(12, 1, 1, np.float64(math.inf), 5e-324, None),
    ]
    for trace, seed, stream in ((runs[0], 0, 0), (runs[1], 46, 1), (built, 2**63, 7)):
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(trace, path, seed=seed, stream=stream)
        assert path.read_bytes() == trace_jsonl_oracle(trace, seed, stream)
    assert GOLDEN.read_bytes() == trace_jsonl_oracle(runs[0], 0, 0)
    assert b"NaN" in path.read_bytes() and b"-Infinity" in path.read_bytes()


def test_step_targets_equal_the_per_step_formulas(monkeypatch):
    # the grow factor and count targets a run computes once per tracked
    # count equal the formulas of a step, float for float and int for int
    cfgs = [ProcessConfig(eps=eps, eps_prime=eps / 6 * f, c=c)
            for eps in (0.01, 0.1, 0.25, 0.3, 0.45, 0.49, 0.9)
            for f in (1, 0.5, 0.01) for c in (None, 0.05, 0.5, 0.95)]
    for n in range(2, 23):
        for cfg in cfgs:
            for tracked in range(1, 65):
                got = step_targets(n, cfg, tracked)
                want = (cfg.lam_grow_factor(n), count_threshold(n**cfg.eps * tracked / 4),
                        count_threshold(cfg.keep_frac() * tracked),
                        count_threshold(cfg.eps_prime * tracked))
                assert got == want, (n, cfg, tracked)
                assert list(map(type, got)) == [float, int, int, int]
    # one computation per run and tracked count: the golden run classifies
    # seven steps of one set, and the n = 22, eps = 0.45 run one of one set,
    # then one of two
    calls = []

    def counted(n, cfg, tracked):
        calls.append(tracked)
        return step_targets(n, cfg, tracked)

    monkeypatch.setattr(growth, "step_targets", counted)
    for n, eps, seed, want in ((16, 0.25, 0, [1] * 7), (22, 0.45, 51, [1, 2])):
        calls.clear()
        trace = run_growth(sample_sign_matrix(n, RngStream(seed, 0)), ProcessConfig(eps=eps))
        assert [rec.tracked for rec in trace.records if rec.step_type is not None] == want
        assert calls == list(dict.fromkeys(want))
