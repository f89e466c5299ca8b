import json
import math
from pathlib import Path

import pytest

from permlab.growth import (
    ProcessConfig,
    ProcessTrace,
    StepType,
    count_threshold,
    is_successful,
    potential_increment,
    run_growth,
    trace_level_dicts,
    write_trace_jsonl,
)
from permlab.lattice import MinorTable, SplitVerdict
from permlab.matrices import sample_sign_matrix
from permlab.rng import RngStream

from oracles import all_ones
from reference_growth import reference_trace

GOLDEN = Path(__file__).parent / "data" / "golden_trace_n16_seed0.jsonl"


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
            assert at_grown == rec.next_at_grown
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
    # the start reads level k0's heavy set; each classified level reads
    # level k+1 at the threshold and at the grown threshold and carries one
    # of them forward, so no heavy set is read twice
    calls = []
    for name in ("heavy_count", "heavy_masks"):
        query = getattr(MinorTable, name)

        def counted(self, *args, _query=query, _name=name):
            calls.append(_name)
            return _query(self, *args)

        monkeypatch.setattr(MinorTable, name, counted)
    cfg = ProcessConfig()
    trace = run_growth(sample_sign_matrix(16, RngStream(0, 0)), cfg)
    levels = len(trace.records)
    classified = sum(rec.step_type is not None for rec in trace.records)
    assert (levels, classified) == (8, 7)
    assert len(calls) == 1 + 2 * classified == 15


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
