import json
import math
from fractions import Fraction
from importlib import resources

import pytest

from permlab import checks
from permlab.checks import (
    CHECKS,
    SUITE,
    check_alon,
    check_growth_rate,
    check_littlewood_offord,
    check_maintain_grow_events,
    check_many_children,
    check_parent_child,
    check_second_moment,
    check_singularity,
    run_check,
    suite_passed,
    summary_lines,
)
from permlab.growth import ProcessConfig
from permlab.matrices import CapError, sample_sign_matrix
from permlab.pilots import run_all_pilots
from permlab.rng import RngStream

from oracles import all_ones, brute_max_interval_count, brute_signed_sums


def test_second_moment_exact_small():
    r2 = check_second_moment(2)
    assert r2.passed and r2.statistics["mean_per_squared"] == "2"
    r3 = check_second_moment(3)
    assert r3.passed and r3.statistics["mean_per_squared"] == "6"
    assert r3.statistics["sum_per_squared"] == 6 * 512


def test_second_moment_exact_cap():
    with pytest.raises(CapError):
        check_second_moment(5)


def test_second_moment_monte_carlo():
    r = check_second_moment(6, trials=400, rng=RngStream(3))
    assert r.passed
    assert r.sample_size == 400


def test_second_moment_monte_carlo_runs_past_n_20():
    # capped only by permanent's n <= 30, like growth_rate and singularity
    r = check_second_moment(21, trials=2, rng=RngStream(3))
    assert r.sample_size == 2 and r.n == 21
    assert math.isfinite(r.statistics["mean_ratio"])


def test_alon_n3_exact_passes():
    r = check_alon(3)
    assert r.passed
    assert r.statistics["checked"] == 512
    assert r.statistics["mismatches"] == 0
    assert r.statistics["two_adic_mismatches"] == 0


def test_alon_stated_residue_refuted_at_7():
    # The stated fixed residue (n+1)/2 mod n+1 is mathematically false for
    # n = 7: the all-ones matrix has permanent 5040 = 0 mod 8.  The check
    # must report the refutation honestly, while the corrected two-adic
    # congruence holds on every draw.
    r = check_alon(7, trials=50, rng=RngStream(4, 7))
    assert not r.passed
    assert r.statistics["mismatches"] == 50
    assert r.statistics["two_adic_mismatches"] == 0
    assert r.statistics["two_adic_modulus"] == 32
    assert r.statistics["two_adic_reference"] == 16
    assert r.notes


def test_alon_rejects_bad_n():
    with pytest.raises(ValueError, match=r"^n\+1 must be a power of two in \{4,8,16\}, got n=5$"):
        check_alon(5, trials=2, rng=RngStream(0))


def test_alon_31_exceeds_engine_cap():
    # n+1 = 32 would need 31 x 31 permanents, past the engine's cap of n <= 30,
    # so n = 31 is refused up front like any other inadmissible size
    with pytest.raises(ValueError, match=r"^n\+1 must be a power of two in \{4,8,16\}, got n=31$"):
        check_alon(31, trials=2, rng=RngStream(0))


@pytest.mark.parametrize("check, args", [
    ("alon", (7,)), ("singularity", (5,)), ("second_moment", (6,)),
    ("maintain_grow_events", (12,)),
])
def test_monte_carlo_runs_refuse_no_draws(check, args):
    # a verdict over no draws would hold vacuously, and a zero fraction
    # over them would divide by zero; maintain_grow_events draws its own
    # matrices and would pass over none
    with pytest.raises(ValueError, match=f"^a Monte Carlo {check.replace('_', '-')} run"
                                         r" needs --trials 1 or more, got 0$"):
        getattr(checks, f"check_{check}")(*args, trials=0, rng=RngStream(0))


@pytest.mark.parametrize("run", [
    lambda rng: check_parent_child(3000, 8, rng),
    lambda rng: check_many_children(3000, 10, 4, rng),
    lambda rng: check_littlewood_offord([1.0] * 9, 1.0, x=1.0, trials=3000, rng=rng),
], ids=["parent_child", "many_children", "littlewood_offord"])
def test_reports_do_not_depend_on_the_draw_block(monkeypatch, run):
    # trial t draws from rng.substream(t) however the trials are blocked
    reports = set()
    for block in (2048, 500, 7):
        monkeypatch.setattr(checks, "_DRAW_BLOCK", block)
        reports.add(run(RngStream(0)).to_json())
    assert len(reports) == 1


def test_one_suite_enumerates_each_exact_size_once(monkeypatch):
    # second_moment, alon and singularity share the exact permanents of a size
    calls = []
    enumerate_batch = checks._enumerate_batch

    def counted(n):
        calls.append(n)
        return enumerate_batch(n)

    monkeypatch.setattr(checks, "_enumerate_batch", counted)
    checks.exact_permanents.cache_clear()
    checks.default_suite(0)
    assert sorted(calls) == [2, 3, 4]
    assert not checks.exact_permanents(4).flags.writeable


@pytest.mark.slow
def test_pilot_bands_reproduce_committed_file():
    # the frozen bands are the byte-exact output of `python -m permlab.pilots`
    committed = resources.files("permlab").joinpath("data/pilot_bands.json").read_text()
    assert json.dumps(run_all_pilots(), indent=2, sort_keys=True) + "\n" == committed


def test_many_children_all_ones_instance():
    # deterministic instance: all-ones children always outweigh the parent
    import numpy as np
    from permlab.engines import ryser_batch

    k, i_size = 6, 3
    mats = np.ones((1, k + 1, k + i_size), dtype=np.int64)
    parent = abs(int(ryser_batch(mats[:, :k, :k])[0]))
    for i in range(i_size):
        child = np.concatenate([mats[:, :, :k], mats[:, :, k + i : k + i + 1]], axis=2)
        assert abs(int(ryser_batch(child)[0])) >= parent


def test_singularity_exact():
    r2 = check_singularity(2)
    assert r2.passed and r2.statistics["probability"] == "1/2"
    r3 = check_singularity(3)
    assert r3.passed and r3.statistics["zero_count"] == 0
    r4 = check_singularity(4)
    assert r4.passed and r4.statistics["zero_count"] == 21504


def test_parent_child_rejects_n_below_2():
    # no level k in 1..n-1 to draw from
    with pytest.raises(ValueError, match="n=1"):
        check_parent_child(10, 1, rng=RngStream(0))


def test_parent_child_deterministic_and_statistical():
    r = check_parent_child(2000, 8, rng=RngStream(5))
    assert r.passed
    assert r.statistics["flip_identity_violations"] == 0
    assert r.statistics["max_over_sign_violations"] == 0
    assert r.statistics["child_at_least_parent_frequency"] >= 0.5 - 3 * r.statistics["se"]


def test_many_children_bound():
    r = check_many_children(2000, 12, 4, rng=RngStream(6))
    assert r.passed
    assert r.statistics["some_child_frequency"] >= 1 - 2**-4 - 3 * r.statistics["se"]
    # the one-candidate case reduces to the single-child bound of 1/2
    r1 = check_many_children(2000, 12, 1, rng=RngStream(6, 1))
    assert r1.passed


@pytest.mark.parametrize("n, i_size, trials", [(10, 4, 2100), (12, 1, 600), (13, 12, 2100), (18, 6, 200)],
                         ids=["k6", "one-child", "k1", "children-13x13"])
def test_many_children_matches_child_by_child_permanents(n, i_size, trials):
    # trial t rebuilt from sample_sign_matrix(n, rng.substream(t)), each
    # child's permanent computed on its own
    import numpy as np
    from permlab.engines import ryser_batch

    rng = RngStream(41, n)
    k = n - i_size
    mats = np.stack([sample_sign_matrix(n, rng.substream(t)).entries[:k + 1] for t in range(trials)])
    parents = np.abs(ryser_batch(mats[:, :k, :k]))
    ok = sum(np.abs(ryser_batch(np.concatenate([mats[:, :, :k], mats[:, :, k + i : k + i + 1]], axis=2)))
             >= parents for i in range(i_size))
    any_hits = int(np.count_nonzero(ok >= 1))
    third_hits = int(np.count_nonzero(3 * ok >= i_size))
    stats = check_many_children(trials, n, i_size, rng=rng).statistics
    assert stats["some_child_frequency"] == any_hits / trials
    assert stats["third_of_children_frequency"] == third_hits / trials


def test_littlewood_offord_hand_cases():
    # v=(1,1): P(sum=0) = 1/2 and the binomial bound is tight
    r = check_littlewood_offord([1.0, 1.0], 1.0, x=0.0)
    assert r.passed
    assert r.statistics["max_interval_probability"] == 0.5
    assert Fraction(1, 2) == r.statistics["max_interval_probability_exact"]
    # v=(1,1,1): max open-length-2 window holds three of eight sums (bound tight),
    # and P(|sum| <= 1) = 6/8 meets the two-window tail bound exactly
    r3 = check_littlewood_offord([1.0, 1.0, 1.0], 1.0, x=1.0)
    assert r3.passed
    assert r3.statistics["max_interval_probability_exact"] == Fraction(3, 8)
    assert r3.statistics["tail_probability_exact"] == Fraction(6, 8)
    assert r3.to_dict()["bound"]["tail"] == pytest.approx(6 / 8)


def test_littlewood_offord_against_brute():
    vecs = [[1.0, 2.0, 1.0, 3.0], [1.5, 1.5, 2.5], [1.0] * 6]
    for v in vecs:
        r = check_littlewood_offord(v, 1.0, x=2.0)
        sums = brute_signed_sums(v)
        max_count = brute_max_interval_count(sums, 2.0)
        assert r.statistics["max_interval_probability_exact"] == Fraction(max_count, 2 ** len(v))
        tail = sum(1 for s in sums if abs(s) <= 2.0)
        assert r.statistics["tail_probability_exact"] == Fraction(tail, 2 ** len(v))
        assert r.passed


def test_littlewood_offord_partial_heavy_support():
    # only two coordinates reach the threshold; the bound uses those two
    r = check_littlewood_offord([1.0, 1.0, 0.25], 1.0, x=1.0)
    assert r.statistics["k_heavy"] == 2
    assert r.passed


def test_littlewood_offord_monte_carlo():
    r = check_littlewood_offord([1.0] * 24, 1.0, x=1.0, trials=5000, rng=RngStream(8))
    assert r.passed


def test_checks_run_at_their_size_caps():
    # the largest sizes the caps let through still run: parent_child's top
    # level hands 13 x 13 children to ryser_batch, many_children and the
    # Monte Carlo littlewood_offord take 63 columns
    assert check_parent_child(50, 13, rng=RngStream(3)).statistics["flip_identity_violations"] == 0
    assert check_many_children(3, 63, 58, rng=RngStream(3)).sample_size == 3
    r = check_littlewood_offord([1.0] * 63, 1.0, x=1.0, trials=3, rng=RngStream(3))
    assert r.statistics["m"] == 63


def test_littlewood_offord_validation():
    with pytest.raises(ValueError):
        check_littlewood_offord([0.5, 0.2], 1.0, x=1.0)  # nothing reaches the threshold
    with pytest.raises(ValueError):
        check_littlewood_offord([1.0], 0.0, x=1.0)
    with pytest.raises(CapError):
        check_littlewood_offord([1.0] * 21, 1.0, x=1.0)


def test_growth_rate_descriptive_without_band():
    r = check_growth_rate(8, 50, rng=RngStream(9))
    assert r.descriptive
    assert r.passed
    stats = r.statistics["per_n"]["8"]
    assert stats["zero_count"] + round(stats["nonzero_fraction"] * 50) == 50


@pytest.mark.parametrize("run", [
    lambda **kw: check_second_moment(5, **kw),
    lambda **kw: check_alon(7, **kw),
    lambda **kw: check_singularity(5, **kw),
    lambda **kw: check_littlewood_offord([1.0] * 21, 1.0, x=1.0, **kw),
], ids=["second_moment", "alon", "singularity", "littlewood_offord"])
def test_monte_carlo_runs_have_no_default_draw_count(run):
    # with no draw count a check runs exact, so a size past the exact cap is
    # refused, and the refusal names the flag that asks for a Monte Carlo run
    with pytest.raises(CapError, match="a Monte Carlo run needs --trials$"):
        run(rng=RngStream(0))


def test_suite_rows_read_only_their_checks_options():
    for name, options, stream in SUITE:
        func, defaults = CHECKS[name]
        assert set(options) <= set(defaults), name
        assert callable(getattr(checks, func))


def test_run_check_calls_the_module_attribute(monkeypatch):
    # a wrapper set on the module attribute (a profiler's) sees the call
    seen = []
    orig = checks.check_alon

    def wrapped(**kwargs):
        seen.append(kwargs)
        return orig(**kwargs)

    monkeypatch.setattr(checks, "check_alon", wrapped)
    report = run_check("alon", {"n": 7, "trials": 4}, RngStream(0))
    assert seen == [{"n": 7, "trials": 4, "rng": RngStream(0)}]
    assert report.sample_size == 4 and report.runtime_seconds >= 0


def test_maintain_grow_events_small():
    r = check_maintain_grow_events(12, 40, rng=RngStream(10))
    freqs = r.statistics["conditional_frequencies"]
    cond = r.statistics["conditioning_events"]
    assert cond["keep"] > 0
    assert cond["explode"] + cond["grow"] == cond["keep"]
    if cond["explode"] >= 500:
        assert not r.descriptive
    else:
        assert r.descriptive
    assert not math.isnan(freqs["keep"])


def test_report_serialization():
    r = check_second_moment(2)
    blob = json.loads(r.to_json())
    assert blob["name"] == "second_moment"
    assert blob["passed"] is True
    assert blob["tolerance"] == "exact"


def test_suite_exit_logic():
    r_pass = check_second_moment(2)
    r_desc = check_growth_rate(8, 10, rng=RngStream(11))
    assert suite_passed([r_pass, r_desc])
    r_fail = check_alon(7, trials=5, rng=RngStream(12))
    assert not suite_passed([r_pass, r_fail])
    lines = summary_lines([r_pass, r_desc, r_fail])
    assert lines[0].startswith("PASS") and lines[1].startswith("DESC") and lines[2].startswith("FAIL")


def test_all_ones_maintain_event_deterministic():
    # on the all-ones matrix every minor is heavy, so the keep event always fires
    # run manually on all-ones to pin the deterministic instance
    from permlab.growth import run_growth, count_threshold

    trace = run_growth(all_ones(10), ProcessConfig())
    table = trace.table
    for rec in trace.records[:-1]:
        if rec.step_type is None:
            continue
        assert table.heavy_count(rec.k + 1, rec.threshold) >= count_threshold(
            ProcessConfig().eps * rec.tracked / 6
        )
