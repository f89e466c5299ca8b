"""Acceptance gate: one test per criterion, each at its stated tolerance.

Each test prints one `ACCEPTANCE <id> <name>: PASS/FAIL` line (visible with
`pytest -s` or on failure).  Statistical criteria run at seed 0 against the
frozen pilot bands (data/pilot_bands.json, produced at seed 0xC0FFEE).

Criterion 3 checks the congruence that forces Per != 0 when n + 1 = 2**m:
every +-1 matrix of order n has per = n! mod 2**(n - m + 1) (Kraeuter and
Seifter, 1984: per(A) = per(B) mod 2**(n - floor(log2 n)) for any two +-1
matrices), and since 2**(n - m) exactly divides n!, every permanent is
2**(n - m) times an odd number.  The residue (n+1)/2 mod n+1 once stated
for this criterion holds only at n = 3; at n = 7 and n = 15 every permanent
is 0 mod n+1 (the all-ones 7x7 matrix has permanent 5040 = 0 mod 8, not 4),
so the test asserts that the `alon` check reports that refutation.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from permlab.checks import (
    check_alon,
    check_growth_rate,
    check_littlewood_offord,
    check_parent_child,
    check_second_moment,
    pilot_bands,
)
from permlab.endgame import (
    PreconditionError,
    complements_disjoint,
    find_disjoint_heavy_family,
    run_endgame_path,
)
from permlab.engines import permanent_naive, permanent_ryser
from permlab.growth import ProcessConfig, StepType, count_threshold, run_growth
from permlab.lattice import SplitVerdict, build_lattice
from permlab.matrices import SignMatrix, sample_sign_matrix
from permlab.rng import RngStream
from permlab.subsets import bits_of

from oracles import brute_permanent, enumerate_all_sign_matrices, level_values, subsets_of_size

SEED = 0
ALON_RECOUNT_DRAWS = 8


def report(ident: str, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {ident} {name}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_engine_equivalence():
    t0 = time.monotonic()
    mismatches = 0
    for m in enumerate_all_sign_matrices(3):
        a = permanent_naive(m)
        if permanent_ryser(m) != a or build_lattice(m).top_value() != a:
            mismatches += 1
    for n in range(4, 11):
        for t in range(100):
            m = sample_sign_matrix(n, RngStream(SEED, (n << 16) | t))
            a = permanent_naive(m)
            if permanent_ryser(m) != a or build_lattice(m).top_value() != a:
                mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 60
    report("1", "engine equivalence", ok)
    assert mismatches == 0
    assert elapsed < 60, f"took {elapsed:.1f}s, budget is 60s"


def test_criterion_2_second_moment_identity():
    ok = True
    for n, mean in ((2, 2), (3, 6), (4, 24)):
        r = check_second_moment(n)
        ok = ok and r.passed and r.statistics["mean_per_squared"] == str(mean)
    report("2", "second moment identity", ok)
    assert ok


def _exact_permanents(n: int) -> list[int]:
    """Permanents computed without the `glynn` kernel, which the check relies on.

    All 512 matrices at n = 3; otherwise the first draws of the stream the
    check samples from, by brute force at n = 7 and pure-Python Ryser at n = 15.
    """
    if n == 3:
        return [brute_permanent(m.entries.tolist()) for m in enumerate_all_sign_matrices(3)]
    rng = RngStream(SEED, n)
    draws = [sample_sign_matrix(n, rng.substream(t)) for t in range(ALON_RECOUNT_DRAWS)]
    if n == 7:
        return [brute_permanent(m.entries.tolist()) for m in draws]
    return [permanent_ryser(m) for m in draws]


@pytest.mark.parametrize("n,trials", [(3, None), (7, 1000), (15, 100)])
def test_criterion_3_alon_residue(n, trials):
    m = (n + 1).bit_length() - 1
    assert n + 1 == 1 << m
    two_adic_mod = 1 << (n - m + 1)
    two_adic_ref = math.factorial(n) % two_adic_mod
    stated = (n + 1) // 2
    # n + 1 divides 2**(n - m + 1), so the 2-adic congruence fixes the residue
    # mod n + 1 at n! mod n + 1; that is the stated residue only at n = 3.
    residue_n1 = math.factorial(n) % (n + 1)
    assert (residue_n1 == stated) == (n == 3)

    r = check_alon(n, trials=trials, rng=RngStream(SEED, n))
    stats = r.statistics
    ok = (
        stats["two_adic_mismatches"] == 0
        and stats["two_adic_modulus"] == two_adic_mod
        and stats["two_adic_reference"] == two_adic_ref != 0
    )
    report(f"3[n={n}]", f"per = n! = {two_adic_ref} mod {two_adic_mod}, so per != 0", ok)
    assert stats["two_adic_modulus"] == two_adic_mod
    assert stats["two_adic_reference"] == two_adic_ref
    assert two_adic_ref != 0
    assert stats["two_adic_mismatches"] == 0, (
        f"{stats['two_adic_mismatches']}/{stats['checked']} draws break "
        f"per = {two_adic_ref} mod {two_adic_mod}"
    )

    # the stated residue (n+1)/2 mod n+1, at exact tolerance
    assert stats["expected_residue"] == stated
    if n == 3:
        assert r.passed
        assert stats["checked"] == 512
        assert stats["mismatches"] == 0
    else:
        assert not r.passed
        assert stats["checked"] == trials
        assert stats["mismatches"] == stats["checked"]
        assert any(f"stated residue {stated} mod {n + 1} is refuted" in note for note in r.notes)

    for per in _exact_permanents(n):
        assert per % two_adic_mod == two_adic_ref
        assert per % (n + 1) == residue_n1
        assert per != 0


def test_criterion_4_parent_child_identity():
    # trial t rebuilt from sample_sign_matrix(n, rng.substream(t)): its
    # instance is the leading (k+1) x (k+1) minor, at level k = 1 + t mod (n-1)
    from permlab.engines import ryser_batch

    trials = 10_000
    n = 10
    rng = RngStream(SEED, 4)
    draws = [sample_sign_matrix(n, rng.substream(t)).entries for t in range(trials)]
    violations = 0
    wins = 0
    for k in range(1, n):
        mats = np.stack(draws[k - 1::n - 1])[:, :k + 1, :k + 1].astype(np.int64)
        parents = ryser_batch(mats[:, :k, :k])
        plus = mats.copy()
        plus[:, k, k] = 1
        minus = mats.copy()
        minus[:, k, k] = -1
        pp, pm = ryser_batch(plus), ryser_batch(minus)
        violations += int(np.count_nonzero(np.abs(pp - pm) != 2 * np.abs(parents)))
        violations += int(np.count_nonzero(np.maximum(np.abs(pp), np.abs(pm)) < np.abs(parents)))
        wins += int(np.count_nonzero(np.abs(ryser_batch(mats)) >= np.abs(parents)))
    stats = check_parent_child(trials, n, rng).statistics
    ok = violations == 0 and stats["child_at_least_parent_frequency"] == wins / trials
    report("4", "parent-child flip identity", ok)
    assert violations == 0, f"{violations} violations in {trials} instances"
    assert stats["child_at_least_parent_frequency"] == wins / trials


def test_criterion_5_littlewood_offord_enumeration():
    violations = 0
    for m in range(2, 15):
        for v in ([1.0] * m, [1.0 + (i % 3) for i in range(m)]):
            r = check_littlewood_offord(v, 1.0, x=1.0)
            if not r.passed:
                violations += 1
    ok = violations == 0
    report("5", "signed-sum interval bound m=2..14", ok)
    assert violations == 0


def test_criterion_6_cofactor_consistency():
    violations = 0
    for n in range(2, 9):
        for t in range(50):
            m = sample_sign_matrix(n, RngStream(SEED, (6 << 20) | (n << 8) | t))
            table = build_lattice(m)
            for k in range(1, n + 1):
                row = m.entries[k - 1]
                for mask in subsets_of_size(n, k):
                    expected = sum(
                        int(row[i]) * table.value(mask ^ (1 << i)) for i in bits_of(mask)
                    )
                    if table.value(mask) != expected:
                        violations += 1
    ok = violations == 0
    report("6", "cofactor consistency", ok)
    assert violations == 0


def test_criterion_7_growth_rate():
    r = check_growth_rate(16, 500, rng=RngStream(SEED))
    stats = r.statistics["per_n"]["16"]
    band = pilot_bands()["growth_rate"]["16"]
    ok_nonzero = stats["nonzero_fraction"] >= 0.99
    ok_mean = abs(stats["mean_per2_ratio"] - 1.0) <= 3 * stats["se_per2_ratio"]
    lo, hi = band["median_log_ratio_band"]
    ok_band = lo <= stats["median_log_per2_over_log_nfact"] <= hi
    ok = ok_nonzero and ok_mean and ok_band and r.passed
    report("7", "growth-rate statistics n=16", ok)
    assert ok_nonzero, stats
    assert ok_mean, stats
    assert ok_band, stats
    assert r.passed


def test_criterion_8_growth_process_structure():
    n, trials = 16, 200
    cfg = ProcessConfig()
    increments: dict[int, list[float]] = {}
    explode_cond = 0
    explode_hits = 0
    reverify_failures = 0
    for t in range(trials):
        matrix = sample_sign_matrix(n, RngStream(SEED, (8 << 20) | t))
        trace = run_growth(matrix, cfg)
        table = trace.table
        recs = trace.records
        for idx, rec in enumerate(recs[:-1]):
            if rec.step_type is None:
                continue
            increments.setdefault(rec.k, []).append(recs[idx + 1].potential - rec.potential)
            # independent recount of the exact heavy counts behind the type,
            # over every level-(k+1) mask; |value| <= 16!, so a threshold
            # clamped to int64 counts the same
            magnitudes = np.abs(level_values(table, rec.k + 1)[1])
            t_same = min(math.ceil(rec.threshold), 2**63 - 1)
            t_grown = min(math.ceil(rec.grown_threshold), 2**63 - 1)
            at_same = int((magnitudes >= t_same).sum())
            at_grown = int((magnitudes >= t_grown).sum())
            explode = count_threshold(n**cfg.eps * rec.tracked / 4)
            keep = count_threshold(cfg.keep_frac() * rec.tracked)
            shrunk = count_threshold(cfg.eps_prime * rec.tracked)
            st = rec.step_type
            sound = (
                (st is StepType.I and rec.branch is SplitVerdict.PRIME and at_same >= explode)
                or (st is StepType.II and rec.branch is SplitVerdict.PRIME
                    and at_same < explode and at_same >= keep)
                or (st is StepType.III and rec.branch is SplitVerdict.DOUBLE_PRIME
                    and at_grown >= shrunk)
                or (st is StepType.IV and rec.branch is SplitVerdict.DOUBLE_PRIME
                    and at_grown < shrunk and at_same >= keep)
                or st is StepType.V
            )
            # and the counts the step read are the recounted ones
            if not sound or (at_same, at_grown) != (rec.next_at_threshold, rec.next_at_grown):
                reverify_failures += 1
            if rec.branch is SplitVerdict.PRIME:
                explode_cond += 1
                if at_same >= count_threshold(n**cfg.c * rec.tracked):
                    explode_hits += 1

    ok_mean = True
    for k, vals in sorted(increments.items()):
        arr = np.asarray(vals)
        se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
        if float(arr.mean()) > 3 * se:
            ok_mean = False
    ok_explode = True
    if explode_cond >= 500:
        freq = explode_hits / explode_cond
        se = math.sqrt(max(freq * (1 - freq), 0.0) / explode_cond)
        ok_explode = freq >= 1 / 3 - 3 * se
    ok = ok_mean and reverify_failures == 0 and ok_explode
    report("8", "growth-process structure n=16", ok)
    assert reverify_failures == 0
    assert ok_mean, "some level's mean potential increment exceeds 3 SE above 0"
    assert ok_explode, f"explode-event frequency {explode_hits}/{explode_cond} below 1/3 - 3SE"


def test_criterion_9_endgame_structure():
    n, L, lam, trials = 18, 2, 1, 200
    cfg = ProcessConfig(L=L)
    bands = pilot_bands()

    # path runs from the growth hand-off level
    k_path = bands["endgame_path"]["18"]["start_k"]
    block = sum(1 << i for i in range(k_path, k_path + 2 * L))
    successes = 0
    for t in range(trials):
        m = sample_sign_matrix(n, RngStream(SEED, (9 << 20) | t))
        try:
            res = run_endgame_path(m.prefix(k_path), block, lam, cfg, m)
        except PreconditionError:
            continue
        if res.succeeded:
            # re-verify the contract on every returned set
            assert res.heavy_set.bit_count() == n - L
            assert ((1 << n) - 1) & ~(block | res.heavy_set) == 0
            successes += 1
    path_freq = successes / trials
    ok_path = path_freq >= bands["endgame_path"]["18"]["min_success_fraction"]

    # disjoint families: every returned family passes the exact checks
    k_fam = bands["disjoint_family"]["18"]["start_k"]
    count = bands["disjoint_family"]["18"]["count"]
    family_checks = 0
    family_failures = 0
    for t in range(trials):
        m = sample_sign_matrix(n, RngStream(SEED, (10 << 20) | t))
        try:
            fam = find_disjoint_heavy_family(m.prefix(k_fam), lam, count, L, cfg, m)
        except PreconditionError:
            continue
        family_checks += 1
        if not complements_disjoint(fam.members, n):
            family_failures += 1
            continue
        table = build_lattice(m, n - L)
        for mask in fam.members:
            if abs(table.value(mask)) < lam:
                family_failures += 1
    ok_family = family_failures == 0 and family_checks > 0

    ok = ok_path and ok_family
    report("9", "endgame structure n=18", ok)
    assert ok_path, (
        f"path success {path_freq:.3f} below committed "
        f"{bands['endgame_path']['18']['min_success_fraction']}"
    )
    assert ok_family, f"{family_failures} family check failures in {family_checks} families"


def test_criterion_9_spot_check_against_ryser():
    # a few returned heavy sets re-verified by an independent engine
    n, L, lam = 18, 2, 1
    cfg = ProcessConfig(L=L)
    bands = pilot_bands()
    k_path = bands["endgame_path"]["18"]["start_k"]
    block = sum(1 << i for i in range(k_path, k_path + 2 * L))
    checked = 0
    t = 0
    while checked < 3 and t < 40:
        m = sample_sign_matrix(n, RngStream(SEED, (9 << 20) | t))
        t += 1
        try:
            res = run_endgame_path(m.prefix(k_path), block, lam, cfg, m)
        except PreconditionError:
            continue
        if res.heavy_set is None:
            continue
        cols = [i for i in range(n) if (res.heavy_set >> i) & 1]
        sub = SignMatrix(m.entries[np.ix_(range(len(cols)), cols)])
        assert abs(permanent_ryser(sub)) >= lam
        checked += 1
    assert checked == 3
