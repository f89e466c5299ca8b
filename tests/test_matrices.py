import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permlab.checks import _enumerate_batch
from permlab.matrices import (
    SignMatrix,
    from_text,
    sample_row,
    sample_sign_matrices,
    sample_sign_matrix,
    to_text,
)
from permlab.rng import RngStream

from oracles import all_ones, enumerate_all_sign_matrices, matrix_from_counter, numpy_sign_draw


def test_entries_validated():
    with pytest.raises(ValueError):
        SignMatrix([[1, 0], [1, 1]])
    with pytest.raises(ValueError):
        SignMatrix([[1, 1, 1], [1, 1, 1]])
    with pytest.raises(ValueError):
        sample_sign_matrix(0, RngStream(0))
    with pytest.raises(ValueError):
        sample_sign_matrix(64, RngStream(0))


@pytest.mark.parametrize("entries", [
    np.array([[257, 1], [1, -255]]),  # 1 and -1 after an int8 cast
    np.array([[1.5, 1.0], [1.0, -1.0]]),  # 1 after an int8 cast
    [["1", "-1"], ["1", "1"]],
    [[None, 1], [1, -1]],
], ids=["int-wraps", "float-truncates", "string", "none"])
def test_entries_checked_before_the_int8_cast(entries):
    with pytest.raises(ValueError, match="-1 or \\+1"):
        SignMatrix(entries)


def test_sampling_is_deterministic():
    a = sample_sign_matrix(4, RngStream(7, 0))
    b = sample_sign_matrix(4, RngStream(7, 0))
    assert a == b


def test_sample_row_shape_and_determinism():
    r1 = sample_row(3, RngStream(1, 2))
    r2 = sample_row(3, RngStream(1, 2))
    assert r1.shape == (3,)
    assert set(np.unique(r1)) <= {-1, 1}
    assert np.array_equal(r1, r2)


def test_sign_draws_equal_numpy_philox():
    # every size, and keys at both ends of the 64-bit range in each key word,
    # with adjacent streams that a float64 key would collapse
    top = 2**64 - 1
    keys = []
    for key in (0, 1, 2**63 - 1, 2**63, top):
        keys += [(key, 1), (1, key), (1, (key + 1) & top)]
    trials = [0, 1, top - 1, top]
    for n in range(1, 64):
        for seed, stream in keys:
            rng = RngStream(seed, stream)
            m = sample_sign_matrix(n, rng).entries
            assert np.array_equal(m, numpy_sign_draw(seed, stream, (n, n))), (n, seed, stream)
            row = sample_row(n, rng)
            assert row.dtype == np.int8 and row.shape == (n,)
            assert np.array_equal(row, numpy_sign_draw(seed, stream, n)), (n, seed, stream)
            # trial t of a batch is sample_sign_matrix(n, rng.substream(t)),
            # and its first row is sample_row(n, rng.substream(t))
            want = np.stack([numpy_sign_draw(seed, rng.substream(t).stream, (n, n)) for t in trials])
            batch = sample_sign_matrices(n, rng, trials)
            assert batch.dtype == np.int8 and np.array_equal(batch, want), (n, seed, stream)
            assert np.array_equal(sample_sign_matrices(n, rng, trials, rows=1), want[:, :1]), n
    assert sample_sign_matrices(5, RngStream(0), []).shape == (0, 5, 5)


@pytest.mark.parametrize("stream", [0, 2**63, 2**64 - 1])
def test_substream_keys_equal_substream(stream):
    rng = RngStream(2**64 - 1, stream)
    trials = np.append(np.arange(0, 10**6, 487), 10**6)
    keys = rng.substream_keys(trials)
    assert keys.dtype == np.uint64 and keys.shape == (len(trials), 2)
    assert [(int(s), int(h)) for s, h in keys] == [
        (rng.substream(t).seed, rng.substream(t).stream) for t in trials.tolist()]
    # Python ints past 2**63, which numpy would hold as float64 without the uint64 cast
    top = [2**64 - 1, 2**64 - 2, 2**63 + 1]
    assert [int(h) for h in rng.substream_keys(top)[:, 1]] == [rng.substream(t).stream for t in top]
    assert rng.substream_keys([]).shape == (0, 2)
    for bad in ([3, -1], np.array([-2])):
        with pytest.raises(ValueError, match="nonnegative"):
            rng.substream_keys(bad)


def test_sample_sign_matrices_near_the_top_keys():
    # stream 0's trial t has key t + 1, so these trials' keys end at 2**64 - 1;
    # the trials come as a list, a tuple, a uint64 array and a strided view
    rng = RngStream(2**64 - 1)
    top = np.arange(2**64 - 401, 2**64 - 1, dtype=np.uint64)
    assert int(rng.substream_keys(top)[-1, 1]) == 2**64 - 1
    want = np.stack([sample_sign_matrix(16, rng.substream(t)).entries for t in top.tolist()])
    for trials in (top.tolist(), tuple(top.tolist()), top, np.repeat(top, 2)[::2]):
        assert np.array_equal(sample_sign_matrices(16, rng, trials), want)
        assert np.array_equal(sample_sign_matrices(16, rng, trials, rows=3), want[:, :3])


def test_adjacent_streams_differ():
    # Regression: keys above 2**63 must not collapse through float64.
    base = RngStream(0).substream(16, 0)
    assert base.stream > 2**63
    draws = {
        sample_sign_matrix(6, RngStream(0).substream(16, t)).entries.tobytes()
        for t in range(8)
    }
    assert len(draws) == 8


def test_plus_fraction_near_half():
    # 60000 trials at n=6: 2.16e6 entries, tolerance 0.01 is ~30 binomial SE.
    draws = sample_sign_matrices(6, RngStream(3), np.arange(60000))
    frac = np.count_nonzero(draws == 1) / draws.size
    assert abs(frac - 0.5) < 0.01


def test_row_coordinate_means_near_zero():
    # 80000 rows at n=8, per-coordinate tolerance 0.02 is ~5.7 SE.
    rows = sample_sign_matrices(8, RngStream(11, 0), np.arange(80000), rows=1)[:, 0]
    means = rows.mean(axis=0)
    assert np.all(np.abs(means) < 0.02)


def test_stream_pairwise_correlation():
    # 10000 draws from each of streams 0 and 1, in rows of 50
    a, b = (np.concatenate([sample_row(50, RngStream(5, stream).substream(t)) for t in range(200)])
            for stream in (0, 1))
    corr = np.corrcoef(a.astype(float), b.astype(float))[0, 1]
    assert abs(corr) < 0.05


def test_prefix_of_matrix_roundtrip():
    m = sample_sign_matrix(5, RngStream(9))
    assert SignMatrix(m.prefix(5)) == m
    p = m.prefix(2)
    assert p.shape == (2, 5) and np.array_equal(p, m.entries[:2])
    assert not p.flags.writeable
    with pytest.raises(ValueError):
        m.prefix(6)


@pytest.mark.parametrize("n,count", [(1, 2), (2, 16)])
def test_enumeration_counts_small(n, count):
    seen = {m.entries.tobytes() for m in enumerate_all_sign_matrices(n)}
    assert len(seen) == count


def test_enumeration_count_n3():
    assert sum(1 for _ in enumerate_all_sign_matrices(3)) == 512


def test_enumeration_canonical_order():
    # counter bit i*n+j maps to entry (i, j); bit 0 -> -1.
    m0 = matrix_from_counter(2, 0)
    assert np.all(m0.entries == -1)
    m1 = matrix_from_counter(2, 1)
    assert m1.entries[0, 0] == 1 and m1.entries[0, 1] == -1
    m2 = matrix_from_counter(2, 1 << 3)
    assert m2.entries[1, 1] == 1 and m2.entries[0, 0] == -1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumeration_matches_batch_order(n):
    # the exact checks' batch enumeration lists the matrices in the same order
    one_by_one = np.stack([m.entries for m in enumerate_all_sign_matrices(n)])
    assert np.array_equal(_enumerate_batch(n), one_by_one)


def test_enumeration_cap():
    with pytest.raises(ValueError, match="capped at n\\*n <= 20"):
        list(enumerate_all_sign_matrices(5))


def test_text_roundtrip_fixed():
    m = all_ones(3)
    assert from_text(to_text(m)) == m
    text = "2\n+1 -1\n-1 +1\n"
    m2 = from_text(text)
    assert m2.entries[0, 0] == 1 and m2.entries[0, 1] == -1
    assert from_text(to_text(m2)) == m2


def test_text_rejects_garbage():
    with pytest.raises(ValueError):
        from_text("2\n1 2\n1 1\n")
    with pytest.raises(ValueError):
        from_text("2\n1 1\n")
    with pytest.raises(ValueError):
        from_text("")


@settings(max_examples=50)
@given(st.integers(0, 2**63 - 1), st.integers(1, 8))
def test_text_roundtrip_random(bits, n):
    m = matrix_from_counter(n, bits & ((1 << (n * n)) - 1))
    assert from_text(to_text(m)) == m
