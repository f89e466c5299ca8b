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
    rngs = [RngStream(seed, stream) for seed, stream in keys]
    for n in range(1, 64):
        draws = []
        for (seed, stream), rng in zip(keys, rngs):
            m = sample_sign_matrix(n, rng).entries
            assert np.array_equal(m, numpy_sign_draw(seed, stream, (n, n))), (n, seed, stream)
            row = sample_row(n, rng)
            assert row.dtype == np.int8 and row.shape == (n,)
            assert np.array_equal(row, numpy_sign_draw(seed, stream, n)), (n, seed, stream)
            draws.append(m)
        batch = sample_sign_matrices(n, rngs)
        assert batch.dtype == np.int8 and np.array_equal(batch, np.stack(draws)), n
    assert sample_sign_matrices(5, []).shape == (0, 5, 5)


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
    total = 0
    count = 0
    for t in range(60000 // 100):
        gen = RngStream(3, t).generator()
        bits = gen.integers(0, 2, size=(100, 6), dtype=np.int8)
        total += int(bits.sum())
        count += bits.size
    frac = total / count
    assert abs(frac - 0.5) < 0.01


def test_row_coordinate_means_near_zero():
    # 80000 rows at n=8, per-coordinate tolerance 0.02 is ~5.7 SE.
    gen = RngStream(11, 0).generator()
    rows = 2 * gen.integers(0, 2, size=(80000, 8), dtype=np.int8) - 1
    means = rows.mean(axis=0)
    assert np.all(np.abs(means) < 0.02)


def test_stream_pairwise_correlation():
    n_draws = 10_000
    a = RngStream(5, 0).generator().integers(0, 2, size=n_draws).astype(float)
    b = RngStream(5, 1).generator().integers(0, 2, size=n_draws).astype(float)
    corr = np.corrcoef(a, b)[0, 1]
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
