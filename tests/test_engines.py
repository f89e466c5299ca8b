import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permlab.engines import (
    determinant_exact,
    permanent,
    permanent_mod,
    permanent_naive,
    permanent_ryser,
    ryser_batch,
    ryser_cofactors,
)
from permlab.matrices import CapError, SignMatrix, all_ones, sample_sign_matrix
from permlab.rng import RngStream

from oracles import brute_determinant, brute_permanent, enumerate_all_sign_matrices, matrix_from_counter

EXACT_ENGINES = (permanent_naive, permanent_ryser, permanent)


def test_hand_values():
    assert permanent_naive(all_ones(2)) == 2
    assert permanent_ryser(all_ones(2)) == 2
    m = SignMatrix([[1, 1], [1, -1]])
    assert permanent_naive(m) == 0
    assert determinant_exact(m) == -2
    neg = SignMatrix([[-1] * 3] * 3)
    assert permanent_naive(neg) == -6
    assert permanent_naive(SignMatrix([[1]])) == 1
    assert permanent_naive(SignMatrix([[-1]])) == -1
    assert determinant_exact(all_ones(3)) == 0
    assert permanent_mod(all_ones(2), 5) == 2


def test_all_512_engines_agree():
    for m in enumerate_all_sign_matrices(3):
        e = [[int(v) for v in row] for row in m.entries]
        expected = brute_permanent(e)
        for engine in EXACT_ENGINES:
            assert engine(m) == expected, engine.__name__


@pytest.mark.parametrize("n", range(4, 11))
def test_engines_agree_random(n):
    for t in range(5):
        m = sample_sign_matrix(n, RngStream(20, n * 100 + t))
        values = {engine.__name__: engine(m) for engine in EXACT_ENGINES}
        assert len(set(values.values())) == 1, values


def test_naive_matches_brute_random():
    for n in range(1, 9):
        for t in range(3):
            m = sample_sign_matrix(n, RngStream(25, n * 10 + t))
            assert permanent_naive(m) == brute_permanent(m.entries.tolist())


@pytest.mark.parametrize("n", [9, 10])
def test_naive_at_its_cap(n):
    # every permutation has the same sign, so no term cancels
    assert permanent_naive(all_ones(n)) == math.factorial(n)
    assert permanent_naive(SignMatrix(-all_ones(n).entries)) == (-1) ** n * math.factorial(n)


def test_ryser_batch_matches_scalar():
    gen = RngStream(8).generator()
    for n in (1, 2, 5, 9, 13):
        mats = 2 * gen.integers(0, 2, size=(16, n, n), dtype=np.int8) - 1
        batch = ryser_batch(mats)
        for i in range(16):
            assert int(batch[i]) == permanent_ryser(SignMatrix(mats[i]))


def test_ryser_batch_cap():
    with pytest.raises(CapError):
        ryser_batch(np.ones((1, 14, 14), dtype=np.int8))


@pytest.mark.parametrize("bad", [0, 2, 100, 257])
def test_ryser_batch_rejects_non_sign_entries(bad):
    # 257 would wrap to 1 in int8; 100 breaks the stated int64 bound
    mats = np.ones((2, 13, 13), dtype=np.int64)
    mats[1, 12, 0] = bad
    with pytest.raises(ValueError, match="-1 or \\+1"):
        ryser_batch(mats)
    with pytest.raises(ValueError, match="-1 or \\+1"):
        ryser_batch(np.full((1, 13, 13), bad))


def test_ryser_batch_at_its_int64_bound():
    # the all-ones matrix maximizes every column sum and every product
    ones = np.ones((2, 13, 13), dtype=np.int8)
    ones[1] *= -1
    assert ryser_batch(ones).tolist() == [math.factorial(13), -math.factorial(13)]


def _sign_blocks(gen, count: int, rows: int) -> np.ndarray:
    return 2 * gen.integers(0, 2, size=(count, rows, rows - 1), dtype=np.int8) - 1


@pytest.mark.parametrize("rows", range(2, 12))
def test_ryser_cofactors_match_naive_row_deleted_blocks(rows):
    gen = RngStream(31, rows).generator()
    blocks = _sign_blocks(gen, 2 if rows == 11 else 6, rows)
    cof = ryser_cofactors(blocks)
    assert cof.shape == (len(blocks), rows) and cof.dtype == np.int64
    for block, got in zip(blocks, cof):
        assert got.tolist() == [permanent_naive(SignMatrix(np.delete(block, r, axis=0)))
                                for r in range(rows)]


@pytest.mark.parametrize("rows", range(2, 14))
def test_ryser_cofactors_match_ryser_batch(rows):
    gen = RngStream(32, rows).generator()
    blocks = _sign_blocks(gen, 8, rows)
    cof = ryser_cofactors(blocks)
    for r in range(rows):
        assert np.array_equal(cof[:, r], ryser_batch(np.delete(blocks, r, axis=1)))
    # Laplace expansion along an added column gives the square permanent
    column = 2 * gen.integers(0, 2, size=(8, rows, 1), dtype=np.int8) - 1
    square = np.concatenate([blocks, column], axis=2)
    assert np.array_equal((cof * column[:, :, 0]).sum(axis=1), ryser_batch(square))


def test_ryser_cofactors_at_their_int64_bound():
    # every column sum and product is as large as it gets; a negated column
    # negates every row-deleted minor
    ones = np.ones((3, 13, 12), dtype=np.int8)
    ones[1] *= -1
    ones[2, :, 5] = -1
    f12 = math.factorial(12)
    assert ryser_cofactors(ones).tolist() == [[f12] * 13, [f12] * 13, [-f12] * 13]


def test_ryser_cofactors_of_a_one_by_zero_block():
    # deleting the one row leaves the empty matrix, whose permanent is 1
    assert ryser_cofactors(np.ones((2, 1, 0), dtype=np.int8)).tolist() == [[1], [1]]


def test_ryser_cofactors_refusals():
    with pytest.raises(CapError, match="capped at 13 rows, got 14"):
        ryser_cofactors(np.ones((1, 14, 13), dtype=np.int8))
    for bad in (0, 2, 257):
        blocks = np.ones((2, 5, 4), dtype=np.int64)
        blocks[1, 4, 3] = bad
        with pytest.raises(ValueError, match="-1 or \\+1"):
            ryser_cofactors(blocks)
    for shape in ((1, 4, 4), (1, 4, 2), (1, 3, 5)):
        with pytest.raises(ValueError, match="one row more than columns"):
            ryser_cofactors(np.ones(shape, dtype=np.int8))


@pytest.mark.parametrize("n", [20, 22])
def test_permanent_mod_at_its_overflow_bound(n):
    p = 2**31 - 1
    assert permanent_mod(all_ones(n), p) == math.factorial(n) % p


def test_permanent_mod_n20_matches_lattice():
    m = sample_sign_matrix(20, RngStream(22, 20))
    p = 2**31 - 1
    assert permanent_mod(m, p) == permanent(m) % p


def test_determinant_against_brute():
    for n in range(1, 7):
        for t in range(4):
            m = sample_sign_matrix(n, RngStream(21, n * 10 + t))
            e = [[int(v) for v in row] for row in m.entries]
            assert determinant_exact(m) == brute_determinant(e)


def test_determinant_all_16():
    for m in enumerate_all_sign_matrices(2):
        e = [[int(v) for v in row] for row in m.entries]
        assert determinant_exact(m) == brute_determinant(e)


def test_permanent_mod_matches_exact():
    for n in (3, 5, 7, 12, 15):
        m = sample_sign_matrix(n, RngStream(22, n))
        exact = permanent_ryser(m)
        for modulus in (2, 4, 7, 8, 97):
            assert permanent_mod(m, modulus) == exact % modulus
    # a modulus of 2**31 or more takes the exact-value fallback
    modulus = 2**61 - 1
    for n in (3, 6, 8):
        m = sample_sign_matrix(n, RngStream(22, 100 + n))
        e = [[int(v) for v in row] for row in m.entries]
        assert permanent_mod(m, modulus) == brute_permanent(e) % modulus


def test_kernels_read_c_ordered_entries():
    # The kernels take raw addresses, so SignMatrix must store its entries
    # C-contiguous whatever the input's layout; a strided view read as raw
    # memory would be a different matrix.
    a = sample_sign_matrix(9, RngStream(23))
    big = sample_sign_matrix(18, RngStream(24)).entries
    for m, ref in ((SignMatrix(a.entries.T), permanent(a)),
                   (SignMatrix(big[::2, ::2]), permanent_ryser(SignMatrix(big[::2, ::2].copy())))):
        assert m.entries.flags.c_contiguous
        for p in (97, 2_147_483_647):
            assert permanent_mod(m, p) == ref % p
        assert ryser_batch(m.entries[None])[0] == ref


def test_permanent_mod_validates():
    with pytest.raises(ValueError):
        permanent_mod(all_ones(2), 1)


def test_naive_cap():
    with pytest.raises(CapError, match=r"^permanent_naive is capped at n <= 10 \(n! terms\), got n=11$"):
        permanent_naive(all_ones(11))


def test_ryser_cap_configurable():
    with pytest.raises(CapError, match="capped at n <= 30"):
        permanent_ryser(all_ones(31))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**25 - 1), st.permutations(list(range(5))))
def test_row_column_permutation_invariance(bits, perm):
    m = matrix_from_counter(5, bits)
    base = permanent_ryser(m)
    rowswapped = SignMatrix(m.entries[list(perm), :])
    colswapped = SignMatrix(m.entries[:, list(perm)])
    assert permanent_ryser(rowswapped) == base
    assert permanent_ryser(colswapped) == base


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**25 - 1), st.integers(0, 4))
def test_negating_row_negates_permanent(bits, row):
    m = matrix_from_counter(5, bits)
    flipped = m.entries.copy()
    flipped[row] *= -1
    assert permanent_ryser(SignMatrix(flipped)) == -permanent_ryser(m)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**36 - 1))
def test_permanent_bounded_by_factorial(bits):
    m = matrix_from_counter(6, bits)
    assert abs(permanent_ryser(m)) <= math.factorial(6)
