import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permlab import cli, engines
from permlab.engines import (
    cofactors,
    determinant_exact,
    permanent,
    permanent_mod,
    permanent_naive,
    permanent_ryser,
    permanents,
    ryser_batch,
)
from permlab.lattice import MinorTable, build_lattice
from permlab.matrices import CapError, SignMatrix, sample_sign_matrix
from permlab.rng import RngStream

from oracles import (all_ones, all_sign_matrices, brute_determinant, brute_permanent,
                     definition_permanents, enumerate_all_sign_matrices, generator,
                     matrix_from_counter)

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


@pytest.mark.parametrize("n", range(1, 5))
def test_naive_on_every_sign_matrix_through_n_4(n):
    # at n <= 4 the last min(n, 4) rows are the whole matrix: 65,536 at n = 4
    mats = all_sign_matrices(n)
    assert [permanent_naive(SignMatrix(m)) for m in mats] == definition_permanents(mats).tolist()


@pytest.mark.parametrize("n", range(5, 11))
def test_naive_matches_the_modular_oracle_random(n):
    # |Per| <= 10! < (2**31 - 1) / 2, so one residue fixes each permanent
    p = 2**31 - 1
    for t in range(20):
        m = sample_sign_matrix(n, RngStream(40, n * 100 + t))
        assert permanent_naive(m) % p == permanent_mod(m, p)


@pytest.mark.parametrize("n", [9, 10])
def test_naive_at_its_cap(n):
    # every permutation has the same sign, so no term cancels; negating rows
    # among the tallied first n - 4, the expanded last 4, or both, negates
    # every term once per row
    f = math.factorial(n)
    assert permanent_naive(all_ones(n)) == f
    for rows in ([0], [n - 5], [n - 1], [n - 5, n - 4], list(range(n - 4, n)), list(range(n))):
        entries = np.ones((n, n), np.int8)
        entries[rows] = -1
        assert permanent_naive(SignMatrix(entries)) == (-1) ** len(rows) * f, rows


def test_ryser_batch_matches_scalar():
    gen = generator(RngStream(8))
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


def _signed_ones(n: int) -> np.ndarray:
    """All-ones, all-minus-ones and all-ones with row 0 negated: permanents
    n!, (-1)**n * n! and -n!, with every lane of the glynn kernel as large
    as it gets."""
    ones = np.ones((3, n, n), dtype=np.int8)
    ones[1] *= -1
    ones[2, 0] *= -1
    return ones


# 8/9, 16/17: the last n of the 8- and 16-lane sweeps and the first of the
# next width (9 is the first n of the vector sweep's four walks, or of the
# steps skipped for a 0 lane on a host without AVX-512BW and DQ); 15: the
# last odd n in 16 lanes; 19 and 20: the last odd and even n summed in 64
# bits, and the last n of the vector sweep; 21 and 22: the first odd and
# even n in 128 bits, which the scalar sweep takes on every host, where the
# permanent passes int64 and comes back a Python int
@pytest.mark.parametrize("n", [8, 9, 15, 16, 17, 19, 20, 21, 22])
def test_permanent_at_the_glynn_kernel_boundaries(n):
    m = sample_sign_matrix(n, RngStream(27, n))
    got = permanent(m)
    assert type(got) is int and got == build_lattice(m).top_value()
    f = math.factorial(n)
    assert permanents(_signed_ones(n)) == [f, (-1) ** n * f, -f]


# Primes below 2**31, the modular sweep's bound; their product, about 2**93,
# passes 2 * 25!, so the CRT of the residues is the permanent for n <= 25.
_CRT_PRIMES = (2**31 - 1, 2**31 - 19, 2**31 - 61)


def _crt_permanent(m: SignMatrix) -> int:
    """The permanent rebuilt from its permanent_mod residues, which share no
    code with the glynn kernel: the residue class's member nearest 0."""
    x, mod = 0, 1
    for p in _CRT_PRIMES:
        x += mod * ((permanent_mod(m, p) - x) * pow(mod, -1, p) % p)
        mod *= p
    return x if 2 * x <= mod else x - mod


# 23 and 24: an odd and an even n above the lattice's cap, in 128 bits
@pytest.mark.parametrize("n", [23, 24])
def test_permanent_matches_the_crt_of_permanent_mod(n):
    m = sample_sign_matrix(n, RngStream(33, n))
    assert permanent(m) == _crt_permanent(m)


@pytest.mark.slow
def test_permanent_through_its_cap_of_30(monkeypatch):
    # n = 25 against the residues; at n = 27..30 the all-ones and
    # negated-row matrices make the 128-bit total as large as it gets, each
    # batch in one kernel call
    m = sample_sign_matrix(25, RngStream(33, 25))
    assert permanent(m) == _crt_permanent(m)
    shapes = []
    glynn = engines._glynn

    def spy(mats):
        shapes.append(np.shape(mats))
        return glynn(mats)

    monkeypatch.setattr(engines, "_glynn", spy)
    for n in (27, 28, 29, 30):
        f = math.factorial(n)
        assert permanents(_signed_ones(n)[[0, 2]]) == [f, -f], n
    assert shapes == [(2, n, n) for n in (27, 28, 29, 30)]


def test_glynn_matches_the_lattice_expansion_through_22():
    # Random sign matrices put a 0 lane in most Gray-code steps past 8 lanes:
    # the scalar sweep skips those steps and the vector sweep (n <= 20 on a
    # host with AVX-512BW and DQ) multiplies them out to 0, so a skip
    # taken on the wrong step's lanes or on a padding lane, or a walk's
    # product or sign gone wrong, changes these totals, which are checked
    # against the minor lattice's.  Every square size through its cap, 16 matrices
    # in one kernel call each: 4 random blocks of n - 1 rows, each finished by
    # 4 random last rows, so one minor lattice per block gives the top value
    # of each of its 4 matrices by expansion along the last row; and one full
    # lattice per size, whose top level the lattice builds itself
    for n in range(1, 23):
        gen = generator(RngStream(34, n))
        mats = np.repeat(2 * gen.integers(0, 2, size=(4, n, n), dtype=np.int8) - 1, 4, axis=0)
        mats[:, -1] = 2 * gen.integers(0, 2, size=(16, n), dtype=np.int8) - 1
        tables = [build_lattice(SignMatrix(m), n - 1) for m in mats[::4]]
        full = (1 << n) - 1
        want = [sum(int(a) * tables[b // 4].value(full ^ 1 << j) for j, a in enumerate(m[-1]))
                for b, m in enumerate(mats)]
        got = permanents(mats)
        assert got == want, n
        assert build_lattice(SignMatrix(mats[-1])).top_value() == got[-1], n
    # and the cofactors at every row count: row r's cofactor is the minor of
    # the block's transpose on every column but r
    for rows in range(1, 14):
        blocks = _sign_blocks(generator(RngStream(35, rows)), 64, rows)
        full = (1 << rows) - 1
        for block, got in zip(blocks, cofactors(blocks).tolist()):
            table = MinorTable(rows)
            for column in block.T:
                table.add_level(column)
            assert got == [table.value(full ^ 1 << r) for r in range(rows)], rows


def test_permanent_of_one_and_two_rows():
    assert [permanent(SignMatrix([[v]])) for v in (1, -1)] == [1, -1]
    for m in enumerate_all_sign_matrices(2):
        assert permanent(m) == brute_permanent(m.entries.tolist())
    mats = np.stack([m.entries for m in enumerate_all_sign_matrices(2)])
    assert permanents(mats) == ryser_batch(mats).tolist() == [brute_permanent(a.tolist()) for a in mats]
    # the empty matrix has permanent 1
    assert permanents(np.ones((2, 0, 0), dtype=np.int8)) == [1, 1]


@pytest.mark.parametrize("bad", [0, 2, 257, -128])
def test_permanents_refuse_non_sign_entries(bad):
    # 257 would wrap to 1 in int8
    for n in (2, 16, 21):
        mats = np.ones((2, n, n), dtype=np.int64)
        mats[1, n - 1, 0] = bad
        with pytest.raises(ValueError, match="-1 or \\+1"):
            permanents(mats)
    with pytest.raises(ValueError, match="must be square"):
        permanents(np.ones((1, 4, 5), dtype=np.int8))


def test_permanent_cap_names_the_cap(capsys):
    with pytest.raises(CapError, match=r"^permanent is capped at n <= 30 \(2\*\*\(n-1\) sign vectors\), got n=31$"):
        permanent(all_ones(31))
    with pytest.raises(CapError, match="capped at n <= 30"):
        permanents(np.ones((1, 40, 40), dtype=np.int8))
    # a request above the cap is a clean exit 2 that names it
    for args in (["--suite", "growth_rate", "--n", "31", "--trials", "2"],
                 ["--suite", "singularity", "--mode", "monte_carlo", "--n", "31", "--trials", "2"],
                 ["--suite", "second_moment", "--n", "31", "--trials", "2"]):
        assert cli.main(["verify", *args]) == 2
        assert capsys.readouterr().err == "error: permanent is capped at n <= 30 (2**(n-1) sign vectors), got n=31\n"


def _sign_blocks(gen, count: int, rows: int) -> np.ndarray:
    return 2 * gen.integers(0, 2, size=(count, rows, rows - 1), dtype=np.int8) - 1


@pytest.mark.parametrize("rows", range(2, 12))
def test_ryser_cofactors_match_naive_row_deleted_blocks(rows):
    gen = generator(RngStream(31, rows))
    blocks = _sign_blocks(gen, 2 if rows == 11 else 6, rows)
    cof = cofactors(blocks)
    assert cof.shape == (len(blocks), rows) and cof.dtype == np.int64
    for block, got in zip(blocks, cof):
        assert got.tolist() == [permanent_naive(SignMatrix(np.delete(block, r, axis=0)))
                                for r in range(rows)]


@pytest.mark.parametrize("rows", range(2, 14))
def test_ryser_cofactors_match_ryser_batch(rows):
    gen = generator(RngStream(32, rows))
    blocks = _sign_blocks(gen, 8, rows)
    cof = cofactors(blocks)
    for r in range(rows):
        assert np.array_equal(cof[:, r], ryser_batch(np.delete(blocks, r, axis=1)))
    if rows >= 12:
        # past the naive engine's reach, the modular Ryser kernel, which shares
        # no code with the Glynn sweep of both cofactors and ryser_batch, is the
        # reference: |Per| <= 12! < p / 2, so one residue read in (-p/2, p/2)
        # is the permanent
        p = 2**31 - 1
        for block, got in zip(blocks, cof):
            residues = [permanent_mod(SignMatrix(np.delete(block, r, axis=0)), p)
                        for r in range(rows)]
            assert got.tolist() == [x - p if x > p // 2 else x for x in residues]
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
    assert cofactors(ones).tolist() == [[f12] * 13, [f12] * 13, [-f12] * 13]


def test_ryser_cofactors_of_a_one_by_zero_block():
    # deleting the one row leaves the empty matrix, whose permanent is 1
    assert cofactors(np.ones((2, 1, 0), dtype=np.int8)).tolist() == [[1], [1]]


def test_ryser_cofactors_refusals():
    with pytest.raises(CapError, match="capped at 13 rows, got 14"):
        cofactors(np.ones((1, 14, 13), dtype=np.int8))
    for bad in (0, 2, 257):
        blocks = np.ones((2, 5, 4), dtype=np.int64)
        blocks[1, 4, 3] = bad
        with pytest.raises(ValueError, match="-1 or \\+1"):
            cofactors(blocks)
    for shape in ((1, 4, 4), (1, 4, 2), (1, 3, 5)):
        with pytest.raises(ValueError, match="one row more than columns"):
            cofactors(np.ones(shape, dtype=np.int8))


@pytest.mark.parametrize("n", [20, 22])
def test_permanent_mod_at_its_overflow_bound(n):
    p = 2**31 - 1
    assert permanent_mod(all_ones(n), p) == math.factorial(n) % p


def test_permanent_mod_n20_matches_lattice():
    m = sample_sign_matrix(20, RngStream(22, 20))
    p = 2**31 - 1
    assert permanent_mod(m, p) == build_lattice(m).top_value() % p


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
        for modulus in (2, 4, 7, 8, 97, 2**31 - 1):
            assert permanent_mod(m, modulus) == exact % modulus


def test_kernels_read_c_ordered_entries():
    # The kernels take raw addresses, so SignMatrix must store its entries
    # C-contiguous whatever the input's layout; a strided view read as raw
    # memory would be a different matrix.
    a = sample_sign_matrix(9, RngStream(23))
    big = sample_sign_matrix(18, RngStream(24)).entries
    for m, ref in ((SignMatrix(a.entries.T), build_lattice(a).top_value()),
                   (SignMatrix(big[::2, ::2]), permanent_ryser(SignMatrix(big[::2, ::2].copy())))):
        assert m.entries.flags.c_contiguous
        for p in (97, 2_147_483_647):
            assert permanent_mod(m, p) == ref % p
        assert ryser_batch(m.entries[None])[0] == ref


def test_permanent_mod_validates():
    with pytest.raises(ValueError, match="must be >= 2, got 1"):
        permanent_mod(all_ones(2), 1)
    # the modular sweep's residues stay below 2**31; a wider modulus has no
    # exact fallback here (its residue is permanent(m) % modulus)
    for modulus in (2**31, 2**61 - 1):
        with pytest.raises(ValueError, match=f"^permanent_mod takes a modulus below 2\\*\\*31, got {modulus}$"):
            permanent_mod(all_ones(2), modulus)


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
