"""GF(2) core: rank, products, nullspace, membership, minimum distance."""

import numpy as np
import pytest

from eaqldpc import gf2
from eaqldpc.gf2 import (
    BitMatrix,
    DistanceBudget,
    in_row_space,
    macwilliams_min_distance,
    min_distance,
    multiply,
    nullspace_basis,
    rank,
    rank_value,
    weight_distribution,
)


def random_matrix(rng, rows, cols, density=0.5):
    bits = []
    for _ in range(rows):
        r = 0
        for j in range(cols):
            if rng.random() < density:
                r |= 1 << j
        bits.append(r)
    return BitMatrix(rows, cols, bits)


def brute_min_distance(M):
    """Gray-code enumeration oracle over all nonzero codewords."""
    basis = nullspace_basis(M).row_bits()
    best = None
    cw = 0
    prev = 0
    for t in range(1, 1 << len(basis)):
        g = t ^ (t >> 1)
        cw ^= basis[(g ^ prev).bit_length() - 1]
        prev = g
        w = cw.bit_count()
        if best is None or w < best:
            best = w
    return best


def test_rank_identity():
    assert rank(BitMatrix.identity(3)).rank == 3


def test_rank_fano(fano):
    H = fano.structure.point_by_block()
    assert rank(H).rank == 4
    assert rank_value(H) == 4


def test_rank_pg32(pg32):
    assert rank_value(pg32.structure.point_by_block()) == 11


def test_rank_profile_invariants():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = random_matrix(rng, int(rng.integers(1, 12)), int(rng.integers(1, 12)))
        prof = rank(m)
        assert prof.rank == len(prof.pivot_columns)
        assert list(prof.pivot_columns) == sorted(prof.pivot_columns)
        # same row space: every original row reduces to zero against the rref
        for r in m.row_bits():
            assert gf2.reduce_against(prof.rref.row_bits(), prof.pivot_columns, r) == 0


def test_rank_transpose_invariant_random():
    rng = np.random.default_rng(11)
    for _ in range(10):
        rows = int(rng.integers(1, 201))
        cols = int(rng.integers(1, 201))
        m = random_matrix(rng, rows, cols, density=0.2)
        assert rank_value(m) == rank_value(m.transpose())


def test_multiply_identity_and_associativity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = random_matrix(rng, 5, 7)
        b = random_matrix(rng, 7, 4)
        c = random_matrix(rng, 4, 6)
        assert multiply(BitMatrix.identity(5), a) == a
        assert multiply(a, BitMatrix.identity(7)) == a
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_multiply_dimension_mismatch():
    with pytest.raises(ValueError):
        multiply(BitMatrix.identity(3), BitMatrix.identity(4))


def test_fano_gram_is_allones(fano):
    H = fano.structure.point_by_block()
    g = multiply(H, H.transpose())
    assert g.row_bits() == tuple([(1 << 7) - 1] * 7)
    assert rank(g).rank == 1


def test_nullspace_identity_empty():
    ns = nullspace_basis(BitMatrix.identity(4))
    assert ns.rows == 0


def test_nullspace_fano(fano):
    H = fano.structure.point_by_block()
    ns = nullspace_basis(H)
    assert ns.rows == 3  # 7 - rank 4
    for v in ns.row_bits():
        assert H.mul_vector(v) == 0


def test_nullspace_dimension_property():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = random_matrix(rng, int(rng.integers(1, 15)), int(rng.integers(1, 15)))
        ns = nullspace_basis(m)
        assert ns.rows == m.cols - rank(m).rank
        for v in ns.row_bits():
            assert m.mul_vector(v) == 0
        # basis vectors independent
        assert rank(ns).rank == ns.rows


def test_in_row_space():
    rng = np.random.default_rng(9)
    m = random_matrix(rng, 6, 10)
    assert in_row_space(m, 0)
    for r in m.row_bits():
        assert in_row_space(m, r)
    # combinations are members; anything outside the space is not
    comb = m.row(0) ^ m.row(3) ^ m.row(5)
    assert in_row_space(m, comb)
    outside = 0
    for x in range(1 << 10):
        if not in_row_space(m, x):
            outside = x
            break
    if rank(m).rank < 10:
        assert not in_row_space(m, outside)
    with pytest.raises(ValueError):
        in_row_space(m, [1, 0, 1])  # wrong length


def test_min_distance_fano_matches_bruteforce(fano):
    H = fano.structure.point_by_block()
    res = min_distance(H)
    assert (res.status, res.lower, res.upper) == ("exact", 4, 4)
    assert brute_min_distance(H) == 4
    # witness columns really sum to zero
    cols = H.transpose().row_bits()
    acc = 0
    for j in res.witness:
        acc ^= cols[j]
    assert acc == 0 and len(res.witness) == 4


def test_min_distance_strategies_agree_random():
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(40):
        m = random_matrix(rng, int(rng.integers(2, 9)), int(rng.integers(2, 11)), density=0.4)
        cw = min_distance(m, "enumerate_codewords")
        if cw.lower == 0:
            continue
        sup = min_distance(m, "enumerate_supports")
        if sup.status == "exact":
            assert sup.lower == cw.lower
            checked += 1
        else:
            assert sup.lower <= cw.lower <= sup.upper
        rnd = min_distance(m, "randomized_search", DistanceBudget(randomized_trials=200))
        assert rnd.upper >= cw.upper
    assert checked > 5


def test_min_distance_dual_side_matches_direct():
    # force the MacWilliams path by shrinking the code-side cap
    rng = np.random.default_rng(17)
    for _ in range(10):
        m = random_matrix(rng, 6, 14, density=0.35)
        direct = min_distance(m, "enumerate_codewords")
        tight = DistanceBudget(exponent_cap=0, dual_exponent_cap=16)
        dual = min_distance(m, "enumerate_codewords", tight)
        assert (dual.status, dual.lower) == ("exact", direct.lower)


def test_weight_distribution_vs_bruteforce():
    rng = np.random.default_rng(19)
    vecs = [int(rng.integers(0, 1 << 12)) for _ in range(6)]
    counts = weight_distribution(vecs, 12)
    brute = [0] * 13
    for t in range(1 << 6):
        x = 0
        for i in range(6):
            if (t >> i) & 1:
                x ^= vecs[i]
        brute[x.bit_count()] += 1
    assert counts == brute


@pytest.mark.parametrize("k", [0, 1, 16, 17, 18])
@pytest.mark.parametrize("nbits", [1, 63, 64, 65, 255, 256, 300])
def test_weight_distribution_vs_int_enumeration(k, nbits):
    """Past the inner block (k > 16), across word boundaries and from 256 bits,
    with a dependent last vector, so every combination counts, repeats included.
    The all-ones first vector and sparse odd vectors reach weights near nbits."""
    rng = np.random.default_rng(1000 * k + nbits)

    def rand():
        return int.from_bytes(rng.bytes(40), "little") % (1 << nbits)

    vecs = [rand() & rand() & rand() & rand() if i % 2 else rand() for i in range(k)]
    if k >= 1:
        vecs[0] = (1 << nbits) - 1
        vecs[-1] = vecs[0] ^ vecs[1] if k >= 2 else 0
    span = [0]
    for v in vecs:
        span += [x ^ v for x in span]
    brute = [0] * (nbits + 1)
    for x in span:
        brute[x.bit_count()] += 1
    assert weight_distribution(vecs, nbits) == brute


def test_macwilliams_roundtrip():
    rng = np.random.default_rng(23)
    for _ in range(10):
        m = random_matrix(rng, 5, 12, density=0.4)
        prof = rank(m)
        if prof.rank == 0 or prof.rank == 12:
            continue
        dual_counts = weight_distribution(prof.rref.row_bits(), 12)
        d = macwilliams_min_distance(dual_counts, 12, prof.rank)
        assert d == brute_min_distance(m)


def test_min_distance_trivial_code():
    res = min_distance(BitMatrix.identity(5))
    assert res.status == "exact" and res.lower == res.upper == 0


def test_empty_matrix_rank():
    assert rank(BitMatrix.zeros(0, 0)).rank == 0
    assert rank(BitMatrix.zeros(3, 5)).rank == 0


def test_data_packing_invariant():
    m = BitMatrix(2, 70, [(1 << 69) | 1, (1 << 64) | (1 << 3)])
    words = m.data
    assert len(words) == 2 * 2  # two 64-bit words per row
    assert words[0] == 1 and words[1] == 1 << 5
    assert all(w < (1 << 64) for w in words)
