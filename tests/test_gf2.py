"""GF(2) core: rank, products, nullspace, membership, minimum distance."""

import numpy as np
import pytest

from eaqldpc import gf2
from eaqldpc.gf2 import (
    BitMatrix,
    DistanceBudget,
    gram_rank,
    in_row_space,
    macwilliams_min_distance,
    min_distance,
    multiply,
    nullspace_basis,
    rank,
    rank_value,
    weight_distribution,
)
from test_acceptance import RANK_CROSS_VALIDATION


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


# --- the Python-int elimination the packed kernel replaced, kept as oracles --

def rank_only_oracle(rows):
    """Rank by incremental reduction against a lowest-bit pivot basis."""
    basis: dict[int, int] = {}
    for cur in rows:
        while cur:
            c = (cur & -cur).bit_length() - 1
            if c not in basis:
                basis[c] = cur
                break
            cur ^= basis[c]
    return len(basis)


def rank_oracle(M):
    """(rank, pivot columns, rref rows) by first-nonzero-pivot Gauss-Jordan."""
    mat = list(M.row_bits())
    pivots = []
    r = 0
    for c in range(M.cols):
        if r >= len(mat):
            break
        pr = next((i for i in range(r, len(mat)) if mat[i] >> c & 1), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i] >> c & 1:
                mat[i] ^= mat[r]
        pivots.append(c)
        r += 1
    return r, tuple(pivots), tuple(mat[:r])


def nullspace_oracle(M):
    """Nullspace rows from the oracle rref: one per free column, in order."""
    _, pivots, rref = rank_oracle(M)
    out = []
    for f in (c for c in range(M.cols) if c not in pivots):
        v = 1 << f
        for row, pc in zip(rref, pivots):
            if row >> f & 1:
                v |= 1 << pc
        out.append(v)
    return tuple(out)


def multiply_oracle(A, B):
    out = []
    for r in A.row_bits():
        acc = 0
        for j in range(A.cols):
            if r >> j & 1:
                acc ^= B.row(j)
        out.append(acc)
    return tuple(out)


def oracle_matrices():
    """Random matrices across word boundaries: dense, sparse, all-zero, with
    duplicate rows and of low rank (rows drawn from a small span)."""
    rng = np.random.default_rng(2010)

    def rand(bits, density):
        x = 0
        for j in np.flatnonzero(rng.random(bits) < density):
            x |= 1 << int(j)
        return x

    for cols in (0, 1, 63, 64, 65, 127, 128, 4097):
        for rows in (0, 1, 7, 70, 130):
            for density in (0.5, 0.03):
                bits = [rand(cols, density) for _ in range(rows)]
                yield f"random-{rows}x{cols}-{density}", BitMatrix(rows, cols, bits)
        yield f"zero-9x{cols}", BitMatrix.zeros(9, cols)
        gens = [rand(cols, 0.5) for _ in range(5)]
        low = [0] * 80
        for i in range(80):
            for g in gens:
                if rng.random() < 0.5:
                    low[i] ^= g
        yield f"rank<=5-80x{cols}", BitMatrix(80, cols, low)
        dup = [rand(cols, 0.2) for _ in range(12)] * 3
        yield f"duplicates-36x{cols}", BitMatrix(36, cols, dup)


ORACLE_CASES = list(oracle_matrices())


@pytest.mark.parametrize("name,M", ORACLE_CASES, ids=[n for n, _ in ORACLE_CASES])
def test_packed_kernel_matches_int_oracle(name, M):
    rk, pivots, rref = rank_oracle(M)
    prof = rank(BitMatrix(M.rows, M.cols, M.row_bits()))
    assert (prof.rank, prof.pivot_columns, prof.rref.row_bits()) == (rk, pivots, rref)
    assert prof.rref.cols == M.cols
    assert nullspace_basis(BitMatrix(M.rows, M.cols, M.row_bits())).row_bits() == nullspace_oracle(M)
    assert rank_value(BitMatrix(M.rows, M.cols, M.row_bits())) == rank_only_oracle(M.row_bits()) == rk
    if M.rows <= 70:
        assert gram_rank(M) == rank_only_oracle(multiply_oracle(M, M.transpose()))
    assert gf2.unpack_ints(gf2.pack_ints(M.row_bits(), M.cols)) == list(M.row_bits())


def test_rank_of_criterion_3_matrices_matches_int_oracle(cache):
    for kind, m, q in RANK_CROSS_VALIDATION:
        H = cache.geometry(kind, m, q).structure.point_by_block()
        narrow = H if H.cols <= H.rows else H.transpose()
        assert rank_value(H) == rank_only_oracle(narrow.row_bits()), (kind, m, q)


def test_product_matches_oracle_in_every_chunking(monkeypatch):
    rng = np.random.default_rng(31)
    a = random_matrix(rng, 40, 130, density=0.1)
    a = BitMatrix(41, 130, [*a.row_bits(), 0])  # a zero row of A has no segment
    b = random_matrix(rng, 130, 70)
    expect = multiply_oracle(a, b)
    for chunk in (1, 64, 1 << 20):
        monkeypatch.setattr(gf2, "PRODUCT_CHUNK_WORDS", chunk)
        assert multiply(a, b).row_bits() == expect


def test_rank_is_eliminated_once_per_matrix(monkeypatch, fano):
    calls = []
    echelon = gf2._echelon
    monkeypatch.setattr(gf2, "_echelon", lambda *a, **k: calls.append(1) or echelon(*a, **k))
    H = fano.structure.point_by_block()
    assert rank_value(H) == rank_value(H) == 4
    assert len(calls) == 1
    P = BitMatrix(H.rows, H.cols, H.row_bits())
    P.rank_profile()
    assert rank_value(P) == 4 and len(calls) == 2
