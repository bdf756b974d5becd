"""GF(2) core: rank, products, nullspace, membership, minimum distance."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaqldpc import gf2
from eaqldpc.eaqecc import BLOCK_BY_POINT, POINT_BY_BLOCK, oriented_matrix
from eaqldpc.gf2 import (
    BitMatrix,
    free_columns,
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
from test_decoder import _irregular_H, mul_vector


def random_matrix(rng, rows, cols, density=0.5):
    bits = []
    for _ in range(rows):
        r = 0
        for j in range(cols):
            if rng.random() < density:
                r |= 1 << j
        bits.append(r)
    return BitMatrix(rows, cols, bits)


def packed(vecs, nbits):
    """The int bitmasks ``vecs`` as packed rows, as ``weight_distribution_oracle`` takes them."""
    return BitMatrix(len(vecs), nbits, vecs).to_packed()


def weight_distribution_oracle(basis: np.ndarray, nbits: int) -> list[int]:
    """Weight distribution over all 2^k combinations of the packed rows
    ``basis``, dependent or not (a dependent basis counts each span vector
    2^(k - rank) times).  The enumeration ``weight_distribution`` replaced,
    kept as its oracle: an inner block of the 2^16 combinations of the first
    16 rows, stored word-major, times a Gray walk over the rest, with every
    column of every vector popcounted."""
    counts = np.zeros(nbits + 1, dtype=np.int64)
    k2 = min(len(basis), 16)
    inner = np.zeros((basis.shape[1], 1 << k2), dtype=np.uint64)
    for i in range(k2):
        inner[:, 1 << i : 2 << i] = inner[:, : 1 << i] ^ basis[i][:, None]
    wtype = np.min_scalar_type(nbits)
    outer = basis[k2:]
    acc = np.zeros(basis.shape[1], dtype=np.uint64)
    for t in range(1 << len(outer)):
        if t:  # Gray walk: step t flips outer vector (lowest set bit of t)
            acc ^= outer[(t & -t).bit_length() - 1]
        w = np.zeros(inner.shape[1], dtype=wtype)
        for row, x in zip(inner, acc):
            w += np.bitwise_count(row ^ x)
        counts += np.bincount(w, minlength=nbits + 1)
    return counts.tolist()


def identity(n):
    return BitMatrix(n, n, [1 << i for i in range(n)])


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
    assert rank(identity(3)).rank == 3


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
        assert in_row_space(prof.rref, m.to_dense()).all()


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
        assert multiply(identity(5), a) == a
        assert multiply(a, identity(7)) == a
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_multiply_dimension_mismatch():
    with pytest.raises(ValueError):
        multiply(identity(3), identity(4))


def test_fano_gram_is_allones(fano):
    H = fano.structure.point_by_block()
    g = multiply(H, H.transpose())
    assert g.row_bits() == tuple([(1 << 7) - 1] * 7)
    assert rank(g).rank == 1


def test_nullspace_identity_empty():
    ns = nullspace_basis(identity(4))
    assert ns.rows == 0


def test_nullspace_fano(fano):
    H = fano.structure.point_by_block()
    ns = nullspace_basis(H)
    assert ns.rows == 3  # 7 - rank 4
    for v in ns.row_bits():
        assert mul_vector(H, v) == 0


def test_nullspace_dimension_property():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = random_matrix(rng, int(rng.integers(1, 15)), int(rng.integers(1, 15)))
        ns = nullspace_basis(m)
        assert ns.rows == m.cols - rank(m).rank
        for v in ns.row_bits():
            assert mul_vector(m, v) == 0
        # basis vectors independent
        assert rank(ns).rank == ns.rows


def test_in_row_space():
    rng = np.random.default_rng(9)
    m = random_matrix(rng, 6, 10)
    rows = m.to_dense()
    assert in_row_space(m, np.zeros((1, 10), dtype=np.uint8)).tolist() == [True]
    assert in_row_space(m, rows).all()
    # combinations are members; anything outside the space is not
    comb = rows[0] ^ rows[3] ^ rows[5]
    assert in_row_space(m, comb[None, :]).tolist() == [True]
    every = np.arange(1 << 10)[:, None] >> np.arange(10) & 1  # all 2^10 vectors, one per row
    members = in_row_space(m, every)
    assert members.sum() == 1 << rank(m).rank
    if rank(m).rank < 10:
        assert not members.all()
    with pytest.raises(ValueError):
        in_row_space(m, np.array([[1, 0, 1]]))  # wrong width
    with pytest.raises(ValueError):
        in_row_space(m, rows[0])  # one vector, not a batch of rows


def row_space_oracle(H: BitMatrix, X: np.ndarray) -> np.ndarray:
    """Row i of X is in the row space of H iff appending it to H leaves the
    rank unchanged (the oracle, one elimination per row)."""
    dense, r = H.to_dense(), rank_value(H)
    return np.array([rank_value(BitMatrix.from_dense(np.vstack([dense, x]))) == r for x in X],
                    dtype=bool)


@pytest.mark.parametrize("code", [("AG", 16, BLOCK_BY_POINT), ("PG", 16, BLOCK_BY_POINT),
                                  ("PG", 8, POINT_BY_BLOCK), ("AG", 8, POINT_BY_BLOCK), None],
                         ids=["AG(2,16)/I", "PG(2,16)/I", "PG(2,8)/II", "AG(2,8)/II",
                              "irregular 40x60"])
def test_in_row_space_matches_rank_append_on_codes(cache, code):
    """Row-space combinations, random rows, sparse rows (as decoder residuals
    are) and zero rows, shuffled; the same answers for a trials-last view,
    for uint8 rows, and an empty batch."""
    if code is None:
        H = _irregular_H()
    else:
        kind, q, orientation = code
        H = oriented_matrix(cache.geometry(kind, 2, q).structure, orientation)
    rng = np.random.default_rng(0)
    n = H.cols
    combos = rng.integers(0, 2, (100, H.rows)) @ H.to_dense().astype(np.int64) % 2 == 1
    X = np.vstack([combos, rng.random((100, n)) < 0.5, rng.random((100, n)) < 0.02,
                   np.zeros((10, n), dtype=bool)])[rng.permutation(310)]
    expected = row_space_oracle(H, X)
    assert expected.any() and not expected.all()
    assert np.array_equal(in_row_space(H, X), expected)
    assert np.array_equal(in_row_space(H, np.ascontiguousarray(X.T).T), expected)
    assert np.array_equal(in_row_space(H, X.astype(np.uint8)), expected)
    assert in_row_space(H, X[:0]).shape == (0,)


def test_in_row_space_of_one_wide_row_stays_small():
    """A 1 x 65535 matrix has a 65534-row nullspace, 4 GiB as dense bytes;
    membership reads only the one reduced row, so the peak stays below 16
    bytes per column."""
    n = 65535
    m = BitMatrix.from_supports([range(0, n, 3)], n)
    X = np.zeros((4, n), dtype=bool)
    X[0, ::3] = X[2, ::3] = True
    X[2, 1] = True
    X[3, n - 1] = True
    tracemalloc.start()
    try:
        answers = in_row_space(m, X).tolist()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert answers == [True, True, False, False]
    assert peak < 16 * n


def test_min_distance_fano_matches_bruteforce(fano):
    H = fano.structure.point_by_block()
    res = min_distance(H)
    assert res.d == 4
    assert brute_min_distance(H) == 4
    # witness columns really sum to zero
    cols = H.transpose().row_bits()
    acc = 0
    for j in res.witness:
        acc ^= cols[j]
    assert acc == 0 and len(res.witness) == 4


def count_calls(monkeypatch, name):
    """Replace gf2.<name> by a wrapper that logs each call, so a test can
    tell which enumeration branch min_distance took."""
    calls = []
    original = getattr(gf2, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(gf2, name, wrapper)
    return calls


def test_min_distance_code_side_witness_matches_bruteforce(monkeypatch):
    """dim <= rank and dim <= 18: the Gray walk, with a witness support."""
    walks = count_calls(monkeypatch, "_min_weight_with_witness")
    counts = count_calls(monkeypatch, "weight_distribution")
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(20):
        m = random_matrix(rng, 8, 14, density=0.4)
        rk = rank_value(m)
        if not 0 < m.cols - rk <= rk:
            continue
        res = min_distance(m)
        checked += 1
        assert res.d == brute_min_distance(m)
        acc = 0
        cols = m.transpose().row_bits()
        for j in res.witness:
            acc ^= cols[j]
        assert acc == 0 and len(res.witness) == res.d
    assert checked > 10 and len(walks) == checked and not counts
    assert res.side == "code"


def test_min_distance_code_side_counting_matches_dual_side(monkeypatch):
    """18 < dim <= rank: weight counting only; the dual side (forced by a
    zero code-side cap) and brute force give the same distance."""
    rng = np.random.default_rng(29)
    m = random_matrix(rng, 19, 38)
    while rank_value(m) != 19:
        m = random_matrix(rng, 19, 38)
    walks = count_calls(monkeypatch, "_min_weight_with_witness")
    counts = count_calls(monkeypatch, "weight_distribution")
    transforms = count_calls(monkeypatch, "macwilliams_min_distance")
    code_side = min_distance(m)
    assert (len(walks), len(counts), len(transforms)) == (0, 1, 0)
    assert code_side.witness is None
    monkeypatch.setattr(gf2, "CODEWORD_EXPONENT_CAP", 0)
    dual_side = min_distance(m)
    assert (len(walks), len(counts), len(transforms)) == (0, 2, 1)
    assert dual_side == code_side
    assert (code_side.side, dual_side.side) == ("code", "dual")
    assert code_side.d == brute_min_distance(m)


def test_min_distance_dual_side_matches_bruteforce(monkeypatch):
    """dim > rank: the row space is enumerated and MacWilliams gives d."""
    walks = count_calls(monkeypatch, "_min_weight_with_witness")
    transforms = count_calls(monkeypatch, "macwilliams_min_distance")
    rng = np.random.default_rng(17)
    for _ in range(10):
        m = random_matrix(rng, 6, 14, density=0.35)
        res = min_distance(m)
        assert (res.d, res.side) == (brute_min_distance(m), "dual")
    assert len(transforms) == 10 and not walks


def test_min_distance_over_both_caps_is_none_without_reduction(monkeypatch):
    monkeypatch.setattr(gf2, "CODEWORD_EXPONENT_CAP", 1)
    monkeypatch.setattr(gf2, "DUAL_EXPONENT_CAP", 3)
    m = BitMatrix(4, 6, [0b111, 0b1010, 0b11100, 0b110001])
    assert min_distance(m) is None
    assert m._rank_profile is None  # only rank_value ran


def test_weight_distribution_vs_bruteforce():
    """The oracle against a plain loop over all 2^6 combinations."""
    rng = np.random.default_rng(19)
    vecs = [int(rng.integers(0, 1 << 12)) for _ in range(6)]
    counts = weight_distribution_oracle(packed(vecs, 12), 12)
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
    with a dependent last vector.  The oracle counts every combination,
    repeats included; ``weight_distribution`` takes the reduced rows of the
    same span, counts each vector once, and so 2^(k - rank) times less.  The
    all-ones first vector and sparse odd vectors reach weights near nbits."""
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
    assert weight_distribution_oracle(packed(vecs, nbits), nbits) == brute
    prof = rank(BitMatrix(k, nbits, vecs))
    once = weight_distribution(prof.rref.to_packed(), nbits, prof.pivot_columns)
    assert [c << (k - prof.rank) for c in once] == brute


def reduced_bases():
    """(form, k, width, matrix, unit columns): random fully reduced rows with
    their pivots, and nullspace bases with their free columns, for k up to
    16 and past it, across word boundaries."""
    rng = np.random.default_rng(2026)

    def rand(rows, width, density):
        return BitMatrix.from_dense(rng.random((rows, width)) < density)

    for width in (1, 63, 64, 65, 127, 128, 129):
        for k in sorted({min(width, 9), min(width, 16), min(width, 18)}):
            for density in (0.5, 0.1):
                prof = rand(k, width, density).rank_profile()
                yield "rref", prof.rank, width, prof.rref, prof.pivot_columns
                # full-rank checks leave a k-dimensional nullspace
                C = rand(width - k, width, density)
                while rank_value(C) < width - k:
                    C = rand(width - k, width, density)
                yield "nullspace", k, width, nullspace_basis(C), free_columns(C)


REDUCED_BASES = list(reduced_bases())


@pytest.mark.parametrize(
    "form,k,width,B,units", REDUCED_BASES,
    ids=[f"{f}-k{k}-n{n}-{i}" for i, (f, k, n, _, _) in enumerate(REDUCED_BASES)])
def test_weight_distribution_matches_oracle_on_reduced_bases(form, k, width, B, units):
    assert B.rows == len(units) == k
    assert weight_distribution(B.to_packed(), width, units) == \
        weight_distribution_oracle(B.to_packed(), width)


def test_weight_distribution_rejects_a_non_systematic_basis():
    B = BitMatrix(2, 5, [0b00011, 0b00110])  # column 1 is shared
    with pytest.raises(ValueError, match="identity"):
        weight_distribution(B.to_packed(), 5, (0, 1))
    with pytest.raises(ValueError, match="identity"):
        weight_distribution(B.to_packed(), 5, (0,))
    assert weight_distribution(B.to_packed(), 5, (0, 2)) == [1, 0, 3, 0, 0, 0]


def systematic_basis(rng, k, nbits, holds_ones):
    """(packed rows, pivot columns) of a random k-dimensional span of
    nbits-bit vectors, fully reduced, which holds the all-ones word or not."""
    ones = (1 << nbits) - 1
    while True:
        vecs = [int.from_bytes(rng.bytes(nbits // 8 + 1), "little") & ones for _ in range(k)]
        if holds_ones:
            vecs[0] = ones
        prof = rank(BitMatrix(k, nbits, vecs))
        with_ones = rank_value(BitMatrix(k + 1, nbits, vecs + [ones]))
        if prof.rank == k and holds_ones == (with_ones == k):
            return prof.rref.to_packed(), prof.pivot_columns


@pytest.mark.parametrize("holds_ones", [True, False], ids=["ones", "no-ones"])
@pytest.mark.parametrize("k,nbits", [
    *[(k, n) for k in (1, 2, 16, 17, 18) for n in (k + 63, k + 64, k + 65)],
    *[(k, n) for k in (1, 2, 17) for n in (255, 256, 300)],
    *[(k, n) for k in (1, 3) for n in (65_535, 65_537)],
])
def test_weight_distribution_with_and_without_the_all_ones_word(k, nbits, holds_ones):
    """A span that holds the all-ones word is enumerated as half the span and
    its complement (from k = 2; at k = 1 both vectors are walked).  The
    n - k stored columns (the half's dropped unit column is always zero and
    is not stored) lie around a word boundary at n = k + 63..65;
    n = 255/256/300 switch the weights from uint8 pairs to uint16 keys, and
    n = 65 537 to uint32 weights binned as is."""
    rng = np.random.default_rng(7 * k + nbits + holds_ones)
    basis, units = systematic_basis(rng, k, nbits, holds_ones)
    assert weight_distribution(basis, nbits, units) == weight_distribution_oracle(basis, nbits)


def test_weight_distribution_of_the_zero_span():
    for nbits in (0, 1, 64, 300):
        empty = np.zeros((0, -(-nbits // 64)), dtype=np.uint64)
        assert weight_distribution(empty, nbits, ()) == [1] + [0] * nbits


@pytest.mark.parametrize("holds_ones,steps", [(True, 2), (False, 4)])
def test_weight_distribution_enumerates_half_a_span_holding_the_all_ones_word(
        monkeypatch, holds_ones, steps):
    """k = 18: the full span is 4 outer steps of the 2^16 inner block, one
    ``bincount`` each; with the all-ones word in it only half is walked."""
    calls = []
    real = np.bincount
    monkeypatch.setattr(np, "bincount", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    basis, units = systematic_basis(np.random.default_rng(3), 18, 40, holds_ones)
    counts = weight_distribution(basis, 40, units)
    assert len(calls) == steps
    assert sum(counts) == 1 << 18
    assert (counts == counts[::-1]) == holds_ones


def test_macwilliams_roundtrip():
    rng = np.random.default_rng(23)
    for _ in range(10):
        m = random_matrix(rng, 5, 12, density=0.4)
        prof = rank(m)
        if prof.rank == 0 or prof.rank == 12:
            continue
        dual_counts = weight_distribution(prof.rref.to_packed(), 12, prof.pivot_columns)
        d = macwilliams_min_distance(dual_counts, 12, prof.rank)
        assert d == brute_min_distance(m)


def test_min_distance_trivial_code():
    res = min_distance(identity(5))
    assert res.d == 0 and res.witness is None


def test_empty_matrix_rank():
    assert rank(BitMatrix(0, 0, [])).rank == 0
    assert rank(BitMatrix(3, 5, [0] * 3)).rank == 0


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
    b_rows = B.row_bits()
    for r in A.row_bits():
        acc = 0
        for j in range(A.cols):
            if r >> j & 1:
                acc ^= b_rows[j]
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

    for cols in (0, 1, 63, 64, 65, 127, 128, 129, 4097):
        for rows in (0, 1, 7, 70, 130):
            for density in (0.5, 0.03):
                bits = [rand(cols, density) for _ in range(rows)]
                yield f"random-{rows}x{cols}-{density}", BitMatrix(rows, cols, bits)
        yield f"zero-9x{cols}", BitMatrix(9, cols, [0] * 9)
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


def transpose_oracle(M):
    return tuple(sum((r >> j & 1) << i for i, r in enumerate(M.row_bits())) for j in range(M.cols))


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
    # one stored layout: dense bits, packed copies and the transpose agree
    # with the int rows the matrix was built from
    rows = M.row_bits()
    dense = M.to_dense()
    assert dense.shape == (M.rows, M.cols)
    assert [sum(int(b) << j for j, b in enumerate(r)) for r in dense] == list(rows)
    for other in (BitMatrix.from_dense(dense), BitMatrix.from_packed(M.to_packed(), M.cols)):
        assert other == M and hash(other) == hash(M) and other.row_bits() == rows
    T = M.transpose()
    assert (T.rows, T.cols, T.row_bits()) == (M.cols, M.rows, transpose_oracle(M))
    assert T.transpose() is M


def test_transpose_matches_oracle_in_every_block_size(monkeypatch):
    rng = np.random.default_rng(37)
    M = random_matrix(rng, 200, 129, density=0.3)
    expect = transpose_oracle(M)
    for chunk in (1, 128 * 129, 1 << 20):  # blocks of 64, 128 and 200 rows
        monkeypatch.setattr(gf2, "PRODUCT_CHUNK_WORDS", chunk)
        assert BitMatrix(M.rows, M.cols, M.row_bits()).transpose().row_bits() == expect


def test_stored_words_are_read_only():
    """Writing into the stored words fails, so a cached rank cannot go stale."""
    M = BitMatrix(3, 70, [1, 1 << 69, 5])
    assert rank_value(M) == 3
    with pytest.raises(ValueError):
        M.to_packed()[0, 0] = 0
    with pytest.raises(ValueError):
        M.to_packed()[:] ^= M.to_packed()
    assert M.row_bits() == (1, 1 << 69, 5) and rank_value(M) == 3


def test_from_packed_copies_and_clears_the_tail():
    words = np.array([[0xFFFF_FFFF_FFFF_FFFF, 0xFF]], dtype=np.uint64)
    M = BitMatrix.from_packed(words, 66)
    words[0, 0] = 0
    assert M.row_bits() == ((1 << 66) - 1,)
    with pytest.raises(ValueError):
        BitMatrix.from_packed(words, 64)  # two words hold more than 64 columns


def test_from_supports_matches_int_rows():
    """Rows of one length, a row's columns in any order, words crossed."""
    supports = np.array([(0, 2, 5), (1, 63, 64), (69, 0, 3), (65, 64, 69)])
    rows = [sum(1 << j for j in s) for s in supports.tolist()]
    assert BitMatrix.from_supports(supports, 70) == BitMatrix(4, 70, rows)
    assert BitMatrix.from_supports(np.empty((3, 0), int), 70) == BitMatrix(3, 70, [0, 0, 0])
    for bad in ([(70,)], [(-1,)], [(0, 1), (2,)], [0, 1]):
        with pytest.raises(ValueError):
            BitMatrix.from_supports(bad, 70)


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


@st.composite
def small_matrices(draw):
    """Up to 40 rows of up to 150 columns, each row random or drawn from a
    pool of a few, so that both full and low Gram ranks occur."""
    rows, cols = draw(st.integers(0, 40)), draw(st.integers(0, 150))
    row = st.integers(0, (1 << cols) - 1)
    pool = draw(st.lists(row, min_size=1, max_size=5))
    return BitMatrix(rows, cols, draw(st.lists(st.one_of(row, st.sampled_from(pool)),
                                                min_size=rows, max_size=rows)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_matrices())
def test_streamed_gram_rank_equals_the_rank_of_the_product(M):
    """gram_rank forms M @ M.T in chunks of 1, 2, 7 or 512 rows, and the
    eliminator XORs into blocks of one word, a few rows or whole matrices;
    every split gives rank(M @ M.T), and rank_value and rank agree with the
    int oracles under each block size."""
    expect = rank_only_oracle(multiply_oracle(M, M.transpose()))
    rk, pivots, rref = rank_oracle(M)
    for block in (1, 3, 1 << 15):
        with mock.patch.object(gf2, "ECHELON_BLOCK_WORDS", block):
            fresh = BitMatrix(M.rows, M.cols, M.row_bits())
            assert rank_value(fresh) == rk
            prof = rank(BitMatrix(M.rows, M.cols, M.row_bits()))
            assert (prof.rank, prof.pivot_columns, prof.rref.row_bits()) == (rk, pivots, rref)
            for chunk in (1, 2, 7, 512):
                with mock.patch.object(gf2, "GRAM_CHUNK_ROWS", chunk):
                    assert gram_rank(BitMatrix(M.rows, M.cols, M.row_bits())) == expect
