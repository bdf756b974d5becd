"""Sum-product decoder: graph construction, convergence semantics, agreement
with exhaustive maximum-likelihood syndrome decoding, batch/scalar parity."""

import hashlib
import math

import numpy as np
import pytest

from eaqldpc.decoder import (
    BatchDecoder,
    DecodeOutcome,
    build_tanner,
    sp_decode,
)
from eaqldpc.eaqecc import BLOCK_BY_POINT, POINT_BY_BLOCK, oriented_matrix
from eaqldpc.gf2 import BitMatrix


def test_build_tanner_fano(fano):
    H = oriented_matrix(fano.structure, POINT_BY_BLOCK)
    g = build_tanner(H)
    assert (g.n_bits, g.n_checks, g.n_edges) == (7, 7, 21)


def test_build_tanner_pg32(cache):
    H = oriented_matrix(cache.geometry("PG", 3, 2).structure, POINT_BY_BLOCK)
    g = build_tanner(H)
    assert (g.n_bits, g.n_checks, g.n_edges) == (35, 15, 105)
    assert all(len(cb) == 7 for cb in g.check_bits)  # r = 7 per point-check


def test_build_tanner_eg28(cache):
    H = oriented_matrix(cache.geometry("EG", 2, 8).structure, BLOCK_BY_POINT)
    g = build_tanner(H)
    assert (g.n_bits, g.n_checks) == (63, 63)
    assert all(len(cb) == 8 for cb in g.check_bits)  # each line has q points


def test_zero_syndrome_fixed_point(fano):
    H = oriented_matrix(fano.structure, POINT_BY_BLOCK)
    g = build_tanner(H)
    out = sp_decode(g, 0, prior=0.01)
    assert out.converged and out.iterations_used == 0 and out.error_estimate == 0


def test_invalid_prior(fano):
    g = build_tanner(oriented_matrix(fano.structure, POINT_BY_BLOCK))
    for bad in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            sp_decode(g, 1, prior=bad)


def ml_syndrome_table(H: BitMatrix):
    """Exhaustive ML syndrome decoder: syndrome -> (min weight, argmin set)."""
    table: dict[int, tuple[int, list[int]]] = {}
    for e in range(1 << H.cols):
        s = H.mul_vector(e)
        w = e.bit_count()
        if s not in table or w < table[s][0]:
            table[s] = (w, [e])
        elif w == table[s][0]:
            table[s][1].append(e)
    return table


def test_sp_matches_ml_on_fano(fano):
    """Criterion: sum-product equals exhaustive ML on the 7-bit code over all
    2^7 error patterns at prior 0.01, wherever the ML minimizer is unique."""
    H = oriented_matrix(fano.structure, POINT_BY_BLOCK)
    g = build_tanner(H)
    table = ml_syndrome_table(H)
    disagreements = 0
    ambiguous = 0
    for s, (w, argmins) in table.items():
        out = sp_decode(g, s, prior=0.01)
        assert out.converged, f"non-convergence on syndrome {s:07b}"
        assert H.mul_vector(out.error_estimate) == s
        if len(argmins) == 1:
            if out.error_estimate != argmins[0]:
                disagreements += 1
        else:
            ambiguous += 1
    assert disagreements == 0
    # the Fano symmetry leaves some syndromes with tied minimizers
    assert ambiguous >= 0


def test_weight1_errors_recovered_pg32(cache):
    H = oriented_matrix(cache.geometry("PG", 3, 2).structure, POINT_BY_BLOCK)
    g = build_tanner(H)
    for j in range(H.cols):
        e = 1 << j
        out = sp_decode(g, H.mul_vector(e), prior=0.01)
        assert out.converged and out.error_estimate == e


def test_determinism(fano):
    H = oriented_matrix(fano.structure, POINT_BY_BLOCK)
    g = build_tanner(H)
    a = sp_decode(g, 5, prior=0.05)
    b = sp_decode(g, 5, prior=0.05)
    assert a == b


def test_single_check_exact_marginalization():
    """A lone check is a cycle-free instance: after one iteration the hard
    decisions equal the sign of the exact bitwise posterior."""
    # degree-1 check, syndrome 1: posterior forces the flip; converges at once
    H1 = BitMatrix(1, 1, [0b1])
    out = sp_decode(build_tanner(H1), 1, prior=0.2)
    assert out.converged and out.iterations_used == 1 and out.error_estimate == 1

    # degree-3 check, syndrome 1: exact marginal of each bit is
    # ((1-p)^2 + p^2) / (3(1-p)^2 + p^2) < 1/2, so bitwise MAP is all-zero,
    # which cannot satisfy the check: sum-product honestly fails to converge
    # while holding the exact-marginal decision.
    p = 0.2
    marg = ((1 - p) ** 2 + p**2) / (3 * (1 - p) ** 2 + p**2)
    assert marg < 0.5
    H3 = BitMatrix(1, 3, [0b111])
    out3 = sp_decode(build_tanner(H3), 1, prior=p, max_iter=5)
    assert not out3.converged
    assert out3.error_estimate == 0  # matches the exact bitwise MAP
    assert out3.residual_syndrome == 1
    # and the one-iteration message value agrees with the closed form
    L0 = math.log((1 - p) / p)
    extrinsic = 2 * math.atanh(-math.tanh(L0 / 2) ** 2)
    posterior = L0 + extrinsic
    exact_llr = math.log((1 - marg) / marg)
    assert posterior == pytest.approx(exact_llr, rel=1e-9)


def test_convergence_implies_syndrome_match(cache):
    rng = np.random.default_rng(42)
    H = oriented_matrix(cache.geometry("AG", 2, 4).structure, POINT_BY_BLOCK)
    g = build_tanner(H)
    for _ in range(50):
        e = int(rng.integers(0, 1 << H.cols))
        e &= e >> 1  # thin it out
        s = H.mul_vector(e)
        out = sp_decode(g, s, prior=0.04, max_iter=30)
        if out.converged:
            assert H.mul_vector(out.error_estimate) == s
            assert out.residual_syndrome == 0
        else:
            assert out.residual_syndrome != 0


def test_batch_agrees_with_scalar(cache):
    H = oriented_matrix(cache.geometry("AG", 2, 3).structure, POINT_BY_BLOCK)
    g = build_tanner(H)
    dec = BatchDecoder(g, max_iter=40)
    rng = np.random.default_rng(7)
    errors = rng.random((32, H.cols)) < 0.08
    syn = np.zeros((32, H.rows), dtype=np.uint8)
    for t in range(32):
        e = sum(1 << j for j in np.nonzero(errors[t])[0])
        s = H.mul_vector(int(e))
        syn[t] = [(s >> i) & 1 for i in range(H.rows)]
    est, conv, iters = dec.decode(syn, prior=0.16)
    for t in range(32):
        s_int = sum(1 << i for i in range(H.rows) if syn[t, i])
        out = sp_decode(g, s_int, prior=0.16, max_iter=40)
        assert conv[t] == out.converged
        if out.converged:
            est_int = sum(1 << j for j in np.nonzero(est[t])[0])
            assert est_int == out.error_estimate
            assert iters[t] == out.iterations_used


def test_batch_composition_independence(cache):
    """Retiring converged rows must not change any other trial's outcome."""
    H = oriented_matrix(cache.geometry("AG", 2, 4).structure, POINT_BY_BLOCK)
    dec = BatchDecoder(build_tanner(H), max_iter=50)
    rng = np.random.default_rng(11)
    errors = rng.random((64, H.cols)) < 0.1
    syn = dec.parity(errors)
    est_all, conv_all, _ = dec.decode(syn, prior=0.12)
    for t in range(0, 64, 17):
        est_one, conv_one, _ = dec.decode(syn[t : t + 1], prior=0.12)
        assert conv_one[0] == conv_all[t]
        assert np.array_equal(est_one[0], est_all[t])


def test_messages_stay_finite(cache):
    H = oriented_matrix(cache.geometry("AG", 2, 4).structure, POINT_BY_BLOCK)
    dec = BatchDecoder(build_tanner(H), max_iter=200)
    syn = np.ones((4, H.rows), dtype=np.uint8)  # adversarial syndrome
    est, conv, _ = dec.decode(syn, prior=0.01)
    assert est.shape == (4, H.cols)  # no exception, no NaN propagation


def _irregular_H() -> BitMatrix:
    """40 x 60 parity checks with row weights 3..6 and column weights 0..8,
    so the batch layout has padded check slots and padded bit slots."""
    rng = np.random.default_rng(2024)
    dense = np.zeros((40, 60), dtype=np.uint8)
    for i in range(40):
        dense[i, rng.choice(60, size=3 + i % 4, replace=False)] = 1
    return BitMatrix.from_dense(dense)


def _syndrome_batch(H: BitMatrix, f_m: float, trials: int, seed: int):
    """Fixed-seed depolarizing X components and their syndromes, computed
    densely so the batch does not depend on the decoder's own parity code."""
    p = f_m / 3.0
    errors = np.random.default_rng(seed).random((trials, H.cols)) < 2.0 * p
    syn = (errors.astype(np.int64) @ H.to_dense().T.astype(np.int64)) & 1
    return errors, syn.astype(np.uint8), 2.0 * p


def _decode_digest(dec: BatchDecoder, syn: np.ndarray, prior: float) -> str:
    est, conv, iters = dec.decode(syn, prior)
    return hashlib.sha256(est.tobytes() + conv.tobytes() + iters.tobytes()).hexdigest()


# SHA-256 of est, conv and iters bytes, recorded on the decoder before the
# table-driven first iteration; a decoder change must reproduce them exactly.
GOLDEN_DECODES = {
    ("AG(2,16)/I", 0.02): "3f4c16a29dcdc127d5941e5844831bd9003a38d055e6afcf4ba27bc0d9aaf8a2",
    ("AG(2,16)/I", 0.045): "e65b57f6f15fe404cef9c3ce29ebe21e73627fec19a6640bd1eaf15221e271cf",
    ("PG(2,16)/I", 0.02): "f330c5e1326c530e3b0e26bbacff4f6aa648852ce4edcb4208ee9aef787ec93e",
    ("PG(2,16)/I", 0.045): "eeaecb52ee70fa37542a3e24c43e0c7d7a2a09eaf717beac9b171a2b012cf29a",
    ("EG(2,16)/I", 0.02): "4f317b71da52daa822ee0d8b6cccfe5ad5192713ef7a5f228a962497c52a606f",
    ("EG(2,16)/I", 0.045): "a50edac8948e62f8cd9dc98a304754b6dd89cb07db321cccfa2b5b7fa47be157",
    ("irregular 40x60", 0.15): "c41a7d853e0959c41cf29568d73a14785323732a249e1ef4eadc91eb159347e2",
}


@pytest.mark.parametrize("kind", ["AG", "PG", "EG"])
@pytest.mark.parametrize("f_m", [0.02, 0.045])
def test_golden_decode_hashes(cache, kind, f_m):
    H = oriented_matrix(cache.geometry(kind, 2, 16).structure, BLOCK_BY_POINT)
    _, syn, prior = _syndrome_batch(H, f_m, 256, seed=31)
    digest = _decode_digest(BatchDecoder(build_tanner(H)), syn, prior)
    assert digest == GOLDEN_DECODES[(f"{kind}(2,16)/I", f_m)]


def test_golden_decode_hash_irregular():
    H = _irregular_H()
    _, syn, prior = _syndrome_batch(H, 0.15, 256, seed=5)
    digest = _decode_digest(BatchDecoder(build_tanner(H)), syn, prior)
    assert digest == GOLDEN_DECODES[("irregular 40x60", 0.15)]


def test_padded_batch_agrees_with_scalar():
    """Unequal row and column weights exercise the masked slots: the batch
    engine matches the scalar reference on convergence, iteration count and
    estimate, including trials that need two or more iterations."""
    H = _irregular_H()
    g = build_tanner(H)
    dec = BatchDecoder(g, max_iter=30)
    assert dec.padded
    _, syn, prior = _syndrome_batch(H, 0.15, 48, seed=5)
    est, conv, iters = dec.decode(syn, prior)
    assert (iters >= 2).sum() >= 10 and not conv.all()
    for t in range(syn.shape[0]):
        out = sp_decode(g, [int(v) for v in syn[t]], prior=prior, max_iter=30)
        assert (bool(conv[t]), int(iters[t])) == (out.converged, out.iterations_used)
        assert est[t].tolist() == [bool(b) for b in out.estimate_bits(H.cols)]


def test_one_iteration_decoder_is_first_iteration():
    """A max_iter=1 decoder reproduces iteration 1 of a full decode: the same
    trials converge at iteration 1 with the same estimates, and the rest hold
    the iteration-1 hard decision of the scalar reference."""
    H = _irregular_H()
    g = build_tanner(H)
    _, syn, prior = _syndrome_batch(H, 0.15, 48, seed=5)
    est, conv, iters = BatchDecoder(g).decode(syn, prior)
    est1, conv1, iters1 = BatchDecoder(g, max_iter=1).decode(syn, prior)
    first = conv & (iters <= 1)
    assert np.array_equal(conv1, first)
    assert np.array_equal(est1[first], est[first])
    assert np.array_equal(iters1[first], iters[first])
    assert (iters1[~first] == 1).all()
    for t in np.nonzero(~first)[0]:
        out = sp_decode(g, [int(v) for v in syn[t]], prior=prior, max_iter=1)
        assert est1[t].tolist() == [bool(b) for b in out.estimate_bits(H.cols)]


def test_parity_matches_dense_product(cache):
    for H in (_irregular_H(),
              oriented_matrix(cache.geometry("PG", 3, 2).structure, POINT_BY_BLOCK)):
        errors, syn, _ = _syndrome_batch(H, 0.2, 32, seed=3)
        par = BatchDecoder(build_tanner(H)).parity(errors)
        assert par.dtype == np.uint8 and np.array_equal(par, syn)
