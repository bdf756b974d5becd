"""Sum-product decoder: its layout built from H, convergence semantics,
agreement with exhaustive maximum-likelihood syndrome decoding, batch/scalar
parity."""

import hashlib
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import eaqldpc
from eaqldpc import decoder
from eaqldpc.decoder import (
    DEFAULT_MAX_ITER,
    LLR_CLAMP,
    BatchDecoder,
    _prior_llr,
)
from eaqldpc.eaqecc import BLOCK_BY_POINT, POINT_BY_BLOCK, oriented_matrix
from eaqldpc.gf2 import BitMatrix
from eaqldpc.simulator import CodeInstance, draw_errors


def mul_vector(H: BitMatrix, x: int) -> int:
    """Syndrome H @ x of a column bit vector x, one parity per row (oracle)."""
    return sum(((r & x).bit_count() & 1) << i for i, r in enumerate(H.row_bits()))


# --- the scalar sum-product decoder, kept as BatchDecoder's oracle -----------

@dataclass(frozen=True)
class DecodeOutcome:
    converged: bool
    iterations_used: int
    error_estimate: int  # bit mask, bit j = estimated flip on bit j
    residual_syndrome: int  # bit mask over checks; zero iff converged


def sp_decode(
    H: BitMatrix,
    syndrome,
    prior: float,
    max_iter: int = DEFAULT_MAX_ITER,
    clamp: float = LLR_CLAMP,
) -> DecodeOutcome:
    """Log-domain sum-product syndrome decoding on the Tanner graph of H
    (scalar reference): check i meets the bits of row i's support.

    ``syndrome`` is an int bitmask over checks or a 0/1 sequence of length
    n_checks.  Check-to-bit messages use the tanh product rule with the
    check's syndrome bit as sign; convergence means H @ estimate = syndrome.

    It agrees bit for bit with ``BatchDecoder`` only away from ties: it sums
    a bit's messages in another order, so where an iteration-1 total lies
    within rounding of 0 (on AG(2,4) Type I at prior 0.19098300562505255 the
    batch sum is -2.2e-16) the two can converge at different iterations.
    """
    check_bits, bit_checks = H.supports(), H.transpose().supports()
    if not isinstance(syndrome, int):
        seq = list(syndrome)
        if len(seq) != H.rows:
            raise ValueError("syndrome length != number of checks")
        syndrome = sum(1 << i for i, v in enumerate(seq) if int(v) & 1)
    L0 = _prior_llr(prior)
    m_bc = {
        (i, j): L0 for i, cb in enumerate(check_bits) for j in cb
    }
    m_cb = {edge: 0.0 for edge in m_bc}
    estimate = 0

    def hard_syndrome(est: int) -> int:
        s = 0
        for i, cb in enumerate(check_bits):
            par = 0
            for j in cb:
                par ^= (est >> j) & 1
            s |= par << i
        return s

    if syndrome == 0:
        return DecodeOutcome(True, 0, 0, 0)
    for it in range(1, max_iter + 1):
        for i, cb in enumerate(check_bits):  # checks in index order
            sign = -1.0 if (syndrome >> i) & 1 else 1.0
            ts = [math.tanh(0.5 * m_bc[(i, j)]) for j in cb]
            for a, j in enumerate(cb):
                prod = sign
                for b, t in enumerate(ts):
                    if b != a:
                        prod *= t
                prod = min(max(prod, -0.999999999999), 0.999999999999)
                val = 2.0 * math.atanh(prod)
                m_cb[(i, j)] = min(max(val, -clamp), clamp)
        totals = [L0] * H.cols
        for (i, j), val in m_cb.items():
            totals[j] += val
        for j, checks in enumerate(bit_checks):  # bits in index order
            for i in checks:
                m_bc[(i, j)] = totals[j] - m_cb[(i, j)]
        estimate = sum(1 << j for j in range(H.cols) if totals[j] < 0.0)
        res = hard_syndrome(estimate) ^ syndrome
        if res == 0:
            return DecodeOutcome(True, it, estimate, 0)
    return DecodeOutcome(False, max_iter, estimate, hard_syndrome(estimate) ^ syndrome)


def test_decoder_layout_fano(fano):
    dec = BatchDecoder(oriented_matrix(fano.structure, POINT_BY_BLOCK))
    assert (dec.n, dec.m, dec.check_mask.sum()) == (7, 7, 21)
    assert (dec.check_mask.sum(axis=0) == 3).all() and (dec.bit_mask.sum(axis=1) == 3).all()


def test_decoder_layout_pg32(cache):
    dec = BatchDecoder(oriented_matrix(cache.geometry("PG", 3, 2).structure, POINT_BY_BLOCK))
    assert (dec.n, dec.m, dec.check_mask.sum()) == (35, 15, 105)
    assert (dec.check_mask.sum(axis=0) == 7).all()  # r = 7 per point-check
    assert (dec.bit_mask.sum(axis=1) == 3).all()  # each line-bit has 3 points


def test_decoder_layout_eg28(cache):
    dec = BatchDecoder(oriented_matrix(cache.geometry("EG", 2, 8).structure, BLOCK_BY_POINT))
    assert (dec.n, dec.m) == (63, 63)
    assert (dec.check_mask.sum(axis=0) == 8).all()  # each line has q points
    assert (dec.bit_mask.sum(axis=1) == 8).all()  # each point is on q lines


def test_zero_syndrome_fixed_point(fano):
    H = oriented_matrix(fano.structure, POINT_BY_BLOCK)
    out = sp_decode(H, 0, prior=0.01)
    assert out.converged and out.iterations_used == 0 and out.error_estimate == 0


def test_invalid_prior(fano):
    H = oriented_matrix(fano.structure, POINT_BY_BLOCK)
    for bad in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            sp_decode(H, 1, prior=bad)


def test_invalid_max_iter(fano):
    H = oriented_matrix(fano.structure, POINT_BY_BLOCK)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="max_iter"):
            BatchDecoder(H, max_iter=bad)


def ml_syndrome_table(H: BitMatrix):
    """Exhaustive ML syndrome decoder: syndrome -> (min weight, argmin set)."""
    table: dict[int, tuple[int, list[int]]] = {}
    for e in range(1 << H.cols):
        s = mul_vector(H, e)
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
    table = ml_syndrome_table(H)
    disagreements = 0
    ambiguous = 0
    for s, (w, argmins) in table.items():
        out = sp_decode(H, s, prior=0.01)
        assert out.converged, f"non-convergence on syndrome {s:07b}"
        assert mul_vector(H, out.error_estimate) == s
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
    for j in range(H.cols):
        e = 1 << j
        out = sp_decode(H, mul_vector(H, e), prior=0.01)
        assert out.converged and out.error_estimate == e


def test_determinism(fano):
    H = oriented_matrix(fano.structure, POINT_BY_BLOCK)
    a = sp_decode(H, 5, prior=0.05)
    b = sp_decode(H, 5, prior=0.05)
    assert a == b


def test_single_check_exact_marginalization():
    """A lone check is a cycle-free instance: after one iteration the hard
    decisions equal the sign of the exact bitwise posterior."""
    # degree-1 check, syndrome 1: posterior forces the flip; converges at once
    H1 = BitMatrix(1, 1, [0b1])
    out = sp_decode(H1, 1, prior=0.2)
    assert out.converged and out.iterations_used == 1 and out.error_estimate == 1

    # degree-3 check, syndrome 1: exact marginal of each bit is
    # ((1-p)^2 + p^2) / (3(1-p)^2 + p^2) < 1/2, so bitwise MAP is all-zero,
    # which cannot satisfy the check: sum-product honestly fails to converge
    # while holding the exact-marginal decision.
    p = 0.2
    marg = ((1 - p) ** 2 + p**2) / (3 * (1 - p) ** 2 + p**2)
    assert marg < 0.5
    H3 = BitMatrix(1, 3, [0b111])
    out3 = sp_decode(H3, 1, prior=p, max_iter=5)
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
    for _ in range(50):
        e = int(rng.integers(0, 1 << H.cols))
        e &= e >> 1  # thin it out
        s = mul_vector(H, e)
        out = sp_decode(H, s, prior=0.04, max_iter=30)
        if out.converged:
            assert mul_vector(H, out.error_estimate) == s
            assert out.residual_syndrome == 0
        else:
            assert out.residual_syndrome != 0


def test_batch_agrees_with_scalar(cache):
    H = oriented_matrix(cache.geometry("AG", 2, 3).structure, POINT_BY_BLOCK)
    dec = BatchDecoder(H, max_iter=40)
    rng = np.random.default_rng(7)
    errors = rng.random((32, H.cols)) < 0.08
    syn = np.zeros((32, H.rows), dtype=np.uint8)
    for t in range(32):
        e = sum(1 << j for j in np.nonzero(errors[t])[0])
        s = mul_vector(H, int(e))
        syn[t] = [(s >> i) & 1 for i in range(H.rows)]
    est, conv, iters = dec.decode(syn, prior=0.16)
    for t in range(32):
        s_int = sum(1 << i for i in range(H.rows) if syn[t, i])
        out = sp_decode(H, s_int, prior=0.16, max_iter=40)
        assert conv[t] == out.converged
        if out.converged:
            est_int = sum(1 << j for j in np.nonzero(est[t])[0])
            assert est_int == out.error_estimate
            assert iters[t] == out.iterations_used


def test_batch_composition_independence(cache):
    """Retiring converged rows must not change any other trial's outcome."""
    H = oriented_matrix(cache.geometry("AG", 2, 4).structure, POINT_BY_BLOCK)
    dec = BatchDecoder(H, max_iter=50)
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
    dec = BatchDecoder(H, max_iter=200)
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
# table-driven first iteration (the max_iter=1 entries: before the count
# test); a decoder change must reproduce them exactly.
GOLDEN_DECODES = {
    ("AG(2,16)/I", 0.02): "3f4c16a29dcdc127d5941e5844831bd9003a38d055e6afcf4ba27bc0d9aaf8a2",
    ("AG(2,16)/I", 0.045): "e65b57f6f15fe404cef9c3ce29ebe21e73627fec19a6640bd1eaf15221e271cf",
    ("PG(2,16)/I", 0.02): "f330c5e1326c530e3b0e26bbacff4f6aa648852ce4edcb4208ee9aef787ec93e",
    ("PG(2,16)/I", 0.045): "eeaecb52ee70fa37542a3e24c43e0c7d7a2a09eaf717beac9b171a2b012cf29a",
    ("EG(2,16)/I", 0.02): "4f317b71da52daa822ee0d8b6cccfe5ad5192713ef7a5f228a962497c52a606f",
    ("EG(2,16)/I", 0.045): "a50edac8948e62f8cd9dc98a304754b6dd89cb07db321cccfa2b5b7fa47be157",
    ("irregular 40x60", 0.15): "c41a7d853e0959c41cf29568d73a14785323732a249e1ef4eadc91eb159347e2",
    ("AG(2,16)/I", 0.02, 1): "88900a1f52d3c8528e3805b4751365664abe5bf5dced3c8bb353ff359c672c71",
    ("AG(2,16)/I", 0.045, 1): "487a71825d2d42d723dedc8b4c7986788d8e5a0e6f2f9e0e2aabc71c99df2405",
    ("PG(2,16)/I", 0.02, 1): "07db0ec25d98470b69d6d7a08664c783e371e702118cf90785b2d2b12193f158",
    ("PG(2,16)/I", 0.045, 1): "daa56355c76faecc2b95bd12c1fb475366202937aa530ec3543c72fdd0249a79",
    ("EG(2,16)/I", 0.02, 1): "17e51f4bd52d85eea23abdc903cb25df96d5f8159983913b444e30ec5fb7a7ef",
    ("EG(2,16)/I", 0.045, 1): "213958584ac4712bc3d241dee4f4beb584a05ff1774271a05fb5d7aec910e2aa",
    ("irregular 40x60", 0.15, 1): "7fa0162e4ca80e17461b1581d36ff3f90c63cc294b11b3952375e36cb030fe6e",
}


@pytest.mark.parametrize("kind", ["AG", "PG", "EG"])
@pytest.mark.parametrize("f_m", [0.02, 0.045])
def test_golden_decode_hashes(cache, kind, f_m):
    H = oriented_matrix(cache.geometry(kind, 2, 16).structure, BLOCK_BY_POINT)
    _, syn, prior = _syndrome_batch(H, f_m, 256, seed=31)
    digest = _decode_digest(BatchDecoder(H), syn, prior)
    assert digest == GOLDEN_DECODES[(f"{kind}(2,16)/I", f_m)]


@pytest.mark.parametrize("kind", ["AG", "PG", "EG"])
@pytest.mark.parametrize("f_m", [0.02, 0.045])
def test_golden_one_iteration_hashes(cache, kind, f_m):
    """The max_iter=1 decoder: iteration 1 alone, count test included."""
    H = oriented_matrix(cache.geometry(kind, 2, 16).structure, BLOCK_BY_POINT)
    _, syn, prior = _syndrome_batch(H, f_m, 256, seed=31)
    digest = _decode_digest(BatchDecoder(H, max_iter=1), syn, prior)
    assert digest == GOLDEN_DECODES[(f"{kind}(2,16)/I", f_m, 1)]


def test_golden_decode_hash_irregular():
    H = _irregular_H()
    _, syn, prior = _syndrome_batch(H, 0.15, 256, seed=5)
    for key, dec in ((("irregular 40x60", 0.15), BatchDecoder(H)),
                     (("irregular 40x60", 0.15, 1), BatchDecoder(H, max_iter=1))):
        assert _decode_digest(dec, syn, prior) == GOLDEN_DECODES[key]


def _sweep_z_syndromes(H: BitMatrix, lo: int, hi: int):
    """Z components of trials [lo, hi) of criterion 6's first sweep point
    (seed 20260809, point 0, f_m = 0.02), with dense syndromes and the
    prior.  On PG(2,16)/I trial 16136's Z decode converges at iteration 67
    only when each bit adds its 17 slots in slot order."""
    p = 0.02 / 3.0
    _, z = draw_errors(20260809, 0, lo, hi, H.cols, p)
    syn = (z.astype(np.int64) @ H.to_dense().T.astype(np.int64)) & 1
    return z, syn.astype(np.uint8), 2.0 * p


def test_one_trial_decodes_alike_in_any_batch(cache):
    """Trial 16136 decodes the same alone, as 2, 3 and 8 copies of itself,
    and inside two 2048-trial windows (a 1-worker and a 2-worker batch of
    its sweep point)."""
    H = oriented_matrix(cache.geometry("PG", 2, 16).structure, BLOCK_BY_POINT)
    dec = BatchDecoder(H)
    assert dec.dv == 17
    z, one, prior = _sweep_z_syndromes(H, 16136, 16137)
    batches = [(np.repeat(one, copies, axis=0), list(range(copies))) for copies in (1, 2, 3, 8)]
    for lo, hi in ((14336, 16384), (15000, 17048)):
        batches.append((_sweep_z_syndromes(H, lo, hi)[1], [16136 - lo]))
    for syn, rows in batches:
        est, conv, iters = dec.decode(syn, prior)
        for t in rows:
            assert (bool(conv[t]), int(iters[t])) == (True, 67)
            assert np.array_equal(est[t], z[0])


def test_batch_decodes_as_its_slices(cache):
    """A batch decodes exactly as its slices of 1, 2, 7 and the remaining
    trials do, and as the scalar reference on a sample.  The first trial is
    trial 16136 of ``_sweep_z_syndromes``, so the one-trial slice is one
    whose outcome turns on the order of its bit sums; the rest are trials
    the count test does not retire, so every trial runs the float loop."""
    H = oriented_matrix(cache.geometry("PG", 2, 16).structure, BLOCK_BY_POINT)
    dec = BatchDecoder(H)
    _, first, prior = _sweep_z_syndromes(H, 16136, 16137)
    _, pool, _ = _syndrome_batch(H, 0.045, 1024, seed=8)  # decoded at trial 16136's prior
    pool = pool[pool.any(axis=1)]
    _, *thresholds = dec._iter1_state(math.log((1.0 - prior) / prior))
    retired, _ = dec._retire_by_counts(pool.astype(bool), *thresholds)
    syn = np.concatenate([first, pool[~retired][:63]])
    assert len(syn) == 64
    est, conv, iters = dec.decode(syn, prior)
    assert (iters >= 2).sum() > 32
    bounds = [0, 1, 3, 10, len(syn)]
    slices = [dec.decode(syn[lo:hi], prior) for lo, hi in zip(bounds, bounds[1:])]
    for got, parts in zip((est, conv, iters), zip(*slices)):
        assert np.array_equal(got, np.concatenate(parts))
    # sp_decode adds L0 first, so trial 16136 is left out of the sample
    sample = []
    for lo, hi in zip(bounds[1:], bounds[2:]):
        block = np.arange(lo, hi)
        done = block[conv[block]]
        sample += [done[0], done[np.argmax(iters[done])]] if done.size else []
    assert len(sample) >= 4
    for t in sample:
        out = sp_decode(H, [int(v) for v in syn[t]], prior=prior)
        assert (bool(conv[t]), int(iters[t])) == (out.converged, out.iterations_used)
        assert est[t].tolist() == [bool(out.error_estimate >> j & 1) for j in range(H.cols)]


def test_padded_batch_agrees_with_scalar():
    """Unequal row and column weights exercise the masked slots: the batch
    engine matches the scalar reference on convergence, iteration count and
    estimate, including trials that need two or more iterations."""
    H = _irregular_H()
    dec = BatchDecoder(H, max_iter=30)
    assert dec.padded
    _, syn, prior = _syndrome_batch(H, 0.15, 48, seed=5)
    est, conv, iters = dec.decode(syn, prior)
    assert (iters >= 2).sum() >= 10 and not conv.all()
    for t in range(syn.shape[0]):
        out = sp_decode(H, [int(v) for v in syn[t]], prior=prior, max_iter=30)
        assert (bool(conv[t]), int(iters[t])) == (out.converged, out.iterations_used)
        assert est[t].tolist() == [bool(out.error_estimate >> j & 1) for j in range(H.cols)]


def test_one_iteration_decoder_is_first_iteration():
    """A max_iter=1 decoder reproduces iteration 1 of a full decode: the same
    trials converge at iteration 1 with the same estimates, and the rest hold
    the iteration-1 hard decision of the scalar reference."""
    H = _irregular_H()
    _, syn, prior = _syndrome_batch(H, 0.15, 48, seed=5)
    est, conv, iters = BatchDecoder(H).decode(syn, prior)
    est1, conv1, iters1 = BatchDecoder(H, max_iter=1).decode(syn, prior)
    first = conv & (iters <= 1)
    assert np.array_equal(conv1, first)
    assert np.array_equal(est1[first], est[first])
    assert np.array_equal(iters1[first], iters[first])
    assert (iters1[~first] == 1).all()
    for t in np.nonzero(~first)[0]:
        out = sp_decode(H, [int(v) for v in syn[t]], prior=prior, max_iter=1)
        assert est1[t].tolist() == [bool(out.error_estimate >> j & 1) for j in range(H.cols)]


def test_parity_matches_dense_product(cache):
    for H in (_irregular_H(),
              oriented_matrix(cache.geometry("PG", 3, 2).structure, POINT_BY_BLOCK)):
        dec = BatchDecoder(H)
        for trials in (0, 1, 7, 32, 33):  # whole and partial packed bytes
            errors, syn, _ = _syndrome_batch(H, 0.2, trials, seed=3)
            par = dec.parity(errors)
            assert par.dtype == np.uint8 and par.shape == syn.shape
            assert np.array_equal(par, syn)


def test_trials_last_syndromes_decode_as_a_contiguous_copy(cache):
    """``parity``'s trials-last view of the syndromes and a C-contiguous
    (B, m) copy of it decode alike: on the mc-anchor code (AG(2,16) Type I)
    and the padded 40 x 60 graph, each with a depolarizing batch, an
    all-zero batch and a batch with one nonzero row.  Zero syndromes
    report iteration 0 and an all-zero estimate."""
    ag = oriented_matrix(cache.geometry("AG", 2, 16).structure, BLOCK_BY_POINT)
    for H, f_m, trials in ((ag, 0.02, 2048), (_irregular_H(), 0.15, 256)):
        dec = BatchDecoder(H)
        errors, _, prior = _syndrome_batch(H, f_m, trials, seed=31)
        one = np.zeros((9, H.cols), dtype=bool)
        one[4] = errors[errors.any(axis=1)][0]
        for err in (errors, np.zeros_like(errors), one):
            syn = dec.parity(np.ascontiguousarray(err.T).T)
            assert syn.T.flags.c_contiguous and not syn.flags.c_contiguous
            fast = dec.decode(syn, prior)
            general = dec.decode(np.ascontiguousarray(syn), prior)
            for a, b in zip(fast, general):
                assert a.shape == b.shape and np.array_equal(a, b)
            est, conv, iters = fast
            zero = ~syn.any(axis=1)
            assert conv[zero].all() and not iters[zero].any() and not est[zero].any()
        assert zero.sum() == 8 and iters[4] >= 1  # the one-row batch, decoded last


def _float_first_iteration(dec: BatchDecoder, syn: np.ndarray, prior: float):
    """Iteration 1 summed inline from the two message tables, as the float
    path does: (hard decisions (B, n), syndrome met (B,))."""
    L0 = math.log((1.0 - prior) / prior)
    _, t0, t1 = dec._iter1_tables(L0)
    hard = L0 + np.where(syn.astype(bool)[:, dec.bit_check], t1, t0).sum(axis=2) < 0.0
    return hard, (dec.parity(hard) == syn).all(axis=1)


def _count_test(dec: BatchDecoder, syn: np.ndarray, prior: float):
    """Certified thresholds, and the retired mask and the (n, B) hard
    decisions of the count test on the nonzero rows of ``syn``."""
    L0 = math.log((1.0 - prior) / prior)
    _, t0, t1 = dec._iter1_tables(L0)
    thresholds = dec._certified_counts(L0, t0, t1)
    return thresholds, dec._retire_by_counts(syn[syn.any(axis=1)].astype(bool), *thresholds)


def _assert_count_test_is_float_first_iteration(dec, syn, prior, all_certified):
    """The count test retires exactly the nonzero syndromes whose counts
    (taken here from a dense gather over real slots) are all certified and
    whose float iteration-1 decision meets them, with the float estimates;
    the max_iter=1 decoder returns the float hard decisions."""
    (zero_below, one_from), (retired, hard_r) = _count_test(dec, syn, prior)
    assert np.array_equal(zero_below, one_from) == all_certified
    k = (syn[:, dec.bit_check] * dec.bit_mask).sum(axis=2)  # (B, n)
    certified = ((k < zero_below.T) | (k >= one_from.T)).all(axis=1)
    hard, solved = _float_first_iteration(dec, syn, prior)
    nonzero = syn.any(axis=1)
    assert np.array_equal(retired, (solved & certified)[nonzero])
    assert hard_r.shape == (dec.n, nonzero.sum())
    assert np.array_equal(hard_r.T[retired], hard[nonzero][retired])
    # every certified trial's count decision is the float one, retired or not
    assert np.array_equal(hard_r.T[certified[nonzero]], hard[nonzero & certified])
    est, conv, iters = dec.decode(syn, prior)
    assert np.array_equal(conv, solved | ~nonzero)
    assert np.array_equal(est[nonzero], hard[nonzero]) and not est[~nonzero].any()
    assert np.array_equal(iters, nonzero.astype(np.int32))
    return retired


def test_count_test_matches_float_first_iteration_exhaustively(fano):
    """All 2^7 Fano syndromes over a grid of priors: every count is
    certified, the count test retires exactly the nonzero syndromes whose
    float iteration-1 decision meets them, with the same estimates, and the
    max_iter=1 decoder returns the float hard decisions."""
    dec = BatchDecoder(oriented_matrix(fano.structure, POINT_BY_BLOCK), max_iter=1)
    syn = ((np.arange(128)[:, None] >> np.arange(7)) & 1).astype(np.uint8)
    for prior in np.linspace(0.005, 0.495, 50):
        _assert_count_test_is_float_first_iteration(dec, syn, prior, all_certified=True)


def test_count_test_on_padded_graph():
    """Counts take real slots only: on the irregular graph, with isolated
    bits and padded slots, the count test agrees with the float iteration 1.
    Unequal check degrees give unequal slot values, so the interval leaves
    some counts uncertified there."""
    H = _irregular_H()
    dec = BatchDecoder(H, max_iter=1)
    assert dec.padded and (dec.bit_deg == 0).any()
    retired = 0
    for f_m in (0.05, 0.15, 0.3):
        _, syn, prior = _syndrome_batch(H, f_m, 300, seed=17)
        retired += _assert_count_test_is_float_first_iteration(
            dec, syn, prior, all_certified=False).sum()
    assert retired >= 100


def test_certified_counts_hold_for_every_choice_of_checks():
    """On the irregular graph, every certified (bit, k) cell is the hard
    decision of every choice of k set checks among the bit's real slots,
    each total summed in slot order as the float path sums it.  Taking the
    exact extremes (the k smallest and largest t1 - t0) leaves 10 cells
    uncertified at f_m = 0.05, where the interval from each table's minimum
    and maximum over all slots left 21."""
    dec = BatchDecoder(_irregular_H(), max_iter=1)
    for f_m in (0.05, 0.15, 0.3):
        L0 = math.log((1.0 - 2.0 * f_m / 3.0) / (2.0 * f_m / 3.0))
        _, t0, t1 = dec._iter1_tables(L0)
        zero_below, one_from = (a[:, 0].astype(int) for a in dec._certified_counts(L0, t0, t1))
        for j, d in enumerate(dec.bit_deg):
            chosen = (np.arange(2**d)[:, None] >> np.arange(d)) & 1 == 1  # (2^d, d)
            slots = np.where(chosen, t1[j, :d], t0[j, :d])
            sums = np.zeros(2**d)
            for s in range(d):
                sums += slots[:, s]
            hard, k = L0 + sums < 0.0, chosen.sum(axis=1)
            assert not hard[k < zero_below[j]].any() and hard[k >= one_from[j]].all()
        if f_m == 0.05:
            assert (one_from - zero_below).clip(0).sum() == 10


def test_uncertified_count_falls_back_to_float(cache):
    """At a prior where L0 + (d - 2k) t0 crosses 0 for k = 4 on AG(2,4)/I
    (d = 5), k = 4 is uncertified on both sides of the crossing, and
    trials hitting it still decode as the float path does."""
    H = oriented_matrix(cache.geometry("AG", 2, 4).structure, BLOCK_BY_POINT)
    dec = BatchDecoder(H, max_iter=1)
    d, k = dec.dv, 4
    assert not dec.padded and d == 5

    def centre(p):
        L0 = math.log((1.0 - p) / p)
        _, t0, t1 = dec._iter1_tables(L0)
        return L0 + (d - k) * t0[0, 0] + k * t1[0, 0]

    lo, hi = 0.01, 0.45  # centre(lo) < 0 < centre(hi)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if centre(mid) < 0.0 else (lo, mid)
    # weight-2 errors: the two bits share one line, so each sees k = 4
    pairs = [(a, b) for a in range(H.cols) for b in range(a + 1, H.cols)]
    errors = np.zeros((len(pairs), H.cols), dtype=bool)
    for t, pair in enumerate(pairs):
        errors[t, list(pair)] = True
    syn = dec.parity(errors)
    solved_at = {}
    for prior in (lo, hi):
        (zero_below, one_from), (retired, _) = _count_test(dec, syn, prior)
        assert (zero_below <= k).all() and (one_from > k).all()
        assert not retired.any()
        hard, solved_at[prior] = _float_first_iteration(dec, syn, prior)
        est1, conv1, _ = dec.decode(syn, prior)
        assert np.array_equal(est1, hard) and np.array_equal(conv1, solved_at[prior])
        est, conv, iters = BatchDecoder(H).decode(syn, prior)
        assert np.array_equal(conv & (iters == 1), solved_at[prior]) and conv.all()
    # the batch sum rounds the tie below 0 on the lower side, so those
    # trials solve at iteration 1, and above 0 on the upper side; the scalar
    # reference sums in another order and solves none at iteration 1 on
    # either side, so it is compared on the upper side
    assert solved_at[lo].all() and not solved_at[hi].any() and (iters == 2).all()
    assert sp_decode(H, [int(v) for v in syn[0]], prior=lo).iterations_used == 2
    for t in range(0, len(syn), 7):
        out = sp_decode(H, [int(v) for v in syn[t]], prior=hi)
        assert (bool(conv[t]), int(iters[t])) == (out.converged, out.iterations_used)
        assert est[t].tolist() == [bool(out.error_estimate >> j & 1) for j in range(H.cols)]


def test_count_test_retires_most_of_the_anchor(cache):
    """On AG(2,16)/I at f_m = 0.02 the count test alone retires at least
    90% of the nonzero syndromes (a count, not a timing)."""
    H = oriented_matrix(cache.geometry("AG", 2, 16).structure, BLOCK_BY_POINT)
    dec = BatchDecoder(H)
    _, syn, prior = _syndrome_batch(H, 0.02, 1024, seed=12)
    _, (retired, _) = _count_test(dec, syn, prior)
    assert retired.size > 900 and retired.mean() >= 0.9


# --- the slot-major float loop against what it replaced ----------------------

def _loop_built_layout(H: BitMatrix):
    """check_nbr, check_mask (dc, m), bit_edge, bit_mask and bit_check (n,
    dv) built edge by edge in Python from H's row and column supports: the
    reference for the numpy build."""
    check_bits, bit_checks = H.supports(), H.transpose().supports()
    m, n = H.rows, H.cols
    dc = max(len(cb) for cb in check_bits)
    check_nbr = np.zeros((dc, m), dtype=np.int64)
    check_mask = np.zeros((dc, m), dtype=bool)
    edges: list[list[int]] = [[] for _ in range(n)]
    for i, cb in enumerate(check_bits):
        for s, j in enumerate(cb):
            check_nbr[s, i] = j
            check_mask[s, i] = True
            edges[j].append(s * m + i)
    dv = max(len(es) for es in edges)
    bit_edge = np.zeros((n, dv), dtype=np.int64)
    bit_mask = np.zeros((n, dv), dtype=bool)
    bit_check = np.zeros((n, dv), dtype=np.int64)
    for j, es in enumerate(edges):
        bit_edge[j, : len(es)] = es
        bit_mask[j, : len(es)] = True
        bit_check[j, : len(es)] = bit_checks[j]
    return check_nbr, check_mask, bit_edge, bit_mask, bit_check


def test_vectorised_layout_matches_loop_built(cache):
    for H in (_irregular_H(),
              oriented_matrix(cache.geometry("AG", 2, 16).structure, BLOCK_BY_POINT)):
        dec = BatchDecoder(H)
        got = (dec.check_nbr, dec.check_mask, dec.bit_edge, dec.bit_mask, dec.bit_check)
        for a, b in zip(got, _loop_built_layout(H)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


# SHA-256 over the dtype, shape and bytes of check_nbr, check_mask, bit_edge
# and bit_mask, recorded when the decoder was still built from per-row
# support tuples; the build from H's dense nonzeros must reproduce them.
GOLDEN_LAYOUTS = {
    "AG(2,16)/I": "bade9f32b7916748e603da6bd295d042bae76bd39147b41274c1be250b2d37fe",
    "irregular 40x60": "fcb85035b9e4f5df9aaf5890baddd2f26b995edb3f38013fd511910fdf55503c",
}


def test_edge_layout_digests(cache):
    ag = oriented_matrix(cache.geometry("AG", 2, 16).structure, BLOCK_BY_POINT)
    for name, H in (("AG(2,16)/I", ag), ("irregular 40x60", _irregular_H())):
        dec = BatchDecoder(H)
        h = hashlib.sha256()
        for a in (dec.check_nbr, dec.check_mask, dec.bit_edge, dec.bit_mask):
            h.update(str((a.dtype.str, a.shape)).encode())
            h.update(a.tobytes())
        assert h.hexdigest() == GOLDEN_LAYOUTS[name]


def test_decoder_is_built_from_H(cache, monkeypatch):
    """The decoder keeps H as ``graph``, rejects a zero H, and neither it
    nor ``CodeInstance`` walks H's row supports in Python."""
    H = oriented_matrix(cache.geometry("AG", 2, 16).structure, BLOCK_BY_POINT)
    with pytest.raises(ValueError, match="zero parity-check matrix"):
        BatchDecoder(BitMatrix(3, 5, [0, 0, 0]))

    def walked(self):
        raise AssertionError("BitMatrix.supports called")

    monkeypatch.setattr(BitMatrix, "supports", walked)
    assert BatchDecoder(H).graph is H
    assert CodeInstance(H).decoder.graph is H


def _check_update_cumprod(dec: BatchDecoder, totals, msg, syn):
    """The check update in the check-major (B, m, dc) cumprod form that the
    slab products replaced (oracle); takes and returns slot-major messages."""
    m_bc = totals[:, dec.check_nbr.T] - msg.transpose(0, 2, 1)
    t = np.tanh(0.5 * m_bc)
    if dec.padded:
        t[:, ~dec.check_mask.T] = 1.0
    left = np.ones_like(t)
    np.cumprod(t[:, :, :-1], axis=2, out=left[:, :, 1:])
    right = np.ones_like(t)
    right[:, :, :-1] = np.cumprod(t[:, :, :0:-1], axis=2)[:, :, ::-1]
    prod = left * right
    prod *= np.where(syn, -1.0, 1.0)[:, :, None]
    np.clip(prod, -0.999999999999, 0.999999999999, out=prod)
    m_cb = 2.0 * np.arctanh(prod)
    np.clip(m_cb, -dec.clamp, dec.clamp, out=m_cb)
    return m_cb.transpose(0, 2, 1)


def test_slab_products_equal_cumprod_form(cache):
    """On random messages, with zeros of both signs and values large enough
    to saturate tanh, the in-place slab products give the bits of the
    cumprod form, on a regular and on a padded graph."""
    graphs = (oriented_matrix(cache.geometry("PG", 2, 16).structure, BLOCK_BY_POINT),
              _irregular_H())
    rng = np.random.default_rng(99)
    for H in graphs:
        dec = BatchDecoder(H)
        B = 9
        totals = rng.normal(0.0, 8.0, (B, dec.n)) * (rng.random((B, dec.n)) < 0.9)
        totals[rng.random((B, dec.n)) < 0.05] = -0.0
        totals[rng.random((B, dec.n)) < 0.05] = 80.0
        msg = rng.normal(0.0, 4.0, (B, dec.dc, dec.m))
        msg[rng.random(msg.shape) < 0.05] = 0.0
        syn = rng.random((B, dec.m)) < 0.5
        expected = _check_update_cumprod(dec, totals, msg, syn)
        sign = np.where(syn, -1.0, 1.0)
        dec._check_update(totals, msg, np.empty_like(msg), np.empty((B, dec.m)), sign)
        assert msg.tobytes() == np.ascontiguousarray(expected).tobytes()


def test_iteration_one_state_follows_the_prior(cache):
    """One decoder decoding at priors p1, p2, p1 gives what fresh decoders
    give, and keeps only the last prior's iteration-1 state."""
    H = oriented_matrix(cache.geometry("PG", 2, 16).structure, BLOCK_BY_POINT)
    shared = BatchDecoder(H)
    for f_m in (0.03, 0.045, 0.03):
        _, syn, prior = _syndrome_batch(H, f_m, 128, seed=21)
        got = shared.decode(syn, prior)
        for a, b in zip(got, BatchDecoder(H).decode(syn, prior)):
            assert np.array_equal(a, b)
        assert shared._iter1[0] == _prior_llr(prior)


def test_float_loop_blocks_give_identical_results(cache, monkeypatch):
    """With the block budget cut to a few trials, a 64-trial float loop runs
    in at least 3 blocks and every trial decodes as in one block."""
    H = oriented_matrix(cache.geometry("PG", 2, 16).structure, BLOCK_BY_POINT)
    _, syn, prior = _syndrome_batch(H, 0.045, 512, seed=8)
    whole = BatchDecoder(H)
    syn = syn[whole.decode(syn, prior)[2] >= 2][:64]
    assert len(syn) == 64
    expected = whole.decode(syn, prior)
    monkeypatch.setattr(decoder, "FLOAT_BLOCK_BYTES", 2_000_000)
    blocked = BatchDecoder(H)
    assert whole.block_rows >= 64 and blocked.block_rows <= 64 // 3
    blocks = []
    loop = blocked._float_loop
    monkeypatch.setattr(blocked, "_float_loop",
                        lambda syn, *a: blocks.append(len(syn)) or loop(syn, *a))
    got = blocked.decode(syn, prior)
    assert len(blocks) >= 3 and sum(blocks) == 64
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)


def test_pg64_batch_decodes_under_3_gb():
    """A PG(2,64) Type I batch whose 256 trials all enter the float loop
    (one message array alone is 554 MB) decodes under a 3 GB address-space
    limit: the loop runs in bounded blocks."""
    src = str(Path(eaqldpc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (3_000_000_000, 3_000_000_000))
        import numpy as np
        from eaqldpc.decoder import BatchDecoder
        from eaqldpc.eaqecc import BLOCK_BY_POINT, oriented_matrix
        from eaqldpc.geometry import build_geometry
        H = oriented_matrix(build_geometry("PG", 2, 64).structure, BLOCK_BY_POINT)
        dec = BatchDecoder(H, max_iter=2)
        errors = np.random.default_rng(1).random((256, H.cols)) < 0.05
        est, conv, iters = dec.decode(dec.parity(errors), 0.05)
        assert est.shape == errors.shape and (iters >= 1).all()
        print("decoded", int(conv.sum()))
    """)
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.startswith("decoded")
