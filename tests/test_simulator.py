"""Channel sampling, trial semantics, reproducibility, and BLER plumbing."""

import concurrent.futures

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from eaqldpc import simulator
from eaqldpc.eaqecc import BLOCK_BY_POINT, POINT_BY_BLOCK, oriented_matrix
from eaqldpc.gf2 import BitMatrix, rank_value
from eaqldpc.simulator import (
    SAMPLE_CHUNK_TRIALS,
    ChannelModel,
    CodeInstance,
    SimConfig,
    _word_cut,
    draw_errors,
    estimate_bler,
    evaluate_batch,
    pauli_probability,
    recovered,
    wilson_interval,
)

CHI2_CRIT_DF3_A001 = 16.266  # chi-square critical value, df=3, alpha=0.001

# Block errors of 2048 trials at f_m = 0.03, seed 11, batch_size 600 (so that
# batches start at nonzero trial_lo) for each (2,16) Type I plane code; frozen
# from the per-trial-generator simulator before the batch stream replaced it.
TYPE_I_PINS = {"AG": 4, "PG": 13, "EG": 6}

# (seed, point_index, trial_lo): keys of one and two 64-bit words, and a
# batch whose trial counters cross 2^32
STREAM_CASES = ((0, 0, 0), (99, 1, 600), (2**40 + 5, 3, 2**32 - 3),
                (2**64 + 7, 2, 5), (2**128 - 1, 1, 0))


# --- uniforms thresholded as floats, kept as draw_errors' oracle -------------

def trial_uniforms(seed: int, point_index: int, trial_lo: int, trial_hi: int,
                   n: int) -> np.ndarray:
    """(trial_hi - trial_lo, n) uniforms; row t - trial_lo is trial t's
    stream, Philox keyed by ``seed`` at counter (0, t, point_index, 0)."""
    u = np.empty((trial_hi - trial_lo, n))
    bg = np.random.Philox(key=seed, counter=[0, trial_lo, point_index, 0])
    gen = np.random.Generator(bg)
    # each trial restarts the generator at its own counter with an empty
    # output buffer, through the public state setter, which reads lists faster
    state = bg.state
    inner = state["state"]
    counter = inner["counter"] = inner["counter"].tolist()
    inner["key"], state["buffer"] = inner["key"].tolist(), state["buffer"].tolist()
    for t, row in enumerate(u, start=trial_lo):
        counter[1] = t
        bg.state = state
        gen.random(n, out=row)
    return u


def sample_error(u: np.ndarray, p: float):
    """Threshold uniforms into Pauli errors: boolean (x_component, z_component).

    One uniform per qubit: u < p -> X, p <= u < 2p -> Y, 2p <= u < 3p -> Z.
    So x flips where u < 2p and z flips where p <= u < 3p.
    """
    return u < 2.0 * p, (u >= p) & (u < 3.0 * p)


def _oracle_uniforms(seed, point_index, trial, n):
    """Trial ``trial``'s stream from a fresh generator: the reference the
    batch stream must equal."""
    bg = np.random.Philox(key=seed, counter=[0, trial, point_index, 0])
    return np.random.Generator(bg).random(n)


def test_channel_validation():
    ChannelModel(0.0)
    ChannelModel(1 / 3)
    with pytest.raises(ValueError):
        ChannelModel(0.4)
    with pytest.raises(ValueError):
        ChannelModel(-0.01)


def test_pauli_probability_conventions():
    assert pauli_probability(0.03, "total") == pytest.approx(0.01)
    assert pauli_probability(0.03, "per-pauli") == 0.03
    with pytest.raises(ValueError):
        pauli_probability(0.03, "bogus")


def test_sample_error_extremes():
    x, z = draw_errors(0, 0, 0, 10, 10, 0.0)
    assert not x.any() and not z.any()
    x, z = draw_errors(0, 0, 0, 10, 10, 1 / 3)  # 3p = 1: the Z cut-off is 2^64
    # every qubit errs; each component set iff the Pauli has that component
    assert np.array_equal(x | z, np.ones((10, 10), dtype=bool))
    assert x.any() and z.any() and not (x & z).all()


def test_sample_error_marginals_chisquare():
    """Category counts (I, X, Y, Z) over 10^6 draws at per-Pauli p = 0.02/3."""
    p = 0.02 / 3
    x, z = draw_errors(123, 0, 0, 1000, 1000, p)
    counts = np.array(
        [
            int((~x & ~z).sum()),  # I
            int((x & ~z).sum()),  # X
            int((x & z).sum()),  # Y
            int((~x & z).sum()),  # Z
        ]
    )
    n = x.size
    expected = np.array([1 - 3 * p, p, p, p]) * n
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < CHI2_CRIT_DF3_A001
    # per-component marginal is 2p
    assert x.mean() == pytest.approx(2 * p, rel=0.05)
    assert z.mean() == pytest.approx(2 * p, rel=0.05)


def test_sample_error_marginal_three_sigma():
    """Per-Pauli p = 0.02: component flip marginal 2p = 0.04 within 3 sigma
    of binomial over 10^6 draws."""
    x, z = draw_errors(77, 0, 0, 1000, 1000, 0.02)
    n = x.size
    sigma = (0.04 * 0.96 / n) ** 0.5
    assert abs(x.mean() - 0.04) < 3 * sigma
    assert abs(z.mean() - 0.04) < 3 * sigma


@given(st.integers(0, 2**64 - 1), st.floats(0.0, 1.0))
@example(0, 0.0)
@example(2**64 - 1, 0.0)
@example(2**64 - 1, 1.0)
@example(2**64 - 2**11, 1.0 - 2.0**-53)  # u = 1 - 2^-53 is the largest uniform
@example(3 * 2**11, 3 * 2.0**-53)  # a 2^53 an integer, w on the cut: u = a
@example(3 * 2**11 - 1, 3 * 2.0**-53)
@example(2**63, 0.5)
@example(2**63 - 1, 0.5)
@example(2**11, 5e-324)  # the least subnormal a: only u = 0 lies below it
def test_word_cut_is_the_uniform_threshold(w, a):
    """For every raw word w and double a in [0, 1], numpy's uniform
    (w >> 11) 2^-53 lies below a exactly when w lies below the cut-off."""
    assert ((w >> 11) * 2.0**-53 < a) == (w < _word_cut(a))


@pytest.mark.parametrize("chunk", [1, 3, SAMPLE_CHUNK_TRIALS])
@pytest.mark.parametrize("n", [4, 5, 6, 7, 1, 256, 257])
def test_draw_errors_equals_thresholded_uniforms(n, chunk, monkeypatch):
    """The integer thresholds of the raw words give the components the float
    thresholds of the uniforms give, whatever the chunk of trials, on the
    streams of ``test_batch_stream_equals_per_trial_streams``, and at 3p = 1,
    where the Z cut-off is 2^64."""
    monkeypatch.setattr(simulator, "SAMPLE_CHUNK_TRIALS", chunk)
    assert 3.0 * (1 / 3) == 1.0
    for seed, point_index, lo in STREAM_CASES:
        u = trial_uniforms(seed, point_index, lo, lo + 7, n)
        for p in (0.02 / 3, 0.05 / 3, 0.1, 1 / 3):
            x, z = draw_errors(seed, point_index, lo, lo + 7, n, p)
            assert x.T.flags.c_contiguous and z.T.flags.c_contiguous  # trials-last
            x_ref, z_ref = sample_error(u, p)
            assert np.array_equal(x, x_ref) and np.array_equal(z, z_ref)
    x, z = draw_errors(1, 0, 4, 4, n, 0.1)
    assert x.shape == z.shape == (0, n)


@pytest.fixture(scope="module")
def pg32_code(cache):
    H = oriented_matrix(cache.geometry("PG", 3, 2).structure, POINT_BY_BLOCK)
    return CodeInstance(H, name="pg(3,2)/II")


def _recovered_one(code, x, z, prior, exact_recovery=False) -> bool:
    ok = recovered(code, x[None, :], z[None, :], prior, exact_recovery=exact_recovery)
    assert ok.shape == (1,)
    return bool(ok[0])


def test_zero_error_trial_succeeds(pg32_code):
    n = pg32_code.n
    assert _recovered_one(pg32_code, np.zeros(n, bool), np.zeros(n, bool), prior=0.01)


def test_single_qubit_errors_all_recovered(pg32_code):
    """d = 4 corrects every weight-1 error on the [[35,14,4;1]] code."""
    n = pg32_code.n
    for j in range(n):
        x = np.zeros(n, bool)
        x[j] = True
        assert _recovered_one(pg32_code, x, np.zeros(n, bool), prior=2 * 0.005)


def test_row_residual_counts_as_success(pg32_code):
    """truth xor estimate equal to a row of H is stabilizer-equivalent."""
    H = pg32_code.H
    row = H.to_dense()[0].astype(bool)
    assert bool(pg32_code.residual_in_row_space(row[None, :])[0])
    # and rows are nontrivial residuals
    assert row.any()


def _in_row_space_by_rank(H: BitMatrix, r: np.ndarray) -> bool:
    """Unfiltered dense reference: r is in the row space iff appending it
    leaves the rank unchanged."""
    bits = sum(1 << int(j) for j in np.nonzero(r)[0])
    return rank_value(BitMatrix(H.rows + 1, H.cols, [*H.row_bits(), bits])) == rank_value(H)


def test_residual_in_row_space_mixed_and_zero_batches(pg32_code):
    H, n = pg32_code.H, pg32_code.n
    rows = H.to_dense().astype(bool)
    weight1 = np.zeros(n, bool)
    weight1[3] = True
    batch = np.array([np.zeros(n, bool), rows[0], rows[1] ^ rows[4], weight1,
                      np.zeros(n, bool), rows[2] ^ weight1, rows[5]])
    expected = np.array([_in_row_space_by_rank(H, r) for r in batch])
    assert not expected[3] and not expected[5]  # the batch has both outcomes
    assert np.array_equal(pg32_code.residual_in_row_space(batch), expected)
    random = np.random.default_rng(3).random((20, n)) < 0.3
    expected = np.array([_in_row_space_by_rank(H, r) for r in random])
    assert np.array_equal(pg32_code.residual_in_row_space(random), expected)
    zero = pg32_code.residual_in_row_space(np.zeros((5, n), bool))
    assert zero.shape == (5,) and zero.all()
    assert pg32_code.residual_in_row_space(np.zeros((0, n), bool)).shape == (0,)


def test_exact_recovery_mode_stricter(pg32_code):
    n = pg32_code.n
    # inject an error equal to a parity-check row: syndrome is zero, the
    # decoder returns the zero estimate, residual = row: degenerate success
    # but an exact-recovery failure.
    H = pg32_code.H
    row = H.to_dense()[2].astype(bool)
    z = np.zeros(n, bool)
    assert _recovered_one(pg32_code, row, z, prior=0.04, exact_recovery=False)
    assert not _recovered_one(pg32_code, row, z, prior=0.04, exact_recovery=True)


def test_evaluate_batch_smoke(pg32_code):
    errors = evaluate_batch(pg32_code, ChannelModel(0.005), 7, 0, 0, 20, prior=0.01)
    assert isinstance(errors, int) and 0 <= errors <= 20
    # a batch is the sum of its parts
    parts = sum(evaluate_batch(pg32_code, ChannelModel(0.05), 7, 0, lo, lo + 5, prior=0.1)
                for lo in range(0, 20, 5))
    assert parts == evaluate_batch(pg32_code, ChannelModel(0.05), 7, 0, 0, 20, prior=0.1)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 1, 256, 257])
def test_batch_stream_equals_per_trial_streams(n):
    """n % 4 in {0, 1, 2, 3}, trial_lo > 0, point_index > 0, and keys of
    one and two 64-bit words."""
    for seed, point_index, lo in STREAM_CASES:
        u = trial_uniforms(seed, point_index, lo, lo + 6, n)
        expected = np.array([_oracle_uniforms(seed, point_index, t, n)
                             for t in range(lo, lo + 6)])
        assert np.array_equal(u, expected)
    assert trial_uniforms(1, 0, 4, 4, n).shape == (0, n)


@pytest.mark.parametrize("kind", sorted(TYPE_I_PINS))
def test_type_i_block_error_pins(cache, kind):
    H = oriented_matrix(cache.geometry(kind, 2, 16).structure, BLOCK_BY_POINT)
    rec = estimate_bler(H, SimConfig(f_m_values=(0.03,), trials=2048, seed=11,
                                     batch_size=600))[0]
    assert rec.block_errors == TYPE_I_PINS[kind]


def test_sim_config_rejects_bad_points_up_front():
    for f_ms in ((0.01, 1.2), (float("nan"),), (-0.01,)):
        with pytest.raises(ValueError, match="invalid f_m"):
            SimConfig(f_m_values=f_ms, trials=10, seed=1)
    with pytest.raises(ValueError, match="unknown channel convention"):
        SimConfig(f_m_values=(0.01,), trials=10, seed=1, convention="bogus")
    SimConfig(f_m_values=(0.0, 1.0), trials=10, seed=1)
    SimConfig(f_m_values=(1 / 3,), trials=10, seed=1, convention="per-pauli")
    for field, bad in (("max_iter", 0), ("max_iter", -3), ("batch_size", 0),
                       ("prior_override", 0.0), ("prior_override", 0.5),
                       ("prior_override", float("nan"))):
        with pytest.raises(ValueError, match=field.split("_")[0]):
            SimConfig(f_m_values=(0.01,), trials=10, seed=1, **{field: bad})
    SimConfig(f_m_values=(0.01,), trials=10, seed=1, max_iter=1, batch_size=1,
              prior_override=0.49)


def test_estimate_bler_zero_fm(cache):
    H = oriented_matrix(cache.geometry("PG", 3, 2).structure, POINT_BY_BLOCK)
    recs = estimate_bler(H, SimConfig(f_m_values=(0.0,), trials=50, seed=1))
    assert recs[0].bler == 0.0 and recs[0].block_errors == 0


def test_estimate_bler_reproducible_across_batch_and_workers(cache, monkeypatch):
    H = oriented_matrix(cache.geometry("PG", 3, 2).structure, POINT_BY_BLOCK)
    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    f_ms = (0.05, 0.08)
    r1 = estimate_bler(H, SimConfig(f_m_values=f_ms, trials=600, seed=99, batch_size=600))
    r2 = estimate_bler(H, SimConfig(f_m_values=f_ms, trials=600, seed=99, batch_size=37))
    r3 = estimate_bler(
        H, SimConfig(f_m_values=f_ms, trials=600, seed=99, batch_size=97, workers=2)
    )
    assert len(pools) == 1  # one pool serves both points
    for a, b, c in zip(r1, r2, r3):
        assert a.block_errors == b.block_errors == c.block_errors
        assert a.bler == b.bler == c.bler
    assert r1[0].block_errors != r1[1].block_errors  # the points differ
    # a different seed gives a different stream
    n = H.cols
    assert not np.array_equal(draw_errors(99, 0, 0, 600, n, 0.1)[0],
                              draw_errors(100, 0, 0, 600, n, 0.1)[0])


def test_estimate_bler_reproducible_on_a_degree_17_code(cache):
    """Criterion 6's first PG sweep point: PG(2,16)/I has 17 slots per bit,
    past the 8 from which numpy sums a contiguous axis pairwise, so a trial
    decoded alone must still add its slots in slot order."""
    H = oriented_matrix(cache.geometry("PG", 2, 16).structure, BLOCK_BY_POINT)
    counts = {
        (batch, workers): estimate_bler(H, SimConfig(
            f_m_values=(0.02,), trials=20_000, seed=20260809, batch_size=batch, workers=workers
        ))[0].block_errors
        for batch in (2048, 600) for workers in (1, 2)
    }
    assert len(set(counts.values())) == 1, counts


def test_wilson_interval_contains_pointestimate():
    for errors, trials in ((0, 100), (3, 1000), (50, 300)):
        lo, hi = wilson_interval(errors, trials)
        assert 0.0 <= lo <= errors / trials <= hi <= 1.0


def test_trial_substreams_disjoint():
    a = trial_uniforms(5, 0, 0, 1, 4)[0]
    b = trial_uniforms(5, 0, 1, 2, 4)[0]
    c = trial_uniforms(5, 1, 0, 1, 4)[0]
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)
    # and regenerating the same stream reproduces it exactly
    assert np.array_equal(a, trial_uniforms(5, 0, 0, 1, 4)[0])
