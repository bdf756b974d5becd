"""Depolarizing-channel Monte Carlo for CSS codes built on one classical code.

Per qubit the channel applies X, Y or Z each with probability p (identity
otherwise), so each binary error component (X-part, Z-part) flips with
marginal probability 2p, correlated only through Y.  The two components are
decoded independently with prior 2p; a trial succeeds when both decoders
converge and both residuals (estimate xor truth) lie in the row space of H
(stabilizer-equivalent recovery).  Ebits never pass through the channel and
are not simulated.

The sweep parameter f_m is mapped to p = f_m / 3 by default ("total"
convention: f_m is the total depolarizing probability).  The "per-pauli"
convention (p = f_m) is available for sensitivity analysis; the "total"
reading is the one that reproduces the published block error rates.

Reproducibility: trial t of sweep point i draws its n raw 64-bit words from
the Philox4x64 stream keyed by ``seed`` at counter (0, t, i, 0), so results
are bit-identical for a fixed seed regardless of batch size or worker count.
Philox is counter-based, so a batch opens one bit generator and, before each
trial's ``random_raw(n)``, sets its counter to that trial's start with an
empty output buffer, through the public ``state`` setter and a state dict of
Python lists (read faster than arrays); the streams equal those of a fresh
generator per trial.  The words are thresholded as integers: numpy's
``random()`` maps a word w to the exact double (w >> 11) 2^-53, so u < a
holds exactly when w < ceil(a 2^53) 2^11 (``_word_cut``), and every error
equals the one drawn from the uniforms.  At 3p = 1 the Z cut-off is 2^64,
past uint64, so Z is tested on w - cut(p) modulo 2^64 against the width
cut(3p) - cut(p), which fits.  Trials are drawn ``SAMPLE_CHUNK_TRIALS`` at a
time, and each chunk's comparisons are copied into trials-last (n, B)
components, so a batch holds one chunk of words, never one per trial.
"""

from __future__ import annotations

import math
import time
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .decoder import DEFAULT_MAX_ITER, BatchDecoder, build_tanner
from .gf2 import BitMatrix, nullspace_basis, pack_bool_rows

CONVENTION_TOTAL = "total"
CONVENTION_PER_PAULI = "per-pauli"
# trials whose raw words draw_errors holds, thresholds and lays out at once
SAMPLE_CHUNK_TRIALS = 256


@dataclass(frozen=True)
class ChannelModel:
    """Depolarizing channel: X, Y, Z each with probability p_pauli per qubit."""

    p_pauli: float

    def __post_init__(self):
        if not (0.0 <= 3.0 * self.p_pauli <= 1.0):
            raise ValueError(f"need 0 <= 3*p_pauli <= 1, got p_pauli={self.p_pauli}")

    @property
    def marginal_flip(self) -> float:
        """Per-component flip probability: P(X or Y) = P(Z or Y) = 2 p."""
        return 2.0 * self.p_pauli


def pauli_probability(f_m: float, convention: str = CONVENTION_TOTAL) -> float:
    """Map a sweep parameter f_m to the per-Pauli probability."""
    if convention == CONVENTION_TOTAL:
        return f_m / 3.0
    if convention == CONVENTION_PER_PAULI:
        return f_m
    raise ValueError(f"unknown channel convention {convention!r}")


class CodeInstance:
    """A parity-check matrix prepared for simulation."""

    def __init__(self, H: BitMatrix, name: str = "", max_iter: int = DEFAULT_MAX_ITER):
        self.H = H
        self.name = name or f"H({H.rows}x{H.cols})"
        self.n = H.cols
        self.decoder = BatchDecoder(build_tanner(H), max_iter=max_iter)
        null = nullspace_basis(H)
        self._null_packed = null.to_packed()  # (n - rank) x words

    def syndromes_of(self, errors: np.ndarray) -> np.ndarray:
        """(B, n) boolean error batch in any layout -> (B, n_checks) uint8
        syndromes; trials-last in (a transposed (n, B) array) is fastest,
        and the syndromes come out trials-last."""
        return self.decoder.parity(errors)

    def residual_in_row_space(self, residuals: np.ndarray) -> np.ndarray:
        """(B, n) boolean residuals -> (B,) row-space membership, tested by
        orthogonality to the nullspace basis on the nonzero rows only (the
        zero vector is always in the row space)."""
        ok = np.ones(residuals.shape[0], dtype=bool)
        nonzero = np.nonzero(residuals.any(axis=1))[0]
        if nonzero.size:
            packed = pack_bool_rows(residuals[nonzero])
            for row in self._null_packed:
                ok[nonzero] &= (np.bitwise_count(packed & row).sum(axis=1) & 1) == 0
        return ok


@dataclass(frozen=True)
class SimConfig:
    f_m_values: tuple[float, ...]
    trials: int
    seed: int
    max_iter: int = DEFAULT_MAX_ITER
    prior_override: Optional[float] = None
    convention: str = CONVENTION_TOTAL
    exact_recovery: bool = False  # count success only on residual == 0
    batch_size: int = 2048
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials >= 1 required")
        if self.max_iter < 1:
            raise ValueError(f"max_iter >= 1 required, got {self.max_iter}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size >= 1 required, got {self.batch_size}")
        if self.workers < 0:
            raise ValueError(f"workers >= 0 required, got {self.workers}")
        if self.prior_override is not None and not 0.0 < self.prior_override < 0.5:
            raise ValueError(f"prior must be in (0, 0.5), got {self.prior_override}")
        for f_m in self.f_m_values:  # every point, before any is simulated
            try:
                ChannelModel(pauli_probability(f_m, self.convention))
            except ValueError as e:
                raise ValueError(f"invalid f_m {f_m}: {e}") from None


@dataclass(frozen=True)
class BlerRecord:
    f_m: float
    trials: int
    block_errors: int
    bler: float
    ci_low: float
    ci_high: float
    wall_time: float


def wilson_interval(errors: int, trials: int, z: float = 1.959963984540054):
    """95% Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    phat = errors / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    # guard float residue: the interval always contains the point estimate
    return max(0.0, min(center - half, phat)), min(1.0, max(center + half, phat))


def _word_cut(a: float) -> int:
    """The least raw word w, as a Python int, with (w >> 11) 2^-53 >= a, for
    a double a in [0, 1]: a 2^53 is exact, so (w >> 11) 2^-53 < a exactly
    when w < ceil(a 2^53) 2^11.  It is 2^64, past uint64, at a = 1."""
    return math.ceil(a * 2.0**53) << 11


def draw_errors(seed: int, point_index: int, trial_lo: int, trial_hi: int, n: int,
                p: float) -> tuple[np.ndarray, np.ndarray]:
    """Depolarizing errors of trials [trial_lo, trial_hi) at per-Pauli
    probability p: boolean (x_component, z_component), each (B, n) and the
    transposed view of a trials-last (n, B) array.  Trial t reads n raw
    words of the Philox stream keyed by ``seed`` at counter (0, t,
    point_index, 0), one per qubit, and each word w, as the uniform u = (w >>
    11) 2^-53, gives X for u < p, Y for p <= u < 2p and Z for 2p <= u < 3p:
    x flips where u < 2p and z where p <= u < 3p."""
    B = trial_hi - trial_lo
    x_err, z_err = np.empty((n, B), dtype=bool), np.empty((n, B), dtype=bool)
    bg = np.random.Philox(key=seed, counter=[0, trial_lo, point_index, 0])
    # each trial restarts the bit generator at its own counter with an empty
    # output buffer, through the public state setter, which reads lists faster
    state = bg.state
    inner = state["state"]
    counter = inner["counter"] = inner["counter"].tolist()
    inner["key"], state["buffer"] = inner["key"].tolist(), state["buffer"].tolist()
    cut_p, cut_2p, cut_3p = (_word_cut(a) for a in (p, 2.0 * p, 3.0 * p))
    x_cut, z_lo, z_width = np.uint64(cut_2p), np.uint64(cut_p), np.uint64(cut_3p - cut_p)
    chunk = SAMPLE_CHUNK_TRIALS
    words, x_rows, z_rows = (np.empty((min(B, chunk), n), dtype=d)
                             for d in (np.uint64, bool, bool))
    for lo in range(0, B, chunk):
        k = min(chunk, B - lo)
        w = words[:k]
        for i, t in enumerate(range(trial_lo + lo, trial_lo + lo + k)):
            counter[1] = t
            bg.state = state
            w[i] = bg.random_raw(n)
        np.less(w, x_cut, out=x_rows[:k])
        np.subtract(w, z_lo, out=w)  # modulo 2^64
        np.less(w, z_width, out=z_rows[:k])
        x_err[:, lo:lo + k] = x_rows[:k].T
        z_err[:, lo:lo + k] = z_rows[:k].T
    return x_err.T, z_err.T


def recovered(
    code: CodeInstance,
    x_err: np.ndarray,
    z_err: np.ndarray,
    prior: float,
    exact_recovery: bool = False,
) -> np.ndarray:
    """Decode (B, n) boolean X then Z error components in any layout;
    trials-last ones, the transposed views of (n, B) arrays that
    ``draw_errors`` returns, are packed by ``syndromes_of`` without a copy.
    Returns (B,) True where both converge with a residual in the row space
    (or zero, if exact_recovery)."""
    ok = np.ones(x_err.shape[0], dtype=bool)
    for err in (x_err, z_err):
        est, conv, _ = code.decoder.decode(code.syndromes_of(err), prior)
        residual = est ^ err
        if exact_recovery:
            ok &= conv & ~residual.any(axis=1)
        else:
            ok &= conv & code.residual_in_row_space(residual)
    return ok


def evaluate_batch(
    code: CodeInstance,
    channel: ChannelModel,
    seed: int,
    point_index: int,
    trial_lo: int,
    trial_hi: int,
    prior: float,
    exact_recovery: bool = False,
) -> int:
    """Run trials [trial_lo, trial_hi); return the number of block errors.
    ``draw_errors`` thresholds each trial's raw Philox words as integers
    into trials-last components, ``SAMPLE_CHUNK_TRIALS`` trials of words at
    a time, and ``recovered`` decodes them in that layout."""
    x_err, z_err = draw_errors(seed, point_index, trial_lo, trial_hi, code.n,
                               channel.p_pauli)
    return int((~recovered(code, x_err, z_err, prior, exact_recovery)).sum())


# --- multiprocess plumbing ----------------------------------------------------

_WORKER_CODE: Optional[CodeInstance] = None


class WorkerDiedError(RuntimeError):
    """A worker process of ``estimate_bler``'s pool died; there is no result."""


def _worker_init(H_words, H_cols, name, max_iter):
    global _WORKER_CODE
    _WORKER_CODE = CodeInstance(
        BitMatrix.from_packed(H_words, H_cols), name=name, max_iter=max_iter
    )


def _run_task(code: CodeInstance, task) -> int:
    channel, seed, point_index, lo, hi, prior, exact, batch = task
    return sum(
        evaluate_batch(code, channel, seed, point_index, start, min(start + batch, hi),
                       prior, exact)
        for start in range(lo, hi, batch)
    )


def _worker_run(task) -> int:
    return _run_task(_WORKER_CODE, task)


def estimate_bler(H: BitMatrix, config: SimConfig, name: str = "") -> list[BlerRecord]:
    """Block error rate at each f_m; bit-reproducible for a fixed seed and
    independent of batch size and worker count.  With ``workers > 1`` one
    process pool serves every point (imported only then), and a worker that
    dies raises ``WorkerDiedError``."""
    records = []
    with ExitStack() as stack:
        if config.workers <= 1:
            code = CodeInstance(H, name=name, max_iter=config.max_iter)
            chunk = config.trials
            run_all = partial(map, partial(_run_task, code))
        else:
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=config.workers,
                initializer=_worker_init,
                initargs=(H.to_packed(), H.cols, name, config.max_iter),
            ))
            chunk = max(config.batch_size, -(-config.trials // config.workers // 4))

            def run_all(tasks):
                try:
                    return list(pool.map(_worker_run, tasks))
                except BrokenProcessPool as e:
                    raise WorkerDiedError("a worker process died") from e
        for pi, f_m in enumerate(config.f_m_values):
            channel = ChannelModel(pauli_probability(f_m, config.convention))
            prior = config.prior_override if config.prior_override is not None else channel.marginal_flip
            t0 = time.time()
            if channel.marginal_flip == 0.0:
                records.append(BlerRecord(f_m, config.trials, 0, 0.0, 0.0, 0.0, time.time() - t0))
                continue
            errors = sum(run_all([
                (channel, config.seed, pi, lo, min(lo + chunk, config.trials), prior,
                 config.exact_recovery, config.batch_size)
                for lo in range(0, config.trials, chunk)
            ]))
            lo_ci, hi_ci = wilson_interval(errors, config.trials)
            records.append(
                BlerRecord(
                    f_m=f_m,
                    trials=config.trials,
                    block_errors=errors,
                    bler=errors / config.trials,
                    ci_low=lo_ci,
                    ci_high=hi_ci,
                    wall_time=time.time() - t0,
                )
            )
    return records
