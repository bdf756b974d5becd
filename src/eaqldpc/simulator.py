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

Reproducibility: trial t of sweep point i draws its n uniforms from the
Philox4x64 stream keyed by ``seed`` at counter (0, t, i, 0), so results are
bit-identical for a fixed seed regardless of batch size or worker count.
Philox is counter-based, so a batch opens one generator at its first trial
and, after each trial's n draws (ceil(n/4) counter steps), jumps the counter
on to the next trial's start; the streams equal those of a fresh generator
per trial.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .decoder import DEFAULT_MAX_ITER, BatchDecoder, build_tanner
from .gf2 import BitMatrix, nullspace_basis, pack_bool_rows

CONVENTION_TOTAL = "total"
CONVENTION_PER_PAULI = "per-pauli"


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


def sample_error(u: np.ndarray, p: float):
    """Threshold uniforms into Pauli errors: boolean (x_component, z_component).

    One uniform per qubit: u < p -> X, p <= u < 2p -> Y, 2p <= u < 3p -> Z.
    So x flips where u < 2p and z flips where p <= u < 3p.
    """
    return u < 2.0 * p, (u >= p) & (u < 3.0 * p)


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
        """(B, n) boolean error batch -> (B, n_checks) uint8 syndromes."""
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


def trial_uniforms(seed: int, point_index: int, trial_lo: int, trial_hi: int,
                   n: int) -> np.ndarray:
    """(trial_hi - trial_lo, n) uniforms; row t - trial_lo is trial t's
    stream, Philox keyed by ``seed`` at counter (0, t, point_index, 0)."""
    u = np.empty((trial_hi - trial_lo, n))
    bg = np.random.Philox(key=seed, counter=[0, trial_lo, point_index, 0])
    gen = np.random.Generator(bg)
    # n draws take ceil(n/4) counter steps; the jump carries into the trial
    # word, landing on the next trial's counter with an empty output buffer
    jump = 2**64 - -(-n // 4)
    for row in u:
        gen.random(n, out=row)
        bg.advance(jump)
    return u


def recovered(
    code: CodeInstance,
    x_err: np.ndarray,
    z_err: np.ndarray,
    prior: float,
    exact_recovery: bool = False,
) -> np.ndarray:
    """Decode (B, n) boolean X then Z error components; (B,) True where both
    converge with a residual in the row space (or zero, if exact_recovery)."""
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
    """Run trials [trial_lo, trial_hi); return the number of block errors."""
    u = trial_uniforms(seed, point_index, trial_lo, trial_hi, code.n)
    x_err, z_err = sample_error(u, channel.p_pauli)
    return int((~recovered(code, x_err, z_err, prior, exact_recovery)).sum())


# --- multiprocess plumbing ----------------------------------------------------

_WORKER_CODE: Optional[CodeInstance] = None


def _worker_init(H_rows, H_cols, name, max_iter):
    global _WORKER_CODE
    _WORKER_CODE = CodeInstance(
        BitMatrix.from_rows(H_rows, H_cols), name=name, max_iter=max_iter
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
    process pool serves every point."""
    records = []
    with ExitStack() as stack:
        if config.workers <= 1:
            code = CodeInstance(H, name=name, max_iter=config.max_iter)
            chunk = config.trials
            run_all = partial(map, partial(_run_task, code))
        else:
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=config.workers,
                initializer=_worker_init,
                initargs=(H.row_bits(), H.cols, name, config.max_iter),
            ))
            chunk = max(config.batch_size, -(-config.trials // config.workers // 4))
            run_all = partial(pool.map, _worker_run)
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
