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

Reproducibility: trial t of sweep point i draws from a counter-based Philox
stream keyed by (seed, i, t), so results are bit-identical for a fixed seed
regardless of batch size or worker count.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
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


def sample_error(channel: ChannelModel, n: int, rng: np.random.Generator):
    """One Pauli error pattern: boolean (x_component, z_component) arrays.

    A single uniform per qubit: u < p -> X, p <= u < 2p -> Y, 2p <= u < 3p
    -> Z.  So x flips where u < 2p and z flips where p <= u < 3p.
    """
    p = channel.p_pauli
    u = rng.random(n)
    x = u < 2.0 * p
    z = (u >= p) & (u < 3.0 * p)
    return x, z


class CodeInstance:
    """A parity-check matrix prepared for simulation."""

    def __init__(self, H: BitMatrix, name: str = "", max_iter: int = DEFAULT_MAX_ITER):
        self.H = H
        self.name = name or f"H({H.rows}x{H.cols})"
        self.n = H.cols
        self.decoder = BatchDecoder(build_tanner(H), max_iter=max_iter)
        null = nullspace_basis(H)
        self._null_packed = null.to_packed()  # (n - rank) x words
        self._words = self._null_packed.shape[1]

    def syndromes_of(self, errors: np.ndarray) -> np.ndarray:
        """(B, n) boolean error batch -> (B, n_checks) uint8 syndromes."""
        return self.decoder.parity(errors)

    def residual_in_row_space(self, residuals: np.ndarray) -> np.ndarray:
        """Row-space membership via orthogonality to the nullspace basis."""
        packed = pack_bool_rows(residuals)
        ok = np.ones(residuals.shape[0], dtype=bool)
        for row in self._null_packed:
            par = np.bitwise_count(packed & row[None, :]).sum(axis=1) & 1
            ok &= par == 0
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


def _trial_rng(seed: int, point_index: int, trial_index: int) -> np.random.Generator:
    bg = np.random.Philox(key=seed, counter=[0, trial_index, point_index, 0])
    return np.random.Generator(bg)


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
    B = trial_hi - trial_lo
    u = np.empty((B, code.n))
    for t in range(B):
        u[t] = _trial_rng(seed, point_index, trial_lo + t).random(code.n)
    p = channel.p_pauli
    x_err = u < 2.0 * p
    z_err = (u >= p) & (u < 3.0 * p)
    fails = np.zeros(B, dtype=bool)
    for err in (x_err, z_err):
        syn = code.syndromes_of(err)
        est, conv, _ = code.decoder.decode(syn, prior)
        residual = est ^ err
        if exact_recovery:
            ok = conv & ~residual.any(axis=1)
        else:
            ok = conv & code.residual_in_row_space(residual)
        fails |= ~ok
    return int(fails.sum())


def run_trial(
    code: CodeInstance,
    channel: ChannelModel,
    rng: np.random.Generator,
    prior: Optional[float] = None,
    exact_recovery: bool = False,
) -> bool:
    """One Monte Carlo trial; True on successful (stabilizer-equivalent) recovery."""
    x, z = sample_error(channel, code.n, rng)
    return evaluate_trial(code, x, z, prior if prior is not None else channel.marginal_flip,
                          exact_recovery=exact_recovery)


def evaluate_trial(
    code: CodeInstance,
    x_err: np.ndarray,
    z_err: np.ndarray,
    prior: float,
    exact_recovery: bool = False,
) -> bool:
    """Decode one injected error pattern (both components)."""
    for err in (x_err, z_err):
        err2 = np.asarray(err, dtype=bool)[None, :]
        syn = code.syndromes_of(err2)
        est, conv, _ = code.decoder.decode(syn, prior)
        if not bool(conv[0]):
            return False
        residual = est ^ err2
        if exact_recovery:
            if residual.any():
                return False
        elif not bool(code.residual_in_row_space(residual)[0]):
            return False
    return True


# --- multiprocess plumbing ----------------------------------------------------

_WORKER_CODE: Optional[CodeInstance] = None


def _worker_init(H_rows, H_cols, name, max_iter):
    global _WORKER_CODE
    _WORKER_CODE = CodeInstance(
        BitMatrix.from_rows(H_rows, H_cols), name=name, max_iter=max_iter
    )


def _worker_run(args) -> int:
    (p, seed, point_index, lo, hi, prior, exact, batch) = args
    channel = ChannelModel(p)
    errors = 0
    for start in range(lo, hi, batch):
        errors += evaluate_batch(
            _WORKER_CODE, channel, seed, point_index, start, min(start + batch, hi),
            prior, exact,
        )
    return errors


def estimate_bler(H: BitMatrix, config: SimConfig, name: str = "") -> list[BlerRecord]:
    """Block error rate at each f_m; bit-reproducible for a fixed seed and
    independent of batch size and worker count."""
    records = []
    code = CodeInstance(H, name=name, max_iter=config.max_iter) if config.workers <= 1 else None
    for pi, f_m in enumerate(config.f_m_values):
        p = pauli_probability(f_m, config.convention)
        channel = ChannelModel(p)
        prior = config.prior_override if config.prior_override is not None else channel.marginal_flip
        t0 = time.time()
        if channel.marginal_flip == 0.0:
            records.append(BlerRecord(f_m, config.trials, 0, 0.0, 0.0, 0.0, time.time() - t0))
            continue
        if config.workers <= 1:
            errors = 0
            for start in range(0, config.trials, config.batch_size):
                errors += evaluate_batch(
                    code, channel, config.seed, pi, start,
                    min(start + config.batch_size, config.trials), prior,
                    config.exact_recovery,
                )
        else:
            chunk = max(config.batch_size, -(-config.trials // config.workers // 4))
            tasks = [
                (p, config.seed, pi, lo, min(lo + chunk, config.trials), prior,
                 config.exact_recovery, config.batch_size)
                for lo in range(0, config.trials, chunk)
            ]
            with ProcessPoolExecutor(
                max_workers=config.workers,
                initializer=_worker_init,
                initargs=(H.row_bits(), H.cols, name, config.max_iter),
            ) as pool:
                errors = sum(pool.map(_worker_run, tasks))
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
