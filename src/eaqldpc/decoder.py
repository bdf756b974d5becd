"""Syndrome-based sum-product decoding on Tanner graphs.

Two implementations share the same flooding schedule (all checks in index
order, then all bits in index order), prior handling, +/-30 LLR clamp and
tie-to-zero hard decision:

- ``sp_decode``: scalar reference, one syndrome at a time (a test oracle);
- ``BatchDecoder``: float64 numpy engine decoding many syndromes at once
  (the simulator's hot path), with converged trials retired from the batch
  after every iteration.  Messages are per-trial independent, so retiring
  rows cannot change any trial's arithmetic.

``BatchDecoder`` reads iteration 1 from two message tables.  There every
bit-to-check message is the prior LLR, so a check-to-bit message depends
only on its slot and its check's syndrome bit; the tables are the general
check-node update run once on syndrome bit 0 and once on 1, hence exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .gf2 import BitMatrix

LLR_CLAMP = 30.0
DEFAULT_MAX_ITER = 100


@dataclass(frozen=True)
class TannerGraph:
    """Bipartite adjacency of a parity-check matrix (redundant rows retained)."""

    n_bits: int
    n_checks: int
    check_bits: tuple[tuple[int, ...], ...]  # per check: sorted bit indices
    bit_checks: tuple[tuple[int, ...], ...]  # per bit: sorted check indices

    @property
    def n_edges(self) -> int:
        return sum(len(cb) for cb in self.check_bits)


@dataclass(frozen=True)
class DecodeOutcome:
    converged: bool
    iterations_used: int
    error_estimate: int  # bit mask, bit j = estimated flip on bit j
    residual_syndrome: int  # bit mask over checks; zero iff converged

    def estimate_bits(self, n: int) -> list[int]:
        return [(self.error_estimate >> j) & 1 for j in range(n)]


def build_tanner(H: BitMatrix) -> TannerGraph:
    """Adjacency of H: checks = rows, bits = columns."""
    check_bits = []
    bit_checks: list[list[int]] = [[] for _ in range(H.cols)]
    for i in range(H.rows):
        r = H.row(i)
        cb = []
        while r:
            low = r & -r
            j = low.bit_length() - 1
            cb.append(j)
            bit_checks[j].append(i)
            r ^= low
        check_bits.append(tuple(cb))
    return TannerGraph(
        n_bits=H.cols,
        n_checks=H.rows,
        check_bits=tuple(check_bits),
        bit_checks=tuple(tuple(x) for x in bit_checks),
    )


def _prior_llr(prior: float) -> float:
    if not (0.0 < prior < 0.5):
        raise ValueError(f"prior flip probability must be in (0, 0.5), got {prior}")
    return math.log((1.0 - prior) / prior)


def sp_decode(
    graph: TannerGraph,
    syndrome,
    prior: float,
    max_iter: int = DEFAULT_MAX_ITER,
    clamp: float = LLR_CLAMP,
) -> DecodeOutcome:
    """Log-domain sum-product syndrome decoding (scalar reference).

    ``syndrome`` is an int bitmask over checks or a 0/1 sequence of length
    n_checks.  Check-to-bit messages use the tanh product rule with the
    check's syndrome bit as sign; convergence means H @ estimate = syndrome.
    """
    if not isinstance(syndrome, int):
        seq = list(syndrome)
        if len(seq) != graph.n_checks:
            raise ValueError("syndrome length != number of checks")
        syndrome = sum(1 << i for i, v in enumerate(seq) if int(v) & 1)
    L0 = _prior_llr(prior)
    m_bc = {
        (i, j): L0 for i, cb in enumerate(graph.check_bits) for j in cb
    }
    m_cb = {edge: 0.0 for edge in m_bc}
    estimate = 0

    def hard_syndrome(est: int) -> int:
        s = 0
        for i, cb in enumerate(graph.check_bits):
            par = 0
            for j in cb:
                par ^= (est >> j) & 1
            s |= par << i
        return s

    if syndrome == 0:
        return DecodeOutcome(True, 0, 0, 0)
    for it in range(1, max_iter + 1):
        for i, cb in enumerate(graph.check_bits):  # checks in index order
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
        totals = [L0] * graph.n_bits
        for (i, j), val in m_cb.items():
            totals[j] += val
        for j, checks in enumerate(graph.bit_checks):  # bits in index order
            for i in checks:
                m_bc[(i, j)] = totals[j] - m_cb[(i, j)]
        estimate = sum(1 << j for j in range(graph.n_bits) if totals[j] < 0.0)
        res = hard_syndrome(estimate) ^ syndrome
        if res == 0:
            return DecodeOutcome(True, it, estimate, 0)
    return DecodeOutcome(False, max_iter, estimate, hard_syndrome(estimate) ^ syndrome)


# --- batched engine ----------------------------------------------------------

class BatchDecoder:
    """Vectorized flooding sum-product over a fixed graph (float64 messages).

    Edge layout is check-major with per-check slot padding to the maximum
    check degree; bit-side gathers use flat edge indices.  All operations are
    elementwise per trial, so results are independent of batch composition.
    Padded check slots enter the tanh product as 1 and padded bit slots add
    0 to the bit sums; these are the only mask writes, made only when the
    graph has padded slots (``self.padded``).  Padded message slots hold
    finite values that nothing else reads.
    """

    def __init__(self, graph: TannerGraph, max_iter: int = DEFAULT_MAX_ITER,
                 clamp: float = LLR_CLAMP):
        self.graph = graph
        self.max_iter = max_iter
        self.clamp = float(clamp)
        m = graph.n_checks
        n = graph.n_bits
        dc = max((len(cb) for cb in graph.check_bits), default=1)
        self.check_nbr = np.zeros((m, dc), dtype=np.int64)
        self.check_mask = np.zeros((m, dc), dtype=bool)
        for i, cb in enumerate(graph.check_bits):
            self.check_nbr[i, : len(cb)] = cb
            self.check_mask[i, : len(cb)] = True
        edge_lists: list[list[int]] = [[] for _ in range(n)]
        for i, cb in enumerate(graph.check_bits):
            for s, j in enumerate(cb):
                edge_lists[j].append(i * dc + s)
        dv = max((len(e) for e in edge_lists), default=1)
        self.bit_edge = np.zeros((n, dv), dtype=np.int64)
        self.bit_mask = np.zeros((n, dv), dtype=bool)
        for j, es in enumerate(edge_lists):
            self.bit_edge[j, : len(es)] = es
            self.bit_mask[j, : len(es)] = True
        self.bit_check = self.bit_edge // dc
        self.padded = not (self.check_mask.all() and self.bit_mask.all())
        self.m, self.n, self.dc = m, n, dc

    def parity(self, bits: np.ndarray) -> np.ndarray:
        """(B, n_bits) boolean batch -> (B, n_checks) uint8 check parities."""
        gathered = bits[:, self.check_nbr]
        if self.padded:
            gathered &= self.check_mask
        return gathered.sum(axis=2, dtype=np.uint8) & 1

    def _check_update(self, m_bc: np.ndarray, syn: np.ndarray) -> np.ndarray:
        """Check-to-bit messages (B, m, dc): the tanh product over a check's
        other slots, negated where its syndrome bit is set, then clamped."""
        t = np.tanh(0.5 * m_bc)
        if self.padded:
            t[:, ~self.check_mask] = 1.0
        left = np.ones_like(t)
        np.cumprod(t[:, :, :-1], axis=2, out=left[:, :, 1:])
        right = np.ones_like(t)
        right[:, :, :-1] = np.cumprod(t[:, :, :0:-1], axis=2)[:, :, ::-1]
        prod = left * right
        prod *= np.where(syn, -1.0, 1.0)[:, :, None]
        np.clip(prod, -0.999999999999, 0.999999999999, out=prod)
        m_cb = 2.0 * np.arctanh(prod)
        np.clip(m_cb, -self.clamp, self.clamp, out=m_cb)
        return m_cb

    def decode(self, syndromes: np.ndarray, prior: float):
        """Decode a (B, n_checks) uint8 syndrome batch.

        Returns (estimates (B, n_bits) bool, converged (B,) bool,
        iterations (B,) int32).
        """
        L0 = _prior_llr(prior)
        B = syndromes.shape[0]
        est = np.zeros((B, self.n), dtype=bool)
        conv = np.zeros(B, dtype=bool)
        iters = np.full(B, self.max_iter, dtype=np.int32)

        zero_rows = ~syndromes.any(axis=1)
        conv[zero_rows] = True
        iters[zero_rows] = 0
        active = np.nonzero(~zero_rows)[0]
        if active.size == 0:
            return est, conv, iters

        syn = syndromes[active].astype(bool)
        # iteration-1 check-to-bit messages for syndrome bit 0 and 1, also
        # laid out bit-major as (n, dv) with padded bit slots zeroed
        table = self._check_update(np.full((2, self.m, self.dc), L0),
                                   np.array([[False], [True]]))
        t0, t1 = (np.where(self.bit_mask, tab.ravel()[self.bit_edge], 0.0) for tab in table)

        for it in range(1, self.max_iter + 1):
            if it == 1:
                incoming = np.where(syn[:, self.bit_check], t1, t0)
            else:
                m_cb = self._check_update(m_bc, syn)
                incoming = m_cb.reshape(m_cb.shape[0], -1)[:, self.bit_edge]
                if self.padded:
                    incoming[:, ~self.bit_mask] = 0.0
            totals = L0 + incoming.sum(axis=2)
            hard = totals < 0.0

            ok = (self.parity(hard) == syn).all(axis=1)
            done = np.nonzero(ok)[0]
            if done.size:
                rows = active[done]
                est[rows] = hard[done]
                conv[rows] = True
                iters[rows] = it
                keep = np.nonzero(~ok)[0]
                active = active[keep]
                if active.size == 0:
                    return est, conv, iters
                syn = syn[keep]
                totals = totals[keep]
                hard = hard[keep]
                if it > 1:
                    m_cb = m_cb[keep]
            if it == self.max_iter:
                est[active] = hard
                return est, conv, iters
            if it == 1:
                m_cb = np.where(syn[:, :, None], table[1], table[0])
            m_bc = totals[:, self.check_nbr] - m_cb
        return est, conv, iters
