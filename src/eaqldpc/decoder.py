"""Syndrome-based sum-product decoding on Tanner graphs.

``BatchDecoder`` is the one decoding engine: a float64 numpy flooding
schedule (all checks in index order, then all bits in index order) with a
+/-30 LLR clamp and tie-to-zero hard decision, decoding many syndromes at
once, with converged trials retired from the batch after every iteration.
Messages are per-trial independent, so retiring rows cannot change any
trial's arithmetic.  The tests keep a scalar one-syndrome-at-a-time
reference, ``sp_decode``, as its oracle.

``BatchDecoder`` reads iteration 1 from two message tables.  There every
bit-to-check message is the prior LLR, so a check-to-bit message depends
only on its slot and its check's syndrome bit; the tables are the general
check-node update run once on syndrome bit 0 and once on 1, hence exact.
The loop starts from these messages, so every iteration runs one body: the
bit update, then the check update for the next iteration.  The bit update
adds each bit's incoming messages slot by slot over the whole batch,
``L0 + ((s0 + s1) + ...)``, so every trial's sum takes the same order
whatever the batch holds.

Most trials never reach those float messages.  A bit of degree d whose
checks hold k set syndrome bits gets k slots from the syndrome-1 table and
d - k from the syndrome-0 table, so its exact iteration-1 total lies in
[L0 + (d-k) min t0 + k min t1, L0 + (d-k) max t0 + k max t1] (extremes over
its real slots).  Widened by a rounding bound that holds for the float sum
in any order, an interval wholly below or above 0 fixes that bit's hard
decision ``totals < 0`` exactly, tie-to-zero included, from the integer k
alone.  ``decode`` counts k for every bit in the packed domain and retires,
at iteration 1, each trial whose counts are all certified and whose hard
decision meets its syndrome.  The rest (unconverged trials, and trials with
a count near a tie) enter the float loop at iteration 1, so every trial's
result is the float path's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .gf2 import BitMatrix

LLR_CLAMP = 30.0
DEFAULT_MAX_ITER = 100
UNIT_ROUNDOFF = 2.0**-53


def _gamma(j):
    """Higham's gamma_j = j u / (1 - j u): the relative error bound of j
    float64 roundings."""
    return j * UNIT_ROUNDOFF / (1.0 - j * UNIT_ROUNDOFF)


@dataclass(frozen=True)
class TannerGraph:
    """Bipartite adjacency of a parity-check matrix (redundant rows retained)."""

    n_bits: int
    n_checks: int
    check_bits: tuple[tuple[int, ...], ...]  # per check: sorted bit indices
    bit_checks: tuple[tuple[int, ...], ...]  # per bit: sorted check indices


def build_tanner(H: BitMatrix) -> TannerGraph:
    """Adjacency of H: checks = rows, bits = columns."""
    return TannerGraph(
        n_bits=H.cols,
        n_checks=H.rows,
        check_bits=H.supports(),
        bit_checks=H.transpose().supports(),
    )


def _prior_llr(prior: float) -> float:
    if not (0.0 < prior < 0.5):
        raise ValueError(f"prior flip probability must be in (0, 0.5), got {prior}")
    return math.log((1.0 - prior) / prior)


def _pack_trials(bits: np.ndarray) -> np.ndarray:
    """(B, k) 0/1 batch -> (k, ceil(B / 8)) uint8, trials packed 8 per byte;
    packing a contiguous transpose is several times faster than packing the
    strided view."""
    return np.packbits(np.ascontiguousarray(bits.T), axis=1)


class BatchDecoder:
    """Vectorized flooding sum-product over a fixed graph (float64 messages).

    Edge layout is check-major with per-check slot padding to the maximum
    check degree; bit-side gathers use flat edge indices.  All operations are
    elementwise per trial, and each bit's sum adds its slots in slot order
    for the whole batch at once, so results are independent of batch
    composition.
    Padded check slots enter the tanh product as 1 and padded bit slots add
    0 to the bit sums; these are the only message mask writes, made only
    when the graph has padded slots (``self.padded``), as are the zeroed
    padded slots of the packed gathers in ``parity`` and the count test.
    Padded message slots hold finite values that nothing else reads.
    """

    def __init__(self, graph: TannerGraph, max_iter: int = DEFAULT_MAX_ITER,
                 clamp: float = LLR_CLAMP):
        if max_iter < 1:
            raise ValueError(f"max_iter >= 1 required, got {max_iter}")
        if not any(graph.check_bits):
            raise ValueError("zero parity-check matrix")
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
        self.bit_deg = self.bit_mask.sum(axis=1)
        self.padded = not (self.check_mask.all() and self.bit_mask.all())
        self.m, self.n, self.dc, self.dv = m, n, dc, dv
        self.count_dtype = np.min_scalar_type(dv + 1)

    def parity(self, bits: np.ndarray) -> np.ndarray:
        """(B, n_bits) boolean batch -> (B, n_checks) uint8 check parities,
        as the XOR of each check's bit rows with trials packed 8 per byte."""
        par = self._packed_parity(_pack_trials(bits))
        return np.ascontiguousarray(np.unpackbits(par, axis=1, count=bits.shape[0]).T)

    def _packed_parity(self, packed: np.ndarray) -> np.ndarray:
        """(n_bits, W) bit rows, trials packed 8 per byte -> (n_checks, W)."""
        gathered = packed[self.check_nbr]
        if self.padded:
            gathered[~self.check_mask] = 0
        return np.bitwise_xor.reduce(gathered, axis=1)

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

    def _iter1_tables(self, L0: float):
        """Iteration-1 check-to-bit messages for syndrome bit 0 and 1: the
        (2, m, dc) tables, and the same laid out bit-major as (n, dv) arrays
        t0 and t1 with padded bit slots zeroed."""
        table = self._check_update(np.full((2, self.m, self.dc), L0),
                                   np.array([[False], [True]]))
        t0, t1 = (np.where(self.bit_mask, tab.ravel()[self.bit_edge], 0.0) for tab in table)
        return table, t0, t1

    def _certified_counts(self, L0: float, t0: np.ndarray, t1: np.ndarray):
        """Per-bit count thresholds (zero_below, one_from), each (n, 1): the
        iteration-1 hard decision of a bit with k set syndrome bits among
        its checks is certainly 0 for k < zero_below and certainly 1 for
        k >= one_from; counts in between are uncertified.

        The float total sums L0 and d slot values, so it is within
        gamma_{d+1} S of the exact total, S = |L0| + d max|t|.  The interval
        endpoints take 4 roundings (gamma_4 S), and twice gamma_{d+4} S
        covers both with room for the margin's own rounding."""
        t = np.stack([t0, t1])
        t = np.where(self.bit_mask, t, t[..., :1])  # padded slots repeat slot 0
        lo, hi = t.min(axis=2)[..., None], t.max(axis=2)[..., None]  # (2, n, 1)
        d = self.bit_deg[:, None].astype(float)
        k = np.arange(self.dv + 1)
        lower = L0 + (d - k) * lo[0] + k * lo[1]
        upper = L0 + (d - k) * hi[0] + k * hi[1]
        margin = 2.0 * _gamma(d + 4) * (abs(L0) + d * np.abs(t).max(axis=(0, 2))[:, None])
        zero = np.logical_and.accumulate(lower - margin > 0.0, axis=1).sum(axis=1)
        one = np.logical_and.accumulate(((upper + margin < 0.0) | (k > d))[:, ::-1], axis=1)
        zero_below = np.minimum(zero, self.bit_deg + 1)
        one_from = self.dv + 1 - one.sum(axis=1)
        return (zero_below[:, None].astype(self.count_dtype),
                one_from[:, None].astype(self.count_dtype))

    def _retire_by_counts(self, syn: np.ndarray, L0: float, t0: np.ndarray, t1: np.ndarray):
        """Iteration 1 decided from integer counts: the (B,) mask of trials
        whose every bit has a certified count and whose hard decision meets
        the syndrome, and the hard decisions of those trials, (retired,
        n_bits) bool."""
        zero_below, one_from = self._certified_counts(L0, t0, t1)
        B = syn.shape[0]
        packed = _pack_trials(syn)
        k = np.zeros((self.n, B), dtype=self.count_dtype)
        for s in range(self.dv):
            gathered = packed[self.bit_check[:, s]]  # (n, bytes)
            if self.padded:
                gathered[~self.bit_mask[:, s]] = 0
            k += np.unpackbits(gathered, axis=1, count=B)
        hard = k >= one_from  # (n, B)
        miss = self._packed_parity(np.packbits(hard, axis=1)) ^ packed
        retired = ~np.unpackbits(np.bitwise_or.reduce(miss, axis=0), count=B).astype(bool)
        retired &= ~((k >= zero_below) & ~hard).any(axis=0)
        return retired, hard[:, retired].T

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
        table, t0, t1 = self._iter1_tables(L0)
        retired, hard = self._retire_by_counts(syn, L0, t0, t1)
        if retired.any():
            rows = active[retired]
            est[rows] = hard
            conv[rows] = True
            iters[rows] = 1
            active = active[~retired]
            if active.size == 0:
                return est, conv, iters
            syn = syn[~retired]

        m_cb = np.where(syn[:, :, None], table[1], table[0])  # iteration 1's messages
        for it in range(1, self.max_iter + 1):
            flat = m_cb.reshape(-1, self.m * self.dc)
            for s in range(self.dv):
                incoming = flat[:, self.bit_edge[:, s]]  # (B, n)
                if self.padded:
                    incoming[:, ~self.bit_mask[:, s]] = 0.0
                if s == 0:
                    acc = incoming
                else:
                    acc += incoming
            totals = L0 + acc
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
                    break
                syn, totals, hard, m_cb = syn[keep], totals[keep], hard[keep], m_cb[keep]
            if it == self.max_iter:
                est[active] = hard
                break
            m_cb = self._check_update(totals[:, self.check_nbr] - m_cb, syn)
        return est, conv, iters
