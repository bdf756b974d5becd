"""Syndrome-based sum-product decoding on Tanner graphs.

``BatchDecoder`` is the one decoding engine: a float64 numpy flooding
schedule (all checks in index order, then all bits in index order) with a
+/-30 LLR clamp and tie-to-zero hard decision, decoding many syndromes at
once, with converged trials retired from the batch after every iteration.
Messages are per-trial independent, so retiring rows cannot change any
trial's arithmetic.  The tests keep a scalar one-syndrome-at-a-time
reference, ``sp_decode``, as its oracle.

Messages are slot-major, (B, dc, m): slab s holds every check's s-th
check-to-bit message, so edge s*m + i is slot s of check i.  The check
update is the forward-backward product form (Hu, Eleftheriou, Arnold and
Dholakia, GLOBECOM 2001): the left and right products of a check's other
slots are built slab by slab, in the order ``cumprod`` would multiply them.
The bit update gathers every bit's slots, (B, dv, n), and sums them with one
``np.add.reduce`` over the slot axis; numpy adds a non-innermost axis slice
by slice, so every sum is ``L0 + ((s0 + s1) + ...)`` whatever the batch
holds.  The float loop runs in place on buffers allocated once per
``decode`` call; retired trials are compacted out of the leading rows.
Trials enter it in blocks of at most ``FLOAT_BLOCK_BYTES`` of buffers, each
iterating to completion, so memory stays bounded on large graphs (PG(2,64))
while the (2,16) codes' batches stay one block.

Iteration 1 comes from two message tables.  There every bit-to-check
message is the prior LLR, so a check-to-bit message depends only on its
slot and its check's syndrome bit; the tables are the general check-node
update run once on syndrome bit 0 and once on 1, hence exact.  They, and
the count thresholds below, depend on the prior alone, and the decoder
keeps those of the last prior it saw.  The loop starts from these messages,
so every iteration runs the bit update, then the next check update.

Most trials never reach those float messages.  A bit of degree d whose
checks hold k set syndrome bits gets k slots from the syndrome-1 table and
d - k from the syndrome-0 table, so its exact iteration-1 total lies
between L0 + sum(t0) plus the sum of the k smallest and of the k largest
t1 - t0 over its real slots, whichever k checks are set.  Widened by a
rounding bound that holds for the float sum in any order, an interval
wholly below or above 0 fixes that bit's hard decision ``totals < 0``
exactly, tie-to-zero included, from the integer k alone.  ``decode`` keeps
syndromes trials-last, (m, B) as the packed domain holds them, counts k for
every bit of every trial, and retires at iteration 1 each nonzero syndrome
whose counts are all certified and whose hard decision meets it; the
estimates are a view of those (n, B) decisions.  The rest (unconverged
trials, and trials with a count near a tie) enter the float loop at
iteration 1, so every trial's result is the float path's.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
import numpy as np

from .gf2 import BitMatrix

LLR_CLAMP = 30.0
DEFAULT_MAX_ITER = 100
UNIT_ROUNDOFF = 2.0**-53
TANH_LIMIT = 0.999999999999  # tanh products are clipped to +/- this
# Byte budget of one float-loop block: its message, scratch and compaction
# buffers.  256 MiB holds a 2048-trial PG(2,16) batch (about 118 KB a trial)
# in one block and cuts PG(2,64) (about 6.6 MB a trial) into blocks of 40.
FLOAT_BLOCK_BYTES = 256 * 2**20


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


def _by_slot(keys: np.ndarray, size: int):
    """Each entry's slot among the entries of the same key, counted in index
    order, and the most entries of one key: keys (E,) ints in [0, size)."""
    order = np.argsort(keys, kind="stable")
    deg = np.bincount(keys, minlength=size)
    slot = np.empty_like(keys)
    slot[order] = np.arange(keys.size) - np.repeat(np.cumsum(deg) - deg, deg)
    return slot, int(deg.max())


class BatchDecoder:
    """Vectorized flooding sum-product over a fixed graph (float64 messages).

    Slots are padded to the maximum check degree dc and bit degree dv.
    Messages and the check-side arrays are slot-major: ``check_nbr`` (dc,
    m) is the bit in slot s of check i and ``check_mask`` marks the real
    slots, and messages are (B, dc, m).  ``bit_edge`` (n, dv) holds each
    bit's edges s*m + i in check order, ``bit_check`` their checks and
    ``bit_mask`` its real slots.  All operations are elementwise per trial,
    and each bit's sum adds its slots in slot order in one reduce over the
    whole batch, so results are independent of batch composition and of the
    ``FLOAT_BLOCK_BYTES`` blocks.  Syndromes are read trials-last, the count
    test runs on every trial, and its (n, B) decisions back the estimates.
    Padded check slots enter the tanh product as 1, written only when the
    graph has padded slots (``self.padded``), as are the zeroed padded
    slots of the packed gathers in ``parity``.  Padded bit slots add 0 to
    the bit sums and to the count test's counts: ``slot_unused[s]`` lists
    the bits without a slot s, and only those are zeroed.  Padded message
    slots hold finite values that nothing else reads.
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
        # edges in check-major order: the bit, check and slot of each
        bits = np.fromiter(itertools.chain.from_iterable(graph.check_bits), dtype=np.int64)
        checks = np.repeat(np.arange(m), [len(cb) for cb in graph.check_bits])
        slots, dc = _by_slot(checks, m)
        self.check_nbr = np.zeros((dc, m), dtype=np.int64)
        self.check_mask = np.zeros((dc, m), dtype=bool)
        self.check_nbr[slots, checks] = bits
        self.check_mask[slots, checks] = True
        bit_slots, dv = _by_slot(bits, n)
        self.bit_edge = np.zeros((n, dv), dtype=np.int64)
        self.bit_mask = np.zeros((n, dv), dtype=bool)
        self.bit_edge[bits, bit_slots] = slots * m + checks
        self.bit_mask[bits, bit_slots] = True
        self.bit_check = self.bit_edge % m
        self.bit_deg = self.bit_mask.sum(axis=1)
        self.slot_edges = np.ascontiguousarray(self.bit_edge.T)  # (dv, n)
        self.slot_unused = [np.flatnonzero(~real) for real in self.bit_mask.T]
        self.padded = not (self.check_mask.all() and self.bit_mask.all())
        self.m, self.n, self.dc, self.dv = m, n, dc, dv
        self.count_dtype = np.min_scalar_type(dv + 1)
        # float-loop bytes per trial: messages and their compaction copy
        # (2 dc m), the scratch shared by the check gather and the slot
        # gather (max(dc m, dv n)), the totals and hard decisions (n), the
        # syndrome sign and a product run (2 m)
        self.work_size = max(dc * m, dv * n)
        self.block_rows = max(1, FLOAT_BLOCK_BYTES // (
            16 * dc * m + 8 * self.work_size + 9 * n + 16 * m))
        self._iter1 = (None, None)  # (L0, iteration-1 state) of the last prior

    def parity(self, bits: np.ndarray) -> np.ndarray:
        """(B, n_bits) boolean batch in any layout (trials-last packs fastest)
        -> (B, n_checks) uint8 check parities, the transposed view of an
        (n_checks, B) array: the XOR of each check's bit rows with trials
        packed 8 per byte."""
        return np.unpackbits(self._packed_parity(_pack_trials(bits)), axis=1,
                             count=bits.shape[0]).T

    def _packed_parity(self, packed: np.ndarray) -> np.ndarray:
        """(n_bits, W) bit rows, trials packed 8 per byte -> (n_checks, W)."""
        gathered = packed[self.check_nbr]  # (dc, m, W)
        if self.padded:
            gathered[~self.check_mask] = 0
        return np.bitwise_xor.reduce(gathered, axis=0)

    def _misses(self, packed_hard: np.ndarray, packed_syn: np.ndarray, B: int):
        """(B,) True where the hard decisions (n, W) fail to meet the
        syndromes (m, W), both with B trials packed 8 per byte."""
        miss = self._packed_parity(packed_hard) ^ packed_syn
        return np.unpackbits(np.bitwise_or.reduce(miss, axis=0), count=B).astype(bool)

    def _check_update(self, totals, msg, work, run, sign):
        """Check-to-bit messages, in place: ``msg`` (B, dc, m) goes from the
        previous check-to-bit messages to the next, given the bit totals
        (B, n).  Each is the tanh product over its check's other slots,
        negated where ``sign`` (B, m) is -1, then clamped.  ``work`` (B, dc,
        m) and ``run`` (B, m) are scratch."""
        totals.take(self.check_nbr, axis=1, out=work, mode="clip")
        np.subtract(work, msg, out=work)  # bit-to-check messages
        np.multiply(work, 0.5, out=work)
        np.tanh(work, out=work)
        if self.padded:
            np.copyto(work, 1.0, where=~self.check_mask)
        # Slab s gets sign * t0 ... t(s-1), then times t(dc-1) ... t(s+1),
        # each product in cumprod's order.  Negation is exact, so folding
        # the sign into the first factor gives the bits of (left * right) *
        # sign, signed zeros included.
        last = self.dc - 1
        if last:
            np.multiply(work[:, 0], sign, out=msg[:, 1])
            for s in range(2, last + 1):
                np.multiply(msg[:, s - 1], work[:, s - 1], out=msg[:, s])
            np.copyto(run, work[:, last])
            for s in range(last - 1, 0, -1):
                np.multiply(msg[:, s], run, out=msg[:, s])
                np.multiply(run, work[:, s], out=run)
            np.multiply(run, sign, out=msg[:, 0])
        else:
            np.copyto(msg[:, 0], sign)
        np.clip(msg, -TANH_LIMIT, TANH_LIMIT, out=msg)
        np.arctanh(msg, out=msg)
        np.multiply(msg, 2.0, out=msg)
        np.clip(msg, -self.clamp, self.clamp, out=msg)

    def _iter1_tables(self, L0: float):
        """Iteration-1 check-to-bit messages for syndrome bit 0 and 1: the
        (2, dc, m) tables, and the same laid out bit-major as (n, dv) arrays
        t0 and t1 with padded bit slots zeroed."""
        table = np.zeros((2, self.dc, self.m))  # bit-to-check = L0 - 0
        self._check_update(np.full((2, self.n), L0), table, np.empty_like(table),
                           np.empty((2, self.m)), np.array([[1.0], [-1.0]]))
        t0, t1 = (np.where(self.bit_mask, tab.ravel()[self.bit_edge], 0.0) for tab in table)
        return table, t0, t1

    def _certified_counts(self, L0: float, t0: np.ndarray, t1: np.ndarray):
        """Per-bit count thresholds (zero_below, one_from), each (n, 1): the
        iteration-1 hard decision of a bit with k set syndrome bits among
        its checks is certainly 0 for k < zero_below and certainly 1 for
        k >= one_from; counts in between are uncertified.

        A bit's exact total is L0 + sum(t0) + the sum of t1 - t0 over its k
        slots with syndrome 1, so its extremes add the k smallest and the k
        largest differences over its real slots: prefix sums of the sorted
        differences.  With M the bit's largest |t| and A = |L0| + 3 d M,
        which bounds |L0| + sum|t0| + sum|t1 - t0|, the float total is
        within gamma_{d+1} A of the exact one, the differences' roundings
        move an extreme by at most gamma_1 A, and the endpoint's sum of at
        most 2d + 1 terms by gamma_{2d} A (1 + u); twice gamma_{3d+4} A
        covers all three with room for the margin's own rounding."""
        diff = t1 - t0
        base = L0 + t0.sum(axis=1, keepdims=True)  # padded slots hold 0
        start = np.zeros((self.n, 1))
        # past a bit's degree the sums run into +inf (lower) and -inf (upper)
        lower, upper = (base + sign * np.cumsum(np.hstack(
            [start, np.sort(np.where(self.bit_mask, sign * diff, np.inf))]), axis=1)
            for sign in (1.0, -1.0))
        d = self.bit_deg[:, None].astype(float)
        big = np.maximum(np.abs(t0), np.abs(t1)).max(axis=1, keepdims=True)
        margin = 2.0 * _gamma(3.0 * d + 4.0) * (abs(L0) + 3.0 * d * big)
        zero = np.logical_and.accumulate(lower - margin > 0.0, axis=1).sum(axis=1)
        one = np.logical_and.accumulate((upper + margin < 0.0)[:, ::-1], axis=1)
        zero_below = np.minimum(zero, self.bit_deg + 1)
        one_from = self.dv + 1 - one.sum(axis=1)
        return (zero_below[:, None].astype(self.count_dtype),
                one_from[:, None].astype(self.count_dtype))

    def _iter1_state(self, L0: float):
        """(iteration-1 tables (2, dc, m), zero_below, one_from) at prior LLR
        L0, kept for the last L0 asked: they depend on nothing else, and the
        X and Z decodes and successive batches of a point share one prior."""
        last, state = self._iter1
        if last != L0:
            table, t0, t1 = self._iter1_tables(L0)
            state = (table, *self._certified_counts(L0, t0, t1))
            for a in state:
                a.setflags(write=False)
            self._iter1 = (L0, state)
        return state

    def _retire_by_counts(self, syn: np.ndarray, zero_below: np.ndarray,
                          one_from: np.ndarray):
        """Iteration 1 decided from integer counts and the thresholds of
        ``_certified_counts``: the (B,) mask of trials whose every bit has a
        certified count and whose hard decision meets the syndrome, and the
        hard decisions of every trial, (n_bits, B) bool."""
        B = syn.shape[0]
        packed = _pack_trials(syn)
        k = np.zeros((self.n, B), dtype=self.count_dtype)
        for s, unused in enumerate(self.slot_unused):
            gathered = packed[self.bit_check[:, s]]  # (n, bytes)
            if unused.size:
                gathered[unused] = 0
            k += np.unpackbits(gathered, axis=1, count=B)
        hard = k >= one_from  # (n, B)
        retired = ~self._misses(np.packbits(hard, axis=1), packed, B)
        retired &= ~((k >= zero_below) & ~hard).any(axis=0)
        return retired, hard

    def decode(self, syndromes: np.ndarray, prior: float):
        """Decode a (B, n_checks) 0/1 syndrome batch in any layout; the
        trials-last view ``parity`` returns is read without a copy.

        Returns (estimates (B, n_bits) bool, possibly a transposed view,
        converged (B,) bool, iterations (B,) int32, 0 for a zero syndrome).
        """
        L0 = _prior_llr(prior)
        table, zero_below, one_from = self._iter1_state(L0)
        nonzero = syndromes.any(axis=1)
        retired, hard = self._retire_by_counts(syndromes, zero_below, one_from)
        retired &= nonzero
        hard &= retired  # the float loop writes the rest
        conv = retired | ~nonzero
        iters = np.where(nonzero, np.where(retired, 1, self.max_iter), 0).astype(np.int32)
        out = (hard.T, conv, iters)
        active = np.flatnonzero(~conv)
        if active.size:
            syn = syndromes[active].astype(bool)
            rows = min(active.size, self.block_rows)
            buffers = (np.empty(rows * self.work_size), np.empty((rows, self.dc, self.m)),
                       np.empty((rows, self.n)), np.empty((rows, self.m)),
                       np.empty((rows, self.m)), np.empty((rows, self.n), dtype=bool))
            for lo in range(0, active.size, rows):
                self._float_loop(syn[lo:lo + rows], active[lo:lo + rows], L0, table,
                                 buffers, out)
        return out

    def _float_loop(self, syn, active, L0, table, buffers, out):
        """Iterate one block of trials (syndromes ``syn``, rows ``active`` of
        the batch) from iteration 1's messages to completion, writing their
        results into ``out``.  Converged trials are compacted out, and the
        loop continues on the leading rows of ``buffers``."""
        est, conv, iters = out
        k = active.size
        work, *bufs = buffers  # work: flat scratch for either gather
        msg, acc, run, sign, hard = (b[:k] for b in bufs)
        np.copyto(sign, 1.0)
        np.copyto(sign, -1.0, where=syn)
        np.copyto(msg, table[0])
        np.copyto(msg, table[1], where=syn[:, None, :])  # iteration 1's messages
        packed_syn = _pack_trials(syn)
        for it in range(1, self.max_iter + 1):
            slots = work[:k * self.dv * self.n].reshape(k, self.dv, self.n)
            msg.reshape(k, -1).take(self.slot_edges, axis=1, out=slots, mode="clip")
            for s, unused in enumerate(self.slot_unused):
                if unused.size:
                    slots[:, s, unused] = 0.0
            np.add.reduce(slots, axis=1, out=acc)  # slot by slot: axis 1 is not innermost
            np.add(acc, L0, out=acc)  # the totals
            np.less(acc, 0.0, out=hard)

            ok = ~self._misses(_pack_trials(hard), packed_syn, k)
            rows = active[ok]
            est[rows] = hard[ok]
            conv[rows] = True
            iters[rows] = it
            if it == self.max_iter:
                est[active] = hard
                return
            if rows.size:
                keep = np.flatnonzero(~ok)
                k = keep.size
                if k == 0:
                    return
                active, syn = active[keep], syn[keep]
                packed_syn = _pack_trials(syn)
                for view in (msg, acc, sign):  # carried to the next iteration
                    view[:k] = view[keep]
                msg, acc, run, sign, hard = (b[:k] for b in bufs)
            checks = work[:k * self.dc * self.m].reshape(k, self.dc, self.m)
            self._check_update(acc, msg, checks, run, sign)
