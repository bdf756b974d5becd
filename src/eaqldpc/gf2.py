"""Dense bit-packed GF(2) matrix algebra.

Rows are stored as Python integers (bit j of row i is the (i, j) entry), which
makes row XOR, Gaussian elimination and Gram-matrix products cheap at the
scales this package needs (up to a few thousand rows/columns).  Hot loops that
enumerate many vectors (weight distributions, pair collisions) export rows to
packed numpy uint64 arrays and use ``np.bitwise_count``.

``weight_distribution`` enumerates a span as an inner block of the 2^16
combinations of the first 16 basis vectors times a Gray walk over the
combinations of the rest.  The inner block is stored word-major, as a
``(words, 2^16)`` array with each 64-bit word of all inner vectors
contiguous, so the weights of one outer step are summed word by word into a
``uint8`` (``uint16`` from 256 bits) vector and binned with ``bincount``.

All matrices are immutable after construction; derived data (rank profile,
transpose) is computed lazily and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Optional, Sequence

import numpy as np

WORD_BITS = 64


def _mask(cols: int) -> int:
    return (1 << cols) - 1


class BitMatrix:
    """An immutable dense matrix over GF(2)."""

    __slots__ = ("rows", "cols", "_bits", "_rank_profile", "_transpose")

    def __init__(self, rows: int, cols: int, bits: Iterable[int]):
        bits = tuple(int(b) & _mask(cols) for b in bits)
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        if len(bits) != rows:
            raise ValueError(f"expected {rows} rows, got {len(bits)}")
        self.rows = rows
        self.cols = cols
        self._bits = bits
        self._rank_profile: Optional[RankProfile] = None
        self._transpose: Optional[BitMatrix] = None

    # --- constructors -----------------------------------------------------
    @classmethod
    def zeros(cls, rows: int, cols: int) -> BitMatrix:
        return cls(rows, cols, [0] * rows)

    @classmethod
    def identity(cls, n: int) -> BitMatrix:
        return cls(n, n, [1 << i for i in range(n)])

    @classmethod
    def from_rows(cls, row_bits: Sequence[int], cols: int) -> BitMatrix:
        return cls(len(row_bits), cols, row_bits)

    @classmethod
    def from_dense(cls, array) -> BitMatrix:
        a = np.asarray(array, dtype=np.uint8) % 2
        if a.ndim != 2:
            raise ValueError("expected a 2-D array")
        bits = []
        for row in a:
            x = 0
            for j in np.nonzero(row)[0]:
                x |= 1 << int(j)
            bits.append(x)
        return cls(a.shape[0], a.shape[1], bits)

    # --- element access ---------------------------------------------------
    def row(self, i: int) -> int:
        return self._bits[i]

    def row_bits(self) -> tuple[int, ...]:
        return self._bits

    def get(self, i: int, j: int) -> int:
        if not (0 <= j < self.cols):
            raise IndexError("column out of range")
        return (self._bits[i] >> j) & 1

    @property
    def data(self) -> tuple[int, ...]:
        """Row-major packed words (``WORD_BITS`` bits each)."""
        words_per_row = (self.cols + WORD_BITS - 1) // WORD_BITS
        out = []
        wm = (1 << WORD_BITS) - 1
        for r in self._bits:
            for w in range(words_per_row):
                out.append((r >> (w * WORD_BITS)) & wm)
        return tuple(out)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=np.uint8)
        for i, r in enumerate(self._bits):
            while r:
                low = r & -r
                out[i, low.bit_length() - 1] = 1
                r ^= low
        return out

    def to_packed(self) -> np.ndarray:
        """Rows as a (rows, ceil(cols/64)) uint64 array."""
        return pack_ints(self._bits, self.cols)

    # --- basic algebra ----------------------------------------------------
    def transpose(self) -> BitMatrix:
        if self._transpose is None:
            cols_bits = [0] * self.cols
            for i, r in enumerate(self._bits):
                bit = 1 << i
                while r:
                    low = r & -r
                    cols_bits[low.bit_length() - 1] |= bit
                    r ^= low
            t = BitMatrix(self.cols, self.rows, cols_bits)
            t._transpose = self
            self._transpose = t
        return self._transpose

    @property
    def T(self) -> BitMatrix:
        return self.transpose()

    def __matmul__(self, other: BitMatrix) -> BitMatrix:
        return multiply(self, other)

    def mul_vector(self, x: int) -> int:
        """Matrix-vector product M @ x where x is a column bit vector."""
        out = 0
        for i, r in enumerate(self._bits):
            if (r & x).bit_count() & 1:
                out |= 1 << i
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._bits == other._bits
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._bits))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"

    def rank_profile(self) -> RankProfile:
        if self._rank_profile is None:
            self._rank_profile = rank(self)
        return self._rank_profile


@dataclass(frozen=True)
class RankProfile:
    """Result of GF(2) Gaussian elimination."""

    rank: int
    pivot_columns: tuple[int, ...]
    rref: BitMatrix


@dataclass(frozen=True)
class DistanceResult:
    """Minimum-distance verdict for the code {x : Mx = 0}.

    ``status`` is "exact" only when an exhaustive method certified the value.
    A ``witness`` is a column support whose GF(2) sum is zero (weight =
    ``upper``); enumeration paths that only count weights leave it None.
    For the trivial code (no nonzero codeword) lower = upper = 0.
    """

    status: str  # "exact" | "bounded"
    lower: int
    upper: int
    witness: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.status not in ("exact", "bounded"):
            raise ValueError(f"bad status {self.status!r}")
        if self.lower > self.upper:
            raise ValueError("lower > upper")
        if self.status == "exact" and self.lower != self.upper:
            raise ValueError("exact result must have lower == upper")


@dataclass(frozen=True)
class DistanceBudget:
    """Resource limits for min_distance strategies."""

    exponent_cap: int = 26  # enumerate when code dimension <= cap
    dual_exponent_cap: int = 26  # MacWilliams path when rank <= cap
    support_weight_cap: int = 6
    support_pair_budget: int = 1 << 24  # max column pairs hashed for weight-4
    randomized_trials: int = 2000
    randomized_seed: int = 0


def rank(M: BitMatrix) -> RankProfile:
    """Gaussian elimination rank profile (first-nonzero pivoting, no heuristics).

    The returned ``rref`` is fully reduced (pivot columns cleared above and
    below) and spans the same row space as ``M``.
    """
    mat = list(M.row_bits())
    m = len(mat)
    pivots: list[int] = []
    r = 0
    for c in range(M.cols):
        if r >= m:
            break
        bit = 1 << c
        pr = next((i for i in range(r, m) if mat[i] & bit), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        piv = mat[r]
        for i in range(m):
            if i != r and (mat[i] & bit):
                mat[i] ^= piv
        pivots.append(c)
        r += 1
    rref = BitMatrix(r, M.cols, mat[:r])
    return RankProfile(rank=r, pivot_columns=tuple(pivots), rref=rref)


def _rank_only(rows: Iterable[int]) -> int:
    """Rank by incremental reduction against a lowest-bit pivot basis."""
    basis: dict[int, int] = {}
    rk = 0
    for r in rows:
        cur = r
        while cur:
            c = (cur & -cur).bit_length() - 1
            piv = basis.get(c)
            if piv is None:
                basis[c] = cur
                rk += 1
                break
            cur ^= piv
    return rk


def rank_value(M: BitMatrix) -> int:
    """rank(M) without building a profile; eliminates on the narrower side
    (rank is invariant under transposition, and narrow rows are cheap)."""
    if M._rank_profile is not None:
        return M._rank_profile.rank
    A = M if M.cols <= M.rows else M.transpose()
    return _rank_only(A.row_bits())


def multiply(A: BitMatrix, B: BitMatrix) -> BitMatrix:
    """C = A @ B over GF(2); XORs rows of B selected by the bits of each A row."""
    if A.cols != B.rows:
        raise ValueError(f"dimension mismatch: {A.cols} vs {B.rows}")
    brows = B.row_bits()
    out = []
    for r in A.row_bits():
        acc = 0
        while r:
            low = r & -r
            acc ^= brows[low.bit_length() - 1]
            r ^= low
        out.append(acc)
    return BitMatrix(A.rows, B.cols, out)


def gram_rank(M: BitMatrix) -> int:
    """rank(M @ M.T) over GF(2)."""
    return rank_value(multiply(M, M.transpose()))


def nullspace_basis(M: BitMatrix) -> BitMatrix:
    """Rows form a basis of {x : Mx = 0}; row count = cols - rank."""
    prof = M.rank_profile()
    pivot_set = set(prof.pivot_columns)
    free_cols = [c for c in range(M.cols) if c not in pivot_set]
    basis = []
    rref_rows = prof.rref.row_bits()
    for f in free_cols:
        v = 1 << f
        fb = 1 << f
        for row, pc in zip(rref_rows, prof.pivot_columns):
            if row & fb:
                v |= 1 << pc
        basis.append(v)
    return BitMatrix(len(basis), M.cols, basis)


def reduce_against(rref_rows: Sequence[int], pivots: Sequence[int], x: int) -> int:
    """Residue of x after elimination by a reduced row set."""
    for row, pc in zip(rref_rows, pivots):
        if (x >> pc) & 1:
            x ^= row
    return x


def in_row_space(M: BitMatrix, x, length: Optional[int] = None) -> bool:
    """True iff x is a GF(2) combination of the rows of M.

    ``x`` may be an int bitmask (bit j = coordinate j) or a 0/1 sequence whose
    length must equal ``M.cols``.
    """
    if not isinstance(x, int):
        seq = list(x)
        if len(seq) != M.cols:
            raise ValueError(f"vector length {len(seq)} != cols {M.cols}")
        x = sum(1 << j for j, v in enumerate(seq) if int(v) & 1)
    elif length is not None and length != M.cols:
        raise ValueError(f"vector length {length} != cols {M.cols}")
    elif x >> M.cols:
        raise ValueError("vector has bits beyond matrix width")
    prof = M.rank_profile()
    return reduce_against(prof.rref.row_bits(), prof.pivot_columns, x) == 0


# --- packed-array helpers ---------------------------------------------------

def pack_ints(values: Sequence[int], nbits: int) -> np.ndarray:
    """Pack int bitmasks into a (len, ceil(nbits/64)) uint64 array."""
    words = max(1, (nbits + WORD_BITS - 1) // WORD_BITS)
    out = np.zeros((len(values), words), dtype=np.uint64)
    wm = (1 << WORD_BITS) - 1
    for i, v in enumerate(values):
        v = int(v)
        w = 0
        while v:
            out[i, w] = v & wm
            v >>= WORD_BITS
            w += 1
    return out


def pack_bool_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a (B, n) boolean array into (B, ceil(n/64)) uint64 rows."""
    B, n = bits.shape
    words = (n + WORD_BITS - 1) // WORD_BITS
    padded = np.zeros((B, words * WORD_BITS), dtype=np.uint8)
    padded[:, :n] = bits
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)


def weight_distribution(basis: Sequence[int], nbits: int) -> list[int]:
    """Weight distribution of the span of ``basis`` (2^k vectors, meet in the middle).

    Returns counts[w] for w = 0..nbits, taken over all 2^k combinations (a
    dependent basis counts each span vector 2^(k - rank) times).  Cost is
    O(2^k) vector popcounts, vectorized in blocks of up to 2^16; see the
    module docstring for the word-major layout.
    """
    counts = np.zeros(nbits + 1, dtype=np.int64)
    k2 = min(len(basis), 16)
    packed = pack_ints(basis, nbits)
    inner = np.zeros((packed.shape[1], 1 << k2), dtype=np.uint64)
    for i in range(k2):
        inner[:, 1 << i : 2 << i] = inner[:, : 1 << i] ^ packed[i][:, None]
    wtype = np.min_scalar_type(nbits)
    outer = packed[k2:]
    acc = np.zeros(packed.shape[1], dtype=np.uint64)
    for t in range(1 << len(outer)):
        if t:  # Gray walk: step t flips outer vector (lowest set bit of t)
            acc ^= outer[(t & -t).bit_length() - 1]
        w = np.zeros(inner.shape[1], dtype=wtype)
        for row, x in zip(inner, acc):
            w += np.bitwise_count(row ^ x)
        counts += np.bincount(w, minlength=nbits + 1)
    return counts.tolist()


def _min_weight_with_witness(basis: Sequence[int], nbits: int) -> tuple[int, int]:
    """(min nonzero weight, achieving vector) over the span of basis (Gray walk)."""
    best_w = nbits + 1
    best_v = 0
    cw = 0
    gray_prev = 0
    for t in range(1, 1 << len(basis)):
        gray = t ^ (t >> 1)
        idx = (gray ^ gray_prev).bit_length() - 1
        cw ^= basis[idx]
        gray_prev = gray
        w = cw.bit_count()
        if 0 < w < best_w:
            best_w = w
            best_v = cw
    return best_w, best_v


def macwilliams_min_distance(dual_counts: Sequence[int], nbits: int, dual_dim: int) -> int:
    """Minimum nonzero weight of C from the weight distribution of its dual.

    Exact integer MacWilliams transform: A_i = 2^{-r} sum_j B_j K_i(j) with
    Krawtchouk polynomials evaluated by the standard three-term recurrence.
    """
    n = nbits
    B = [int(x) for x in dual_counts]
    denom = 1 << dual_dim
    K_prev = [1] * (n + 1)  # K_0(j)
    K_cur = [n - 2 * j for j in range(n + 1)]  # K_1(j)
    for i in range(1, n + 1):
        Ai = sum(b * k for b, k in zip(B, K_cur))
        if Ai % denom:
            raise ArithmeticError("MacWilliams transform not integral; bad input")
        Ai //= denom
        if Ai < 0:
            raise ArithmeticError("negative weight count; bad input")
        if Ai > 0:
            return i
        K_next = [
            ((n - 2 * j) * K_cur[j] - (n - i + 1) * K_prev[j]) // (i + 1)
            for j in range(n + 1)
        ]
        K_prev, K_cur = K_cur, K_next
    return 0  # trivial code


# --- low-weight support search ----------------------------------------------

def _column_signatures(cols_packed: np.ndarray, seed: int = 0x5EED) -> np.ndarray:
    """64-bit GF(2) random-projection signatures, linear under XOR."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    nwords = cols_packed.shape[1]
    sig = np.zeros(cols_packed.shape[0], dtype=np.uint64)
    for bit in range(64):
        masks = rng.integers(0, 1 << 63, size=nwords, dtype=np.uint64) * np.uint64(2) + rng.integers(0, 2, size=nwords, dtype=np.uint64)
        par = np.bitwise_count(cols_packed & masks[None, :]).sum(axis=1) & 1
        sig |= par.astype(np.uint64) << np.uint64(bit)
    return sig


def _search_weight_le4(columns: Sequence[int], nbits: int, pair_budget: int) -> tuple[Optional[tuple[int, ...]], int]:
    """Exhaustive search for a dependent column set of size <= 4.

    Returns (support or None, certified_weight_bound): supports of every
    weight up to the bound were exhausted.  Weight-4 search is skipped when
    C(b,2) exceeds ``pair_budget`` (the bound then stops at 3).
    """
    b = len(columns)
    # weight 1: a zero column
    for j, c in enumerate(columns):
        if c == 0:
            return (j,), 1
    # weight 2: duplicate columns
    seen: dict[int, int] = {}
    for j, c in enumerate(columns):
        if c in seen:
            return (seen[c], j), 2
        seen[c] = j
    if b < 3:
        return None, 4
    cols_packed = pack_ints(columns, nbits)
    sig = _column_signatures(cols_packed)
    sig_sorted = np.sort(sig)
    col_index = seen  # column bitmask -> index
    # weight 3: pair XOR equal to a third column
    for i in range(b - 1):
        x = sig[i] ^ sig[i + 1 :]
        hit = np.nonzero(np.isin(x, sig_sorted, assume_unique=False))[0]
        for h in hit:
            j = i + 1 + int(h)
            c3 = columns[i] ^ columns[j]
            k = col_index.get(c3)
            if k is not None and k != i and k != j:
                return tuple(sorted((i, j, k))), 3
    n_pairs = b * (b - 1) // 2
    if n_pairs > pair_budget:
        return None, 3
    # weight 4: two disjoint pairs with equal XOR (signature collision, verified)
    pair_sig = np.empty(n_pairs, dtype=np.uint64)
    pair_i = np.empty(n_pairs, dtype=np.int32)
    pair_j = np.empty(n_pairs, dtype=np.int32)
    pos = 0
    for i in range(b - 1):
        cnt = b - 1 - i
        pair_sig[pos : pos + cnt] = sig[i] ^ sig[i + 1 :]
        pair_i[pos : pos + cnt] = i
        pair_j[pos : pos + cnt] = np.arange(i + 1, b, dtype=np.int32)
        pos += cnt
    order = np.argsort(pair_sig, kind="stable")
    ps = pair_sig[order]
    run_starts = np.nonzero(np.concatenate(([True], ps[1:] != ps[:-1])))[0]
    run_ends = np.concatenate((run_starts[1:], [len(ps)]))
    for lo, hi in zip(run_starts, run_ends):
        if hi - lo < 2:
            continue
        members = order[lo:hi]
        for x in range(len(members)):
            ia, ja = int(pair_i[members[x]]), int(pair_j[members[x]])
            for y in range(x + 1, len(members)):
                ib, jb = int(pair_i[members[y]]), int(pair_j[members[y]])
                if len({ia, ja, ib, jb}) == 4 and columns[ia] ^ columns[ja] == columns[ib] ^ columns[jb]:
                    return tuple(sorted((ia, ja, ib, jb))), 4
    return None, 4


def _support_dfs(columns: Sequence[int], nbits: int, max_weight: int) -> Optional[tuple[int, ...]]:
    """Find any dependent column set of size <= max_weight (complete search).

    Branch rule: the lowest set bit of the running XOR must be cancelled by a
    later-chosen column containing that bit, so every dependent set is reached.
    Intended for small instances; weights <= 4 should use the hashed search.
    """
    by_bit: list[list[int]] = [[] for _ in range(nbits)]
    for j, c in enumerate(columns):
        cc = c
        while cc:
            low = cc & -cc
            by_bit[low.bit_length() - 1].append(j)
            cc ^= low
    max_colw = max((c.bit_count() for c in columns), default=1) or 1

    def extend(acc: int, chosen: list[int]) -> Optional[list[int]]:
        if acc == 0:
            return list(chosen)
        remaining = max_weight - len(chosen)
        if remaining <= 0 or (acc.bit_count() + max_colw - 1) // max_colw > remaining:
            return None
        bit = (acc & -acc).bit_length() - 1
        for j in by_bit[bit]:
            if j in chosen:
                continue
            chosen.append(j)
            got = extend(acc ^ columns[j], chosen)
            if got is not None:
                return got
            chosen.pop()
        return None

    for j0 in range(len(columns)):
        got = extend(columns[j0], [j0])
        if got is not None and len(got) > 1:
            return tuple(sorted(got))
    return None


def min_distance(
    M: BitMatrix,
    strategy: str = "auto",
    budget: Optional[DistanceBudget] = None,
) -> DistanceResult:
    """Minimum distance of the binary code with parity-check matrix M.

    Strategies:
      - "enumerate_codewords": exhaustive; requires dim = cols - rank <= cap,
        or rank <= dual cap (dual-side enumeration + exact MacWilliams
        transform — same exhaustive guarantee from the other side).
      - "enumerate_supports": exhaustive over column supports up to the weight
        cap; exact if a codeword is found at or below the certified bound,
        otherwise a bounded result.
      - "randomized_search": random combinations of a nullspace basis; after
        each draw the lightest vector so far is greedily peeled by adding
        basis vectors while that lowers its weight; upper bound only.
      - "auto": codeword/dual enumeration when within caps, else supports,
        else randomized.
    """
    if budget is None:
        budget = DistanceBudget()
    prof = M.rank_profile()
    dim = M.cols - prof.rank
    if dim == 0:
        return DistanceResult("exact", 0, 0, None)

    def by_codewords() -> DistanceResult:
        code_side_ok = dim <= budget.exponent_cap
        dual_side_ok = prof.rank <= budget.dual_exponent_cap
        if code_side_ok and (dim <= prof.rank or not dual_side_ok):
            basis = nullspace_basis(M).row_bits()
            if dim <= 18:
                w, v = _min_weight_with_witness(basis, M.cols)
                wit = tuple(j for j in range(M.cols) if (v >> j) & 1)
                return DistanceResult("exact", w, w, wit)
            counts = weight_distribution(basis, M.cols)
            d = next(w for w in range(1, M.cols + 1) if counts[w] > 0)
            return DistanceResult("exact", d, d, None)
        if dual_side_ok:
            dual_counts = weight_distribution(prof.rref.row_bits(), M.cols)
            d = macwilliams_min_distance(dual_counts, M.cols, prof.rank)
            return DistanceResult("exact", d, d, None)
        raise ValueError(
            f"enumeration infeasible: dim={dim} > cap {budget.exponent_cap} and "
            f"rank={prof.rank} > dual cap {budget.dual_exponent_cap}"
        )

    def by_supports() -> DistanceResult:
        columns = M.transpose().row_bits()
        found, certified = _search_weight_le4(columns, M.rows, budget.support_pair_budget)
        if found is not None:
            return DistanceResult("exact", len(found), len(found), found)
        wcap = budget.support_weight_cap
        if wcap > certified:
            got = _support_dfs(columns, M.rows, wcap)
            if got is not None and len(got) <= certified + 1:
                # DFS found the first weight above the hashed range
                return DistanceResult("exact", len(got), len(got), got)
            if got is not None:
                return DistanceResult("bounded", certified + 1, len(got), got)
            certified = wcap
        return DistanceResult("bounded", certified + 1, M.cols, None)

    def by_random() -> DistanceResult:
        rng = np.random.Generator(np.random.Philox(key=budget.randomized_seed))
        best_w = M.cols
        best_v = None
        basis = nullspace_basis(M).row_bits()
        for _ in range(budget.randomized_trials):
            x = 0
            for v in basis:
                if rng.integers(0, 2):
                    x ^= v
            w = x.bit_count()
            if 0 < w < best_w:
                best_w, best_v = w, x
            # greedy peeling: try removing basis vectors to reduce weight
            improved = True
            while improved and best_v is not None:
                improved = False
                for v in basis:
                    w2 = (best_v ^ v).bit_count()
                    if 0 < w2 < best_w:
                        best_v ^= v
                        best_w = w2
                        improved = True
        wit = None
        if best_v is not None:
            wit = tuple(j for j in range(M.cols) if (best_v >> j) & 1)
        return DistanceResult("bounded", 1, best_w, wit)

    if strategy == "enumerate_codewords":
        return by_codewords()
    if strategy == "enumerate_supports":
        return by_supports()
    if strategy == "randomized_search":
        return by_random()
    if strategy != "auto":
        raise ValueError(f"unknown strategy {strategy!r}")
    if dim <= budget.exponent_cap or prof.rank <= budget.dual_exponent_cap:
        return by_codewords()
    res = by_supports()
    if res.status == "exact":
        return res
    rnd = by_random()
    lower = res.lower
    upper = min(res.upper, rnd.upper)
    wit = rnd.witness if rnd.upper <= res.upper else res.witness
    if lower == upper:
        return DistanceResult("exact", lower, upper, wit)
    return DistanceResult("bounded", lower, upper, wit)
