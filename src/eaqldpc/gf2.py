"""Dense bit-packed GF(2) matrix algebra.

A ``BitMatrix`` stores one layout: a read-only ``(rows, ceil(cols/64))``
``uint64`` array in which bit j % 64 of word j // 64 of row i is the (i, j)
entry and bits past ``cols`` are zero.  ``to_packed`` returns that array and
``from_packed`` takes one; the int-bitmask rows of ``BitMatrix(rows, cols,
ints)`` and ``row_bits`` are the boundary form for tests and files, converted
only by ``pack_ints``/``unpack_ints``.  ``transpose`` unpacks and repacks row
blocks of about ``PRODUCT_CHUNK_WORDS`` bytes, so it never holds a dense
``rows x cols`` byte array.

Elimination is one M4RI-style kernel (Albrecht, Bard and Hart, ACM TOMS
2010), ``_echelon``: per 64-column word it finds the pivots on the word's
distinct values, reduces the pivot rows among themselves and clears the word
from all other rows through 256-entry tables of pivot-row combinations,
XORed in place into row blocks of about ``ECHELON_BLOCK_WORDS`` words.
Zero rows are squeezed out in place as they appear, so low-rank matrices
stop early and the elimination holds one copy of its input.  The fully
reduced form is unique for a row space, so pivots and ``rref`` equal those
of any Gauss-Jordan elimination.  ``gram_rank`` never forms the rows x rows
product M M^T: it reduces ``GRAM_CHUNK_ROWS`` of its rows at a time against
the fully reduced basis of the rows before, so it holds one chunk and the
basis.

``weight_distribution`` enumerates the span of a systematic basis: k packed
rows that are the identity on k given unit columns, as the fully reduced rows
are on their pivots and the nullspace basis is on the free columns.  A span
vector then holds its own coefficients on the unit columns, so its weight is
the popcount of its coefficients plus its weight on the n - k other columns,
and only those are stored.  The XOR of all k rows is their sum, so the
all-ones word is in the span iff every column holds an odd number of ones;
such a span is S' and its complement S' + 1 with S' the span of the first
k - 1 rows, so only S' is walked and A_w = A'_w + A'_{n-w} (MacWilliams and
Sloane, ch. 1).  The walk is an inner block of the 2^16 combinations of the
first 16 basis vectors times a Gray walk over the combinations of the rest.
The inner block is stored word-major, as a ``(words, 2^16)`` array with each
64-bit word of all inner vectors contiguous, so the weights of one outer step
are summed word by word onto the inner and outer coefficients' popcounts in a
``uint8`` (``uint16`` from 256 bits, ``uint32`` from 2^16) vector.  That
vector is binned through a ``uint16`` view: a key is a pair of ``uint8``
weights (low + 256 * high, whose two marginals give the counts) or one
``uint16`` weight, so ``bincount`` casts half as many keys to ``intp``;
``uint32`` weights are binned as they are.

``min_distance`` is exhaustive only: it enumerates the code (up to 2^26
codewords) or its dual (up to 2^28 vectors, then an exact MacWilliams
transform) and returns what enumeration knows, an ``EnumeratedDistance``
(d, a witness support where the code side found one, and the side), or
None when both sides are larger.  Whether a d is exact, theorem-only or
bounded is decided in ``eaqecc.distance_verdict``, not here.  The two
codes of a plane PG(2, q) or EG(2, q) are equivalent through its polarity,
so a table run calls it for one of them only (``eaqecc.distance_verdict`` moves the result
to the other through the checked ``geometry.plane_polarity``).

All matrices are immutable after construction; derived data (rank, rank
profile, transpose) is computed lazily and cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

WORD_BITS = 64
# words of B rows gathered at once by _product; transpose unpacks about as
# many bytes per row block
PRODUCT_CHUNK_WORDS = 1 << 17
# words of a matrix that one table lookup of _xor_combinations XORs at once
ECHELON_BLOCK_WORDS = 1 << 15
# rows of M whose rows of M @ M.T gram_rank forms and reduces at once
GRAM_CHUNK_ROWS = 1024
# min_distance enumerates at most 2^26 codewords, or 2^28 dual-code vectors
CODEWORD_EXPONENT_CAP = 26
DUAL_EXPONENT_CAP = 28


def _word_count(bits: int) -> int:
    return -(-bits // WORD_BITS)


class BitMatrix:
    """An immutable dense matrix over GF(2), stored as packed uint64 rows."""

    __slots__ = ("rows", "cols", "_words", "_rank", "_rank_profile", "_transpose")

    def __init__(self, rows: int, cols: int, bits: Iterable[int]):
        """Rows given as int bitmasks (bit j of row i is the (i, j) entry);
        bits at or past ``cols`` are dropped."""
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        bits = [int(b) & ((1 << cols) - 1) for b in bits]
        if len(bits) != rows:
            raise ValueError(f"expected {rows} rows, got {len(bits)}")
        self._adopt(pack_ints(bits, cols), cols)

    def _adopt(self, words: np.ndarray, cols: int) -> None:
        """Take ``words`` as the stored rows: clear its bits past ``cols``
        and make it read-only, so no cached rank can go stale."""
        if words.ndim != 2 or cols < 0 or words.shape[1] != _word_count(cols):
            raise ValueError(f"expected (rows, {_word_count(cols)}) words for {cols} "
                             f"columns, got shape {words.shape}")
        if cols % WORD_BITS:
            words[:, -1] &= np.uint64((1 << cols % WORD_BITS) - 1)
        words.setflags(write=False)
        self.rows = words.shape[0]
        self.cols = cols
        self._words = words
        self._rank: Optional[int] = None
        self._rank_profile: Optional[RankProfile] = None
        self._transpose: Optional[BitMatrix] = None

    # --- constructors -----------------------------------------------------
    @classmethod
    def from_packed(cls, words, cols: int) -> BitMatrix:
        """A matrix holding a copy of the (rows, ceil(cols/64)) uint64 array
        ``words``; bits past ``cols`` are cleared."""
        M = cls.__new__(cls)
        M._adopt(np.array(words, dtype=np.uint64), cols)
        return M

    @classmethod
    def from_supports(cls, supports, cols: int) -> BitMatrix:
        """The len(supports) x cols matrix whose row i has ones at the column
        indices ``supports[i]``, a 2-D integer array (rows of one length).
        Each position column is scattered at once: it sets one bit per row,
        so its word updates never collide, and its temporaries hold one
        index per row, never one per incidence."""
        supports = np.asarray(supports)
        if supports.ndim != 2:
            raise ValueError(f"expected a 2-D array of column indices, got shape {supports.shape}")
        if supports.size and not (0 <= supports.min() and supports.max() < cols):
            raise ValueError(f"column index outside 0..{cols - 1}")
        words = np.zeros((len(supports), _word_count(cols)), dtype=np.uint64)
        rows = np.arange(len(supports))
        for col in supports.T:
            words[rows, col // WORD_BITS] |= np.uint64(1) << (col % WORD_BITS).astype(np.uint64)
        M = cls.__new__(cls)
        M._adopt(words, cols)
        return M

    @classmethod
    def from_dense(cls, array) -> BitMatrix:
        a = np.asarray(array, dtype=np.uint8) % 2
        if a.ndim != 2:
            raise ValueError("expected a 2-D array")
        return cls.from_packed(pack_bool_rows(a), a.shape[1])

    # --- element access ---------------------------------------------------
    def row_bits(self) -> tuple[int, ...]:
        """Rows as int bitmasks."""
        return tuple(unpack_ints(self._words))

    def supports(self) -> tuple[tuple[int, ...], ...]:
        """Per row, the ascending column indices of its ones."""
        rows, cols = np.nonzero(self.to_dense())
        ends = np.cumsum(np.bincount(rows, minlength=self.rows)).tolist()
        cols = cols.tolist()
        return tuple(tuple(cols[a:b]) for a, b in zip([0] + ends, ends))

    def to_dense(self) -> np.ndarray:
        return np.unpackbits(self._words.view(np.uint8), axis=1, count=self.cols,
                             bitorder="little")

    def to_packed(self) -> np.ndarray:
        """The stored (rows, ceil(cols/64)) uint64 array, read-only."""
        return self._words

    # --- basic algebra ----------------------------------------------------
    def transpose(self) -> BitMatrix:
        """Cached.  Unpacks blocks of 64k rows, about ``PRODUCT_CHUNK_WORDS``
        bytes each, and packs their transposes into 64k-column words."""
        if self._transpose is None:
            out = np.zeros((self.cols, _word_count(self.rows)), dtype=np.uint64)
            step = WORD_BITS * max(1, PRODUCT_CHUNK_WORDS // WORD_BITS // max(1, self.cols))
            for r0 in range(0, self.rows, step):
                bits = np.unpackbits(self._words[r0 : r0 + step].view(np.uint8), axis=1,
                                     count=self.cols, bitorder="little")
                w0 = r0 // WORD_BITS
                out[:, w0 : w0 + _word_count(len(bits))] = pack_bool_rows(bits.T)
            t = BitMatrix.from_packed(out, self.rows)
            t._transpose = self
            self._transpose = t
        return self._transpose

    def __matmul__(self, other: BitMatrix) -> BitMatrix:
        return multiply(self, other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and np.array_equal(self._words, other._words)
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._words.tobytes()))

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
class EnumeratedDistance:
    """An exhaustive ``min_distance`` result: the minimum nonzero weight ``d``
    of the code {x : Mx = 0} (0 for the trivial code), a ``witness`` column
    support of weight d whose GF(2) sum is zero or None where enumeration
    only counted weights, and the side that decided d: "code" (the
    codewords) or "dual" (the dual code, then the MacWilliams transform).
    The side is provenance and takes no part in equality."""

    d: int
    witness: Optional[tuple[int, ...]] = None
    side: str = field(default="code", compare=False)


def _xor_combinations(target: np.ndarray, rows: np.ndarray, coeff: np.ndarray) -> None:
    """XOR into row i of ``target``, in place, the combination of ``rows``
    (at most 64) that ``coeff[i]`` selects: bit k picks ``rows[k]``.

    Every eight rows give one 256-entry table of their combinations, indexed
    by one byte of ``coeff``; each table's lookups are XORed into blocks of
    about ``ECHELON_BLOCK_WORDS`` words of ``target``, so no temporary is
    the size of ``target``.  ``coeff`` is read once per table, so it must
    not be a view of ``target``.
    """
    step = max(1, ECHELON_BLOCK_WORDS // max(1, target.shape[1]))
    for g in range(0, len(rows), 8):
        table = np.zeros((1 << len(rows[g : g + 8]), rows.shape[1]), dtype=np.uint64)
        for i, r in enumerate(rows[g : g + 8]):
            table[1 << i : 2 << i] = table[: 1 << i] ^ r
        index = ((coeff >> np.uint64(g)) & np.uint64(0xFF)).astype(np.intp)
        for r0 in range(0, len(target), step):
            target[r0 : r0 + step] ^= table[index[r0 : r0 + step]]


def _gather_bits(A: np.ndarray, columns: Sequence[int]) -> np.ndarray:
    """Bit k of entry i of the result is column ``columns[k]`` (at most 64)
    of row i of the packed rows ``A``."""
    out = np.zeros(len(A), dtype=np.uint64)
    for k, c in enumerate(columns):
        bit = (A[:, c // WORD_BITS] >> np.uint64(c % WORD_BITS)) & np.uint64(1)
        out |= bit << np.uint64(k)
    return out


def _echelon(A: np.ndarray, reduced: bool) -> tuple[list[int], Optional[np.ndarray]]:
    """Row-reduce the packed rows ``A`` (rows, words), one column word at a time.

    Returns the pivot columns in ascending order and, when ``reduced``, the
    fully reduced echelon rows (one per pivot, same order) as a packed array.
    ``active`` holds the rows not yet reduced to zero, cut to the words from
    the current one on; all their earlier words are zero.  It lives in one
    copy of the nonzero rows of A: after each word the rows that stay are
    moved, ``ECHELON_BLOCK_WORDS`` words at a time, to the front of that
    copy, one word narrower, so the elimination holds no second copy and
    ``active`` stays contiguous.
    """
    words = A.shape[1]
    active = A[A.any(axis=1)]
    buf = active.reshape(-1)
    pivots: list[int] = []
    basis = np.zeros((0, words), dtype=np.uint64)
    for w in range(words):
        if not len(active):
            break
        word = active[:, 0]
        # the word's pivots: eliminate on its distinct values, lowest bit first
        vals, first = np.unique(word, return_index=True)
        bits: list[int] = []
        pick: list[int] = []
        while present := int(np.bitwise_or.reduce(vals)):
            low = present & -present
            hit = np.flatnonzero(vals & np.uint64(low))
            vals[hit] ^= vals[hit[0]]
            bits.append(low.bit_length() - 1)
            pick.append(int(first[hit[0]]))
        if bits:
            # reduce the picked rows so row j has bit bits[j] alone among the pivots
            vals_p = [int(x) for x in word[pick]]
            mix = [1 << j for j in range(len(bits))]
            for j, b in enumerate(bits):
                k = next(k for k in range(j, len(bits)) if vals_p[k] >> b & 1)
                vals_p[j], vals_p[k] = vals_p[k], vals_p[j]
                mix[j], mix[k] = mix[k], mix[j]
                for i in range(len(bits)):
                    if i != j and vals_p[i] >> b & 1:
                        vals_p[i] ^= vals_p[j]
                        mix[i] ^= mix[j]
            R = np.zeros((len(bits), active.shape[1]), dtype=np.uint64)
            _xor_combinations(R, active[pick], np.array(mix, dtype=np.uint64))
            _xor_combinations(active, R, _gather_bits(active, bits))
            if reduced:
                _xor_combinations(basis[:, w:], R, _gather_bits(basis[:, w:], bits))
                new = np.zeros((len(bits), words), dtype=np.uint64)
                new[:, w:] = R
                basis = np.vstack([basis, new])
            pivots += [WORD_BITS * w + b for b in bits]
        keep = np.flatnonzero(active[:, 1:].any(axis=1))
        width = words - w - 1
        step = max(1, ECHELON_BLOCK_WORDS // max(1, width))
        for i in range(0, len(keep), step):  # row keep[i] >= i: no unread row is overwritten
            moved = keep[i : i + step]
            buf[i * width : (i + len(moved)) * width] = active[moved, 1:].reshape(-1)
        active = buf[: len(keep) * width].reshape(len(keep), width)
    return pivots, basis if reduced else None


def rank(M: BitMatrix) -> RankProfile:
    """Rank profile of M: rank, pivot columns and the fully reduced row
    echelon form (pivot columns cleared above and below, same row space)."""
    pivots, basis = _echelon(M.to_packed(), reduced=True)
    M._rank = len(pivots)
    rref = BitMatrix.from_packed(basis, M.cols)
    return RankProfile(rank=len(pivots), pivot_columns=tuple(pivots), rref=rref)


def rank_value(M: BitMatrix) -> int:
    """rank(M), computed once per matrix and eliminated on the narrower side
    (rank is invariant under transposition, and short rows are cheap)."""
    if M._rank is None:
        A = M if M.cols <= M.rows else M.transpose()
        M._rank = A._rank = len(_echelon(A.to_packed(), reduced=False)[0])
    return M._rank


def _product(Ap: np.ndarray, Bp: np.ndarray) -> np.ndarray:
    """Packed rows of A @ B from the packed rows of A and B: row i XORs the
    rows of B picked by the bits of row i of A, in row chunks that gather
    about ``PRODUCT_CHUNK_WORDS`` words."""
    out = np.zeros((len(Ap), Bp.shape[1]), dtype=np.uint64)
    nnz = int(np.bitwise_count(Ap).sum())
    step = max(1, PRODUCT_CHUNK_WORDS * len(Ap) // max(1, nnz * Bp.shape[1]))
    for r0 in range(0, len(Ap), step):
        bits = np.unpackbits(Ap[r0 : r0 + step].view(np.uint8), axis=1, bitorder="little")
        row, col = np.nonzero(bits)
        if len(row):
            rows, starts = np.unique(row, return_index=True)
            out[r0 + rows] = np.bitwise_xor.reduceat(Bp[col], starts, axis=0)
    return out


def multiply(A: BitMatrix, B: BitMatrix) -> BitMatrix:
    """C = A @ B over GF(2)."""
    if A.cols != B.rows:
        raise ValueError(f"dimension mismatch: {A.cols} vs {B.rows}")
    return BitMatrix.from_packed(_product(A.to_packed(), B.to_packed()), B.cols)


def gram_rank(M: BitMatrix) -> int:
    """rank(M @ M.T) over GF(2), without holding the rows x rows product.

    The product's rows are formed ``GRAM_CHUNK_ROWS`` at a time.  A chunk is
    reduced by the fully reduced basis of the chunks before it (its bits at
    the basis pivots, read 64 at a time, pick the basis rows through the
    tables of ``_xor_combinations``), ``_echelon`` fully reduces what is
    left, and those rows clear their pivots from the basis and join it.
    Memory is one chunk of the product plus the basis, rank rows.
    """
    T = M.transpose().to_packed()
    basis = np.zeros((0, _word_count(M.rows)), dtype=np.uint64)
    pivots: list[int] = []
    for r0 in range(0, M.rows, GRAM_CHUNK_ROWS):
        G = _product(M.to_packed()[r0 : r0 + GRAM_CHUNK_ROWS], T)
        for g in range(0, len(pivots), WORD_BITS):
            picks = _gather_bits(G, pivots[g : g + WORD_BITS])
            _xor_combinations(G, basis[g : g + WORD_BITS], picks)
        if r0 + GRAM_CHUNK_ROWS >= M.rows:  # the last chunk: its rank is all that is left
            return len(pivots) + len(_echelon(G, reduced=False)[0])
        new, R = _echelon(G, reduced=True)
        for g in range(0, len(new), WORD_BITS):
            picks = _gather_bits(basis, new[g : g + WORD_BITS])
            _xor_combinations(basis, R[g : g + WORD_BITS], picks)
        basis = np.vstack([basis, R])
        pivots += new
    return len(pivots)


def nullspace_basis(M: BitMatrix) -> BitMatrix:
    """Rows form a basis of {x : Mx = 0}; row count = cols - rank.  Row i has
    a 1 at the i-th free column f and at each pivot whose rref row holds f."""
    prof = M.rank_profile()
    free = free_columns(M)
    basis = np.zeros((len(free), M.cols), dtype=np.uint8)
    basis[np.arange(len(free)), free] = 1
    basis[:, list(prof.pivot_columns)] = prof.rref.to_dense()[:, free].T
    return BitMatrix.from_dense(basis)


def free_columns(M: BitMatrix) -> np.ndarray:
    """The ascending non-pivot columns of M: ``nullspace_basis`` is the
    identity on them."""
    free = np.ones(M.cols, dtype=bool)
    free[list(M.rank_profile().pivot_columns)] = False
    return np.flatnonzero(free)


def in_row_space(M: BitMatrix, x) -> bool:
    """True iff x is a GF(2) combination of the rows of M.  The fully reduced
    rows are the identity on the pivot columns, so the only combination that
    can equal x is the XOR of the rows picked by x's bits there; x is in the
    row space iff that XOR equals x.  Memory is that of the cached RREF.

    ``x`` may be an int bitmask (bit j = coordinate j) or a 0/1 sequence whose
    length must equal ``M.cols``.
    """
    if not isinstance(x, int):
        seq = list(x)
        if len(seq) != M.cols:
            raise ValueError(f"vector length {len(seq)} != cols {M.cols}")
        x = sum(1 << j for j, v in enumerate(seq) if int(v) & 1)
    elif x >> M.cols:
        raise ValueError("vector has bits beyond matrix width")
    prof = M.rank_profile()
    picked = [i for i, p in enumerate(prof.pivot_columns) if x >> p & 1]
    combination = np.bitwise_xor.reduce(prof.rref.to_packed()[picked], axis=0)
    return np.array_equal(combination, pack_ints([x], M.cols)[0])


# --- packed-array helpers ---------------------------------------------------

def pack_ints(values: Sequence[int], nbits: int) -> np.ndarray:
    """Pack int bitmasks below 2^nbits into a (len, ceil(nbits/64)) uint64 array."""
    words = _word_count(nbits)
    buf = b"".join(int(v).to_bytes(8 * words, "little") for v in values)
    return np.frombuffer(buf, dtype="<u8").astype(np.uint64).reshape(len(values), words)


def unpack_ints(packed: np.ndarray) -> list[int]:
    """Rows of a packed (rows, words) uint64 array as int bitmasks."""
    size = 8 * packed.shape[1]
    buf = packed.astype("<u8").tobytes()
    return [int.from_bytes(buf[i * size : (i + 1) * size], "little") for i in range(len(packed))]


def pack_bool_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a (B, n) boolean array into (B, ceil(n/64)) uint64 rows."""
    B, n = bits.shape
    words = _word_count(n)
    padded = np.zeros((B, words * WORD_BITS), dtype=np.uint8)
    padded[:, :n] = bits
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)


def weight_distribution(basis: np.ndarray, nbits: int, unit_columns: Sequence[int]) -> list[int]:
    """Weight distribution of the span of a systematic basis (2^k vectors).

    ``basis`` holds k packed rows, a (k, ceil(nbits/64)) uint64 array as
    ``BitMatrix.to_packed`` returns, and must be the identity on the k
    columns ``unit_columns``: row i has a 1 at ``unit_columns[i]`` and no
    other row has one there.  Fully reduced rows with their pivot columns and
    ``nullspace_basis`` rows with the free columns qualify; any other basis
    raises ValueError.  Such a basis is independent, so each of the 2^k span
    vectors is counted once.  Returns counts[w] for w = 0..nbits.  Cost is
    2^k popcounts of n - k bits, or 2^(k-1) when the span holds the all-ones
    word, vectorized in blocks of up to 2^16 and binned through ``uint16``
    keys; see the module docstring for the layout and the halving.
    """
    k = len(basis)
    unit_columns = list(unit_columns)
    bits = np.unpackbits(basis.view(np.uint8), axis=1, count=nbits, bitorder="little")
    if not np.array_equal(bits[:, unit_columns], np.eye(k, dtype=np.uint8)):
        raise ValueError("basis is not the identity on unit_columns")
    if k == 0:
        return [1] + [0] * nbits
    # the all-ones word, the XOR of all k rows, is in the span iff every column
    # has an odd number of ones; the span is then S' and S' + 1 with S' the
    # span of the first k - 1 rows, whose last unit column is always zero
    complemented = k > 1 and bool(np.all(bits.sum(axis=0, dtype=np.int64) & 1))
    if complemented:
        k -= 1
    rest = np.ones(nbits, dtype=bool)
    rest[unit_columns] = False
    rows = pack_bool_rows(bits[:k, rest])
    k2 = min(k, 16)
    inner = np.zeros((rows.shape[1], 1 << k2), dtype=np.uint64)
    for i in range(k2):
        inner[:, 1 << i : 2 << i] = inner[:, : 1 << i] ^ rows[i][:, None]
    wtype = np.min_scalar_type(nbits)
    inner_units = np.bitwise_count(np.arange(1 << k2, dtype=np.uint32)).astype(wtype)
    # one uint16 key per uint8 weight pair (k2 >= 1, so the block has even
    # length) or per uint16 weight; uint32 weights are binned as they are
    keys = np.uint16 if wtype.itemsize <= 2 else wtype
    hist = np.zeros(max(1 << 16, nbits + 1), dtype=np.int64)
    outer = rows[k2:]
    acc = np.zeros(rows.shape[1], dtype=np.uint64)
    w = np.empty_like(inner_units)
    for t in range(1 << len(outer)):
        if t:  # Gray walk: step t flips outer vector (lowest set bit of t)
            acc ^= outer[(t & -t).bit_length() - 1]
        np.add(inner_units, (t ^ (t >> 1)).bit_count(), out=w)
        for row, x in zip(inner, acc):
            w += np.bitwise_count(row ^ x)
        binned = np.bincount(w.view(keys))
        hist[: len(binned)] += binned
    if wtype == np.uint8:  # key = low weight + 256 * high weight: add both marginals
        joint = hist.reshape(256, 256)
        hist = joint.sum(axis=0) + joint.sum(axis=1)
    counts = hist[: nbits + 1]
    if complemented:  # |v + 1| = nbits - |v|
        counts = counts + counts[::-1]
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


def min_distance(M: BitMatrix) -> Optional[EnumeratedDistance]:
    """Exact minimum distance of the binary code with parity-check matrix M,
    by exhaustive enumeration, or None when no side is within its cap.

    The code side enumerates the 2^dim codewords when dim = cols - rank is at
    most ``CODEWORD_EXPONENT_CAP`` and no larger than rank (or the dual side
    is over its cap); up to dim 18 a Gray walk also returns a witness support,
    above it ``weight_distribution`` only counts.  Otherwise the dual side
    enumerates the 2^rank vectors of the row space when rank is at most
    ``DUAL_EXPONENT_CAP`` and takes d from the exact MacWilliams transform.
    The rank comes from ``rank_value``; M is fully reduced only once a side
    is chosen.
    """
    rk = rank_value(M)
    dim = M.cols - rk
    if dim == 0:
        return EnumeratedDistance(0)
    code_side_ok = dim <= CODEWORD_EXPONENT_CAP
    dual_side_ok = rk <= DUAL_EXPONENT_CAP
    if code_side_ok and (dim <= rk or not dual_side_ok):
        null = nullspace_basis(M)
        if dim <= 18:
            w, v = _min_weight_with_witness(null.row_bits(), M.cols)
            wit = tuple(j for j in range(M.cols) if (v >> j) & 1)
            return EnumeratedDistance(w, wit, side="code")
        counts = weight_distribution(null.to_packed(), M.cols, free_columns(M))
        d = next(w for w in range(1, M.cols + 1) if counts[w] > 0)
        return EnumeratedDistance(d, side="code")
    if dual_side_ok:
        prof = M.rank_profile()
        dual_counts = weight_distribution(prof.rref.to_packed(), M.cols, prof.pivot_columns)
        d = macwilliams_min_distance(dual_counts, M.cols, rk)
        return EnumeratedDistance(d, side="dual")
    return None
