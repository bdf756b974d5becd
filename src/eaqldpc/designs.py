"""Incidence structures: Steiner 2-designs, cyclic development, transversal
designs, spreads, subdesign deletion, girth and Pasch counting.

Blocks are stored as integer arrays (``IncidenceStructure.arrays``): one
``(count, size)`` array per block size, the sizes in order of first
appearance, int32 while v^2 fits so that every pair id a*v + b does, else
int64.  A block's points ascend, and every construction here emits its
blocks in lexicographic order (``IncidenceStructure.from_arrays``), so it is
reproducible bit for bit across runs.  The arrays are the only block
representation: validation, the incidence matrix, spreads, deletion, the
pair checks, the girth and Pasch counting all read them, and
``IncidenceStructure.block(j)`` gives one block as a point tuple.

Every pair check (Steiner, partial Steiner, GDD and the 4-cycle test of
``tanner_girth``) walks the in-block pairs in chunks of about
``PAIR_CHUNK_IDS`` ids, one range of first points at a time, so its memory
is that budget plus the block arrays and their int32 column orders, not the
pair count.  Under lambda <= 1 the girth is 6 exactly when, for some point
p, a block not through p holds two points of the blocks through p.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .fields import field_for_order
from .gf2 import BitMatrix

# pair ids generated, sorted and checked at once by _pair_chunks
PAIR_CHUNK_IDS = 1 << 18


class DesignError(ValueError):
    """A structure failed verification."""


class BlockSizeError(DesignError):
    def __init__(self, block, expected):
        super().__init__(f"block {block} has size {len(block)}, expected {expected}")
        self.block = tuple(block)
        self.expected = expected


class UncoveredPairError(DesignError):
    def __init__(self, pair):
        super().__init__(f"point pair {pair} is covered by no block")
        self.pair = pair


class DoublyCoveredPairError(DesignError):
    def __init__(self, pair):
        super().__init__(f"point pair {pair} is covered more than once")
        self.pair = pair


@dataclass(frozen=True)
class DesignParams:
    """Parameters of a 2-(v, mu, lambda) design; b and r from Eqs. for a 2-design."""

    v: int
    mu: int
    lam: int
    b: int
    r: int


def _point_dtype(v: int):
    """int32 while every pair id a*v + b < v^2 fits, int64 while points
    do, else object."""
    return np.int32 if v * v < 2**31 else np.int64 if v <= 2**63 else object


def _first_repeat(A: np.ndarray) -> Optional[int]:
    """The index of the first row of A equal to an earlier row, or None.
    Rows that ascend lexicographically, as every construction emits them,
    are settled without a sort."""
    n, k = A.shape
    if n < 2 or k == 0:
        return 1 if n > 1 else None
    step = A[1:] != A[:-1]
    col = step.argmax(axis=1)
    rows = np.arange(n - 1)
    if step.any(axis=1).all() and (A[1:][rows, col] > A[:-1][rows, col]).all():
        return None
    order = np.lexsort(A.T[::-1])  # stable: equal rows stay in index order
    same = (A[order[1:]] == A[order[:-1]]).all(axis=1)
    return int(order[1:][same].min()) if same.any() else None


class IncidenceStructure:
    """Points 0..v-1 and a sequence of blocks, each a strictly increasing
    point set within 0..v-1, no block twice.  ``arrays`` holds the blocks
    grouped by size (see the module docstring).  Immutable; two structures
    are equal, and hash equally, when v, the block sequence, provenance and
    groups agree."""

    __slots__ = ("v", "arrays", "provenance", "groups", "_positions")

    def __init__(self, v: int, blocks: Iterable[Sequence[int]], provenance: str = "",
                 groups: Optional[tuple[tuple[int, ...], ...]] = None):
        """Blocks as point sequences, in the order given."""
        blocks = tuple(map(tuple, blocks))
        sizes = np.fromiter(map(len, blocks), dtype=np.intp, count=len(blocks))
        values, first = np.unique(sizes, return_index=True)  # sizes by first appearance
        positions = [np.flatnonzero(sizes == values[i]) for i in np.argsort(first)]
        arrays = []
        for rows in positions:
            points = [blocks[j] for j in rows.tolist()]
            try:
                A = np.array(points, dtype=np.int64)
            except OverflowError:  # a point past 64 bits
                A = np.array(points, dtype=object)
            arrays.append(A.reshape(len(rows), sizes[rows[0]]))
        self._adopt(v, arrays, positions, provenance, groups)

    @classmethod
    def from_arrays(cls, v: int, arrays: Sequence[np.ndarray], provenance: str = "",
                  groups: Optional[tuple[tuple[int, ...], ...]] = None) -> IncidenceStructure:
        """The structure whose blocks are the rows of these 2-D integer
        arrays (of any sizes), each row's points sorted, the rows in
        lexicographic order; rows of different sizes are ordered as tuples."""
        arrays = [A for A in arrays if len(A)]
        if len({A.shape[1] for A in arrays}) > 1:  # several sizes: sorted as tuples
            rows = (tuple(r) for A in arrays for r in np.sort(A, axis=1).tolist())
            return cls(v, sorted(rows), provenance, groups)
        dtype = np.int64
        if all(A.min() >= 0 and A.max() < v for A in arrays if A.size):
            dtype = _point_dtype(v)  # every point in range: narrow before sorting
        A = np.concatenate(arrays or [np.empty((0, 0))], dtype=dtype)
        A.sort(axis=1)
        return cls._stored(v, [A[np.lexsort(A.T[::-1])] if A.shape[1] else A] if len(A) else [],
                           [], provenance, groups)

    @classmethod
    def _stored(cls, v, arrays, positions, provenance, groups) -> IncidenceStructure:
        S = cls.__new__(cls)
        S._adopt(v, arrays, positions, provenance, groups)
        return S

    def _adopt(self, v, arrays, positions, provenance, groups) -> None:
        """Check and store the size-grouped ``arrays`` whose rows are the
        blocks at ``positions`` (one ascending index array per array; empty
        when there is at most one array).  The error names the first
        offending block; within a block sorting is checked first, then the
        range, then whether it repeats an earlier block."""
        if v < 0:
            raise DesignError(f"negative point count v={v}")
        faults = []  # (block index, check, array, row)
        for g, A in enumerate(arrays):
            unsorted = np.flatnonzero((A[:, 1:] <= A[:, :-1]).any(axis=1))[:1].tolist()
            outside = np.flatnonzero(((A < 0) | (A >= v)).any(axis=1))[:1].tolist()
            repeat = _first_repeat(A)
            for check, rows in enumerate((unsorted, outside, [] if repeat is None else [repeat])):
                faults += [(int(positions[g][r]) if positions else r, check, g, r) for r in rows]
        if faults:
            _, check, g, r = min(faults)
            message = ("block {b} not sorted/distinct", "block {b} out of range for v={v}",
                       "duplicate block {b}")[check]
            raise DesignError(message.format(b=tuple(arrays[g][r].tolist()), v=v))
        set_ = object.__setattr__
        dtype = _point_dtype(v)
        arrays = tuple(A.astype(dtype, copy=False) for A in arrays)
        for A in arrays + tuple(positions):
            A.setflags(write=False)
        set_(self, "v", v)
        set_(self, "arrays", arrays)
        set_(self, "_positions", tuple(positions) if len(arrays) > 1 else None)
        set_(self, "provenance", provenance)
        set_(self, "groups", groups)

    def __setattr__(self, name, value):
        raise AttributeError(f"IncidenceStructure is immutable; cannot set {name}")

    def __reduce__(self):  # copies and pickles rebuild through the checks
        return IncidenceStructure._stored, (self.v, list(self.arrays), list(self._positions or ()),
                                            self.provenance, self.groups)

    def _key(self) -> tuple:
        data = tuple((A.shape, repr(A.tolist()) if A.dtype == object else A.tobytes())
                     for A in self.arrays + (self._positions or ()))
        return self.v, data, self.provenance, self.groups

    def __eq__(self, other) -> bool:
        if not isinstance(other, IncidenceStructure):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"IncidenceStructure(v={self.v}, b={self.b}, provenance={self.provenance!r})"

    def located(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(array, block index of each of its rows) per size group."""
        if self._positions is None:
            return [(A, np.arange(len(A))) for A in self.arrays]
        return list(zip(self.arrays, self._positions))

    def block(self, j: int) -> tuple[int, ...]:
        """The points of block j."""
        try:
            [(A, _)] = _blocks_at(self, [j])
        except (IndexError, OverflowError):
            raise IndexError(f"block index {j} out of range for b={self.b}") from None
        return tuple(A[0].tolist())

    @property
    def b(self) -> int:
        return sum(len(A) for A in self.arrays)

    def point_by_block(self) -> BitMatrix:
        """The v x b incidence matrix: ``block_by_point``'s transpose, which
        it caches, so either orientation reaches the other without a build."""
        return self.block_by_point().transpose()

    def block_by_point(self) -> BitMatrix:
        """The b x v incidence matrix, scattered from the block arrays."""
        if self._positions is None and self.arrays:
            return BitMatrix.from_supports(self.arrays[0], self.v)
        words = np.zeros((self.b, -(-self.v // 64)), dtype=np.uint64)
        for A, at in self.located():
            words[at] = BitMatrix.from_supports(A, self.v).to_packed()
        return BitMatrix.from_packed(words, self.v)

    def replication_counts(self) -> list[int]:
        r = np.zeros(self.v, dtype=np.int64)
        for A in self.arrays:
            r += np.bincount(A.ravel(), minlength=self.v)
        return r.tolist()


@dataclass(frozen=True)
class SpreadPartition:
    """Pairwise disjoint subdesign parts: (point set, indices of their blocks)."""

    parts: tuple[tuple[frozenset, tuple[int, ...]], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for pts, _ in self.parts:
            if seen & pts:
                raise DesignError("spread parts share points")
            seen |= pts

    def __len__(self):
        return len(self.parts)


def check_admissible(v: int, mu: int, lam: int = 1) -> bool:
    """Necessary divisibility conditions for a 2-(v, mu, lam) design."""
    if not (v > mu >= 2 and lam >= 1):
        raise ValueError("need v > mu >= 2 and lambda >= 1")
    return lam * (v - 1) % (mu - 1) == 0 and lam * v * (v - 1) % (mu * (mu - 1)) == 0


def _pair_chunks(v: int, arrays: list[np.ndarray]) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield ``(lo, hi, ids)`` for ascending ranges lo..hi-1 of first points
    that together cover 0..v-1: ``ids`` are the sorted ids a*v + b of the
    in-block pairs (a, b), a < b, with lo <= a < hi, once per block holding
    the pair, in the dtype of ``arrays``: a structure's block arrays of two
    or more points per block, int32 while v^2 fits, so every pair id does.

    Every copy of a pair lies in its first point's range, so a repeated pair
    repeats within one chunk, and the chunks ascend in id order.  Ranges are
    cut from the per-point pair counts to hold about ``PAIR_CHUNK_IDS`` ids
    (more only when one point has more pairs).  Each position column of a
    block array is sorted once, so a range's first points at that position
    are one contiguous slice of the sort order, kept as int32 while the rows
    fit; the walk holds one chunk and these orders beside the block arrays,
    never every pair at once.
    """
    counts = np.zeros(v, dtype=np.int64)
    for A in arrays:
        for i in range(A.shape[1] - 1):
            counts += np.bincount(A[:, i], minlength=v) * (A.shape[1] - 1 - i)
    before = np.concatenate(([0], np.cumsum(counts)))  # ids with first point < p
    ends = np.searchsorted(before[1:], np.arange(PAIR_CHUNK_IDS, before[-1], PAIR_CHUNK_IDS), "right")
    cuts = np.unique(np.concatenate(([0], ends, [v])))
    columns = []  # (first points, later points, sort order, range slice bounds)
    for A in arrays:
        for i in range(A.shape[1] - 1):
            order = np.argsort(A[:, i]).astype(np.int32 if len(A) < 2**31 else np.int64)
            columns.append((A[:, i], A[:, i + 1 :], order, np.searchsorted(A[order, i], cuts)))
    dtype = arrays[0].dtype if arrays else np.int32
    for c in range(len(cuts) - 1):
        ids = np.empty(before[cuts[c + 1]] - before[cuts[c]], dtype=dtype)
        pos = 0
        for first, later, order, bounds in columns:
            rows = order[bounds[c] : bounds[c + 1]]
            out = ids[pos : pos + rows.size * later.shape[1]].reshape(rows.size, later.shape[1])
            np.add(later[rows], (first[rows] * v)[:, None], out=out)
            pos += out.size
        ids.sort()
        yield int(cuts[c]), int(cuts[c + 1]), ids


def _check_pairs(S: IncidenceStructure, mu: int, group_of: Optional[np.ndarray]) -> None:
    """Raise on the first block whose size is not mu, then on the first pair
    (a, b), in lexicographic order, that lies in two blocks.  Given each
    point's group, ``group_of[p]``, raise then on the first pair in different
    groups that lies in no block.  Blocks must meet no group twice: the
    covered pairs are counted against the cross-group pairs, and the search
    runs only when they fall short.

    Both passes walk ``_pair_chunks``, so memory is the block arrays plus
    one chunk of about ``PAIR_CHUNK_IDS`` ids, whatever the number of pairs.
    The search counts each chunk's pairs by first point against that
    point's later points in other groups; the first point that falls short
    names the pair, its first cross-group partner missing from the chunk.
    """
    wrong = [at[0] for A, at in S.located() if A.shape[1] != mu]
    if wrong:
        raise BlockSizeError(S.block(min(wrong)), mu)
    arrays = [A for A in S.arrays if A.shape[1] > 1]
    covered = 0
    for _, _, ids in _pair_chunks(S.v, arrays):
        again = np.flatnonzero(ids[1:] == ids[:-1])
        if again.size:
            raise DoublyCoveredPairError(divmod(int(ids[again[0]]), S.v))
        covered += ids.size
    if group_of is None:
        return
    v = S.v
    sizes = np.bincount(group_of)
    if covered < (v * (v - 1) - int(sizes @ (sizes - 1))) // 2:
        # each point's later points outside its group: all later points
        # minus its group's points after it
        order = np.argsort(group_of, kind="stable")
        rank = np.empty(v, dtype=np.int64)  # points of the same group before it
        rank[order] = np.arange(v) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        later = (v - 1 - np.arange(v)) - (sizes[group_of] - 1 - rank)
        for lo, hi, ids in _pair_chunks(v, arrays):
            short = np.flatnonzero(np.bincount(ids // v - lo, minlength=hi - lo) < later[lo:hi])
            if short.size:
                a = lo + int(short[0])
                partners = ids[np.searchsorted(ids, a * v) : np.searchsorted(ids, (a + 1) * v)] % v
                cross = a + 1 + np.flatnonzero(group_of[a + 1 :] != group_of[a])
                raise UncoveredPairError((a, int(np.setdiff1d(cross, partners)[0])))


def verify_steiner(S: IncidenceStructure, mu: int) -> DesignParams:
    """Verify S is an S(2, mu, v): uniform block size, every pair exactly once."""
    if mu < 2:
        raise DesignError(f"a Steiner system S(2, mu, v) needs mu >= 2, got {mu}")
    _check_pairs(S, mu, np.arange(S.v))
    bcount = S.v * (S.v - 1) // (mu * (mu - 1))
    r = (S.v - 1) // (mu - 1)
    if S.b != bcount:
        raise DesignError(f"block count {S.b} != {bcount}")
    return DesignParams(v=S.v, mu=mu, lam=1, b=bcount, r=r)


def verify_partial_steiner(S: IncidenceStructure, mu: int) -> None:
    """Every block has size mu and every pair is covered at most once."""
    _check_pairs(S, mu, None)


def build_sts(v: int) -> IncidenceStructure:
    """Steiner triple system of order v (v = 1 or 3 mod 6, v >= 7).

    v = 3 mod 6 uses the Bose construction on an idempotent commutative
    quasigroup over Z_{2n+1}; v = 1 mod 6 uses the Skolem construction on a
    half-idempotent commutative quasigroup over Z_{2n}.  The result is
    verified before returning.
    """
    if v < 7 or v % 6 not in (1, 3):
        raise DesignError(f"no STS({v}): need v = 1 or 3 (mod 6), v >= 7")
    if v % 6 == 3:
        n = (v - 3) // 6
        order, first, o = 2 * n + 1, 2 * n + 1, 0  # point (x, i) is o + 3x + i
        x, y = np.triu_indices(order, 1)
        z = ((x + y) * (n + 1)) % order  # n + 1 is the inverse of 2 mod 2n + 1
        rows = []
    else:
        n = (v - 1) // 6
        order, first, o = 2 * n, n, 1  # 0 is the infinity point
        x, y = np.triu_indices(order, 1)
        t = (x + y) % order  # the half-idempotent product of x and y
        z = np.where(t % 2 == 0, t // 2, n + (t - 1) // 2)
        t = np.arange(n)
        rows = [np.column_stack([np.zeros_like(t), o + 3 * (n + t) + i, o + 3 * t + (i + 1) % 3])
                for i in range(3)]
    rows.append(o + 3 * np.arange(first)[:, None] + np.arange(3))
    rows += [np.column_stack([o + 3 * x + i, o + 3 * y + i, o + 3 * z + (i + 1) % 3])
             for i in range(3)]
    S = IncidenceStructure.from_arrays(v, rows, provenance=f"sts({v})")
    verify_steiner(S, 3)
    return S


def develop_cyclic(v: int, base_blocks: Sequence[Sequence[int]]) -> IncidenceStructure:
    """Orbits of the base blocks under x -> x+1 (mod v); short orbits deduplicated.

    Each base block's orbit is one (v, size) array, and the distinct sorted
    rows of each size are kept.  Verification is the caller's job (the
    result need not be a design).
    """
    if v < 1:
        raise DesignError(f"cyclic development needs v >= 1, got {v}")
    orbits: dict[int, list[np.ndarray]] = {}
    for base in base_blocks:
        base = [x % v for x in base]
        if len(set(base)) != len(base):
            raise DesignError(f"base block {base} has repeated points")
        orbit = (np.array(base, dtype=np.int64) + np.arange(v)[:, None]) % v
        orbits.setdefault(len(base), []).append(np.sort(orbit, axis=1))
    rows = [np.unique(np.concatenate(parts), axis=0) for parts in orbits.values()]
    return IncidenceStructure.from_arrays(v, rows, provenance=f"cyclic({v})")


def verify_gdd(S: IncidenceStructure, mu: int) -> None:
    """Verify the mu-GDD axioms for S with its group annotation, index one."""
    if S.groups is None:
        raise DesignError("no group annotation")
    seen: set[int] = set()
    for g in S.groups:
        if set(g) & seen:
            raise DesignError("groups overlap")
        seen |= set(g)
    if seen != set(range(S.v)):
        raise DesignError("groups do not partition the points")
    group_of = np.empty(S.v, dtype=np.intp)
    for gi, g in enumerate(S.groups):
        group_of[list(g)] = gi
    # the first block that is not mu points in mu groups: a wrong size is
    # left to _check_pairs, which names the same block
    bad = []
    for A, at in S.located():
        met = np.sort(group_of[A], axis=1)
        groups_met = (met[:, 1:] != met[:, :-1]).sum(axis=1) + (A.shape[1] > 0)
        bad += [(int(at[r]), A.shape[1]) for r in np.flatnonzero(groups_met != mu)[:1]]
    if bad and min(bad)[1] == mu:
        raise DesignError(f"block {S.block(min(bad)[0])} meets a group twice")
    _check_pairs(S, mu, group_of)


def build_transversal_design(mu: int, g: int) -> IncidenceStructure:
    """TD(mu, g) from finite-field MOLS: a mu-GDD of type g^mu, index one.

    Points are GF(g) x {0..mu-1} (point = group*g + field element); for each
    (a, b) in GF(g)^2 the block {(a*alpha_i + b, i)} with alpha_i the i-th
    field element.  Requires mu <= g and g a prime power.
    """
    if mu < 2:
        raise DesignError("need mu >= 2")
    F = field_for_order(g)  # raises if not a prime power
    if mu > g:
        raise DesignError(f"mu={mu} > g={g}: no TD via MOLS")
    add, mul = F.tables()
    a, b = np.divmod(np.arange(g * g), g)
    # alpha_i is the i-th field element; mu <= g keeps them distinct
    i = np.arange(mu)
    blocks = i * g + add[mul[a[:, None], i], b[:, None]]
    groups = tuple(tuple(range(i * g, (i + 1) * g)) for i in range(mu))
    S = IncidenceStructure.from_arrays(mu * g, [blocks], provenance=f"td({mu},{g})", groups=groups)
    verify_gdd(S, mu)
    return S


def compose_gdd_spread(
    gdd: IncidenceStructure, filler: IncidenceStructure
) -> tuple[IncidenceStructure, SpreadPartition]:
    """Fill every GDD group with a copy of an S(2, mu, g): an S(2, mu, gt) with
    a Steiner spread whose members are the fillers."""
    if gdd.groups is None:
        raise DesignError("gdd lacks group annotation")
    mu = gdd.arrays[0].shape[1] if gdd.b else 0
    g = len(gdd.groups[0])
    if filler.v != g:
        raise DesignError(f"filler order {filler.v} != group size {g}")
    if any(len(grp) != g for grp in gdd.groups):
        raise DesignError("groups have unequal sizes")
    copies = [np.array(sorted(grp), dtype=np.int64)[F] for grp in gdd.groups for F in filler.arrays]
    S = IncidenceStructure.from_arrays(
        gdd.v, list(gdd.arrays) + copies,
        provenance=f"gdd_fill({gdd.provenance},{filler.provenance})",
    )
    verify_steiner(S, mu)
    return S, spread_of(S, gdd.groups)


def spread_of(S: IncidenceStructure, point_sets: Sequence[Iterable[int]]) -> SpreadPartition:
    """The spread whose parts are these point sets, in order, each with the
    indices of the blocks of S that lie inside it, checked by
    ``verify_spread``.  Raises DesignError when a point of S lies in two of
    the sets or in none."""
    sets = [np.fromiter(pts, dtype=np.intp) for pts in point_sets]
    flat = np.concatenate(sets + [np.empty(0, np.intp)])
    counts = np.bincount(flat, minlength=S.v)
    if (counts > 1).any():
        raise DesignError("spread parts share points")
    if (counts[: S.v] == 0).any():
        raise DesignError("spread does not cover all points")
    part_of = np.empty(len(counts), dtype=np.intp)
    part_of[flat] = np.repeat(np.arange(len(sets)), [len(pts) for pts in sets])
    index, part = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for A, at in S.located():
        if A.shape[1]:
            label = part_of[A]
            inside = np.flatnonzero((label == label[:, :1]).all(axis=1))
            index.append(at[inside])
            part.append(label[inside, 0])
    index, part = np.concatenate(index), np.concatenate(part)
    order = np.lexsort((index, part))
    inside = np.split(index[order], np.cumsum(np.bincount(part, minlength=len(sets)))[:-1])
    spread = SpreadPartition(parts=tuple(
        (frozenset(pts.tolist()), tuple(b.tolist())) for pts, b in zip(sets, inside)
    ))
    verify_spread(S, spread)
    return spread


def _blocks_at(S: IncidenceStructure, index: Sequence[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """The blocks of S at these indices, as (array, positions in ``index``)
    per size, the rows in index order."""
    index = np.asarray(index, dtype=np.intp)
    found = []
    for A, at in S.located():
        rows = np.searchsorted(at, index)
        hit = np.flatnonzero(at[np.minimum(rows, len(at) - 1)] == index) if len(at) else rows[:0]
        if hit.size:
            found.append((A[rows[hit]], hit))
    if sum(len(hit) for _, hit in found) != len(index):
        raise IndexError(f"block index outside 0..{S.b - 1}")
    return found


def verify_spread(S: IncidenceStructure, spread: SpreadPartition) -> None:
    """Each part's blocks lie inside its point set and form a Steiner
    subdesign whose mu is the part's block size."""
    for pts, bidx in spread.parts:
        found = _blocks_at(S, bidx)
        spts = np.array(sorted(pts), dtype=np.int64)
        leaving = [(int(hit[r]), A[r]) for A, hit in found
                   for r in np.flatnonzero(~np.isin(A, spts).all(axis=1))[:1]]
        if leaving:
            raise DesignError(f"block {tuple(min(leaving, key=lambda x: x[0])[1].tolist())} "
                              "leaves its part")
        sub_mu = next((A.shape[1] for A, hit in found if hit[0] == 0), 0)
        sub = IncidenceStructure.from_arrays(
            len(spts), [np.searchsorted(spts, A) for A, _ in found], provenance="part"
        )
        if len(spts) > sub_mu:
            verify_steiner(sub, sub_mu)
        elif len(bidx) != 1:
            # trivial subdesign: the single full block
            raise DesignError("trivial part must consist of one block")


def delete_subdesigns(
    S: IncidenceStructure, parts: SpreadPartition, count: int
) -> IncidenceStructure:
    """Remove all blocks of the first `count` spread parts (points retained)."""
    if count < 0 or count > len(parts.parts):
        raise DesignError(f"cannot delete {count} of {len(parts.parts)} parts")
    verify_spread(S, SpreadPartition(parts=parts.parts[:count]))
    drop = np.zeros(S.b, dtype=bool)
    for _, bidx in parts.parts[:count]:
        drop[list(bidx)] = True
    kept = [A[~drop[at]] for A, at in S.located()]
    return IncidenceStructure.from_arrays(S.v, kept, provenance=f"{S.provenance}-del{count}")


def tanner_girth(S: IncidenceStructure, cap: int = 16):
    """Girth of the bipartite point/block graph; returns the length or ">=cap".

    Fast paths: a doubly covered pair is a 4-cycle, which the ``_pair_chunks``
    walk finds.  Otherwise lambda <= 1; let N(p) be the points other than p
    on the blocks through p.  A 6-cycle through p is then exactly a block B3
    not through p that holds two points q != r of N(p): q and r lie on
    different blocks B1, B2 through p, since a block through p holding both
    would share {q, r} with B3, and a B3 through p would share {p, q} with
    B1.  So each point tried marks N(p) once and gathers the marks over the
    block arrays, and the girth is 6 at the first p where a block not
    through p holds two marks.  Memory is the block arrays plus one chunk of
    pair ids.  The generic capped BFS runs only when neither path settles it.
    """
    arrays = [A for A in S.arrays if A.shape[1] > 1]
    for _, _, ids in _pair_chunks(S.v, arrays):
        if np.any(ids[1:] == ids[:-1]):
            return 4
    mark = np.zeros(S.v, dtype=bool)
    for p in range(S.v):
        through = [(A == p).any(axis=1) for A in arrays]
        for A, on in zip(arrays, through):
            mark[A[on]] = True
        mark[p] = False
        if any(np.any((np.count_nonzero(mark[A], axis=1) >= 2) & ~on) for A, on in zip(arrays, through)):
            return 6
        mark[:] = False
    return _bfs_girth(S, cap)


def _bfs_girth(S: IncidenceStructure, cap: int):
    """Girth by a capped BFS from every point vertex; the length or ">=cap"."""
    from collections import deque

    best = None
    incidence = S.block_by_point()  # the Tanner graph: blocks' points, points' blocks
    adj_b, adj_p = incidence.supports(), incidence.transpose().supports()
    for s in range(S.v):
        dist = {("p", s): 0}
        parent = {("p", s): None}
        dq = deque([("p", s)])
        while dq:
            kind, u = dq.popleft()
            du = dist[(kind, u)]
            if best is not None and 2 * du >= best:
                break
            nbrs = (("b", w) for w in adj_p[u]) if kind == "p" else (("p", w) for w in adj_b[u])
            for wnode in nbrs:
                if wnode == parent[(kind, u)]:
                    continue
                if wnode in dist:
                    cyc = du + dist[wnode] + 1
                    if best is None or cyc < best:
                        best = cyc
                else:
                    dist[wnode] = du + 1
                    parent[wnode] = (kind, u)
                    if 2 * dist[wnode] < (best if best is not None else cap):
                        dq.append(wnode)
    if best is not None and best < cap:
        return best
    return f">={cap}"


def count_pasch(S: IncidenceStructure) -> int:
    """Number of Pasch configurations (4 blocks on 6 points) in an STS.

    Equivalently the number of weight-4 codewords of the block-indexed code.
    With ``third[x, y]`` the third point of the block through x and y, two
    blocks {a, b, c} and {a, d, e} through a point a lie in a Pasch
    configuration, with blocks {b, d, f} and {c, e, f}, exactly when
    third[b, d] == third[c, e] (or likewise with d and e swapped).  Each
    configuration is found once at each of its 6 points.
    """
    params = verify_steiner(S, 3)
    if params.v > 100:
        raise DesignError("count_pasch capped at v = 100")
    if not S.b:
        return 0
    A = S.arrays[0]
    third = np.full((S.v, S.v), -1, dtype=np.intp)
    for x, y, z in permutations(range(3)):
        third[A[:, x], A[:, y]] = A[:, z]
    # the other two points of each block through each point, (v, r, 2)
    owner = np.argsort(A.ravel(), kind="stable")
    rest = A[:, [[1, 2], [0, 2], [0, 1]]].reshape(-1, 2)[owner].reshape(S.v, params.r, 2)
    i, j = np.triu_indices(params.r, 1)
    b, c, d, e = rest[:, i, 0], rest[:, i, 1], rest[:, j, 0], rest[:, j, 1]
    found = int((third[b, d] == third[c, e]).sum() + (third[b, e] == third[c, d]).sum())
    assert found % 6 == 0
    return found // 6
