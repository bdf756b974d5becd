"""Incidence structures: Steiner 2-designs, cyclic development, transversal
designs, spreads, subdesign deletion, girth and Pasch counting.

Blocks are stored as sorted tuples of 0-based point indices, and block lists
are kept in lexicographic order, so every construction is reproducible
bit-for-bit across runs.

Every pair check (Steiner, partial Steiner, GDD and the 4-cycle test of
``tanner_girth``) walks the in-block pairs in chunks of about
``PAIR_CHUNK_IDS`` ids, one range of first points at a time, so its memory
is that budget plus the size-grouped block arrays, not the pair count.
Under lambda <= 1 the girth is 6 exactly when, for some point p, a block
not through p holds two points of the blocks through p.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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


@dataclass(frozen=True)
class IncidenceStructure:
    """Points 0..v-1 and a family of blocks (sorted tuples, lexicographic order)."""

    v: int
    blocks: tuple[tuple[int, ...], ...]
    provenance: str = ""
    groups: Optional[tuple[tuple[int, ...], ...]] = None  # for GDDs

    def __post_init__(self):
        """Every block strictly increasing within 0..v-1, and no block twice.
        The points of all blocks are checked as one array; the error names
        the first offending block, with the checks in that order within it."""
        if self.v < 0:
            raise DesignError(f"negative point count v={self.v}")
        blocks = self.blocks
        sizes = np.fromiter(map(len, blocks), dtype=np.intp, count=len(blocks))
        try:
            flat = np.fromiter(itertools.chain.from_iterable(blocks), dtype=np.int64)
        except OverflowError:  # a point past 64 bits: compare as Python ints
            flat = np.fromiter(itertools.chain.from_iterable(blocks), dtype=object)
        block_of = np.repeat(np.arange(len(blocks)), sizes)
        same_block = block_of[1:] == block_of[:-1]
        unsorted = block_of[1:][same_block & (flat[1:] <= flat[:-1])]
        outside = block_of[(flat < 0) | (flat >= self.v)]
        firsts = [int(js[0]) if len(js) else len(blocks) for js in (unsorted, outside)]
        repeat = len(blocks)
        if len(set(blocks)) < len(blocks):
            index: dict = {}
            repeat = next(j for j, b in enumerate(blocks) if index.setdefault(b, j) != j)
        j, check = min((j, i) for i, j in enumerate(firsts + [repeat]))
        if j < len(blocks):
            message = ("block {b} not sorted/distinct", "block {b} out of range for v={v}",
                       "duplicate block {b}")[check]
            raise DesignError(message.format(b=blocks[j], v=self.v))

    @property
    def b(self) -> int:
        return len(self.blocks)

    def point_by_block(self) -> BitMatrix:
        """The v x b incidence matrix: ``block_by_point``'s transpose, which
        it caches, so either orientation reaches the other without a build."""
        return self.block_by_point().transpose()

    def block_by_point(self) -> BitMatrix:
        return BitMatrix.from_supports(self.blocks, self.v)

    def blocks_through(self) -> list[list[int]]:
        """Indices of the blocks on each point, in block order."""
        out: list[list[int]] = [[] for _ in range(self.v)]
        for j, blk in enumerate(self.blocks):
            for p in blk:
                out[p].append(j)
        return out

    def replication_counts(self) -> list[int]:
        r = [0] * self.v
        for blk in self.blocks:
            for p in blk:
                r[p] += 1
        return r

    def with_blocks(self, blocks: Iterable[tuple[int, ...]], provenance: str) -> IncidenceStructure:
        return IncidenceStructure(
            v=self.v,
            blocks=tuple(sorted(tuple(b) for b in blocks)),
            provenance=provenance,
        )


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


def _block_arrays(S: IncidenceStructure) -> list[np.ndarray]:
    """S's blocks of two or more points grouped by size, one ``(blocks,
    size)`` array per size in order of first appearance: int32 while v^2
    fits, so that every pair id a*v + b does, else int64."""
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for blk in S.blocks:
        if len(blk) > 1:
            by_size.setdefault(len(blk), []).append(blk)
    dtype = np.int32 if S.v * S.v < 2**31 else np.int64
    return [np.array(blks, dtype=dtype) for blks in by_size.values()]


def _pair_chunks(v: int, arrays: list[np.ndarray]) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield ``(lo, hi, ids)`` for ascending ranges lo..hi-1 of first points
    that together cover 0..v-1: ``ids`` are the sorted ids a*v + b of the
    in-block pairs (a, b), a < b, with lo <= a < hi, once per block holding
    the pair, in the dtype of ``arrays`` (from ``_block_arrays``).

    Every copy of a pair lies in its first point's range, so a repeated pair
    repeats within one chunk, and the chunks ascend in id order.  Ranges are
    cut from the per-point pair counts to hold about ``PAIR_CHUNK_IDS`` ids
    (more only when one point has more pairs).  Each position column of a
    block array is sorted once, so a range's first points at that position
    are one contiguous slice of the sort order; the walk holds one chunk and
    these orders beside the block arrays, never every pair at once.
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
            order = np.argsort(A[:, i])
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
    for blk in S.blocks:
        if len(blk) != mu:
            raise BlockSizeError(blk, mu)
    arrays = _block_arrays(S)
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
    if len(S.blocks) != bcount:
        raise DesignError(f"block count {len(S.blocks)} != {bcount}")
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
    blocks: list[tuple[int, ...]] = []
    if v % 6 == 3:
        n = (v - 3) // 6
        order = 2 * n + 1
        half = n + 1  # inverse of 2 mod (2n+1)
        pt = lambda x, i: 3 * x + i
        for x in range(order):
            blocks.append(tuple(sorted((pt(x, 0), pt(x, 1), pt(x, 2)))))
        for i in range(3):
            for x in range(order):
                for y in range(x + 1, order):
                    z = ((x + y) * half) % order
                    blocks.append(tuple(sorted((pt(x, i), pt(y, i), pt(z, (i + 1) % 3)))))
    else:
        n = (v - 1) // 6
        order = 2 * n

        def circ(s: int) -> int:  # half-idempotent product value for x+y=s
            s %= order
            return s // 2 if s % 2 == 0 else n + (s - 1) // 2

        pt = lambda x, i: 1 + 3 * x + i  # 0 is the infinity point
        for x in range(n):
            blocks.append(tuple(sorted((pt(x, 0), pt(x, 1), pt(x, 2)))))
        for i in range(3):
            for x in range(n):
                blocks.append(tuple(sorted((0, pt(n + x, i), pt(x, (i + 1) % 3)))))
        for i in range(3):
            for x in range(order):
                for y in range(x + 1, order):
                    z = circ(x + y)
                    blocks.append(tuple(sorted((pt(x, i), pt(y, i), pt(z, (i + 1) % 3)))))
    S = IncidenceStructure(v=v, blocks=tuple(sorted(blocks)), provenance=f"sts({v})")
    verify_steiner(S, 3)
    return S


def develop_cyclic(v: int, base_blocks: Sequence[Sequence[int]]) -> IncidenceStructure:
    """Orbits of the base blocks under x -> x+1 (mod v); short orbits deduplicated.

    Verification is the caller's job (the result need not be a design).
    """
    if v < 1:
        raise DesignError(f"cyclic development needs v >= 1, got {v}")
    out = set()
    for base in base_blocks:
        base = [x % v for x in base]
        if len(set(base)) != len(base):
            raise DesignError(f"base block {base} has repeated points")
        for s in range(v):
            out.add(tuple(sorted((x + s) % v for x in base)))
    return IncidenceStructure(v=v, blocks=tuple(sorted(out)), provenance=f"cyclic({v})")


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
    bad = next((blk for blk in S.blocks if len({group_of[p] for p in blk}) != mu), None)
    if bad is not None and len(bad) == mu:
        raise DesignError(f"block {bad} meets a group twice")
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
    blocks = []
    for a in range(g):
        for b in range(g):
            # alpha_i is the i-th field element; mu <= g keeps them distinct
            blk = tuple(sorted(i * g + F.add(F.mul(a, i), b) for i in range(mu)))
            blocks.append(blk)
    groups = tuple(tuple(range(i * g, (i + 1) * g)) for i in range(mu))
    S = IncidenceStructure(
        v=mu * g, blocks=tuple(sorted(blocks)), provenance=f"td({mu},{g})", groups=groups
    )
    verify_gdd(S, mu)
    return S


def compose_gdd_spread(
    gdd: IncidenceStructure, filler: IncidenceStructure
) -> tuple[IncidenceStructure, SpreadPartition]:
    """Fill every GDD group with a copy of an S(2, mu, g): an S(2, mu, gt) with
    a Steiner spread whose members are the fillers."""
    if gdd.groups is None:
        raise DesignError("gdd lacks group annotation")
    mu = len(gdd.blocks[0]) if gdd.blocks else 0
    g = len(gdd.groups[0])
    if filler.v != g:
        raise DesignError(f"filler order {filler.v} != group size {g}")
    if any(len(grp) != g for grp in gdd.groups):
        raise DesignError("groups have unequal sizes")
    new_blocks = list(gdd.blocks)
    for grp in gdd.groups:
        points = sorted(grp)
        new_blocks.extend(tuple(sorted(points[p] for p in blk)) for blk in filler.blocks)
    S = IncidenceStructure(
        v=gdd.v,
        blocks=tuple(sorted(new_blocks)),
        provenance=f"gdd_fill({gdd.provenance},{filler.provenance})",
    )
    verify_steiner(S, mu)
    return S, spread_of(S, gdd.groups)


def spread_of(S: IncidenceStructure, point_sets: Sequence[Iterable[int]]) -> SpreadPartition:
    """The spread whose parts are these point sets, in order, each with the
    indices of the blocks of S that lie inside it, checked by
    ``verify_spread``.  Raises DesignError when a point of S lies in two of
    the sets or in none."""
    part_of = [-1] * S.v
    for i, pts in enumerate(point_sets):
        for p in pts:
            if part_of[p] != -1:
                raise DesignError("spread parts share points")
            part_of[p] = i
    if -1 in part_of:
        raise DesignError("spread does not cover all points")
    inside: list[list[int]] = [[] for _ in point_sets]
    for j, blk in enumerate(S.blocks):
        parts = {part_of[p] for p in blk}
        if len(parts) == 1:
            inside[parts.pop()].append(j)
    spread = SpreadPartition(
        parts=tuple((frozenset(pts), tuple(b)) for pts, b in zip(point_sets, inside))
    )
    verify_spread(S, spread)
    return spread


def verify_spread(S: IncidenceStructure, spread: SpreadPartition) -> None:
    """Each part's blocks lie inside its point set and form a Steiner
    subdesign whose mu is the part's block size."""
    for pts, bidx in spread.parts:
        sub_blocks = [S.blocks[i] for i in bidx]
        for blk in sub_blocks:
            if not set(blk) <= pts:
                raise DesignError(f"block {blk} leaves its part")
        sub_mu = len(sub_blocks[0]) if sub_blocks else 0
        spts = sorted(pts)
        remap = {p: i for i, p in enumerate(spts)}
        sub = IncidenceStructure(
            v=len(spts),
            blocks=tuple(sorted(tuple(sorted(remap[p] for p in blk)) for blk in sub_blocks)),
            provenance="part",
        )
        if len(spts) > sub_mu:
            verify_steiner(sub, sub_mu)
        elif len(sub_blocks) != 1:
            # trivial subdesign: the single full block
            raise DesignError("trivial part must consist of one block")


def delete_subdesigns(
    S: IncidenceStructure, parts: SpreadPartition, count: int
) -> IncidenceStructure:
    """Remove all blocks of the first `count` spread parts (points retained)."""
    if count < 0 or count > len(parts.parts):
        raise DesignError(f"cannot delete {count} of {len(parts.parts)} parts")
    verify_spread(S, SpreadPartition(parts=parts.parts[:count]))
    drop: set[int] = set()
    for _, bidx in parts.parts[:count]:
        drop |= set(bidx)
    kept = [blk for i, blk in enumerate(S.blocks) if i not in drop]
    return S.with_blocks(kept, provenance=f"{S.provenance}-del{count}")


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
    arrays = _block_arrays(S)
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
    adj_p = S.blocks_through()
    adj_b = [list(blk) for blk in S.blocks]
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
    """
    params = verify_steiner(S, 3)
    if params.v > 100:
        raise DesignError("count_pasch capped at v = 100")
    pair_block: dict[tuple[int, int], int] = {}
    for j, blk in enumerate(S.blocks):
        for x in range(3):
            for y in range(x + 1, 3):
                pair_block[(blk[x], blk[y])] = j

    def through(a: int, b: int) -> Optional[int]:
        return pair_block.get((a, b) if a < b else (b, a))

    count = 0
    nb = len(S.blocks)
    for j1 in range(nb):
        for j2 in range(j1 + 1, nb):
            B1, B2 = S.blocks[j1], S.blocks[j2]
            common = set(B1) & set(B2)
            if len(common) != 1:
                continue
            a = common.pop()
            b, c = [p for p in B1 if p != a]
            d, e = [p for p in B2 if p != a]
            for (x1, y1), (x2, y2) in (((b, d), (c, e)), ((b, e), (c, d))):
                j3 = through(x1, y1)
                if j3 is None or j3 in (j1, j2):
                    continue
                B3 = S.blocks[j3]
                f = next(p for p in B3 if p not in (x1, y1))
                if f in (a, b, c, d, e):
                    continue
                j4 = through(x2, y2)
                if j4 is None or j4 in (j1, j2, j3):
                    continue
                B4 = S.blocks[j4]
                if set(B4) == {x2, y2, f}:
                    count += 1
    assert count % 6 == 0
    return count // 6
