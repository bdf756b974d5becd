"""Point-line designs of projective, affine and punctured-affine geometries,
their closed-form GF(2) ranks, spreads, and minimum-weight witness codewords.

Point orderings are canonical (projective representatives normalized to
leading 1, affine points in lexicographic coordinate order) and lines are
emitted in lexicographic block order, so indices are stable across runs.

Lines are built once each, in numpy, from the addition and multiplication
tables of GF(q); a point's number is read off its coordinates in base q.  The
AG lines of direction d (leading 1 at j) are {h + lam*d} for the q^{m-1}
points h with h_j = 0.  A PG line is spanned by its reduced basis u, w
(leading 1s at i < j, u_j = 0): its points w and u + lam*w are normalized.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Optional, Sequence

import numpy as np

from .designs import DesignError, IncidenceStructure, SpreadPartition, verify_spread
from .fields import FiniteField, enumerate_subspace_reps, make_field, field_for_order, subfield_embedding

PG, AG, EG = "PG", "AG", "EG"


@dataclass(frozen=True)
class GeometryDesign:
    kind: str  # PG | AG | EG
    m: int
    q: int
    structure: IncidenceStructure
    point_coords: tuple[tuple[int, ...], ...]

    @property
    def field(self) -> FiniteField:
        return field_for_order(self.q)

    @property
    def mu(self) -> int:
        return self.q + 1 if self.kind == PG else self.q

    @property
    def replication(self) -> int:
        q, m = self.q, self.m
        if self.kind == PG:
            return (q**m - 1) // (q - 1)
        if self.kind == AG:
            return (q**m - 1) // (q - 1)
        return (q**m - 1) // (q - 1) - 1


@dataclass(frozen=True)
class WitnessCodeword:
    """A set of column indices covering every row an even number of times.

    For point-by-block matrices the columns are blocks; for block-by-point
    matrices they are points.  kind names the geometric construction.
    """

    kind: str
    block_indices: tuple[int, ...]
    weight: int

    def __post_init__(self):
        if self.weight != len(self.block_indices):
            raise ValueError("weight != support size")


def _field_tables(field: FiniteField) -> tuple[np.ndarray, np.ndarray]:
    """Addition and multiplication of GF(q) as q x q index arrays."""
    e = field.elements()
    add = np.array([[field.add(a, b) for b in e] for a in e], dtype=np.intp)
    mul = np.array([[field.mul(a, b) for b in e] for a in e], dtype=np.intp)
    return add, mul


def _vectors(q: int, n: int) -> np.ndarray:
    """All q^n coordinate vectors of length n, as rows in lexicographic order."""
    return np.array(list(itertools.product(range(q), repeat=n)), dtype=np.intp).reshape(q**n, n)


def _line_points(add: np.ndarray, mul: np.ndarray, base: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Coordinates of base + lam * step for every lam in F_q (tables from
    ``_field_tables``), on a new second-to-last axis; base and step broadcast."""
    lam = np.arange(len(add))[:, None]
    return add[base[..., None, :], mul[lam, step[..., None, :]]]


def _sorted_blocks(lines: list[np.ndarray]) -> tuple[tuple[int, ...], ...]:
    """Blocks as sorted point tuples in lexicographic order.  Every block
    refers to one shared int object per point, which keeps large designs
    small in memory."""
    arr = np.sort(np.concatenate(lines), axis=1)
    arr = arr[np.lexsort(arr.T[::-1])]
    return tuple(map(tuple, np.arange(arr.max() + 1).astype(object)[arr].tolist()))


def build_pg(m: int, q: int) -> GeometryDesign:
    """Points and lines of PG(m, q): an S(2, q+1, (q^{m+1}-1)/(q-1))."""
    if m < 2:
        raise DesignError("need m >= 2")
    field = field_for_order(q)
    add, mul = _field_tables(field)
    points = enumerate_subspace_reps(field, m + 1)
    # a point with its leading 1 at position L is number offset[L] + (base-q tail)
    offset = np.cumsum([0] + [q ** (m - L) for L in range(m)])

    def index(x: np.ndarray, lead: int) -> np.ndarray:
        return offset[lead] + x[..., lead + 1 :] @ (q ** np.arange(m - lead - 1, -1, -1))

    lines = []
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            # each line once, by its reduced basis: u leads at i with u_j = 0,
            # w leads at j; its points are w and u + lam*w (leading 1 at i)
            free_u = [k for k in range(i + 1, m + 1) if k != j]
            free = _vectors(q, len(free_u) + m - j)
            u = np.zeros((len(free), m + 1), dtype=np.intp)
            w = np.zeros((len(free), m + 1), dtype=np.intp)
            u[:, i], w[:, j] = 1, 1
            u[:, free_u], w[:, j + 1 :] = free[:, : len(free_u)], free[:, len(free_u) :]
            on_line = index(_line_points(add, mul, u, w), i)
            lines.append(np.column_stack([on_line, index(w, j)]))
    S = IncidenceStructure(v=len(points), blocks=_sorted_blocks(lines), provenance=f"pg({m},{q})")
    expect_b = (q ** (m + 1) - 1) * (q**m - 1) // ((q**2 - 1) * (q - 1))
    if S.b != expect_b:
        raise DesignError(f"PG({m},{q}): got {S.b} lines, expected {expect_b}")
    return GeometryDesign(kind=PG, m=m, q=q, structure=S, point_coords=tuple(points))


def build_ag(m: int, q: int) -> GeometryDesign:
    """Points and lines (1-flats) of AG(m, q): an S(2, q, q^m)."""
    if m < 2:
        raise DesignError("need m >= 2")
    add, mul = _field_tables(field_for_order(q))
    points = tuple(itertools.product(range(q), repeat=m))  # point number = base-q value
    weights = q ** np.arange(m - 1, -1, -1)
    lines = []
    for j in range(m):
        # directions with leading 1 at j; each such line meets x_j = 0 exactly once
        dirs = np.zeros((q ** (m - 1 - j), m), dtype=np.intp)
        dirs[:, j], dirs[:, j + 1 :] = 1, _vectors(q, m - 1 - j)
        hyper = np.zeros((q ** (m - 1), m), dtype=np.intp)
        hyper[:, np.arange(m) != j] = _vectors(q, m - 1)
        on_line = _line_points(add, mul, hyper[None, :, :], dirs[:, None, :]) @ weights
        lines.append(on_line.reshape(-1, q))
    S = IncidenceStructure(v=len(points), blocks=_sorted_blocks(lines), provenance=f"ag({m},{q})")
    expect_b = q ** (m - 1) * (q**m - 1) // (q - 1)
    if S.b != expect_b:
        raise DesignError(f"AG({m},{q}): got {S.b} lines, expected {expect_b}")
    return GeometryDesign(kind=AG, m=m, q=q, structure=S, point_coords=points)


def build_eg(m: int, q: int) -> GeometryDesign:
    """AG(m, q) minus the zero point and the lines through it (partial design)."""
    ag = build_ag(m, q)
    # the origin is AG point 0, so it starts every sorted block through it
    lines = np.array(ag.structure.blocks)
    blocks = _sorted_blocks([lines[lines[:, 0] > 0] - 1])
    S = IncidenceStructure(v=ag.structure.v - 1, blocks=blocks, provenance=f"eg({m},{q})")
    expect_b = (q ** (m - 1) - 1) * (q**m - 1) // (q - 1)
    if S.b != expect_b:
        raise DesignError(f"EG({m},{q}): got {S.b} lines, expected {expect_b}")
    return GeometryDesign(kind=EG, m=m, q=q, structure=S, point_coords=ag.point_coords[1:])


def build_geometry(kind: str, m: int, q: int) -> GeometryDesign:
    if kind == PG:
        return build_pg(m, q)
    if kind == AG:
        return build_ag(m, q)
    if kind == EG:
        return build_eg(m, q)
    raise ValueError(f"unknown geometry kind {kind!r}")


# --- closed-form ranks -------------------------------------------------------

@lru_cache(maxsize=None)
def hamada_phi(m: int, t: int) -> int:
    """GF(2) rank of the point-line design of PG(m, 2^t).

    Nested sum over tuples (s_0 .. s_t), s_0 = s_t, 0 <= s_j <= m-1, with the
    transition weight sum_{i<=L} (-1)^i C(m+1, i) C(m + 2s' - s - 2i, m),
    L = floor((2s'-s)/2), transitions constrained by 0 <= 2s'-s <= m+1.
    Evaluated as a walk product over the transition matrix.
    """
    if m < 1 or t < 1:
        raise ValueError("need m >= 1 and t >= 1")

    @lru_cache(maxsize=None)
    def step(s: int, s2: int) -> int:
        e = 2 * s2 - s
        L = e // 2
        return sum((-1) ** i * comb(m + 1, i) * comb(m + e - 2 * i, m) for i in range(L + 1))

    states = range(m)
    total = 0
    for s0 in states:
        vec = {s0: 1}
        for _ in range(t):
            nxt: dict[int, int] = {}
            for s, cnt in vec.items():
                for s2 in states:
                    if 0 <= 2 * s2 - s <= m + 1:
                        nxt[s2] = nxt.get(s2, 0) + cnt * step(s, s2)
            vec = nxt
        total += vec.get(s0, 0)
    return total


def _two_adic(q: int) -> Optional[int]:
    """t if q = 2^t, else None."""
    t = q.bit_length() - 1
    return t if (1 << t) == q and q >= 2 else None


def rank_formula(kind: str, m: int, q: int):
    """Closed-form GF(2) rank of the point-line incidence matrix.

    PG: Hamada's phi for q = 2^t, v-1 for q odd.  AG: phi(m)-phi(m-1) for
    q = 2^t, q^m (full) for q odd.  EG: phi(m)-phi(m-1)-1 for q = 2^t; for q
    odd no closed form is endorsed (Hamada conjectured full rank) and the
    interval (lower, upper) = (1, v) is returned for brute-force resolution.
    """
    t = _two_adic(q)
    if kind == PG:
        if t is not None:
            return hamada_phi(m, t)
        return (q ** (m + 1) - 1) // (q - 1) - 1
    if kind == AG:
        if t is not None:
            return hamada_phi(m, t) - (hamada_phi(m - 1, t) if m >= 2 else 0)
        return q**m
    if kind == EG:
        if t is not None:
            return hamada_phi(m, t) - (hamada_phi(m - 1, t) if m >= 2 else 0) - 1
        return (1, q**m - 1)
    raise ValueError(f"unknown geometry kind {kind!r}")


# --- spreads ------------------------------------------------------------------

def pg_spread(design: GeometryDesign, s: int) -> SpreadPartition:
    """An s-spread of PG(m, q) as a Steiner spread of PG_1(s, q) subdesigns.

    Exists iff (s+1) | (m+1); built from the 1-dimensional GF(q^{s+1})
    subspaces of GF(q^{s+1})^{(m+1)/(s+1)} mapped down to F_q coordinates.
    For s = 1 each part is a single line (a trivial subdesign).
    """
    if design.kind != PG:
        raise DesignError("spread construction requires a PG design")
    m, q = design.m, design.q
    if s < 1 or (m + 1) % (s + 1):
        raise DesignError(f"(s+1)={s+1} must divide m+1={m+1}")
    field = design.field
    big = make_field(field.p, field.e * (s + 1))
    emb = subfield_embedding(field, big)
    inv_emb = {w: a for a, w in emb.items()}
    # basis of big over the embedded subfield: powers of a primitive element
    gamma = big.generator
    basis = [big.pow(gamma, i) for i in range(s + 1)]
    # build the F_q-linear bijection F_q^{s+1} -> big as a lookup
    to_big: dict[tuple[int, ...], int] = {}
    from_big: dict[int, tuple[int, ...]] = {}
    for coeffs in itertools.product(range(q), repeat=s + 1):
        w = 0
        for c, bb in zip(coeffs, basis):
            w = big.add(w, big.mul(emb[c], bb))
        to_big[coeffs] = w
        from_big[w] = coeffs
    if len(from_big) != big.q:
        raise RuntimeError("subfield basis failed to span the extension field")

    n_over = (m + 1) // (s + 1)
    point_index = {p: i for i, p in enumerate(design.point_coords)}
    block_index = {blk: i for i, blk in enumerate(design.structure.blocks)}
    parts = []
    seen_pts: set[int] = set()
    for rep in enumerate_subspace_reps(big, n_over):
        part_points = set()
        for lam in range(1, big.q):
            vec_big = tuple(big.mul(lam, x) for x in rep)
            coords: list[int] = []
            for w in vec_big:
                coords.extend(from_big[w])
            pp = field.normalize_projective(tuple(coords))
            part_points.add(point_index[pp])
        if part_points & seen_pts:
            raise RuntimeError("spread parts overlap; bad field embedding")
        seen_pts |= part_points
        bidx = tuple(
            sorted(
                block_index[blk]
                for blk in design.structure.blocks
                if set(blk) <= part_points
            )
        )
        parts.append((frozenset(part_points), bidx))
    spread = SpreadPartition(parts=tuple(parts))
    if len(seen_pts) != design.structure.v:
        raise RuntimeError("spread does not cover all points")
    verify_spread(design.structure, spread)
    return spread


def ag_hyperplane_spread(design: GeometryDesign) -> SpreadPartition:
    """One parallel class of hyperplanes of AG(m, q): q parts, each an
    AG_1(m-1, q) subdesign on q^{m-1} points."""
    if design.kind != AG:
        raise DesignError("requires an AG design")
    if design.m < 3:
        raise DesignError("need m >= 3")
    field = design.field
    block_index = {blk: i for i, blk in enumerate(design.structure.blocks)}
    parts = []
    for cval in field.elements():
        pts = frozenset(
            i for i, p in enumerate(design.point_coords) if p[0] == cval
        )
        bidx = tuple(
            sorted(
                block_index[blk]
                for blk in design.structure.blocks
                if set(blk) <= pts
            )
        )
        parts.append((pts, bidx))
    spread = SpreadPartition(parts=tuple(parts))
    verify_spread(design.structure, spread)
    return spread


# --- witness codewords --------------------------------------------------------

def _block_lookup(design: GeometryDesign) -> dict[tuple[int, ...], int]:
    return {blk: i for i, blk in enumerate(design.structure.blocks)}


def dual_hyperoval(design: GeometryDesign) -> WitnessCodeword:
    """q+2 lines of a plane of PG(m, 2^t), covering every point 0 or 2 times.

    The line set {X0 + b X1 + b^2 X2 = 0 : b in F_q} plus {X1 = 0}, {X2 = 0},
    embedded in the plane spanned by the first three coordinates for m > 2.
    """
    if design.kind != PG:
        raise DesignError("dual hyperoval lives in PG")
    if _two_adic(design.q) is None:
        raise DesignError("dual hyperovals exist if and only if q is even")
    field = design.field
    m = design.m
    lookup = _block_lookup(design)

    def line_of(condition) -> int:
        pts = [
            i
            for i, p in enumerate(design.point_coords)
            if all(x == 0 for x in p[3:]) and condition(p)
        ]
        blk = tuple(sorted(pts))
        if blk not in lookup:
            raise DesignError("hyperoval line is not a block")
        return lookup[blk]

    support = []
    for beta in field.elements():
        b2 = field.mul(beta, beta)
        support.append(
            line_of(
                lambda p, beta=beta, b2=b2: field.add(
                    p[0], field.add(field.mul(beta, p[1]), field.mul(b2, p[2]))
                )
                == 0
            )
        )
    support.append(line_of(lambda p: p[1] == 0))
    support.append(line_of(lambda p: p[2] == 0))
    support = tuple(sorted(support))
    if len(set(support)) != field.q + 2:
        raise DesignError("dual hyperoval lines are not distinct")
    w = WitnessCodeword(kind="dual_hyperoval", block_indices=support, weight=len(support))
    validate_witness(design.structure.point_by_block(), w)
    return w


def hyperbolic_quadric(design: GeometryDesign) -> WitnessCodeword:
    """The 2(q+1) ruling lines of {x0 x3 = x1 x2} in a 3-subspace of PG(m, q),
    q odd: every point covered 0 or 2 times."""
    if design.kind != PG:
        raise DesignError("hyperbolic quadric lives in PG")
    if _two_adic(design.q) is not None:
        raise DesignError("use the dual hyperoval for q even")
    if design.m < 3:
        raise DesignError("need m >= 3")
    field = design.field
    m = design.m
    lookup = _block_lookup(design)
    point_index = {p: i for i, p in enumerate(design.point_coords)}
    proj_pairs = enumerate_subspace_reps(field, 2)  # (s:t) representatives

    def embed(x0, x1, x2, x3) -> int:
        vec = (x0, x1, x2, x3) + (0,) * (m - 3)
        return point_index[field.normalize_projective(vec)]

    support = []
    for (s, t) in proj_pairs:  # ruling 1: fix (s:t)
        pts = [embed(field.mul(s, u), field.mul(s, vv), field.mul(t, u), field.mul(t, vv))
               for (u, vv) in proj_pairs]
        blk = tuple(sorted(set(pts)))
        support.append(lookup[blk])
    for (u, vv) in proj_pairs:  # ruling 2: fix (u:v)
        pts = [embed(field.mul(s, u), field.mul(s, vv), field.mul(t, u), field.mul(t, vv))
               for (s, t) in proj_pairs]
        blk = tuple(sorted(set(pts)))
        support.append(lookup[blk])
    support = tuple(sorted(support))
    if len(set(support)) != 2 * (field.q + 1):
        raise DesignError("quadric ruling lines are not distinct")
    w = WitnessCodeword(kind="hyperbolic_quadric", block_indices=support, weight=len(support))
    validate_witness(design.structure.point_by_block(), w)
    return w


def _lines_to_witness(
    design: GeometryDesign, lines: list[list[tuple[int, ...]]], kind: str
) -> WitnessCodeword:
    """Translate a list of coordinate lines into block indices, shifting the
    whole configuration off the origin first when the design is an EG.

    A translate by tau keeps even point coverage; for EG we need every line
    to avoid the zero vector, i.e. -tau (= tau in char 2) not on any line.
    """
    field = design.field
    if design.kind == EG:
        on_lines = {pt for line in lines for pt in line}
        tau = None
        for cand in design.point_coords:  # nonzero vectors, canonical order
            if tuple(field.neg(x) for x in cand) not in on_lines:
                tau = cand
                break
        if tau is None:
            raise DesignError("no translation moves the configuration off the origin")
        lines = [
            [tuple(field.add(x, t) for x, t in zip(pt, tau)) for pt in line]
            for line in lines
        ]
    lookup = _block_lookup(design)
    point_index = {p: i for i, p in enumerate(design.point_coords)}
    support = []
    for line in lines:
        blk = tuple(sorted(point_index[pt] for pt in line))
        if blk not in lookup:
            raise DesignError(f"{kind}: line {blk} is not a block")
        support.append(lookup[blk])
    support = tuple(sorted(support))
    if len(set(support)) != len(lines):
        raise DesignError(f"{kind}: lines are not distinct")
    w = WitnessCodeword(kind=kind, block_indices=support, weight=len(support))
    validate_witness(design.structure.point_by_block(), w)
    return w


def parallel_class_pair(design: GeometryDesign) -> WitnessCodeword:
    """Two full parallel classes of a 2-flat: 2q lines covering each point of
    the flat exactly twice — the weight-2q dependent set behind the odd-q
    Type II distances.  For EG the configuration is translated off the origin
    (needs m >= 3: in a plane the two classes cover every point)."""
    if design.kind not in (AG, EG):
        raise DesignError("parallel-class pair lives in AG/EG")
    if design.kind == EG and design.m < 3:
        raise DesignError("EG parallel-class pair needs m >= 3")
    field = design.field
    q, m = design.q, design.m
    lines = []
    for direction, other in (((1, 0), (0, 1)), ((0, 1), (1, 0))):
        for c in field.elements():
            line = []
            for lam in field.elements():
                x = field.add(field.mul(c, other[0]), field.mul(lam, direction[0]))
                y = field.add(field.mul(c, other[1]), field.mul(lam, direction[1]))
                line.append((x, y) + (0,) * (m - 2))
            lines.append(line)
    return _lines_to_witness(design, lines, "parallel_class_pair")


def affine_hyperoval_trace(design: GeometryDesign) -> WitnessCodeword:
    """q+1 lines of an affine plane (q even) covering each point 0 or 2 times:
    a dual hyperoval through the line at infinity, restricted to the affine
    part.  In coordinates: {1 + b x + b^2 y = 0} for b != 0 plus {x = 0} and
    {y = 0}, in the first-two-coordinates flat.  For EG the configuration is
    translated off the origin."""
    if design.kind not in (AG, EG):
        raise DesignError("affine hyperoval trace lives in AG/EG")
    q = design.q
    if _two_adic(q) is None:
        raise DesignError("needs q even")
    field = design.field
    m = design.m

    def solutions(condition) -> list[tuple[int, ...]]:
        return [
            (x, y) + (0,) * (m - 2)
            for x in field.elements()
            for y in field.elements()
            if condition(x, y)
        ]

    lines = []
    for beta in field.elements():
        if beta == 0:
            continue
        b2 = field.mul(beta, beta)
        lines.append(
            solutions(
                lambda x, y, beta=beta, b2=b2: field.add(
                    1, field.add(field.mul(beta, x), field.mul(b2, y))
                )
                == 0
            )
        )
    lines.append(solutions(lambda x, y: x == 0))
    lines.append(solutions(lambda x, y: y == 0))
    if any(len(line) != q for line in lines):
        raise DesignError("hyperoval trace produced a non-line")
    return _lines_to_witness(design, lines, "affine_hyperoval_trace")


def point_hyperoval(design: GeometryDesign) -> WitnessCodeword:
    """A hyperoval point set (q even, m = 2): every line meets it 0 or 2 times.

    This is the block-by-point (Type I) witness for the plane codes.
    PG: the conic {(1, t, t^2)} plus nucleus (0,1,0) and (0,0,1), weight q+2.
    AG: a PG hyperoval moved off the line at infinity by a coordinate change
    (external lines always exist: (q^2 - q)/2 of them), weight q+2.
    EG: the AG hyperoval translated so one point sits at the origin, minus
    the origin, weight q+1 — every surviving line still meets it evenly.

    Restricted to m = 2: in higher dimensions a line transverse to the plane
    would meet the set once, so plane hyperovals are not codewords there.
    """
    q = design.q
    if _two_adic(q) is None:
        raise DesignError("hyperovals need q even")
    if design.m != 2:
        raise DesignError("point hyperoval witness requires m = 2")
    field = design.field
    if design.kind == PG:
        pts = [field.normalize_projective((1, t, field.mul(t, t))) for t in field.elements()]
        pts.append((0, 1, 0))
        pts.append((0, 0, 1))
        point_index = {p: i for i, p in enumerate(design.point_coords)}
        support = tuple(sorted(point_index[p] for p in pts))
        w = WitnessCodeword(kind="point_hyperoval", block_indices=support, weight=q + 2)
        validate_witness(design.structure.block_by_point(), w)
        return w
    # AG / EG: start from the PG hyperoval and move an external line to infinity
    hyper = [field.normalize_projective((1, t, field.mul(t, t))) for t in field.elements()]
    hyper += [(0, 1, 0), (0, 0, 1)]
    ext = None
    for a, b, c in itertools.product(field.elements(), repeat=3):
        if (a, b, c) == (0, 0, 0):
            continue
        if all(
            field.add(field.mul(a, p[0]), field.add(field.mul(b, p[1]), field.mul(c, p[2]))) != 0
            for p in hyper
        ):
            ext = (a, b, c)
            break
    if ext is None:
        raise DesignError("no external line to the hyperoval found")
    # coordinate change sending ext to the first coordinate form
    rows = [ext]
    for cand in itertools.product(field.elements(), repeat=3):
        if len(rows) == 3:
            break
        if _rank3(field, rows + [cand]) == len(rows) + 1:
            rows.append(cand)
    affine_pts = []
    for p in hyper:
        img = tuple(_dot(field, row, p) for row in rows)
        inv = field.inv(img[0])  # nonzero: ext is external to the hyperoval
        affine_pts.append((field.mul(inv, img[1]), field.mul(inv, img[2])))
    if len(set(affine_pts)) != q + 2:
        raise DesignError("hyperoval transform collapsed points")
    if design.kind == EG:
        t0 = affine_pts[0]
        affine_pts = [(field.sub(x, t0[0]), field.sub(y, t0[1])) for (x, y) in affine_pts]
        affine_pts = [p for p in affine_pts if p != (0, 0)]
    point_index = {p: i for i, p in enumerate(design.point_coords)}
    support = tuple(sorted(point_index[p] for p in affine_pts))
    w = WitnessCodeword(kind="point_hyperoval", block_indices=support, weight=len(support))
    validate_witness(design.structure.block_by_point(), w)
    return w


def _dot(field: FiniteField, a: Sequence[int], b: Sequence[int]) -> int:
    acc = 0
    for x, y in zip(a, b):
        acc = field.add(acc, field.mul(x, y))
    return acc


def _rank3(field: FiniteField, rows) -> int:
    mat = [list(r) for r in rows]
    rank = 0
    ncols = 3
    for c in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = field.inv(mat[rank][c])
        mat[rank] = [field.mul(inv, x) for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def validate_witness(H, w: WitnessCodeword) -> None:
    """Check the witness columns of H sum to zero over GF(2)."""
    acc = 0
    cols = H.transpose().row_bits()
    for j in w.block_indices:
        acc ^= cols[j]
    if acc != 0:
        raise DesignError(f"witness {w.kind} is not a dependent column set")
