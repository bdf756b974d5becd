"""Point-line designs of projective, affine and punctured-affine geometries,
their closed-form GF(2) ranks, spreads, and minimum-weight witness codewords.

The witness builders only construct: each maps its lines or points to block
or point indices and builds no incidence matrix.  ``distance_verdict``
validates a witness once, with ``validate_witness``, against the H that
defines the code.

Point orderings are canonical (projective representatives normalized to
leading 1, affine points in lexicographic coordinate order) and lines are
emitted in lexicographic block order, so indices are stable across runs.

Lines are built once each, in numpy, from the addition and multiplication
tables of GF(q) (``FiniteField.tables``, uint8 up to q = 256), and go into
the design as one line array; a point's number is read off its coordinates
in base q.  The AG lines of direction d (leading 1 at j) are {h + lam*d} for
the q^{m-1} points h with h_j = 0.  A PG line is spanned by its reduced basis u, w
(leading 1s at i < j, u_j = 0): its points w and u + lam*w are normalized.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Optional, Sequence

import numpy as np

from .designs import DesignError, IncidenceStructure, SpreadPartition, spread_of
from .fields import FiniteField, enumerate_subspace_reps, make_field, field_for_order, subfield_embedding
from .gf2 import BitMatrix, pack_bool_rows

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
        return design_counts(self.kind, self.m, self.q)[3]

    @property
    def replication(self) -> int:
        return design_counts(self.kind, self.m, self.q)[2]


def design_counts(kind: str, m: int, q: int) -> tuple[int, int, int, int]:
    """(v, b, r, mu) of the point-line design of PG(m, q), AG(m, q) or EG(m, q):
    points, lines, lines through a point and points on a line, b = v r / mu.
    EG is AG without the origin and the r lines through it."""
    r = (q**m - 1) // (q - 1)
    if kind == PG:
        v, mu = (q ** (m + 1) - 1) // (q - 1), q + 1
    elif kind == AG:
        v, mu = q**m, q
    elif kind == EG:
        v, r, mu = q**m - 1, r - 1, q
    else:
        raise ValueError(f"unknown geometry kind {kind!r}")
    return v, v * r // mu, r, mu


@dataclass(frozen=True)
class WitnessCodeword:
    """A set of column indices meant to cover every row an even number of
    times; ``validate_witness`` checks that against a parity-check matrix.

    For point-by-block matrices the columns are blocks; for block-by-point
    matrices they are points.  kind names the geometric construction.
    """

    kind: str
    block_indices: tuple[int, ...]

    @property
    def weight(self) -> int:
        return len(self.block_indices)


def _vectors(q: int, n: int) -> np.ndarray:
    """All q^n coordinate vectors of length n, as rows in lexicographic order."""
    return np.indices((q,) * n, dtype=np.min_scalar_type(q - 1)).reshape(n, q**n).T


def _line_points(add: np.ndarray, mul: np.ndarray, base: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Coordinates of base + lam * step for every lam in F_q (tables from
    ``FiniteField.tables``), on a new second-to-last axis; base and step broadcast."""
    lam = np.arange(len(add))[:, None]
    return add[base[..., None, :], mul[lam, step[..., None, :]]]


def _checked_design(kind: str, m: int, q: int, lines: list[np.ndarray], point_coords) -> GeometryDesign:
    """The design on these lines (arrays of point numbers, one line a row),
    once its line count matches ``design_counts``."""
    b = design_counts(kind, m, q)[1]
    S = IncidenceStructure.from_arrays(len(point_coords), lines, f"{kind.lower()}({m},{q})")
    if S.b != b:
        raise DesignError(f"{kind}({m},{q}): got {S.b} lines, expected {b}")
    return GeometryDesign(kind=kind, m=m, q=q, structure=S, point_coords=tuple(point_coords))


def build_pg(m: int, q: int) -> GeometryDesign:
    """Points and lines of PG(m, q): an S(2, q+1, (q^{m+1}-1)/(q-1))."""
    if m < 2:
        raise DesignError("need m >= 2")
    field = field_for_order(q)
    add, mul = field.tables()
    points = enumerate_subspace_reps(field, m + 1)
    # a point with its leading 1 at position L is number offset[L] + (base-q tail)
    number = np.int32 if len(points) < 2**31 else np.int64
    offset = np.cumsum([0] + [q ** (m - L) for L in range(m)], dtype=number)
    place = q ** np.arange(m, -1, -1, dtype=number)  # coordinate k weighs q^(m-k)

    def index(x: np.ndarray, lead: int) -> np.ndarray:
        return offset[lead] + x[..., lead + 1 :] @ place[lead + 1 :]

    lines = []
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            # each line once, by its reduced basis: u leads at i with u_j = 0,
            # w leads at j; its points are w and u + lam*w (leading 1 at i)
            free_u = [k for k in range(i + 1, m + 1) if k != j]
            free = _vectors(q, len(free_u) + m - j)
            u = np.zeros((len(free), m + 1), dtype=free.dtype)
            w = np.zeros((len(free), m + 1), dtype=free.dtype)
            u[:, i], w[:, j] = 1, 1
            u[:, free_u], w[:, j + 1 :] = free[:, : len(free_u)], free[:, len(free_u) :]
            on_line = index(_line_points(add, mul, u, w), i)
            lines.append(np.column_stack([on_line, index(w, j)]))
    return _checked_design(PG, m, q, lines, points)


def build_ag(m: int, q: int) -> GeometryDesign:
    """Points and lines (1-flats) of AG(m, q): an S(2, q, q^m)."""
    if m < 2:
        raise DesignError("need m >= 2")
    add, mul = field_for_order(q).tables()
    points = tuple(itertools.product(range(q), repeat=m))  # point number = base-q value
    weights = q ** np.arange(m - 1, -1, -1, dtype=np.int32 if q**m < 2**31 else np.int64)
    lines = []
    for j in range(m):
        # directions with leading 1 at j; each such line meets x_j = 0 exactly once
        dirs = np.zeros((q ** (m - 1 - j), m), dtype=add.dtype)
        dirs[:, j], dirs[:, j + 1 :] = 1, _vectors(q, m - 1 - j)
        hyper = np.zeros((q ** (m - 1), m), dtype=add.dtype)
        hyper[:, np.arange(m) != j] = _vectors(q, m - 1)
        on_line = _line_points(add, mul, hyper[None, :, :], dirs[:, None, :]) @ weights
        lines.append(on_line.reshape(-1, q))
    return _checked_design(AG, m, q, lines, points)


def build_eg(m: int, q: int) -> GeometryDesign:
    """AG(m, q) minus the zero point and the lines through it (partial design)."""
    ag = build_ag(m, q)
    # the origin is AG point 0, so it starts every sorted block through it
    lines = ag.structure.arrays[0]
    return _checked_design(EG, m, q, [lines[lines[:, 0] > 0] - 1], ag.point_coords[1:])


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
    q = 2^t, v (full) for q odd.  EG: phi(m)-phi(m-1)-1 for q = 2^t; for q
    odd no closed form is endorsed (Hamada conjectured full rank) and the
    interval (lower, upper) = (1, v) is returned for brute-force resolution.
    """
    v = design_counts(kind, m, q)[0]
    t = _two_adic(q)
    if t is None:
        return {PG: v - 1, AG: v, EG: (1, v)}[kind]
    if kind == PG:
        return hamada_phi(m, t)
    affine = hamada_phi(m, t) - (hamada_phi(m - 1, t) if m >= 2 else 0)
    return affine if kind == AG else affine - 1


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
    # basis of big over the embedded subfield: powers of a primitive element
    gamma = big.generator
    basis = [big.pow(gamma, i) for i in range(s + 1)]
    # the F_q-linear bijection F_q^{s+1} -> big, as a lookup from big
    from_big: dict[int, tuple[int, ...]] = {}
    for coeffs in itertools.product(range(q), repeat=s + 1):
        w = 0
        for c, bb in zip(coeffs, basis):
            w = big.add(w, big.mul(emb[c], bb))
        from_big[w] = coeffs
    if len(from_big) != big.q:
        raise RuntimeError("subfield basis failed to span the extension field")

    n_over = (m + 1) // (s + 1)
    point_index = {p: i for i, p in enumerate(design.point_coords)}
    point_sets = []
    for rep in enumerate_subspace_reps(big, n_over):
        part_points = set()
        for lam in range(1, big.q):
            coords = [c for x in rep for c in from_big[big.mul(lam, x)]]
            part_points.add(point_index[field.normalize_projective(tuple(coords))])
        point_sets.append(part_points)
    return spread_of(design.structure, point_sets)


def ag_hyperplane_spread(design: GeometryDesign) -> SpreadPartition:
    """One parallel class of hyperplanes of AG(m, q): q parts, each an
    AG_1(m-1, q) subdesign on q^{m-1} points."""
    if design.kind != AG:
        raise DesignError("requires an AG design")
    if design.m < 3:
        raise DesignError("need m >= 3")
    point_sets = [
        [i for i, p in enumerate(design.point_coords) if p[0] == c]
        for c in design.field.elements()
    ]
    return spread_of(design.structure, point_sets)


# --- polarity of the symmetric planes -------------------------------------------

def plane_polarity(design: GeometryDesign) -> Optional[np.ndarray]:
    """sigma, the block index of each point's polar line, for PG(2, q) and
    EG(2, q); None for every other design (an AG plane has v != b).

    PG: x -> x^perp = {y : x.y = 0}.  EG: x -> {y : x.y = 1}, one of the lines
    that miss the origin.  Raises DesignError unless sigma maps the points
    one-to-one onto the blocks and A[:, sigma] is symmetric, A the
    point-by-block matrix.  Then the Type I codewords (point sets) are the
    Type II codewords (block sets) pulled back through sigma: A^T x = 0
    exactly when A z = 0 for z_sigma(j) = x_j.
    """
    if design.m != 2 or design.kind not in (PG, EG):
        return None
    S = design.structure
    blocks = S.block_by_point().to_packed()
    sigma = _polar_lines(design, blocks)
    if S.b != S.v or sorted(sigma.tolist()) != list(range(S.b)):
        raise DesignError(f"{design.kind}(2,{design.q}): the polar lines are not the blocks")
    # row y of A[:, sigma]^T is the block sigma(y)
    polar = BitMatrix.from_packed(blocks[sigma], S.v)
    if polar != polar.transpose():
        raise DesignError(f"{design.kind}(2,{design.q}): A[:, sigma] is not symmetric")
    return sigma


def _polar_lines(design: GeometryDesign, blocks: np.ndarray) -> np.ndarray:
    """Per point x, the index of the row of ``blocks`` (the packed
    block-by-point matrix) that is {y : x.y = c}, c = 0 for PG and 1 for EG,
    or -1 when no block is that point set.  Holds one v x v array of dot
    products, so it is meant for planes small enough to enumerate."""
    add, mul = design.field.tables()
    pts = np.array(design.point_coords, dtype=add.dtype)
    dots = np.zeros((len(pts), len(pts)), dtype=add.dtype)
    for i in range(pts.shape[1]):
        dots = add[dots, mul[pts[:, None, i], pts[None, :, i]]]
    rows = pack_bool_rows(dots == (0 if design.kind == PG else 1))
    block_of = {r.tobytes(): j for j, r in enumerate(blocks)}
    return np.array([block_of.get(r.tobytes(), -1) for r in rows], dtype=np.intp)


# --- witness codewords (constructed here, validated by distance_verdict) -------

def dual_hyperoval(design: GeometryDesign) -> WitnessCodeword:
    """q+2 lines of a plane of PG(m, 2^t), covering every point 0 or 2 times.

    The line set {X0 + b X1 + b^2 X2 = 0 : b in F_q} plus {X1 = 0}, {X2 = 0},
    embedded in the plane spanned by the first three coordinates for m > 2.
    Returned unvalidated, like every builder here: ``distance_verdict``
    checks it against the code's H.
    """
    if design.kind != PG:
        raise DesignError("dual hyperoval lives in PG")
    if _two_adic(design.q) is None:
        raise DesignError("dual hyperovals exist if and only if q is even")
    field = design.field
    plane = [p for p in design.point_coords if not any(p[3:])]
    forms = [(1, b, field.mul(b, b)) for b in field.elements()] + [(0, 1, 0), (0, 0, 1)]
    lines = [[p for p in plane if _dot(field, form, p) == 0] for form in forms]
    return _lines_to_witness(design, lines, "dual_hyperoval")


def hyperbolic_quadric(design: GeometryDesign) -> WitnessCodeword:
    """The 2(q+1) ruling lines of {x0 x3 = x1 x2} in a 3-subspace of PG(m, q),
    q odd: every point covered 0 or 2 times.  The quadric's points are
    (su, sv, tu, tv); one ruling fixes (s:t), the other fixes (u:v).
    Returned unvalidated: ``distance_verdict`` checks it against the code's H."""
    if design.kind != PG:
        raise DesignError("hyperbolic quadric lives in PG")
    if _two_adic(design.q) is not None:
        raise DesignError("use the dual hyperoval for q even")
    if design.m < 3:
        raise DesignError("need m >= 3")
    field = design.field
    pad = (0,) * (design.m - 3)
    pairs = enumerate_subspace_reps(field, 2)  # (s:t) representatives

    def point(st, uv) -> tuple[int, ...]:
        vec = tuple(field.mul(a, b) for a in st for b in uv) + pad
        return field.normalize_projective(vec)

    lines = [[point(st, uv) for uv in pairs] for st in pairs]
    lines += [[point(st, uv) for st in pairs] for uv in pairs]
    return _lines_to_witness(design, lines, "hyperbolic_quadric")


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
    # a geometry's lines are one array of lexicographic rows: the rows that
    # start with a line's first point are one slice
    A = design.structure.arrays[0]
    point_index = {p: i for i, p in enumerate(design.point_coords)}
    support = []
    for line in lines:
        blk = sorted(point_index[pt] for pt in line)
        lo, hi = np.searchsorted(A[:, 0], [blk[0], blk[0] + 1])
        hit = np.flatnonzero((A[lo:hi] == blk).all(axis=1)) if len(blk) == A.shape[1] else []
        if not len(hit):
            raise DesignError(f"{kind}: line {tuple(blk)} is not a block")
        support.append(lo + int(hit[0]))
    return WitnessCodeword(kind=kind, block_indices=tuple(sorted(support)))


def parallel_class_pair(design: GeometryDesign) -> WitnessCodeword:
    """Two full parallel classes of a 2-flat: 2q lines covering each point of
    the flat exactly twice — the weight-2q dependent set behind the odd-q
    Type II distances.  For EG the configuration is translated off the origin
    (needs m >= 3: in a plane the two classes cover every point).
    Returned unvalidated: ``distance_verdict`` checks it against the code's H."""
    if design.kind not in (AG, EG):
        raise DesignError("parallel-class pair lives in AG/EG")
    if design.kind == EG and design.m < 3:
        raise DesignError("EG parallel-class pair needs m >= 3")
    field = design.field
    m = design.m
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
    translated off the origin.  Returned unvalidated: ``distance_verdict``
    checks it against the code's H."""
    if design.kind not in (AG, EG):
        raise DesignError("affine hyperoval trace lives in AG/EG")
    if _two_adic(design.q) is None:
        raise DesignError("needs q even")
    field = design.field
    e = field.elements()
    plane = [(x, y) + (0,) * (design.m - 2) for x in e for y in e]
    # in characteristic 2, 1 + s = 0 exactly when s = 1
    lines = [[p for p in plane if _dot(field, (b, field.mul(b, b)), p) == 1] for b in e if b]
    lines += [[p for p in plane if p[0] == 0], [p for p in plane if p[1] == 0]]
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
    Returned unvalidated: ``distance_verdict`` checks it against the code's H.
    """
    if _two_adic(design.q) is None:
        raise DesignError("hyperovals need q even")
    if design.m != 2:
        raise DesignError("point hyperoval witness requires m = 2")
    field = design.field
    pts = [(1, t, field.mul(t, t)) for t in field.elements()] + [(0, 1, 0), (0, 0, 1)]
    if design.kind != PG:
        # AG / EG: move a line external to the PG hyperoval to infinity
        ext = next(
            (f for f in itertools.product(field.elements(), repeat=3)
             if any(f) and all(_dot(field, f, p) != 0 for p in pts)),
            None,
        )
        if ext is None:
            raise DesignError("no external line to the hyperoval found")
        # coordinate change sending ext to the first coordinate form: ext and
        # the unit vectors off its leading nonzero coordinate form a basis
        lead = next(i for i, x in enumerate(ext) if x)
        rows = [ext] + [tuple(int(i == j) for j in range(3)) for i in (2, 1, 0) if i != lead]
        affine_pts = []
        for p in pts:
            img = tuple(_dot(field, row, p) for row in rows)
            inv = field.inv(img[0])  # nonzero: ext is external to the hyperoval
            affine_pts.append((field.mul(inv, img[1]), field.mul(inv, img[2])))
        pts = affine_pts
        if design.kind == EG:
            x0, y0 = pts[0]
            pts = [(field.sub(x, x0), field.sub(y, y0)) for (x, y) in pts[1:]]
    point_index = {p: i for i, p in enumerate(design.point_coords)}
    return WitnessCodeword(
        kind="point_hyperoval", block_indices=tuple(sorted(point_index[p] for p in pts))
    )


def _dot(field: FiniteField, a: Sequence[int], b: Sequence[int]) -> int:
    acc = 0
    for x, y in zip(a, b):
        acc = field.add(acc, field.mul(x, y))
    return acc


def validate_witness(H, w: WitnessCodeword) -> None:
    """Check that the witness is a codeword of the code with parity-check
    matrix H: distinct columns that sum to zero over GF(2).  It XORs the
    packed rows of H's cached transpose; an incidence matrix from
    ``point_by_block`` already holds it, so that case builds no matrix."""
    if len(set(w.block_indices)) != w.weight:
        raise DesignError(f"witness {w.kind} repeats a column")
    cols = H.transpose().to_packed()
    if np.bitwise_xor.reduce(cols[list(w.block_indices)], axis=0).any():
        raise DesignError(f"witness {w.kind} is not a codeword of H")
