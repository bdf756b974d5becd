"""CSS entanglement-assisted code parameters from parity-check matrices.

Orientation vocabulary: a point-by-block incidence matrix gives a Type II
code (length = number of blocks); a block-by-point matrix gives a Type I
code (length = number of points).  k = n - 2 rk(H) + c with c = rk(H H^T),
both ranks over GF(2).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from math import isqrt
from typing import Optional

import numpy as np

from . import gf2
from .designs import (
    DesignError,
    DesignParams,
    IncidenceStructure,
    SpreadPartition,
    tanner_girth,
    verify_partial_steiner,
)
from .geometry import (
    AG,
    EG,
    PG,
    GeometryDesign,
    WitnessCodeword,
    affine_hyperoval_trace,
    dual_hyperoval,
    hyperbolic_quadric,
    parallel_class_pair,
    design_counts,
    plane_polarity,
    point_hyperoval,
    rank_formula,
    validate_witness,
    _two_adic,
)
from .gf2 import BitMatrix, EnumeratedDistance

POINT_BY_BLOCK = "point_by_block"  # Type II
BLOCK_BY_POINT = "block_by_point"  # Type I

_ORIENT_ALIASES = {
    "point_by_block": POINT_BY_BLOCK,
    "block_by_point": BLOCK_BY_POINT,
    "ii": POINT_BY_BLOCK,
    "i": BLOCK_BY_POINT,
    "2": POINT_BY_BLOCK,
    "1": BLOCK_BY_POINT,
}


def normalize_orientation(orientation: str) -> str:
    key = str(orientation).strip().lower()
    if key not in _ORIENT_ALIASES:
        raise ValueError(f"unknown orientation {orientation!r}")
    return _ORIENT_ALIASES[key]


def type_label(orientation: str) -> str:
    return "II" if normalize_orientation(orientation) == POINT_BY_BLOCK else "I"


@dataclass(frozen=True)
class DistanceVerdict:
    """The minimum distance of a code and what it rests on.

    ``status`` is "exact" when enumeration, or a counting lower bound that
    meets a validated witness, certifies lower = upper = d; "theorem-only"
    when d = lower = upper is a closed-form family value that nothing at
    desk scale certified; "bounded" when only lower <= d <= upper is known.
    For the trivial code (no nonzero codeword) d = 0.  ``witness`` is a
    column support of a codeword of weight ``upper``, or None; ``sources``
    name the evidence; ``enumerated`` is the exhaustive result that decided
    d, in this H's columns, or None.
    """

    status: str
    lower: int
    upper: int
    witness: Optional[tuple[int, ...]] = None
    sources: tuple[str, ...] = ()
    enumerated: Optional[EnumeratedDistance] = None

    def __post_init__(self):
        if self.status not in ("exact", "theorem-only", "bounded"):
            raise ValueError(f"bad distance status {self.status!r}")
        if self.lower > self.upper:
            raise ValueError("lower > upper")
        if self.status != "bounded" and self.lower != self.upper:
            raise ValueError(f"{self.status} distance must have lower == upper")

    @property
    def certified(self) -> bool:
        return self.status == "exact"

    @property
    def theorem_only(self) -> bool:
        return self.status == "theorem-only"

    @property
    def value(self):
        """d, or (lower, upper) when bounded: a table's d cell."""
        return (self.lower, self.upper) if self.status == "bounded" else self.upper


@dataclass(frozen=True)
class EaqeccParams:
    n: int
    k: int
    c: int
    d: DistanceVerdict
    rank_h: int
    orientation: str
    girth: object  # int or ">=cap"
    provenance: str = ""

    def __post_init__(self):
        if self.k != self.n - 2 * self.rank_h + self.c:
            raise ValueError("k != n - 2 rank + c")
        if not (1 <= self.c <= self.rank_h):
            raise ValueError("c out of range [1, rank]")

    @property
    def rate(self) -> Fraction:
        return Fraction(self.k, self.n)

    @property
    def net_rate(self) -> Fraction:
        return Fraction(self.k - self.c, self.n)


@dataclass(frozen=True)
class DeletionRecord:
    """What was removed from a Steiner design before forming the code."""

    part_orders: tuple[int, ...]  # |V_i| for each deleted part
    part_replications: tuple[int, ...]  # (|V_i|-1)/(mu-1)
    covers_all_points: bool  # the deleted parts form a full spread

    @classmethod
    def from_spread(
        cls, S: IncidenceStructure, spread: SpreadPartition, count: int, mu: int
    ) -> DeletionRecord:
        orders = tuple(len(pts) for pts, _ in spread.parts[:count])
        reps = tuple((w - 1) // (mu - 1) for w in orders)
        covered = sum(orders)
        return cls(orders, reps, covered == S.v)


def oriented_matrix(structure: IncidenceStructure, orientation: str) -> BitMatrix:
    """The Type II (point-by-block) or Type I (block-by-point) parity-check
    matrix; only the requested orientation is built."""
    if normalize_orientation(orientation) == POINT_BY_BLOCK:
        return structure.point_by_block()
    return structure.block_by_point()


def css_from_parity_check(H: BitMatrix, orientation: str) -> EaqeccParams:
    """Code parameters of the CSS EAQECC built on the classical code with
    parity-check matrix H (distance is derived separately)."""
    orientation = normalize_orientation(orientation)
    if not H.to_packed().any():
        raise ValueError("zero parity-check matrix")
    n = H.cols
    rk = gf2.rank_value(H)
    c = gf2.gram_rank(H)
    k = n - 2 * rk + c
    params = EaqeccParams(
        n=n,
        k=k,
        c=c,
        d=DistanceVerdict("bounded", 1, n),
        rank_h=rk,
        orientation=orientation,
        girth=None,
        provenance="computed",
    )
    # warn only about parameters that passed validation, so a rejected
    # matrix ends with the one error line
    if k <= 0:
        warnings.warn(
            f"degenerate code: k = {k} <= 0 (n={n}, rank={rk}, c={c})",
            stacklevel=2,
        )
    return params


def expected_c(
    design_params: DesignParams,
    orientation: str,
    deletion_record: Optional[DeletionRecord] = None,
):
    """Theorem-predicted ebit count c, or an interval (lo, hi) when no closed
    form applies."""
    orientation = normalize_orientation(orientation)
    v, r = design_params.v, design_params.r

    if orientation == POINT_BY_BLOCK:
        if deletion_record is None:
            return 1 if r % 2 == 1 else v - 1
        if r % 2 == 0:
            raise DesignError(
                "deletion formulas require the parent replication number to be odd"
            )
        reps = deletion_record.part_replications
        j = len(reps)
        if j == 0:
            return 1
        if all(x % 2 == 1 for x in reps):
            if not deletion_record.covers_all_points:
                return j + 1
            return j - 1 if j % 2 == 1 else j
        if all(x % 2 == 0 for x in reps):
            return sum(w - 1 for w in deletion_record.part_orders) + 1
        raise DesignError(
            "mixed replication parities among deleted parts: no closed form; "
            "compute c = rank(H H^T) directly"
        )

    # Type I (block-by-point)
    return (1, v - 1 if v > 1 else 1)


def hillebrandt_bounds(v: int, mu: int) -> tuple[int, int]:
    """Rank bounds for an S(2, mu, v) incidence matrix: the square-root lower
    bound and the trivial upper bound v, in exact integer arithmetic.

    ceil(1/2 + sqrt(1/4 + (v-1)(v-mu)/mu)) equals the least L >= 1 with
    mu L (L-1) >= (v-1)(v-mu).
    """
    if not v > mu >= 2:
        raise ValueError("need v > mu >= 2")
    target = (v - 1) * (v - mu)
    L = (1 + isqrt(1 + 4 * target // mu)) // 2  # close; adjust both ways
    while L >= 1 and mu * L * (L - 1) >= target:
        L -= 1
    while mu * L * (L - 1) < target:
        L += 1
    return max(L, 1), v


# --- distance assembly -------------------------------------------------------

def _formula_distance(kind: str, m: int, q: int, orientation: str):
    """The family case of a geometry code: (d or None, source, lower_only,
    witness builder or None).  d is the closed-form distance, only a lower
    bound when lower_only; the builder constructs the family's witness
    codeword.  Builders are read from this module's names on each call, so
    a wrapped or patched builder is the one that runs."""
    even = _two_adic(q) is not None
    if orientation == POINT_BY_BLOCK:
        if kind == PG:
            if even:
                return q + 2, "formula:pg-line-code-distance-even-q (q+2)", False, dual_hyperoval
            if m >= 3:
                return (2 * (q + 1), "formula:pg-line-code-distance-odd-q (2q+2)", False,
                        hyperbolic_quadric)
            b = design_counts(PG, m, q)[1]
            return b, "formula:pg-plane-odd-q-trivial-code (d = n)", False, None
        if kind == AG:
            if even:
                return (q + 1, "formula:affine-line-code-distance-even-q (q+1)", False,
                        affine_hyperoval_trace)
            return 2 * q, "formula:affine-line-code-distance-odd-q (2q)", False, parallel_class_pair
        if kind == EG:
            if even:
                return (q + 1, "formula:punctured-affine-line-code-distance-even-q (q+1)", False,
                        affine_hyperoval_trace)
            if m > 2:
                return (2 * q, "formula:punctured-affine-line-code-distance-odd-q (2q)", False,
                        parallel_class_pair)
    elif even:
        # plane hyperovals only: off the plane a transverse line meets one once
        hyperoval = point_hyperoval if m == 2 else None
        if kind == PG:
            return ((q + 2) * q ** (m - 2), "formula:pg-point-code-distance ((q+2)q^(m-2))", False,
                    hyperoval)
        if kind == AG:
            return ((q + 2) * q ** (m - 2), "formula:affine-point-code-distance ((q+2)q^(m-2))",
                    False, hyperoval)
        if kind == EG:
            d = design_counts(EG, m, q)[2] + 1  # (q^m-1)/(q-1)
            if m == 2:
                return (d, "formula:punctured-affine-point-code-distance (q+1 at m=2)", False,
                        hyperoval)
            return d, "formula:punctured-affine-point-code-bch-lower ((q^m-1)/(q-1))", True, None
    return None, "", False, None


def _make_witness(design: GeometryDesign, orientation: str) -> Optional[WitnessCodeword]:
    """The geometric witness of this family and orientation, or None.  It is
    not yet validated; ``distance_verdict`` does that against H."""
    build = _formula_distance(design.kind, design.m, design.q, orientation)[3]
    return build(design) if build else None


def _structural_lower(design, orientation: str) -> tuple[int, str]:
    """Dependent column sets need >= mu+1 columns (point-by-block) or
    r_min+1 columns (block-by-point) when two blocks share at most one point:
    each unit of a column must be cancelled by a distinct other column.

    Only valid for lambda <= 1 structures; geometry designs qualify by
    construction, plain structures are checked first.
    """
    if isinstance(design, GeometryDesign):
        mu = design.mu
        r = design.replication
    else:
        S = design
        sizes = {A.shape[1] for A in S.arrays}
        if len(sizes) != 1:
            return 1, ""
        mu = sizes.pop()
        try:
            verify_partial_steiner(S, mu)
        except DesignError:
            return 1, ""
        r = min(S.replication_counts())
    if orientation == POINT_BY_BLOCK:
        return mu + 1, "structural:lambda<=1-column-bound (mu+1)"
    return r + 1, "structural:lambda<=1-column-bound (r+1)"


def _through_polarity(design, orientation: str, twin: Optional[DistanceVerdict]):
    """The exhaustive result of ``twin``, the verdict of the other
    orientation of the same design, moved to this orientation's columns
    through the checked ``plane_polarity``; None when there is no such result
    or no polarity.  A failed polarity check raises DesignError."""
    if twin is None or twin.enumerated is None or not isinstance(design, GeometryDesign):
        return None
    sigma = plane_polarity(design)
    if sigma is None:
        return None
    r = twin.enumerated
    if r.witness is None:
        return r
    # Type I column j (a point) is Type II column sigma(j) (its polar line)
    to_here = np.argsort(sigma) if orientation == BLOCK_BY_POINT else sigma
    return replace(r, witness=tuple(sorted(to_here[list(r.witness)].tolist())))


def distance_verdict(
    design,
    orientation: str,
    H: Optional[BitMatrix] = None,
    twin: Optional[DistanceVerdict] = None,
) -> DistanceVerdict:
    """Assemble the minimum distance of the classical ingredient code from
    exhaustive enumeration, closed-form family values, witness codewords and
    the lambda<=1 structural bound.

    Precedence: enumeration-exact beats formula-exact; all sources must agree
    (a validated witness below a certified lower bound, or a formula value
    contradicting enumeration, raises DesignError).  The evidence is
    collected first and the verdict built once: "exact" from enumeration or
    from a counting bound that meets a validated witness, "theorem-only"
    from a closed-form family value alone, else "bounded".

    ``twin`` is the verdict of the other orientation of the same design.
    For PG(2, q) and EG(2, q), whose polarity makes the two codes equivalent,
    its exhaustive result stands in for ``gf2.min_distance(H)``, with any
    witness mapped through the polarity and validated against H; every
    other check still runs against H.
    """
    orientation = normalize_orientation(orientation)
    structure = design.structure if isinstance(design, GeometryDesign) else design
    if H is None:
        H = oriented_matrix(structure, orientation)
    sources: list[str] = []
    lower, upper = 1, H.cols

    lo_struct, src_struct = _structural_lower(design, orientation)
    lower = max(lower, lo_struct)
    if src_struct:
        sources.append(src_struct)

    formula_value, witness = None, None
    if isinstance(design, GeometryDesign):
        val, src, lower_only, _ = _formula_distance(
            design.kind, design.m, design.q, orientation
        )
        if val is not None:
            sources.append(src)
            if lower_only:
                lower = max(lower, val)
            else:
                formula_value = val
        witness = _make_witness(design, orientation)
    elif isinstance(design, IncidenceStructure):
        sizes = {A.shape[1] for A in structure.arrays}
        # verified STS: nonzero codewords weigh between 4 and 8
        if sizes == {3} and orientation == POINT_BY_BLOCK and src_struct and structure.v > 3:
            upper = min(upper, 8)
            sources.append("formula:steiner-triple-code-distance-window (4..8)")

    if witness is not None:
        validate_witness(H, witness)
        sources.append(f"witness:{witness.kind} (weight {witness.weight})")
        upper = min(upper, witness.weight)

    wit = witness.block_indices if witness else None
    shared = _through_polarity(design, orientation, twin)
    enumerated = shared if shared is not None else gf2.min_distance(H)
    if enumerated is not None:
        d = enumerated.d
        if formula_value is not None and formula_value != d:
            raise DesignError(
                f"formula distance {formula_value} contradicts enumeration {d}"
            )
        via = ""
        if shared is not None:
            if shared.witness:
                validate_witness(H, WitnessCodeword("polarity_image", shared.witness))
            other = "I" if orientation == POINT_BY_BLOCK else "II"
            via = f" (shared from Type {other} through the checked polarity)"
        if d == 0:
            # H has full column rank: no nonzero codeword, and no bound applies
            return DistanceVerdict(
                "exact", 0, 0,
                sources=("enumeration:trivial-code (full column rank, no nonzero codeword)"
                         + via,),
                enumerated=enumerated,
            )
        method = "dual-macwilliams" if enumerated.side == "dual" else "codewords-exhaustive"
        sources.append(f"enumeration:{method}{via}")
        if witness is not None and witness.weight < d:
            raise DesignError("validated witness lighter than enumerated distance")
        if not (lower <= d <= upper):
            raise DesignError("enumerated distance outside certified bounds")
        status, lower, upper = "exact", d, d
        wit = enumerated.witness or wit
    elif lower == upper:
        # counting bound meets the validated witness: certified without
        # enumeration; a disagreeing formula would be a construction bug
        if formula_value is not None and formula_value != lower:
            raise DesignError(
                f"formula distance {formula_value} conflicts with certified {lower}"
            )
        status = "exact"
    elif formula_value is not None:
        if formula_value < lower or formula_value > upper:
            raise DesignError(
                f"formula distance {formula_value} conflicts with bounds "
                f"[{lower}, {upper}]"
            )
        status, lower, upper = "theorem-only", formula_value, formula_value
    else:
        status = "bounded"
    return DistanceVerdict(status, lower, upper, wit, tuple(sources), enumerated)


def assemble_params(
    design,
    orientation: str,
    twin: Optional[DistanceVerdict] = None,
) -> EaqeccParams:
    """Full parameter derivation for a design in one orientation; ``twin``
    as for ``distance_verdict``."""
    orientation = normalize_orientation(orientation)
    structure = design.structure if isinstance(design, GeometryDesign) else design
    H = oriented_matrix(structure, orientation)
    return replace(
        css_from_parity_check(H, orientation),
        d=distance_verdict(design, orientation, H, twin),
        girth=tanner_girth(structure),
        provenance=structure.provenance,
    )


# --- closed-form families ----------------------------------------------------

_FAMILY_HELP = (
    "closed-form families: Type II PG/AG any (m>=2, prime power q), "
    "Type II EG with q even, Type I PG/AG/EG with m=2 and q even"
)


def family_params(kind: str, orientation: str, m: int, q: int) -> EaqeccParams:
    """Fully closed-form [[n, k, d; c]] for the supported geometry families,
    computed without building a matrix.  Type II PG/AG take c from
    ``expected_c``; EG Type II and the Type I planes have their own c.  d is
    "theorem-only" where the family has a closed-form distance and "bounded"
    where it has only a lower bound or none, with the formula in its
    sources."""
    orientation = normalize_orientation(orientation)
    even = _two_adic(q) is not None
    if orientation == POINT_BY_BLOCK and kind == EG and not even:
        raise ValueError(f"no closed form for Type II EG with q odd; {_FAMILY_HELP}")
    if orientation == BLOCK_BY_POINT and not (even and m == 2):
        raise ValueError(
            f"no closed form for Type I {kind} with m={m}, q={q}; {_FAMILY_HELP}"
        )
    v, b, r, mu = design_counts(kind, m, q)
    if orientation == BLOCK_BY_POINT:
        n, c = v, (1 if kind == PG else q)
    elif kind == EG:
        n, c = b, r  # c = (q^m - q)/(q - 1)
    else:
        n, c = b, expected_c(DesignParams(v=v, mu=mu, lam=1, b=b, r=r), orientation)
    rk = rank_formula(kind, m, q)
    k = n - 2 * rk + c
    d_val, source, lower_only, _ = _formula_distance(kind, m, q, orientation)
    sources = (source,) if source else ()
    if d_val is None or lower_only:
        d = DistanceVerdict("bounded", d_val or 1, n, sources=sources)
    else:
        d = DistanceVerdict("theorem-only", d_val, d_val, sources=sources)
    return EaqeccParams(
        n=n,
        k=k,
        c=c,
        d=d,
        rank_h=rk,
        orientation=orientation,
        girth=6,
        provenance=f"closed-form:{kind.lower()}({m},{q})/{type_label(orientation)}",
    )
