"""Reference parameter tables and the engine that recomputes them from scratch.

Every row of the embedded tables is rebuilt by constructing the design,
running GF(2) elimination for n/rank/k/c, and assembling the distance
verdict; the diff against the embedded values is the executable acceptance
suite.  Distance cells that cannot be certified by enumeration or a
bound-meeting witness at desk scale are marked "theorem-only" (the formula
value is still compared), never silently passed.

Rate-column rendering follows the source tables' own (inconsistent)
conventions, reproduced digit-for-digit: table XI and XIII rates are exact
k/n truncated to 4 decimals; the deletion tables III and IV print
round4((n0 - 2 rk + c)/n) with n0 the pre-deletion length.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Iterator, Optional

from .designs import DesignError, SpreadPartition, delete_subdesigns, verify_steiner
from .eaqecc import (
    BLOCK_BY_POINT,
    POINT_BY_BLOCK,
    DeletionRecord,
    EaqeccParams,
    assemble_params,
    css_from_parity_check,
    expected_c,
    family_params,
    oriented_matrix,
    type_label,
)
from .geometry import (
    AG,
    EG,
    PG,
    GeometryDesign,
    ag_hyperplane_spread,
    build_geometry,
    design_counts,
    pg_spread,
)

def trunc4(x: Fraction) -> str:
    v = (x.numerator * 10000) // x.denominator
    return f"{v / 10000:.4f}"


def round4(x: Fraction) -> str:
    v = (2 * x.numerator * 10000 + x.denominator) // (2 * x.denominator)
    return f"{v / 10000:.4f}"


# --- embedded reference values -------------------------------------------------
# Type II geometry tables: (m, q, n, k, d, c)

GOLDEN_I = [  # PG, Type II, q even
    (3, 2, 35, 14, 4, 1),
    (4, 2, 155, 104, 4, 1),
    (5, 2, 651, 538, 4, 1),
    (6, 2, 2667, 2428, 4, 1),
    (3, 4, 357, 236, 6, 1),
    (4, 4, 5797, 5206, 6, 1),  # see ERRATA
    (2, 8, 73, 18, 10, 1),
    (3, 8, 4745, 3944, 10, 1),
]
GOLDEN_II = [  # PG, Type II, q odd
    (3, 3, 130, 53, 8, 1),
    (3, 5, 806, 497, 12, 1),
    (3, 7, 2850, 2053, 16, 1),
    (4, 3, 1210, 1090, 8, 120),
]
GOLDEN_V = [  # PG, Type I, q even (planes)
    (2, 4, 21, 2, 6, 1),
    (2, 8, 73, 18, 10, 1),
    (2, 16, 273, 110, 18, 1),
    (2, 32, 1057, 570, 34, 1),
]
GOLDEN_VI = [  # AG, Type II
    (3, 2, 28, 15, 3, 1),
    (4, 2, 120, 91, 3, 1),
    (5, 2, 496, 435, 3, 1),
    (6, 2, 2016, 1891, 3, 1),
    (2, 4, 20, 3, 5, 1),
    (3, 4, 336, 235, 5, 1),
    (4, 4, 5440, 4971, 5, 1),
    (2, 8, 72, 19, 9, 1),
    (3, 8, 4672, 3927, 9, 1),
    (3, 3, 117, 64, 6, 1),
    (3, 5, 775, 526, 10, 1),
    (3, 7, 2793, 2108, 14, 1),
    (5, 3, 9801, 9316, 6, 1),
    (4, 3, 1080, 998, 6, 80),
]
GOLDEN_VII = [  # AG, Type I, q even
    (2, 8, 64, 18, 10, 8),
    (2, 16, 256, 110, 18, 16),
    (2, 32, 1024, 570, 34, 32),
    (2, 64, 4096, 2702, 66, 64),
]
GOLDEN_VIII = [  # EG, Type I, q even
    (2, 8, 63, 19, 9, 8),
    (2, 16, 255, 111, 17, 16),
    (2, 32, 1023, 571, 33, 32),
]
GOLDEN_IX = [  # EG, Type II, q even
    (3, 2, 21, 15, 3, 6),
    (4, 2, 105, 91, 3, 14),
    (5, 2, 465, 435, 3, 30),  # see ERRATA
    (6, 2, 1953, 1891, 3, 62),
    (3, 4, 315, 235, 5, 20),
    (4, 4, 5355, 4971, 5, 84),
    (2, 8, 63, 19, 9, 8),
    (3, 8, 4599, 3927, 9, 72),
]

# Printed cells in the source tables that contradict the source's own
# closed-form parameter formulas (and the constructions).  The golden data
# above stores the formula-verified value; rows are annotated, never
# silently passed.
ERRATA = {
    ("I", 4, 4): (
        "printed n=5795, k=5204; the line count of PG(4,4) is "
        "(4^5-1)(4^4-1)/((4^2-1)(4-1)) = v*r/mu = 341*85/5 = 5797, "
        "so k = 5797 - 2*296 + 1 = 5206"
    ),
    ("IX", 5, 2): (
        "printed k=434, which is parity-impossible (k = n - 2rk + c forces "
        "k = n + c mod 2, odd here); the summary formula gives "
        "k = 465 - 2*31 + 2 + 30 = 435, matching elimination"
    ),
}
GOLDEN_X = [  # EG, Type II, q odd (full-rank conjecture rows)
    (3, 3, 104, 64, 6, 12),
    (4, 3, 1040, 960, 6, 80),
    (5, 3, 9680, 9316, 6, 120),
    (3, 5, 744, 526, 10, 30),
    (3, 7, 2736, 2108, 14, 56),
]

# Deletion tables: (subs, n, rank, k, d, c, rate-string)
GOLDEN_III = [  # PG(5,2) minus plane-spread parts
    (0, 651, 57, 538, 4, 1, "0.8264"),
    (1, 644, 57, 532, 4, 2, "0.8370"),
    (2, 637, 57, 526, 4, 3, "0.8477"),
    (3, 630, 57, 520, 4, 4, "0.8587"),
    (4, 623, 57, 514, 4, 5, "0.8700"),
    (5, 616, 57, 508, 4, 6, "0.8815"),
    (6, 609, 57, 502, 4, 7, "0.8933"),
    (7, 602, 57, 496, 4, 8, "0.9053"),
    (8, 595, 57, 490, 4, 9, "0.9176"),
    (9, 588, 57, 482, 4, 8, "0.9269"),
]
GOLDEN_IV = [  # AG(3,4) minus hyperplane-spread parts
    (0, 336, 51, 235, 5, 1, "0.6994"),
    (1, 316, 51, 216, 5, 2, "0.7468"),
    (2, 296, 51, 197, 5, 3, "0.8007"),
    (3, 276, 51, 178, 5, 4, "0.8623"),
    (4, 256, 51, 158, 6, 4, "0.9297"),
]
GOLDEN_XIII = [  # AG(3,3) minus hyperplane-spread parts
    (0, 117, 27, 64, 6, 1, "0.5470"),
    (1, 105, 27, 60, 6, 9, "0.5714"),
    (2, 93, 26, 58, 6, 17, "0.6236"),
    (3, 81, 25, 56, 6, 25, "0.6913"),
]

# Rates table: (type, geom, m, q, rate-string)
GOLDEN_XI = [
    ("II", PG, 4, 3, "0.9008"),
    ("II", PG, 3, 7, "0.7203"),
    ("II", PG, 3, 5, "0.6166"),
    ("II", PG, 3, 3, "0.4076"),
    ("II", AG, 3, 7, "0.7547"),
    ("II", AG, 3, 5, "0.6787"),
    ("II", AG, 3, 3, "0.5470"),
    ("II", AG, 2, 8, "0.2638"),
    ("II", EG, 2, 16, "0.4352"),
    ("II", EG, 2, 8, "0.3015"),
    ("I", PG, 2, 32, "0.5392"),
    ("I", PG, 2, 16, "0.4029"),
    ("I", PG, 2, 8, "0.2465"),
    ("I", AG, 2, 32, "0.5566"),
    ("I", AG, 2, 16, "0.4296"),
    ("I", AG, 2, 8, "0.2812"),
]

# Closed-form family summary: (label, kind, orientation, sample (m, q) list).
# Each sample instantiates the family formulas and cross-validates against a
# from-scratch construction.
GOLDEN_XII = [
    ("pg-typeII-even-q", PG, POINT_BY_BLOCK, [(2, 2), (3, 2), (4, 2), (2, 4), (3, 4), (2, 8)]),
    ("pg-typeII-odd-q-odd-m", PG, POINT_BY_BLOCK, [(3, 3), (3, 5)]),
    ("pg-typeII-odd-q-even-m", PG, POINT_BY_BLOCK, [(2, 3), (2, 5), (4, 3)]),
    ("pg-typeI-plane", PG, BLOCK_BY_POINT, [(2, 4), (2, 8), (2, 16)]),
    ("ag-typeII-even-q", AG, POINT_BY_BLOCK, [(3, 2), (2, 4), (3, 4), (2, 8)]),
    ("ag-typeII-odd-q-odd-m", AG, POINT_BY_BLOCK, [(3, 3), (3, 5)]),
    ("ag-typeII-odd-q-even-m", AG, POINT_BY_BLOCK, [(2, 3), (2, 5), (4, 3)]),
    ("ag-typeI-plane", AG, BLOCK_BY_POINT, [(2, 4), (2, 8), (2, 16)]),
    ("eg-plane-typeI", EG, BLOCK_BY_POINT, [(2, 4), (2, 8), (2, 16)]),
    ("eg-plane-typeII", EG, POINT_BY_BLOCK, [(2, 4), (2, 8), (2, 16)]),
    ("eg-typeII-even-q", EG, POINT_BY_BLOCK, [(3, 2), (4, 2), (3, 4)]),
]


@dataclass
class RowResult:
    table: str
    label: str
    expected: dict
    computed: dict
    status: str  # ok | mismatch | theorem-only
    notes: str = ""
    sources: tuple[str, ...] = ()  # DistanceVerdict.sources of the row's distance
    seconds: float = 0.0  # wall time spent producing the row

    @property
    def ok(self) -> bool:
        return self.status != "mismatch"


class ConstructionCache:
    """Shared geometry/parameter cache so table runs build each design once."""

    def __init__(self):
        self._geoms: dict[tuple, GeometryDesign] = {}
        self._params: dict[tuple, EaqeccParams] = {}
        self._spreads: dict[tuple, SpreadPartition] = {}

    def geometry(self, kind: str, m: int, q: int) -> GeometryDesign:
        key = (kind, m, q)
        if key not in self._geoms:
            self._geoms[key] = build_geometry(kind, m, q)
        return self._geoms[key]

    def params(self, kind: str, m: int, q: int, orientation: str) -> EaqeccParams:
        """Parameters of one orientation, distance verdict included.  Once the
        other orientation is cached, its verdict is handed on as ``twin``, so
        a PG(2, q) or EG(2, q) plane is enumerated once (see
        ``distance_verdict``)."""
        key = (kind, m, q, orientation)
        if key not in self._params:
            design = self.geometry(kind, m, q)
            other = BLOCK_BY_POINT if orientation == POINT_BY_BLOCK else POINT_BY_BLOCK
            twin = self._params.get((kind, m, q, other))
            self._params[key] = assemble_params(design, orientation,
                                                twin=twin.d if twin else None)
        return self._params[key]

    def spread(self, kind: str, m: int, q: int, s: Optional[int] = None) -> SpreadPartition:
        key = (kind, m, q, s)
        if key not in self._spreads:
            design = self.geometry(kind, m, q)
            if kind == PG:
                self._spreads[key] = pg_spread(design, s)
            else:
                self._spreads[key] = ag_hyperplane_spread(design)
        return self._spreads[key]


def _geometry_table(
    table: str, kind: str, orientation: str, golden, cache: ConstructionCache
) -> Iterator[RowResult]:
    for (m, q, n_e, k_e, d_e, c_e) in golden:
        params = cache.params(kind, m, q, orientation)
        d = params.d
        computed = {
            "m": m, "q": q, "n": params.n, "k": params.k, "c": params.c,
            "rank": params.rank_h, "girth": params.girth,
            "d_status": d.status, "d": d.value,
        }
        expected = {"m": m, "q": q, "n": n_e, "k": k_e, "d": d_e, "c": c_e}
        hard_ok = params.n == n_e and params.k == k_e and params.c == c_e
        notes = []
        if d.status == "bounded":
            d_ok = d.lower <= d_e <= d.upper
            notes.append(f"d not certified; bounds [{d.lower},{d.upper}]")
        else:
            d_ok = d.upper == d_e
            if not d_ok:
                kind_of_d = "certified" if d.certified else "formula"
                notes.append(f"{kind_of_d} d={d.upper} != expected {d_e}")
        status = "ok" if (hard_ok and d_ok) else "mismatch"
        if status == "ok" and d.theorem_only:
            status = d.status
        erratum = ERRATA.get((table, m, q))
        if erratum:
            notes.append(f"erratum in the printed source table: {erratum}")
        yield RowResult(table, f"{kind}({m},{q})/{type_label(orientation)}",
                        expected, computed, status, "; ".join(notes), d.sources)


def _table_X(cache: ConstructionCache) -> Iterator[RowResult]:
    for row in _geometry_table("X", EG, POINT_BY_BLOCK, GOLDEN_X, cache):
        m, q = row.computed["m"], row.computed["q"]
        v = design_counts(EG, m, q)[0]
        full = row.computed["rank"] == v
        row.computed["full_rank_conjecture"] = "holds" if full else "COUNTEREXAMPLE"
        if not full:
            row.status = "mismatch"
            row.notes += f"; rank {row.computed['rank']} < v={v}: conjectured full rank fails"
        yield row


def _deletion_table(
    table: str,
    kind: str,
    m: int,
    q: int,
    s: Optional[int],
    golden,
    rate_mode: str,
    cache: ConstructionCache,
) -> Iterator[RowResult]:
    design = cache.geometry(kind, m, q)
    spread = cache.spread(kind, m, q, s)
    n0 = design.structure.b
    params = verify_steiner(design.structure, design.mu)
    for (subs, n_e, rk_e, k_e, d_e, c_e, rate_e) in golden:
        folded = delete_subdesigns(design.structure, spread, subs)
        H = oriented_matrix(folded, POINT_BY_BLOCK)
        base = css_from_parity_check(H, POINT_BY_BLOCK)
        if rate_mode == "round-full-length":
            # these source tables print round4((n0 - 2 rk + c) / n), i.e. the
            # numerator keeps the pre-deletion length
            rate = round4(Fraction(n0 - 2 * base.rank_h + base.c, base.n))
        else:
            rate = trunc4(Fraction(base.k, base.n))
        record = DeletionRecord.from_spread(design.structure, spread, subs, params.mu)
        try:
            c_pred = expected_c(params, POINT_BY_BLOCK, record)
        except DesignError as e:  # mixed parities etc.
            c_pred = f"n/a ({e})"
        computed = {
            "subs": subs, "n": base.n, "rank": base.rank_h, "k": base.k,
            "c": base.c, "rate": rate, "c_formula": c_pred,
        }
        expected = {
            "subs": subs, "n": n_e, "rank": rk_e, "k": k_e, "d": d_e,
            "c": c_e, "rate": rate_e,
        }
        hard_ok = (
            base.n == n_e and base.rank_h == rk_e and base.k == k_e
            and base.c == c_e and rate == rate_e
        )
        notes = []
        if isinstance(c_pred, int) and c_pred != base.c:
            hard_ok = False
            notes.append(f"closed-form c={c_pred} disagrees with rank-computed {base.c}")
        yield RowResult(
            table, f"{kind}({m},{q}) minus {subs} part(s)", expected, computed,
            "ok" if hard_ok else "mismatch", "; ".join(notes),
        )


def _table_XI(cache: ConstructionCache) -> Iterator[RowResult]:
    for (typ, kind, m, q, rate_e) in GOLDEN_XI:
        orientation = POINT_BY_BLOCK if typ == "II" else BLOCK_BY_POINT
        params = cache.params(kind, m, q, orientation)
        rate = trunc4(params.rate)
        computed = {"type": typ, "geom": kind, "m": m, "q": q,
                    "k": params.k, "n": params.n, "rate": rate}
        expected = {"type": typ, "geom": kind, "m": m, "q": q, "rate": rate_e}
        yield RowResult(
            "XI", f"{typ} {kind}({m},{q})", expected, computed,
            "ok" if rate == rate_e else "mismatch", sources=params.d.sources,
        )


def _table_XII(cache: ConstructionCache) -> Iterator[RowResult]:
    for (label, kind, orientation, samples) in GOLDEN_XII:
        for (m, q) in samples:
            fam = family_params(kind, orientation, m, q)
            params = cache.params(kind, m, q, orientation)
            d = params.d
            computed = {
                "n": params.n, "k": params.k, "c": params.c, "rank": params.rank_h,
                "d_status": d.status, "d": d.value,
            }
            expected = {
                "n": fam.n, "k": fam.k, "c": fam.c, "rank": fam.rank_h, "d": fam.d.value,
            }
            ok = (
                fam.n == params.n and fam.k == params.k and fam.c == params.c
                and fam.rank_h == params.rank_h
            )
            notes = []
            if fam.d.status != "bounded" and d.status != "bounded" and fam.d.upper != d.upper:
                ok = False
                notes.append(f"family d={fam.d.upper} vs constructed {d.upper}")
            yield RowResult(
                "XII", f"{label} ({m},{q})", expected, computed,
                "ok" if ok else "mismatch", "; ".join(notes), d.sources,
            )


# table id -> the generator of its rows given a cache, in the paper's order
_TABLE_ROWS = {
    "I": partial(_geometry_table, "I", PG, POINT_BY_BLOCK, GOLDEN_I),
    "II": partial(_geometry_table, "II", PG, POINT_BY_BLOCK, GOLDEN_II),
    "III": partial(_deletion_table, "III", PG, 5, 2, 2, GOLDEN_III, "round-full-length"),
    "IV": partial(_deletion_table, "IV", AG, 3, 4, None, GOLDEN_IV, "round-full-length"),
    "V": partial(_geometry_table, "V", PG, BLOCK_BY_POINT, GOLDEN_V),
    "VI": partial(_geometry_table, "VI", AG, POINT_BY_BLOCK, GOLDEN_VI),
    "VII": partial(_geometry_table, "VII", AG, BLOCK_BY_POINT, GOLDEN_VII),
    "VIII": partial(_geometry_table, "VIII", EG, BLOCK_BY_POINT, GOLDEN_VIII),
    "IX": partial(_geometry_table, "IX", EG, POINT_BY_BLOCK, GOLDEN_IX),
    "X": _table_X,
    "XI": _table_XI,
    "XII": _table_XII,
    "XIII": partial(_deletion_table, "XIII", AG, 3, 3, None, GOLDEN_XIII, "trunc-k-over-n"),
}
TABLE_IDS = list(_TABLE_ROWS)


def compute_table(table: str, cache: Optional[ConstructionCache] = None) -> list[RowResult]:
    """Rebuild every row of one table.  A row's ``seconds`` is the wall time
    from the previous row (or the start) until it was produced.  A warning
    raised while a row is built is re-issued naming its table and row."""
    if cache is None:
        cache = ConstructionCache()
    table = table.upper()
    if table not in _TABLE_ROWS:
        raise ValueError(f"unknown table {table!r}; valid: {', '.join(TABLE_IDS)}")
    rows = []
    produced = _TABLE_ROWS[table](cache)
    while True:
        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            row = next(produced, None)
        if row is None:
            return rows
        row.seconds = time.perf_counter() - start
        for w in caught:
            warnings.warn(f"table {row.table} [{row.label}]: {w.message}", w.category, stacklevel=2)
        rows.append(row)


def rows_to_csv(rows: list[RowResult]) -> str:
    keys: list[str] = []
    for r in rows:
        for k in list(r.computed) + ["status", "notes"]:
            if k not in keys:
                keys.append(k)
    lines = [",".join(["table", "row"] + keys)]
    for r in rows:
        rec = dict(r.computed)
        rec["status"] = r.status
        rec["notes"] = r.notes
        lines.append(",".join([r.table, f"\"{r.label}\""] + [str(rec.get(k, "")) for k in keys]))
    return "\n".join(lines) + "\n"


def diff_report(rows: list[RowResult]) -> str:
    lines = []
    for r in rows:
        if r.status == "mismatch":
            diffs = []
            for k, ev in r.expected.items():
                cv = r.computed.get(k, "<missing>")
                if k in r.computed and cv != ev:
                    diffs.append(f"{k}: expected {ev}, computed {cv}")
            detail = "; ".join(diffs) if diffs else r.notes
            lines.append(f"MISMATCH table {r.table} [{r.label}]: {detail or r.notes}")
        elif r.status != "ok":
            lines.append(f"{r.status} table {r.table} [{r.label}]: {r.notes or 'd from formula'}")
    return "\n".join(lines)
