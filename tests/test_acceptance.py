"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria (zero tolerance unless stated):
  1. parameter tables I/II/V/VI/VII/VIII/IX/X/XII - n, k, c recomputed from
     constructed matrices via GF(2) elimination;
  2. deletion tables III/IV/XIII - n, rank, k, c and the 4-decimal rate by
     actually deleting spread parts, and the printed d inside the distance
     verdict of every folded structure (exact and certified on XIII);
  3. closed-form ranks vs brute-force elimination on every in-budget
     geometry, plus the odd-q full/almost-full rank laws;
  4. distance certification: enumeration-exact wherever min(dim, codim) is
     within the enumeration caps; otherwise a validated witness matching the
     claimed d and a certified counting lower bound, or an explicit
     theorem-only marker;
  5. rates table XI to 4 decimals;
  6. depolarizing-channel Monte Carlo at f_m = 0.02 reproduces the published
     block error rates within a factor of 3 for the three Type I plane codes,
     with AG strictly below PG at non-overlapping 95% intervals, and a
     4-point sweep per code shows the waterfall qualitatively (statistical);
  7. structural property suite (Gram identity, girth, parity laws, weight-1
     correction, fixed points, reproducibility);
  8. sum-product decoding equals exhaustive ML syndrome decoding on the
     7-bit code wherever the ML minimizer is unique.

The Monte Carlo criterion runs a few hundred thousand trials per code and
dominates the suite's wall time (about 52 s on two cores).
"""

import numpy as np
import pytest

from eaqldpc.designs import build_sts, delete_subdesigns, tanner_girth, verify_steiner
from eaqldpc.eaqecc import (
    BLOCK_BY_POINT,
    POINT_BY_BLOCK,
    distance_verdict,
    oriented_matrix,
)
from eaqldpc.gf2 import gram_rank, rank_value
from eaqldpc.geometry import hamada_phi, rank_formula
from eaqldpc.simulator import SimConfig, estimate_bler
from eaqldpc.tables import GOLDEN_III, GOLDEN_IV, GOLDEN_XIII, compute_table, diff_report
from test_decoder import mul_vector, sp_decode

SIM_SEED = 20260808
ANCHOR_FM = 0.02
# (published BLER at f_m = 0.02, anchor trials)
SIM_TARGETS = {"AG": (1.0e-4, 800_000), "EG": (1.6e-4, 300_000), "PG": (3.8e-4, 600_000)}
SWEEP_FMS = (0.02, 0.025, 0.03, 0.035)
SWEEP_TRIALS = 20_000
# frozen block-error counts of the seeded runs: (anchor, sweep at SWEEP_FMS),
# recorded with every bit's slots summed in slot order, which makes them
# the same for any batch size and worker count
SIM_COUNTS = {"AG": (59, (4, 18, 53, 192)), "EG": (30, (4, 11, 64, 229)),
              "PG": (125, (5, 27, 85, 350))}


def _report(criterion: str, ok: bool, detail: str = ""):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}{': ' + detail if detail else ''}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_parameter_tables(cache):
    bad = []
    for t in ("I", "II", "V", "VI", "VII", "VIII", "IX", "X", "XII"):
        rows = compute_table(t, cache)
        bad += [r for r in rows if r.status == "mismatch"]
        report = diff_report(rows)
        if report:
            print(report)
    _report("1 (tables I/II/V-X/XII exact n,k,c)", not bad,
            f"{len(bad)} mismatching rows" if bad else "all rows match")


# table -> (geometry, m, q, spread s, golden rows, d certified by enumeration)
DELETION_TABLES = {
    "III": ("PG", 5, 2, 2, GOLDEN_III, False),
    "IV": ("AG", 3, 4, None, GOLDEN_IV, False),
    "XIII": ("AG", 3, 3, None, GOLDEN_XIII, True),
}


def test_criterion_2_deletion_tables(cache):
    bad = []
    for t, (kind, m, q, s, golden, certified) in DELETION_TABLES.items():
        rows = compute_table(t, cache)
        bad += [f"table {t} [{r.label}]" for r in rows if r.status == "mismatch"]
        design, spread = cache.geometry(kind, m, q), cache.spread(kind, m, q, s)
        for subs, *_, d, _c, _rate in golden:
            folded = delete_subdesigns(design.structure, spread, subs)
            verdict = distance_verdict(folded, POINT_BY_BLOCK)
            r = verdict
            if not r.lower <= d <= r.upper or verdict.certified != certified:
                bad.append(f"table {t} minus {subs}: printed d={d}, verdict "
                           f"[{r.lower},{r.upper}] certified={verdict.certified}")
    for b in bad:
        print(b)
    _report("2 (deletion tables III/IV/XIII exact, d inside its verdict)", not bad,
            f"{len(bad)} mismatching rows" if bad else "all rows match")


RANK_CROSS_VALIDATION = [
    # q = 2^t geometries with b <= 10^4
    ("PG", 2, 2), ("PG", 3, 2), ("PG", 4, 2), ("PG", 5, 2), ("PG", 6, 2),
    ("PG", 2, 4), ("PG", 3, 4), ("PG", 2, 8), ("PG", 2, 16),
    ("AG", 2, 2), ("AG", 3, 2), ("AG", 4, 2), ("AG", 5, 2), ("AG", 6, 2),
    ("AG", 2, 4), ("AG", 3, 4), ("AG", 2, 8), ("AG", 3, 8), ("AG", 2, 16),
    ("EG", 2, 2), ("EG", 3, 2), ("EG", 4, 2), ("EG", 5, 2), ("EG", 6, 2),
    ("EG", 2, 4), ("EG", 3, 4), ("EG", 2, 8), ("EG", 3, 8), ("EG", 2, 16),
    # odd q: projective rank v-1, affine full rank
    ("PG", 3, 3), ("PG", 3, 5), ("PG", 3, 7), ("PG", 4, 3),
    ("AG", 3, 3), ("AG", 3, 5), ("AG", 3, 7), ("AG", 4, 3), ("AG", 5, 3),
]


def test_criterion_3_rank_formulas(cache):
    failures = []
    for kind, m, q in RANK_CROSS_VALIDATION:
        design = cache.geometry(kind, m, q)
        brute = rank_value(design.structure.point_by_block())
        predicted = rank_formula(kind, m, q)
        if isinstance(predicted, tuple):
            lo, hi = predicted
            if not (lo <= brute <= hi):
                failures.append(f"{kind}({m},{q}): rank {brute} outside [{lo},{hi}]")
            continue
        if brute != predicted:
            failures.append(f"{kind}({m},{q}): formula {predicted} != elimination {brute}")
    # Hamada's phi against elimination once more, on its own
    for m, t in ((2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2), (2, 3), (2, 4)):
        if hamada_phi(m, t) != rank_value(cache.geometry("PG", m, 2**t).structure.point_by_block()):
            failures.append(f"phi({m},{t}) mismatch")
    for f in failures:
        print(f)
    _report("3 (rank formulas vs elimination)", not failures,
            f"{len(RANK_CROSS_VALIDATION)} geometries cross-validated")


# rows whose d must be certified by exhaustive enumeration (dim or dual-side
# rank within the 2^26 / 2^28 enumeration caps)
ENUMERATION_CERTIFIED = [
    ("I", "PG", POINT_BY_BLOCK, 3, 2), ("I", "PG", POINT_BY_BLOCK, 4, 2),
    ("I", "PG", POINT_BY_BLOCK, 2, 8),
    ("V", "PG", BLOCK_BY_POINT, 2, 4), ("V", "PG", BLOCK_BY_POINT, 2, 8),
    ("VI", "AG", POINT_BY_BLOCK, 3, 2), ("VI", "AG", POINT_BY_BLOCK, 4, 2),
    ("VI", "AG", POINT_BY_BLOCK, 2, 4), ("VI", "AG", POINT_BY_BLOCK, 2, 8),
    ("VI", "AG", POINT_BY_BLOCK, 3, 3),
    ("VII", "AG", BLOCK_BY_POINT, 2, 8),
    ("VIII", "EG", BLOCK_BY_POINT, 2, 8),
    ("IX", "EG", POINT_BY_BLOCK, 3, 2), ("IX", "EG", POINT_BY_BLOCK, 4, 2),
    ("IX", "EG", POINT_BY_BLOCK, 2, 8),
    ("X", "EG", POINT_BY_BLOCK, 3, 3),
]

GOLDEN_BY_TABLE = None  # populated lazily from the tables module


def _golden_d(table: str, m: int, q: int) -> int:
    from eaqldpc import tables as T

    data = {
        "I": T.GOLDEN_I, "II": T.GOLDEN_II, "V": T.GOLDEN_V, "VI": T.GOLDEN_VI,
        "VII": T.GOLDEN_VII, "VIII": T.GOLDEN_VIII, "IX": T.GOLDEN_IX, "X": T.GOLDEN_X,
    }[table]
    for row in data:
        if row[0] == m and row[1] == q:
            return row[4]
    raise KeyError((table, m, q))


def test_criterion_4_distance_certification(cache):
    failures = []
    classified = {"enumeration": 0, "witness-certified": 0, "theorem-only": 0}
    # (a) enumeration-certified rows
    for table, kind, orient, m, q in ENUMERATION_CERTIFIED:
        verdict = cache.params(kind, m, q, orient).d
        d_expected = _golden_d(table, m, q)
        if not verdict.certified or not any(
            s.startswith("enumeration") for s in verdict.sources
        ):
            failures.append(f"{kind}({m},{q}) {orient}: expected enumeration certification")
        elif verdict.upper != d_expected:
            failures.append(
                f"{kind}({m},{q}) {orient}: enumerated d={verdict.upper} != {d_expected}"
            )
        else:
            classified["enumeration"] += 1
    # (b) all remaining golden rows: certified (witness meets counting bound)
    # or theorem-only with a witness matching the claimed d where one exists
    from eaqldpc import tables as T

    table_specs = [
        ("I", "PG", POINT_BY_BLOCK, T.GOLDEN_I),
        ("II", "PG", POINT_BY_BLOCK, T.GOLDEN_II),
        ("V", "PG", BLOCK_BY_POINT, T.GOLDEN_V),
        ("VI", "AG", POINT_BY_BLOCK, T.GOLDEN_VI),
        ("VII", "AG", BLOCK_BY_POINT, T.GOLDEN_VII),
        ("VIII", "EG", BLOCK_BY_POINT, T.GOLDEN_VIII),
        ("IX", "EG", POINT_BY_BLOCK, T.GOLDEN_IX),
        ("X", "EG", POINT_BY_BLOCK, T.GOLDEN_X),
    ]
    enum_keys = {(t, m, q) for (t, _, _, m, q) in ENUMERATION_CERTIFIED}
    for table, kind, orient, golden in table_specs:
        for row in golden:
            m, q, d_expected = row[0], row[1], row[4]
            if (table, m, q) in enum_keys:
                continue
            verdict = cache.params(kind, m, q, orient).d
            r = verdict
            if r.status == "bounded" or r.upper != d_expected:
                failures.append(
                    f"{kind}({m},{q}) {orient}: d verdict {r.status} {r.upper} != {d_expected}"
                )
                continue
            if verdict.certified:
                classified["witness-certified"] += 1
            else:
                classified["theorem-only"] += 1
                # theorem-only rows must still carry a validated witness at
                # exactly the claimed weight (upper-bound confirmation)
                if r.witness is not None and len(r.witness) != d_expected:
                    failures.append(
                        f"{kind}({m},{q}): witness weight {len(r.witness)} != d {d_expected}"
                    )
                if r.witness is None:
                    failures.append(f"{kind}({m},{q}): theorem-only row lacks a witness")
                if not (r.lower <= d_expected):
                    failures.append(f"{kind}({m},{q}): certified lower bound above claimed d")
    for f in failures:
        print(f)
    _report(
        "4 (distance certification)", not failures,
        f"enumerated={classified['enumeration']} witness-certified="
        f"{classified['witness-certified']} theorem-only={classified['theorem-only']}",
    )


def test_criterion_5_rate_table(cache):
    rows = compute_table("XI", cache)
    bad = [r for r in rows if r.status == "mismatch"]
    for r in bad:
        print(r.label, r.expected, r.computed)
    _report("5 (table XI rates to 4 decimals)", not bad, "16/16 rows")


@pytest.fixture(scope="module")
def sim_results(cache):
    """Anchor runs + sweeps for the three Type I plane codes (the wall-clock
    bulk of the acceptance suite)."""
    out = {}
    for kind, (target, trials) in SIM_TARGETS.items():
        H = oriented_matrix(cache.geometry(kind, 2, 16).structure, BLOCK_BY_POINT)
        anchor = estimate_bler(
            H,
            SimConfig(f_m_values=(ANCHOR_FM,), trials=trials, seed=SIM_SEED, workers=2),
            name=f"{kind}(2,16)/I",
        )[0]
        sweep = estimate_bler(
            H,
            SimConfig(f_m_values=SWEEP_FMS, trials=SWEEP_TRIALS, seed=SIM_SEED + 1, workers=2),
            name=f"{kind}(2,16)/I sweep",
        )
        out[kind] = (anchor, sweep)
        print(
            f"{kind}(2,16) Type I @ f_m={ANCHOR_FM}: "
            f"{anchor.block_errors}/{anchor.trials} bler={anchor.bler:.3e} "
            f"ci=[{anchor.ci_low:.3e}, {anchor.ci_high:.3e}] target={target:.1e}"
        )
    return out


def test_criterion_6_simulation(sim_results):
    failures = []
    for kind, (target, _) in SIM_TARGETS.items():
        anchor, _sweep = sim_results[kind]
        ratio = anchor.bler / target if anchor.bler > 0 else 0.0
        if not (target / 3 <= anchor.bler <= target * 3):
            failures.append(
                f"{kind}: bler {anchor.bler:.3e} outside x3 of {target:.1e} (ratio {ratio:.2f})"
            )
    ag, pg = sim_results["AG"][0], sim_results["PG"][0]
    if not ag.ci_high < pg.ci_low:
        failures.append(
            f"AG/PG 95% intervals overlap: AG hi {ag.ci_high:.3e} vs PG lo {pg.ci_low:.3e}"
        )
    # qualitative waterfall: BLER non-decreasing in f_m up to CI overlap
    for kind in SIM_TARGETS:
        _, sweep = sim_results[kind]
        for a, b in zip(sweep, sweep[1:]):
            if b.bler < a.bler and b.ci_high < a.ci_low:
                failures.append(
                    f"{kind}: BLER decreased from f_m={a.f_m} ({a.bler:.2e}) "
                    f"to f_m={b.f_m} ({b.bler:.2e}) beyond CI overlap"
                )
        print(f"{kind} sweep: " + "  ".join(f"{r.f_m}:{r.bler:.2e}" for r in sweep))
    for f in failures:
        print(f)
    _report("6 (BLER reproduction at f_m=0.02, statistical)", not failures)


def test_criterion_6_frozen_counts(sim_results):
    """The seeded anchor and sweep runs give exactly their recorded counts."""
    got = {
        kind: ((a.block_errors, a.trials), tuple((r.block_errors, r.trials) for r in sweep))
        for kind, (a, sweep) in sim_results.items()
    }
    expect = {
        kind: ((anchor, SIM_TARGETS[kind][1]), tuple((e, SWEEP_TRIALS) for e in sweep))
        for kind, (anchor, sweep) in SIM_COUNTS.items()
    }
    _report("6 (frozen anchor and sweep counts)", got == expect, f"{got}")


def test_criterion_7_property_suite(cache):
    failures = []
    # (a) integer Gram identity on every constructed Steiner design, v <= 200
    steiner_instances = []
    for v in (7, 9, 13, 15, 19, 21, 25, 27):
        steiner_instances.append((build_sts(v), 3))
    for kind, m, q in (("PG", 2, 2), ("PG", 3, 2), ("PG", 2, 4), ("AG", 2, 3),
                       ("AG", 3, 2), ("AG", 2, 4), ("AG", 2, 5), ("PG", 2, 3),
                       ("AG", 3, 3), ("PG", 3, 3), ("AG", 2, 8), ("PG", 4, 2)):
        d = cache.geometry(kind, m, q)
        if d.structure.v <= 200:
            steiner_instances.append((d.structure, d.mu))
    for S, mu in steiner_instances:
        params = verify_steiner(S, mu)
        H = np.zeros((S.v, S.b), dtype=np.int64)
        for j, blk in enumerate(S.arrays[0]):
            H[blk, j] = 1
        expect = (params.r - 1) * np.eye(S.v, dtype=np.int64) + np.ones((S.v, S.v), dtype=np.int64)
        if not np.array_equal(H @ H.T, expect):
            failures.append(f"Gram identity fails for {S.provenance}")
        # (b) girth 6 on nontrivial Steiner designs
        if tanner_girth(S) != 6:
            failures.append(f"girth != 6 for {S.provenance}")
        # (c) parity law for rank(H H^T)
        g = gram_rank(S.point_by_block())
        expect_c = 1 if params.r % 2 else S.v - 1
        if g != expect_c:
            failures.append(f"gram rank law fails for {S.provenance}: {g} != {expect_c}")
        # Hamada's even-r rank window
        if params.r % 2 == 0:
            rk = rank_value(S.point_by_block())
            if mu % 2 == 0 and rk != S.v - 1:
                failures.append(f"even-r even-mu rank law fails for {S.provenance}")
            if rk not in (S.v - 1, S.v):
                failures.append(f"even-r rank window fails for {S.provenance}")
        # rank inside the square-root lower bound window
        from eaqldpc.eaqecc import hillebrandt_bounds

        lo, hi = hillebrandt_bounds(S.v, mu)
        rk = rank_value(S.point_by_block())
        if not (lo <= rk <= hi):
            failures.append(f"rank {rk} outside Hillebrandt window for {S.provenance}")
    # (d) decoder corrects all weight-1 errors on codes with d >= 3
    for kind, m, q, orient in (
        ("PG", 3, 2, POINT_BY_BLOCK),
        ("AG", 2, 4, POINT_BY_BLOCK),
        ("EG", 2, 8, BLOCK_BY_POINT),
        ("AG", 2, 8, BLOCK_BY_POINT),
    ):
        design = cache.geometry(kind, m, q)
        verdict = cache.params(kind, m, q, orient).d
        assert verdict.lower >= 3
        H = oriented_matrix(design.structure, orient)
        for j in range(H.cols):
            e = 1 << j
            out = sp_decode(H, mul_vector(H, e), prior=0.01)
            if not (out.converged and out.error_estimate == e):
                failures.append(f"{kind}({m},{q}) {orient}: weight-1 error at bit {j} not fixed")
                break
        # (e) zero-syndrome fixed point
        out0 = sp_decode(H, 0, prior=0.01)
        if not (out0.converged and out0.iterations_used == 0 and out0.error_estimate == 0):
            failures.append(f"{kind}({m},{q}): zero-syndrome fixed point violated")
    # (f) seed reproducibility across batch sizes and worker counts
    H = oriented_matrix(cache.geometry("PG", 3, 2).structure, POINT_BY_BLOCK)
    counts = set()
    for batch, workers in ((500, 1), (64, 1), (128, 2)):
        rec = estimate_bler(
            H, SimConfig(f_m_values=(0.05,), trials=500, seed=3, batch_size=batch, workers=workers)
        )[0]
        counts.add(rec.block_errors)
    if len(counts) != 1:
        failures.append(f"estimate_bler not reproducible across batch/workers: {counts}")
    for f in failures:
        print(f)
    _report("7 (always-on property suite)", not failures,
            f"{len(steiner_instances)} Steiner instances checked")


def test_criterion_8_ml_oracle(fano):
    H = oriented_matrix(fano.structure, POINT_BY_BLOCK)
    table: dict[int, tuple[int, list[int]]] = {}
    for e in range(1 << 7):
        s = mul_vector(H, e)
        w = e.bit_count()
        if s not in table or w < table[s][0]:
            table[s] = (w, [e])
        elif w == table[s][0]:
            table[s][1].append(e)
    unique = ambiguous = disagreements = 0
    for s, (w, argmins) in table.items():
        out = sp_decode(H, s, prior=0.01)
        assert out.converged
        if len(argmins) == 1:
            unique += 1
            if out.error_estimate != argmins[0]:
                disagreements += 1
        else:
            ambiguous += 1
    _report(
        "8 (sum-product equals ML syndrome decoding on the 7-bit code)",
        disagreements == 0,
        f"{unique} unique-ML syndromes all matched; {ambiguous} syndromes have tied ML "
        f"minimizers (documented: decoder picks one valid coset leader)",
    )
