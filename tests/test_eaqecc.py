"""CSS parameter derivation, ebit formulas, distance verdicts, closed forms."""

import dataclasses
import hashlib
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from eaqldpc import geometry, gf2
from eaqldpc.designs import DesignError, IncidenceStructure, build_sts, verify_steiner
from eaqldpc.eaqecc import (
    BLOCK_BY_POINT,
    POINT_BY_BLOCK,
    DeletionRecord,
    DistanceVerdict,
    assemble_params,
    css_from_parity_check,
    distance_verdict,
    expected_c,
    family_params,
    hillebrandt_bounds,
    normalize_orientation,
    oriented_matrix,
)
from eaqldpc.geometry import WitnessCodeword, plane_polarity, validate_witness
from eaqldpc.gf2 import BitMatrix, rank_value
from eaqldpc.tables import ConstructionCache


def test_orientation_aliases():
    assert normalize_orientation("II") == POINT_BY_BLOCK
    assert normalize_orientation("i") == BLOCK_BY_POINT
    assert normalize_orientation("point_by_block") == POINT_BY_BLOCK
    with pytest.raises(ValueError):
        normalize_orientation("sideways")


def test_css_pg32(cache):
    H = oriented_matrix(cache.geometry("PG", 3, 2).structure, POINT_BY_BLOCK)
    p = css_from_parity_check(H, POINT_BY_BLOCK)
    assert (p.n, p.k, p.c, p.rank_h) == (35, 14, 1, 11)


def test_css_fano_zero_k(fano):
    H = oriented_matrix(fano.structure, POINT_BY_BLOCK)
    with pytest.warns(UserWarning, match="degenerate code"):
        p = css_from_parity_check(H, POINT_BY_BLOCK)
    assert (p.n, p.k, p.c) == (7, 0, 1)


def test_css_ag216_type_i(cache):
    H = oriented_matrix(cache.geometry("AG", 2, 16).structure, BLOCK_BY_POINT)
    p = css_from_parity_check(H, BLOCK_BY_POINT)
    assert (p.n, p.k, p.c) == (256, 110, 16)


def test_css_rejects_zero_matrix():
    with pytest.raises(ValueError):
        css_from_parity_check(BitMatrix(3, 4, [0] * 3), POINT_BY_BLOCK)


def test_k_identity_and_gram_bound(cache):
    for kind, m, q, orient in (
        ("PG", 3, 2, POINT_BY_BLOCK),
        ("AG", 2, 4, BLOCK_BY_POINT),
        ("EG", 3, 2, POINT_BY_BLOCK),
    ):
        H = oriented_matrix(cache.geometry(kind, m, q).structure, orient)
        p = css_from_parity_check(H, orient)
        assert p.k == p.n - 2 * p.rank_h + p.c
        assert p.c <= p.rank_h


def test_expected_c_sts13():
    S = build_sts(13)
    params = verify_steiner(S, 3)
    assert params.r == 6
    assert expected_c(params, POINT_BY_BLOCK) == 12  # r even: c = v - 1


def test_expected_c_sts_odd_r():
    params = verify_steiner(build_sts(7), 3)
    assert expected_c(params, POINT_BY_BLOCK) == 1


def test_expected_c_deletions(cache):
    pg52 = cache.geometry("PG", 5, 2)
    params = verify_steiner(pg52.structure, 3)
    spread = cache.spread("PG", 5, 2, 2)
    for j in range(0, 9):
        rec = DeletionRecord.from_spread(pg52.structure, spread, j, 3)
        assert expected_c(params, POINT_BY_BLOCK, rec) == j + 1
    rec9 = DeletionRecord.from_spread(pg52.structure, spread, 9, 3)
    assert rec9.covers_all_points
    assert expected_c(params, POINT_BY_BLOCK, rec9) == 8  # |S| = 9 odd: c = |S| - 1


def test_expected_c_even_replication_parts(cache):
    ag33 = cache.geometry("AG", 3, 3)
    params = verify_steiner(ag33.structure, 3)
    spread = cache.spread("AG", 3, 3, None)
    rec = DeletionRecord.from_spread(ag33.structure, spread, 1, 3)
    assert rec.part_replications == (4,)
    assert expected_c(params, POINT_BY_BLOCK, rec) == 9  # (9-1) + 1


def test_expected_c_mixed_parities_rejected():
    params = verify_steiner(build_sts(7), 3)
    rec = DeletionRecord(part_orders=(7, 9), part_replications=(3, 4), covers_all_points=False)
    with pytest.raises(DesignError):
        expected_c(params, POINT_BY_BLOCK, rec)


def test_hillebrandt_bounds():
    assert hillebrandt_bounds(7, 3) == (4, 7)
    assert hillebrandt_bounds(9, 3) == (5, 9)
    lo, hi = hillebrandt_bounds(10, 9)
    assert lo <= 4 and hi == 10


def test_rank_within_hillebrandt():
    for v in (7, 9, 13, 15):
        S = build_sts(v)
        lo, hi = hillebrandt_bounds(v, 3)
        rk = rank_value(S.point_by_block())
        assert lo <= rk <= hi


def test_distance_verdict_pg32_enumeration(cache):
    design = cache.geometry("PG", 3, 2)
    verdict = cache.params("PG", 3, 2, POINT_BY_BLOCK).d
    assert verdict.status == "exact" and verdict.upper == 4
    assert verdict.certified
    assert any(s.startswith("enumeration") for s in verdict.sources)
    assert any("dual_hyperoval" in s for s in verdict.sources)


def test_enumeration_source_names_the_side(cache):
    """A code-side result reads codewords-exhaustive and a dual-side one
    dual-macwilliams, also when shared through the polarity."""
    fano = cache.geometry("PG", 2, 2)
    code_side = distance_verdict(fano, BLOCK_BY_POINT)  # dim 3 <= rank 4
    shared = distance_verdict(fano, POINT_BY_BLOCK, twin=code_side)
    dual_side = distance_verdict(cache.geometry("PG", 3, 2), POINT_BY_BLOCK)  # dim 24 > rank 11
    assert code_side.enumerated.side == shared.enumerated.side == "code"
    assert code_side.sources[-1] == "enumeration:codewords-exhaustive"
    assert shared.sources[-1] == (
        "enumeration:codewords-exhaustive (shared from Type I through the checked polarity)")
    assert dual_side.enumerated.side == "dual"
    assert dual_side.sources[-1] == "enumeration:dual-macwilliams"


def test_distance_verdict_ag33(cache):
    params = cache.params("AG", 3, 3, POINT_BY_BLOCK)
    assert params.d.upper == 6 and params.d.status == "exact"
    assert (params.n, params.k, params.c) == (117, 64, 1)


def test_distance_verdict_eg216_type_i(cache):
    params = cache.params("EG", 2, 16, BLOCK_BY_POINT)
    assert params.d.status == "exact" and params.d.upper == 17
    assert params.d.certified  # structural r+1 bound meets the hyperoval witness
    assert (params.n, params.k, params.c) == (255, 111, 16)


def test_distance_verdict_rejects_a_witness_outside_the_code(fano, monkeypatch):
    """A construction bug surfaces: a support that is not a codeword of H
    fails validation even where its weight (4 = d) passes every bound."""
    from eaqldpc import eaqecc
    from eaqldpc.geometry import WitnessCodeword

    bogus = WitnessCodeword(kind="dual_hyperoval", block_indices=(0, 1, 2, 3))
    monkeypatch.setattr(eaqecc, "dual_hyperoval", lambda design: bogus)
    with pytest.raises(DesignError, match="not a codeword"):
        distance_verdict(fano, POINT_BY_BLOCK)
    repeated = WitnessCodeword(kind="dual_hyperoval", block_indices=(0, 0, 1, 1))
    monkeypatch.setattr(eaqecc, "dual_hyperoval", lambda design: repeated)
    with pytest.raises(DesignError, match="repeats a column"):
        distance_verdict(fano, POINT_BY_BLOCK)


def test_distance_verdict_sts_window():
    S = build_sts(9)
    verdict = distance_verdict(S, POINT_BY_BLOCK)
    assert verdict.status == "exact"
    assert 4 <= verdict.upper <= 8


def test_family_params_examples():
    p = family_params("PG", "I", 2, 16)
    assert (p.n, p.k, p.d.upper, p.c) == (273, 110, 18, 1)
    p = family_params("AG", "II", 3, 5)
    assert (p.n, p.k, p.d.upper, p.c) == (775, 526, 10, 1)
    p = family_params("EG", "II", 3, 4)
    assert (p.n, p.k, p.d.upper, p.c) == (315, 235, 5, 20)
    p = family_params("AG", "I", 2, 8)
    assert (p.n, p.k, p.d.upper, p.c) == (64, 18, 10, 8)
    p = family_params("EG", "I", 2, 8)
    assert (p.n, p.k, p.d.upper, p.c) == (63, 19, 9, 8)


def test_family_params_uncovered():
    with pytest.raises(ValueError):
        family_params("PG", "I", 3, 2)  # Type I beyond planes has no closed c
    with pytest.raises(ValueError):
        family_params("EG", "II", 3, 3)  # q odd EG: rank not closed-form


GRID_Q = (2, 3, 4, 5, 7, 8, 9, 16, 32, 64)
WITNESS_BUILDERS = ("dual_hyperoval", "hyperbolic_quadric", "parallel_class_pair",
                    "affine_hyperoval_trace", "point_hyperoval")
# SHA-256 over every grid case below, recorded before the family case split
# and the design counts were given one home each
FAMILY_GRID_SHA256 = "62782ad5734caf2dca6489ae2479dfb4527970ded1a3f4cf4ba398ccb3fcef42"


def recorded_tuple(params):
    """``dataclasses.astuple(params)`` in the form the grid hash was recorded
    in: d as (status, lower, upper, witness), a closed-form d reading "exact"."""
    d = params.d
    old_d = ("bounded" if d.status == "bounded" else "exact", d.lower, d.upper, d.witness)
    return tuple(old_d if f.name == "d" else getattr(params, f.name)
                 for f in dataclasses.fields(params))


def test_family_closed_form_grid_frozen(monkeypatch):
    """Frozen closed forms on PG/AG/EG x I/II x m 2..6 x GRID_Q: every
    family_params field (or its ValueError text), the distance case
    (d, source, lower_only) and the kind of witness that would be built.
    The builders are stubbed to return their own name, so no geometry is
    constructed and the witness is looked up exactly as distance_verdict
    looks it up."""
    from eaqldpc import eaqecc

    for name in WITNESS_BUILDERS:
        monkeypatch.setattr(eaqecc, name, lambda design, name=name: name)
    lines, covered = [], 0
    for kind in ("PG", "AG", "EG"):
        for orientation in (POINT_BY_BLOCK, BLOCK_BY_POINT):
            for m in range(2, 7):
                for q in GRID_Q:
                    try:
                        fam = repr(recorded_tuple(family_params(kind, orientation, m, q)))
                        covered += 1
                    except ValueError as e:
                        fam = f"ValueError: {e}"
                    *case, build = eaqecc._formula_distance(kind, m, q, orientation)
                    witness = build(SimpleNamespace(kind=kind, m=m, q=q)) if build else None
                    lines.append(f"{kind} {orientation} {m} {q} | {fam} | {tuple(case)!r} | {witness}")
    assert covered == 148
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == FAMILY_GRID_SHA256


def test_family_verdict_status_and_source_follow_the_case():
    """On the frozen grid, a closed-form d is "theorem-only", a lower bound
    or no formula is "bounded", and the formula is the verdict's one source."""
    from eaqldpc import eaqecc

    for kind in ("PG", "AG", "EG"):
        for orientation in (POINT_BY_BLOCK, BLOCK_BY_POINT):
            for m in range(2, 7):
                for q in GRID_Q:
                    try:
                        d = family_params(kind, orientation, m, q).d
                    except ValueError:
                        continue
                    value, source, lower_only = eaqecc._formula_distance(kind, m, q, orientation)[:3]
                    closed = value is not None and not lower_only
                    assert d.status == ("theorem-only" if closed else "bounded")
                    assert d.sources == ((source,) if source else ())
                    assert d.witness is None and d.enumerated is None


def test_distance_verdict_rejects_invalid_records():
    for status, lower, upper in (("certain", 3, 3), ("bounded", 5, 4), ("exact", 3, 4),
                                 ("theorem-only", 3, 4)):
        with pytest.raises(ValueError):
            DistanceVerdict(status, lower, upper)
    for status in ("exact", "theorem-only"):
        assert DistanceVerdict(status, 4, 4).value == 4
    bounded = DistanceVerdict("bounded", 3, 8)
    assert bounded.value == (3, 8) and not bounded.certified and not bounded.theorem_only
    assert DistanceVerdict("exact", 4, 4).certified
    assert DistanceVerdict("theorem-only", 4, 4).theorem_only


def test_net_rate_report(cache):
    params = cache.params("AG", 2, 16, BLOCK_BY_POINT)
    assert params.net_rate == Fraction(110 - 16, 256)
    assert f"{float(params.net_rate):.4f}" == "0.3672"
    params2 = cache.params("PG", 4, 3, POINT_BY_BLOCK)
    assert f"{float(params2.rate):.4f}" == "0.9008"


def test_net_rate_zero_when_k_equals_c(fano):
    # scale-free sanity: k = c gives net rate 0
    from eaqldpc.eaqecc import EaqeccParams

    p = EaqeccParams(
        n=10, k=2, c=2, d=DistanceVerdict("bounded", 1, 10), rank_h=5,
        orientation=POINT_BY_BLOCK, girth=6,
    )
    assert p.net_rate == 0


def test_positive_net_rate_pg_planes_type_i(cache):
    # Type I plane codes have positive net rate for t in 2..6
    for t in (2, 3, 4, 5, 6):
        p = family_params("PG", "I", 2, 2**t)
        assert p.net_rate > 0


def test_ag_plane_type_i_gram_block_structure(cache):
    """Reordering H^T H by parallel classes exposes zero diagonal blocks and
    all-one off-diagonal blocks (q even, m=2)."""
    from eaqldpc import gf2

    for q in (2, 4, 8, 16):
        design = cache.geometry("AG", 2, q)
        M = oriented_matrix(design.structure, BLOCK_BY_POINT)
        G = gf2.multiply(M, M.transpose())  # b x b, blocks ordered arbitrarily
        # group block indices by direction (parallel classes): two lines meet
        # in one point iff they are in different classes
        classes: dict[tuple, list[int]] = {}
        field = design.field
        for idx, blk in enumerate(design.structure.arrays[0].tolist()):
            p0 = design.point_coords[blk[0]]
            p1 = design.point_coords[blk[1]]
            d = tuple(field.sub(a, b) for a, b in zip(p1, p0))
            d = field.normalize_projective(d)
            classes.setdefault(d, []).append(idx)
        assert len(classes) == q + 1
        for ci, idxs in classes.items():
            assert len(idxs) == q
        for ci, idxs in classes.items():
            for cj, jdxs in classes.items():
                for i in idxs:
                    row = G.row_bits()[i]
                    for j in jdxs:
                        bit = (row >> j) & 1
                        assert bit == (0 if ci == cj else 1)


def test_assemble_params_girth(cache):
    params = cache.params("PG", 3, 2, POINT_BY_BLOCK)
    assert params.girth == 6


# --- one enumeration per self-dual plane, through the checked polarity ---------

@pytest.mark.parametrize("kind,q", [("PG", 2), ("PG", 4), ("PG", 8), ("EG", 4), ("EG", 8)])
def test_plane_polarity_makes_the_incidence_matrix_symmetric(cache, kind, q):
    design = cache.geometry(kind, 2, q)
    sigma = plane_polarity(design)
    A = design.structure.point_by_block().to_dense()
    assert sorted(sigma.tolist()) == list(range(design.structure.b))
    assert (A[:, sigma] == A[:, sigma].T).all()


def test_plane_polarity_is_none_off_the_symmetric_planes(cache):
    for kind, m, q in (("AG", 2, 4), ("AG", 2, 8), ("PG", 3, 2), ("EG", 3, 2)):
        assert plane_polarity(cache.geometry(kind, m, q)) is None


@pytest.mark.parametrize("kind", ["PG", "EG"])
def test_plane_polarity_rejects_relabelled_points(cache, kind):
    """Points renumbered in the blocks but not in the coordinates: the polar
    lines are no longer the blocks."""
    design = cache.geometry(kind, 2, 4)
    S = design.structure
    perm = list(range(1, S.v)) + [0]
    moved = IncidenceStructure.from_arrays(S.v, [np.array(perm)[S.arrays[0]]], "relabelled")
    with pytest.raises(DesignError):
        plane_polarity(dataclasses.replace(design, structure=moved))


@pytest.mark.parametrize("kind", ["PG", "EG"])
def test_broken_polarity_never_shares_a_distance(monkeypatch, kind):
    """A sigma that is a bijection onto the blocks but leaves A[:, sigma]
    unsymmetric fails the check: the second orientation raises instead of
    taking the first one's d."""
    real = geometry._polar_lines

    def swapped(design, blocks):
        sigma = real(design, blocks).copy()
        sigma[[0, 1]] = sigma[[1, 0]]
        return sigma

    monkeypatch.setattr(geometry, "_polar_lines", swapped)
    cache = ConstructionCache()
    cache.params(kind, 2, 4, BLOCK_BY_POINT)
    with pytest.raises(DesignError, match="not symmetric"):
        cache.params(kind, 2, 4, POINT_BY_BLOCK)


@pytest.mark.parametrize("first,second", [(BLOCK_BY_POINT, POINT_BY_BLOCK),
                                          (POINT_BY_BLOCK, BLOCK_BY_POINT)])
@pytest.mark.parametrize("kind,q", [("PG", 4), ("EG", 4), ("EG", 8)])
def test_second_orientation_reuses_the_enumeration(monkeypatch, kind, q, first, second):
    """The second orientation of a symmetric plane runs no enumeration; its d
    equals a fresh ``min_distance`` on its own H, its source still starts
    with "enumeration", and a shared witness is a codeword of its own H."""
    runs = []
    real = gf2.min_distance
    monkeypatch.setattr(gf2, "min_distance", lambda H: runs.append(H) or real(H))
    cache = ConstructionCache()
    cache.params(kind, 2, q, first)
    verdict = cache.params(kind, 2, q, second).d
    assert len(runs) == 1
    H = oriented_matrix(cache.geometry(kind, 2, q).structure, second)
    fresh = real(H)
    assert verdict.upper == verdict.enumerated.d == fresh.d
    assert verdict.certified
    shared = [s for s in verdict.sources if "through the checked polarity" in s]
    assert len(shared) == 1 and shared[0].startswith("enumeration")
    method = {"code": "codewords-exhaustive", "dual": "dual-macwilliams"}[fresh.side]
    assert shared[0].startswith(f"enumeration:{method} ")
    if verdict.enumerated.witness is not None:
        assert len(verdict.enumerated.witness) == fresh.d
        validate_witness(H, WitnessCodeword("polarity_image", verdict.enumerated.witness))


def test_affine_planes_enumerate_both_orientations(monkeypatch):
    runs = []
    real = gf2.min_distance
    monkeypatch.setattr(gf2, "min_distance", lambda H: runs.append(H) or real(H))
    cache = ConstructionCache()
    for orientation in (BLOCK_BY_POINT, POINT_BY_BLOCK):
        verdict = cache.params("AG", 2, 4, orientation).d
        assert not any("polarity" in s for s in verdict.sources)
    assert len(runs) == 2
