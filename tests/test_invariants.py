"""Cross-module invariants: deletion monotonicity, STS distance window,
large cyclic development, and odds-and-ends from the op contracts."""

from eaqldpc.designs import build_sts, develop_cyclic, tanner_girth, verify_steiner
from eaqldpc.eaqecc import (
    POINT_BY_BLOCK,
    css_from_parity_check,
    hillebrandt_bounds,
    oriented_matrix,
)
from eaqldpc.gf2 import (
    gram_rank,
    in_row_space,
    min_distance,
    nullspace_basis,
    rank,
    rank_value,
)

# difference triples partitioning {1..21}: a cyclic Steiner difference family
STS43_BASES = [(0, 1, 3), (0, 4, 9), (0, 6, 18), (0, 7, 21), (0, 8, 23), (0, 10, 26), (0, 11, 24)]


def test_develop_cyclic_sts43():
    S = develop_cyclic(43, STS43_BASES)
    params = verify_steiner(S, 3)
    assert params.b == 301 and params.r == 21
    p = css_from_parity_check(oriented_matrix(S, POINT_BY_BLOCK), POINT_BY_BLOCK)
    assert (p.n, p.k, p.c) == (301, 216, 1)


def test_pg43_gram_rank_120(cache):
    H = oriented_matrix(cache.geometry("PG", 4, 3).structure, POINT_BY_BLOCK)
    assert gram_rank(H) == 120


def test_pg23_nullspace_allones(cache):
    H = oriented_matrix(cache.geometry("PG", 2, 3).structure, POINT_BY_BLOCK)
    ns = nullspace_basis(H)
    assert ns.rows == 1
    assert ns.row_bits()[0] == (1 << 13) - 1  # the all-one vector


def test_in_row_space_matches_rank_append(cache):
    """Membership agrees with the rank-of-augmented-matrix oracle."""
    H = oriented_matrix(cache.geometry("PG", 3, 2).structure, POINT_BY_BLOCK)
    allones = (1 << 35) - 1
    from eaqldpc.gf2 import BitMatrix

    for x in (allones, 0b1011, H.row_bits()[0] ^ H.row_bits()[7]):
        appended = BitMatrix(H.rows + 1, H.cols, list(H.row_bits()) + [x])
        oracle = rank_value(appended) == rank_value(H)
        assert in_row_space(H, x) == oracle


def test_ag24_min_distance_exact_5(cache):
    H = oriented_matrix(cache.geometry("AG", 2, 4).structure, POINT_BY_BLOCK)
    res = min_distance(H)
    assert res.d == 5


def test_sts_distance_window_enumerated():
    """4 <= d <= 8 for nontrivial STS codes, by exhaustive enumeration."""
    for v in (7, 9, 13):
        S = build_sts(v)
        res = min_distance(S.point_by_block())
        assert 4 <= res.d <= 8


def test_deletion_monotonicity(cache):
    """Dropping spread parts never decreases girth or exact distance."""
    from eaqldpc.designs import delete_subdesigns
    from eaqldpc.geometry import pg_spread

    design = cache.geometry("PG", 3, 2)
    spread = pg_spread(design, 1)
    base = design.structure
    d0 = min_distance(base.point_by_block()).d
    g0 = tanner_girth(base)
    for count in (1, 2):
        folded = delete_subdesigns(base, spread, count)
        d1 = min_distance(folded.point_by_block()).d
        g1 = tanner_girth(folded)
        assert d1 >= d0
        assert (g1 == ">=16") or (g0 == 6 and g1 >= 6)


def test_hillebrandt_covers_geometries(cache):
    for kind, m, q in (("PG", 3, 2), ("PG", 2, 4), ("AG", 2, 4), ("AG", 3, 3)):
        design = cache.geometry(kind, m, q)
        lo, hi = hillebrandt_bounds(design.structure.v, design.mu)
        rk = rank_value(design.structure.point_by_block())
        assert lo <= rk <= hi


def test_girth_unchanged_by_gdd_fill():
    from eaqldpc.designs import build_transversal_design, compose_gdd_spread

    td = build_transversal_design(3, 7)
    S, _ = compose_gdd_spread(td, build_sts(7))
    assert tanner_girth(S) == 6
