"""Geometries: construction counts, closed-form ranks vs elimination,
spreads, and witness codewords."""

import itertools

import pytest

from eaqldpc.designs import verify_partial_steiner, verify_steiner
from eaqldpc.fields import enumerate_subspace_reps, field_for_order
from eaqldpc.geometry import (
    DesignError,
    affine_hyperoval_trace,
    build_ag,
    build_eg,
    build_geometry,
    build_pg,
    dual_hyperoval,
    hamada_phi,
    hyperbolic_quadric,
    parallel_class_pair,
    pg_spread,
    point_hyperoval,
    rank_formula,
)
from eaqldpc.gf2 import rank_value


def test_build_pg_counts(cache):
    fano = cache.geometry("PG", 2, 2)
    assert (fano.structure.v, fano.structure.b) == (7, 7)
    pg32 = cache.geometry("PG", 3, 2)
    assert (pg32.structure.v, pg32.structure.b) == (15, 35)
    params = verify_steiner(pg32.structure, 3)
    assert params.r == 7
    pg33 = cache.geometry("PG", 3, 3)
    assert (pg33.structure.v, pg33.structure.b) == (40, 130)
    verify_steiner(pg33.structure, 4)


def test_build_ag_counts(cache):
    ag23 = cache.geometry("AG", 2, 3)
    assert (ag23.structure.v, ag23.structure.b) == (9, 12)
    verify_steiner(ag23.structure, 3)
    ag32 = cache.geometry("AG", 3, 2)
    assert (ag32.structure.v, ag32.structure.b) == (8, 28)
    ag24 = cache.geometry("AG", 2, 4)
    assert (ag24.structure.v, ag24.structure.b) == (16, 20)
    verify_steiner(ag24.structure, 4)


def test_build_eg_counts(cache):
    eg22 = cache.geometry("EG", 2, 2)
    assert (eg22.structure.v, eg22.structure.b) == (3, 3)
    eg28 = cache.geometry("EG", 2, 8)
    assert (eg28.structure.v, eg28.structure.b) == (63, 63)
    eg32 = cache.geometry("EG", 3, 2)
    assert (eg32.structure.v, eg32.structure.b) == (7, 21)
    verify_partial_steiner(eg32.structure, 2)


def test_eg_point_degrees(cache):
    eg28 = cache.geometry("EG", 2, 8)
    r0 = (8**2 - 1) // 7 - 1
    assert set(eg28.structure.replication_counts()) == {r0}


def test_eg_is_ag_minus_origin(cache):
    ag, eg = cache.geometry("AG", 2, 4), cache.geometry("EG", 2, 4)
    zero = ag.point_coords.index((0, 0))
    keep = [i for i in range(ag.structure.v) if i != zero]
    remap = {p: i for i, p in enumerate(keep)}
    expect = sorted(
        tuple(sorted(remap[p] for p in blk))
        for blk in ag.structure.blocks
        if zero not in blk
    )
    assert list(eg.structure.blocks) == expect
    assert eg.point_coords == tuple(ag.point_coords[i] for i in keep)


def test_hamada_phi_values():
    assert hamada_phi(2, 1) == 4
    assert [hamada_phi(2, t) for t in (2, 3, 4, 5)] == [10, 28, 82, 244]
    assert hamada_phi(3, 1) == 11
    assert hamada_phi(5, 1) == 57
    assert hamada_phi(3, 2) == 61
    assert hamada_phi(1, 3) == 1


def test_hamada_phi_matches_bruteforce_rank(cache):
    for m in (2, 3, 4, 5):
        H = cache.geometry("PG", m, 2).structure.point_by_block()
        assert rank_value(H) == hamada_phi(m, 1)
    assert rank_value(cache.geometry("PG", 2, 4).structure.point_by_block()) == hamada_phi(2, 2)


def test_rank_formula_examples(cache):
    assert rank_formula("PG", 3, 3) == 39
    assert rank_formula("AG", 2, 4) == 9
    assert rank_value(cache.geometry("AG", 2, 4).structure.point_by_block()) == 9
    assert rank_formula("EG", 2, 8) == 26
    assert rank_value(cache.geometry("EG", 2, 8).structure.point_by_block()) == 26
    assert rank_formula("AG", 3, 3) == 27  # full rank for q odd
    assert isinstance(rank_formula("EG", 3, 3), tuple)  # interval: no closed form


def test_pg_spreads(cache):
    pg32 = cache.geometry("PG", 3, 2)
    sp = pg_spread(pg32, 1)
    assert len(sp.parts) == 5
    covered = set()
    for pts, bidx in sp.parts:
        assert len(bidx) == 1  # single-line parts
        covered |= pts
    assert covered == set(range(15))

    pg52 = cache.geometry("PG", 5, 2)
    sp2 = cache.spread("PG", 5, 2, 2)
    assert len(sp2.parts) == 9
    for pts, bidx in sp2.parts:
        assert len(pts) == 7 and len(bidx) == 7  # Fano parts
    sp1 = pg_spread(pg52, 1)
    assert len(sp1.parts) == 21

    with pytest.raises(DesignError):
        pg_spread(pg32, 2)  # 3 does not divide 4


def test_pg_spread_odd_q(cache):
    sp = pg_spread(cache.geometry("PG", 3, 3), 1)
    assert len(sp.parts) == 10


def test_ag_hyperplane_spread(cache):
    sp = cache.spread("AG", 3, 4, None)
    assert len(sp.parts) == 4
    assert all(len(pts) == 16 and len(bidx) == 20 for pts, bidx in sp.parts)
    sp2 = cache.spread("AG", 3, 2, None)
    assert len(sp2.parts) == 2
    with pytest.raises(DesignError):
        from eaqldpc.geometry import ag_hyperplane_spread

        ag_hyperplane_spread(cache.geometry("AG", 2, 3))


def _coverage(structure, support):
    cover = [0] * structure.v
    for j in support:
        for p in structure.blocks[j]:
            cover[p] += 1
    return cover


def test_dual_hyperoval_fano(fano):
    w = dual_hyperoval(fano)
    assert w.weight == 4
    cover = _coverage(fano.structure, w.block_indices)
    assert all(c in (0, 2) for c in cover)
    assert cover.count(0) == 1  # exactly one point off the dual hyperoval at q=2


def test_dual_hyperoval_pg24(cache):
    w = dual_hyperoval(cache.geometry("PG", 2, 4))
    assert w.weight == 6
    assert all(c in (0, 2) for c in _coverage(cache.geometry("PG", 2, 4).structure, w.block_indices))


def test_dual_hyperoval_pg38(cache):
    design = cache.geometry("PG", 3, 8)
    w = dual_hyperoval(design)
    assert w.weight == 10
    assert all(c in (0, 2) for c in _coverage(design.structure, w.block_indices))


def test_dual_hyperoval_rejects_odd_q(cache):
    with pytest.raises(DesignError):
        dual_hyperoval(cache.geometry("PG", 3, 3))


def test_hyperbolic_quadric(cache):
    for m, q, weight in ((3, 3, 8), (3, 5, 12), (3, 7, 16)):
        design = cache.geometry("PG", m, q)
        w = hyperbolic_quadric(design)
        assert w.weight == weight == 2 * (q + 1)
        cover = _coverage(design.structure, w.block_indices)
        assert all(c in (0, 2) for c in cover)
        assert sum(1 for c in cover if c == 2) == (q + 1) ** 2


def test_hyperbolic_quadric_rejects(cache):
    with pytest.raises(DesignError):
        hyperbolic_quadric(cache.geometry("PG", 2, 2))  # q even
    with pytest.raises(DesignError):
        hyperbolic_quadric(cache.geometry("PG", 2, 3))  # m < 3


def test_affine_witnesses(cache):
    for kind, m, q in (("AG", 2, 4), ("AG", 3, 4), ("EG", 2, 4), ("EG", 2, 16), ("EG", 3, 4)):
        design = cache.geometry(kind, m, q)
        w = affine_hyperoval_trace(design)
        assert w.weight == q + 1
        assert all(c in (0, 2) for c in _coverage(design.structure, w.block_indices))


def test_parallel_class_pairs(cache):
    for kind, m, q in (("AG", 3, 3), ("AG", 2, 5), ("EG", 3, 3)):
        design = cache.geometry(kind, m, q)
        w = parallel_class_pair(design)
        assert w.weight == 2 * q
        assert all(c in (0, 2) for c in _coverage(design.structure, w.block_indices))


def test_point_hyperovals(cache):
    # block-by-point witnesses: even intersection with every line
    for kind, q, weight in (("PG", 4, 6), ("AG", 4, 6), ("EG", 4, 5), ("PG", 16, 18), ("AG", 16, 18), ("EG", 16, 17)):
        design = cache.geometry(kind, 2, q)
        w = point_hyperoval(design)
        assert w.weight == weight
        sup = set(w.block_indices)
        for blk in design.structure.blocks:
            assert len(sup & set(blk)) % 2 == 0


def test_witness_indices_stable(cache):
    a = dual_hyperoval(cache.geometry("PG", 2, 4))
    b = dual_hyperoval(build_pg(2, 4))
    assert a.block_indices == b.block_indices


# --- the line-closure builders the table-driven ones replaced, as oracles -----

def _line_closure(field, a, b):
    """Canonical representatives of all q+1 points on the projective line
    through a and b: {a} plus {b + lam*a : lam in F_q}."""
    pts = [field.normalize_projective(a)]
    for lam in field.elements():
        v = tuple(field.add(x, field.mul(lam, y)) for x, y in zip(b, a))
        pts.append(field.normalize_projective(v))
    return pts


def pg_oracle(m, q):
    """(points, sorted blocks) of PG(m, q), one line per uncovered point pair."""
    field = field_for_order(q)
    points = enumerate_subspace_reps(field, m + 1)
    index = {p: i for i, p in enumerate(points)}
    covered = [0] * len(points)
    blocks = []
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if covered[i] >> j & 1:
                continue
            line = sorted(index[p] for p in set(_line_closure(field, points[i], points[j])))
            blocks.append(tuple(line))
            for x in line:
                for y in line:
                    covered[x] |= 1 << y
    return tuple(points), tuple(sorted(blocks))


def ag_oracle(m, q):
    """(points, sorted blocks) of AG(m, q): every coset of every direction."""
    field = field_for_order(q)
    points = list(itertools.product(field.elements(), repeat=m))
    index = {p: i for i, p in enumerate(points)}
    blocks = []
    for d in enumerate_subspace_reps(field, m):
        used = bytearray(len(points))
        for i, p in enumerate(points):
            if used[i]:
                continue
            line = sorted(
                index[tuple(field.add(x, field.mul(lam, dd)) for x, dd in zip(p, d))]
                for lam in field.elements()
            )
            for x in line:
                used[x] = 1
            blocks.append(tuple(line))
    return tuple(points), tuple(sorted(blocks))


def eg_oracle(m, q):
    points, blocks = ag_oracle(m, q)
    zero = points.index((0,) * m)
    remap = {p: i for i, p in enumerate(i for i in range(len(points)) if i != zero)}
    kept = sorted(tuple(sorted(remap[p] for p in blk)) for blk in blocks if zero not in blk)
    return tuple(p for i, p in enumerate(points) if i != zero), tuple(kept)


# every geometry `tables all` builds with at most 5000 points
TABLE_GEOMETRIES = [
    ("PG", 2, 2), ("PG", 3, 2), ("PG", 4, 2), ("PG", 5, 2), ("PG", 6, 2), ("PG", 2, 3),
    ("PG", 3, 3), ("PG", 4, 3), ("PG", 2, 4), ("PG", 3, 4), ("PG", 4, 4), ("PG", 2, 5),
    ("PG", 3, 5), ("PG", 3, 7), ("PG", 2, 8), ("PG", 3, 8), ("PG", 2, 16), ("PG", 2, 32),
    ("AG", 3, 2), ("AG", 4, 2), ("AG", 5, 2), ("AG", 6, 2), ("AG", 2, 3), ("AG", 3, 3),
    ("AG", 4, 3), ("AG", 5, 3), ("AG", 2, 4), ("AG", 3, 4), ("AG", 4, 4), ("AG", 2, 5),
    ("AG", 3, 5), ("AG", 3, 7), ("AG", 2, 8), ("AG", 3, 8), ("AG", 2, 16), ("AG", 2, 32),
    ("AG", 2, 64),
    ("EG", 3, 2), ("EG", 4, 2), ("EG", 5, 2), ("EG", 6, 2), ("EG", 3, 3), ("EG", 4, 3),
    ("EG", 5, 3), ("EG", 2, 4), ("EG", 3, 4), ("EG", 4, 4), ("EG", 3, 5), ("EG", 3, 7),
    ("EG", 2, 8), ("EG", 3, 8), ("EG", 2, 16), ("EG", 2, 32),
]


@pytest.mark.parametrize("kind,m,q", TABLE_GEOMETRIES)
def test_geometry_matches_line_closure_oracle(kind, m, q):
    design = build_geometry(kind, m, q)
    oracle = {"PG": pg_oracle, "AG": ag_oracle, "EG": eg_oracle}[kind]
    points, blocks = oracle(m, q)
    assert design.structure.v == len(points) <= 5000
    assert design.point_coords == points
    assert design.structure.blocks == blocks
    assert all(type(x) is int for blk in design.structure.blocks[:3] for x in blk)
