"""Geometries: construction counts, closed-form ranks vs elimination,
spreads, and witness codewords."""

import hashlib
import itertools

import pytest

from eaqldpc.designs import (
    build_sts,
    build_transversal_design,
    compose_gdd_spread,
    delete_subdesigns,
    verify_partial_steiner,
    verify_steiner,
)
from eaqldpc.eaqecc import BLOCK_BY_POINT, POINT_BY_BLOCK, _formula_distance
from eaqldpc.fields import enumerate_subspace_reps, field_for_order
from eaqldpc.geometry import (
    DesignError,
    affine_hyperoval_trace,
    build_ag,
    build_eg,
    build_geometry,
    build_pg,
    design_counts,
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


@pytest.mark.parametrize("kind,m,q", [("PG", 3, 3), ("PG", 2, 8), ("AG", 3, 4), ("EG", 3, 3),
                                       ("EG", 2, 16)])
def test_design_counts_match_built_geometries(cache, kind, m, q):
    design = cache.geometry(kind, m, q)
    S = design.structure
    v, b, r, mu = design_counts(kind, m, q)
    assert (S.v, S.b) == (v, b)
    assert set(S.replication_counts()) == {r} and {A.shape[1] for A in S.arrays} == {mu}
    assert (design.replication, design.mu) == (r, mu)


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
        for blk in ag.structure.arrays[0].tolist()
        if zero not in blk
    )
    assert list(map(tuple, eg.structure.arrays[0].tolist())) == expect
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



# (kind, m, q, s) -> first 16 hex digits of the SHA-256 of the spread's parts
# in order, each as (sorted point set, block indices); "TD" is the TD(3, 7)
# filled with STS(7)
SPREAD_PINS = {
    ("PG", 5, 2, 1): "61cc3b1b0283f8b2",
    ("PG", 5, 2, 2): "799ccb1ccb5768db",
    ("PG", 3, 2, 1): "7aa0ee932b612723",
    ("PG", 3, 3, 1): "052195f3a6f2776f",
    ("PG", 3, 4, 1): "0afb6dd6a88e0768",
    ("AG", 3, 3, None): "47beec602c6186e4",
    ("AG", 3, 4, None): "6147e84f402e7bf8",
    ("TD", 3, 7, None): "6979e75b23255dcf",
}


@pytest.mark.parametrize("kind,m,q,s", SPREAD_PINS)
def test_spread_pins(cache, kind, m, q, s):
    if kind == "TD":
        spread = compose_gdd_spread(build_transversal_design(m, q), build_sts(q))[1]
    else:
        spread = cache.spread(kind, m, q, s)
    parts = [(sorted(pts), bidx) for pts, bidx in spread.parts]
    assert hashlib.sha256(repr(parts).encode()).hexdigest()[:16] == SPREAD_PINS[(kind, m, q, s)]


# (m, q, s) -> SHA-256 of PG(m, q)'s s-spread parts, in the form above, and
# of the blocks left after deleting its first two parts, one line a block;
# recorded before the subfield embedding became a one-test candidate search
SPREAD_DELETION_DIGESTS = {
    (3, 4, 1): ("0afb6dd6a88e0768cc05f6b4650d65f06196a15dde304486045d6201fb381528",
                "8f3b9681815cf0fed04ba512d4a445f699a5335847766ee9b673a79ce9059952"),
    (3, 8, 1): ("4156a63984158ceb21c762611394c6752fecbd09fec1b70d23d649005841be82",
                "a171f49e173d2856cd1b8f40775623e78afcb57f6652ffdbda9637bdc3cb56df"),
    (3, 9, 1): ("b7f1280232080996ad7da0fc4e222c01a2d43a60fc9fc27b85ec08a76a347352",
                "a08524f99a6af28ed57e8e66c1c3cb7f87d18724264299e1a88dafc53b0fa683"),
    (5, 4, 2): ("f08de7b203f9405574f1faeb61d52cb1ae089fd4bfbdaf85275766445eceb7ee",
                "4e56c234bf8eec147b6b05527b3d9b31b60108dc976c121f7135e01cc4b25de2"),
    (3, 16, 1): ("475286844e245705d3f59d99acc1ef2790ca544d8e4fecd9634038bc381b0b6b",
                 "b7bb1bfb3563f6973026e54bac494a2be52ed50a5894910a803fdff6b4919cb2"),
}


@pytest.mark.parametrize("m,q,s", SPREAD_DELETION_DIGESTS)
def test_spread_and_deletion_digests(m, q, s):
    """Spreads over GF(q) inside GF(q^(s+1)) for q = 4, 8, 9, 16, and the
    design with two parts deleted, are bit for bit the recorded ones."""
    design = build_geometry("PG", m, q)
    spread = pg_spread(design, s)
    folded = delete_subdesigns(design.structure, spread, 2)
    parts = [(sorted(pts), bidx) for pts, bidx in spread.parts]
    (blocks,) = folded.arrays
    lines = "\n".join(" ".join(map(str, b)) for b in blocks.tolist())
    got = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (repr(parts), lines))
    assert got == SPREAD_DELETION_DIGESTS[(m, q, s)]


def _coverage(structure, support):
    cover = [0] * structure.v
    for j in support:
        for p in structure.block(j):
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
        for blk in design.structure.arrays[0].tolist():
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
    assert tuple(map(tuple, design.structure.arrays[0].tolist())) == blocks
    assert all(type(x) is int for j in range(3) for x in design.structure.block(j))


# (Type II, Type I) witness that `distance_verdict` builds for each table geometry, as
# (kind, weight, first 16 hex digits of the SHA-256 of the comma-joined block
# indices), or None where no construction applies
WITNESS_PINS = {
    ('PG', 2, 2): (('dual_hyperoval', 4, '0c5358ec073bf88b'), ('point_hyperoval', 4, '3f8cd46988947f56')),
    ('PG', 3, 2): (('dual_hyperoval', 4, '50126375275aac67'), None),
    ('PG', 4, 2): (('dual_hyperoval', 4, '94c5f1c48817d874'), None),
    ('PG', 5, 2): (('dual_hyperoval', 4, 'e197e601dbe9982d'), None),
    ('PG', 6, 2): (('dual_hyperoval', 4, '87b5d9f3df79d095'), None),
    ('PG', 2, 3): (None, None),
    ('PG', 3, 3): (('hyperbolic_quadric', 8, '3ecbfbf79fa8771f'), None),
    ('PG', 4, 3): (('hyperbolic_quadric', 8, 'c669e572c11fa03f'), None),
    ('PG', 2, 4): (('dual_hyperoval', 6, '6d7a83c6a31ebbe4'), ('point_hyperoval', 6, '025e7d9964850d51')),
    ('PG', 3, 4): (('dual_hyperoval', 6, '9a9e12ef91b63265'), None),
    ('PG', 4, 4): (('dual_hyperoval', 6, '0736f15eda605885'), None),
    ('PG', 2, 5): (None, None),
    ('PG', 3, 5): (('hyperbolic_quadric', 12, 'e22112c384b31511'), None),
    ('PG', 3, 7): (('hyperbolic_quadric', 16, '1ffc30dedfef8843'), None),
    ('PG', 2, 8): (('dual_hyperoval', 10, '3890e8d971ba02af'), ('point_hyperoval', 10, 'b3c921aa074cebb4')),
    ('PG', 3, 8): (('dual_hyperoval', 10, 'b8e12d7bfc33c767'), None),
    ('PG', 2, 16): (('dual_hyperoval', 18, '1e836880322e452f'), ('point_hyperoval', 18, 'de2bfb8c916081a5')),
    ('PG', 2, 32): (('dual_hyperoval', 34, 'c5c8b233fb73fc6f'), ('point_hyperoval', 34, '0aef82f1435ef79f')),
    ('AG', 3, 2): (('affine_hyperoval_trace', 3, 'a5f4717c9b2be827'), None),
    ('AG', 4, 2): (('affine_hyperoval_trace', 3, '63ff49458f6761dd'), None),
    ('AG', 5, 2): (('affine_hyperoval_trace', 3, '6aae435550677afc'), None),
    ('AG', 6, 2): (('affine_hyperoval_trace', 3, '9d7d16945f6b342c'), None),
    ('AG', 2, 3): (('parallel_class_pair', 6, '87362bcd1a52e0a2'), None),
    ('AG', 3, 3): (('parallel_class_pair', 6, '9765fdd946733f07'), None),
    ('AG', 4, 3): (('parallel_class_pair', 6, '32ec9ab921fbf47d'), None),
    ('AG', 5, 3): (('parallel_class_pair', 6, '574a06878a43eec8'), None),
    ('AG', 2, 4): (('affine_hyperoval_trace', 5, '5239c31e647e5118'), ('point_hyperoval', 6, '4f971ad7de215aa1')),
    ('AG', 3, 4): (('affine_hyperoval_trace', 5, '59fed4b6ccb170e5'), None),
    ('AG', 4, 4): (('affine_hyperoval_trace', 5, '6266b9275ab6237b'), None),
    ('AG', 2, 5): (('parallel_class_pair', 10, '1f12b62a77df8d8e'), None),
    ('AG', 3, 5): (('parallel_class_pair', 10, 'e03012a8bfbe008c'), None),
    ('AG', 3, 7): (('parallel_class_pair', 14, 'eb9624317dc5c5ad'), None),
    ('AG', 2, 8): (('affine_hyperoval_trace', 9, '83bcde6f6c54df1a'), ('point_hyperoval', 10, '725574feef996770')),
    ('AG', 3, 8): (('affine_hyperoval_trace', 9, 'e0eb49f0dabc07b3'), None),
    ('AG', 2, 16): (('affine_hyperoval_trace', 17, 'd5a8d21c51c1f8f1'), ('point_hyperoval', 18, '0d6d663535019215')),
    ('AG', 2, 32): (('affine_hyperoval_trace', 33, '9cd4b208a5970e0b'), ('point_hyperoval', 34, 'ed5dabfe74483704')),
    ('AG', 2, 64): (('affine_hyperoval_trace', 65, 'e0ac2a8f9d759fff'), ('point_hyperoval', 66, 'b5acb3f5d778bddd')),
    ('EG', 3, 2): (('affine_hyperoval_trace', 3, '67bdb60115f913dc'), None),
    ('EG', 4, 2): (('affine_hyperoval_trace', 3, 'd229e1ee4a30c6cb'), None),
    ('EG', 5, 2): (('affine_hyperoval_trace', 3, '314216e320cb4d65'), None),
    ('EG', 6, 2): (('affine_hyperoval_trace', 3, 'd2463d62dd728fe2'), None),
    ('EG', 3, 3): (('parallel_class_pair', 6, '96ec5c757f4d277b'), None),
    ('EG', 4, 3): (('parallel_class_pair', 6, 'd59b88c434271cd0'), None),
    ('EG', 5, 3): (('parallel_class_pair', 6, '50bdab63849a20fe'), None),
    ('EG', 2, 4): (('affine_hyperoval_trace', 5, '15f798971fb178ad'), ('point_hyperoval', 5, 'ac1f74cff7f6d595')),
    ('EG', 3, 4): (('affine_hyperoval_trace', 5, '8b35a10c330a81bc'), None),
    ('EG', 4, 4): (('affine_hyperoval_trace', 5, 'f35b3c16720aa3cb'), None),
    ('EG', 3, 5): (('parallel_class_pair', 10, '75b286de85d61f81'), None),
    ('EG', 3, 7): (('parallel_class_pair', 14, '748d398a470d0dbf'), None),
    ('EG', 2, 8): (('affine_hyperoval_trace', 9, '60018a45e3882488'), ('point_hyperoval', 9, '5a5227eeeb17fb39')),
    ('EG', 3, 8): (('affine_hyperoval_trace', 9, '08b67b7b347597ea'), None),
    ('EG', 2, 16): (('affine_hyperoval_trace', 17, '9edb34d42dea096e'), ('point_hyperoval', 17, 'eb4976d70181cd12')),
    ('EG', 2, 32): (('affine_hyperoval_trace', 33, '5e422df33c6b68e6'), ('point_hyperoval', 33, 'd92ed6b9fd171019')),
}


def _witness_pin(design, orientation):
    """The pin of the witness that the family case's builder makes, or None."""
    build = _formula_distance(design.kind, design.m, design.q, orientation)[3]
    if build is None:
        return None
    w = build(design)
    digest = hashlib.sha256(",".join(map(str, w.block_indices)).encode()).hexdigest()
    return w.kind, w.weight, digest[:16]


@pytest.mark.parametrize("kind,m,q", TABLE_GEOMETRIES)
def test_witness_pins(cache, kind, m, q):
    design = cache.geometry(kind, m, q)
    got = tuple(_witness_pin(design, o) for o in (POINT_BY_BLOCK, BLOCK_BY_POINT))
    assert got == WITNESS_PINS[(kind, m, q)]
