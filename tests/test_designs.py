"""Incidence structures: admissibility, verification, constructions, spreads,
girth, Pasch counting, and the integer Gram identity."""

import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from eaqldpc import designs
from eaqldpc.designs import (
    _bfs_girth,
    _pair_chunks,
    DesignError,
    DoublyCoveredPairError,
    IncidenceStructure,
    UncoveredPairError,
    build_sts,
    build_transversal_design,
    check_admissible,
    compose_gdd_spread,
    count_pasch,
    delete_subdesigns,
    develop_cyclic,
    spread_of,
    tanner_girth,
    verify_gdd,
    verify_steiner,
)
from eaqldpc.gf2 import BitMatrix, rank_value


def blocks_of(S: IncidenceStructure) -> tuple[tuple[int, ...], ...]:
    """S's blocks as point tuples, in block order."""
    return tuple(S.block(j) for j in range(S.b))


def test_check_admissible():
    assert check_admissible(7, 3, 1)
    assert not check_admissible(8, 3, 1)
    assert check_admissible(13, 4, 1)
    assert not check_admissible(14, 4, 1)
    # S(2,4,v) exists iff v = 1, 4 (mod 12); admissibility matches
    admissible = [v for v in range(5, 50) if check_admissible(v, 4, 1)]
    assert admissible == [v for v in range(5, 50) if v % 12 in (1, 4)]


def test_verify_steiner_fano(fano):
    params = verify_steiner(fano.structure, 3)
    assert (params.v, params.mu, params.b, params.r) == (7, 3, 7, 3)


def test_verify_steiner_missing_block(fano):
    broken = IncidenceStructure(v=7, blocks=blocks_of(fano.structure)[1:])
    with pytest.raises(UncoveredPairError):
        verify_steiner(broken, 3)


def test_verify_steiner_extra_block(fano):
    blocks = blocks_of(fano.structure)
    extra = tuple(sorted(set(range(7)) - set(blocks[0])))[:3]
    with pytest.raises((DoublyCoveredPairError, DesignError)):
        verify_steiner(IncidenceStructure(v=7, blocks=blocks + (extra,)), 3)


def test_verify_steiner_wrong_block_size(fano):
    bad = blocks_of(fano.structure)[:-1] + ((0, 1),)
    with pytest.raises(DesignError):
        verify_steiner(IncidenceStructure(v=7, blocks=bad), 3)


@pytest.mark.parametrize("v", [7, 9, 13, 15, 19, 21, 25, 27])
def test_build_sts(v):
    S = build_sts(v)
    params = verify_steiner(S, 3)
    assert params.b == v * (v - 1) // 6
    assert params.r == (v - 1) // 2


def test_build_sts_inadmissible():
    for v in (8, 11, 14, 5):
        with pytest.raises(DesignError):
            build_sts(v)


def test_develop_cyclic_fano():
    S = develop_cyclic(7, [(0, 1, 3)])
    assert S.b == 7
    verify_steiner(S, 3)


@pytest.mark.parametrize("v", [0, -5])
def test_develop_cyclic_rejects_empty_point_set(v):
    with pytest.raises(DesignError):
        develop_cyclic(v, [(0, 1)])


def test_develop_cyclic_sts13():
    S = develop_cyclic(13, [(0, 1, 4), (0, 2, 7)])
    assert S.b == 26
    params = verify_steiner(S, 3)
    assert params.r == 6


def test_develop_cyclic_short_orbit_dedup():
    # base block fixed under a shift: orbit shorter than v
    S = develop_cyclic(9, [(0, 3, 6)])
    assert S.b == 3


def test_transversal_designs():
    for mu, g, b in ((3, 3, 9), (3, 4, 16), (2, 2, 4)):
        td = build_transversal_design(mu, g)
        assert td.b == b and td.v == mu * g
        verify_gdd(td, mu)
    with pytest.raises(DesignError):
        build_transversal_design(5, 4)  # mu > g
    with pytest.raises(ValueError):
        build_transversal_design(3, 6)  # not a prime power



@pytest.mark.parametrize("drop,pair", [(0, (0, 5)), (7, (1, 7)), (24, (4, 9))])
def test_verify_gdd_names_the_first_uncovered_pair(drop, pair):
    td = build_transversal_design(3, 5)
    blocks = blocks_of(td)
    blocks = blocks[:drop] + blocks[drop + 1 :]
    with pytest.raises(UncoveredPairError) as err:
        verify_gdd(IncidenceStructure(v=td.v, blocks=blocks, groups=td.groups), 3)
    assert err.value.pair == pair


@pytest.mark.parametrize("head,message", [
    (((0, 1, 10),), r"block \(0, 1, 10\) meets a group twice"),
    (((0, 5), (0, 1, 10)), r"block \(0, 5\) has size 2"),
])
def test_verify_gdd_names_the_first_bad_block(head, message):
    # points 0 and 1 lie in the same group of TD(3, 5)
    td = build_transversal_design(3, 5)
    S = IncidenceStructure(v=td.v, blocks=head + blocks_of(td)[2:], groups=td.groups)
    with pytest.raises(DesignError, match=message):
        verify_gdd(S, 3)

def test_compose_gdd_spread_sts21():
    td = build_transversal_design(3, 7)
    S, spread = compose_gdd_spread(td, build_sts(7))
    params = verify_steiner(S, 3)
    assert params.v == 21 and params.b == 70
    assert len(spread.parts) == 3
    for pts, bidx in spread.parts:
        assert len(pts) == 7 and len(bidx) == 7


def test_compose_gdd_spread_sts27():
    td = build_transversal_design(3, 9)
    S, spread = compose_gdd_spread(td, build_sts(9))
    verify_steiner(S, 3)
    assert S.v == 27 and len(spread.parts) == 3


def test_compose_gdd_trivial_filler():
    td = build_transversal_design(3, 3)
    trivial = IncidenceStructure(v=3, blocks=((0, 1, 2),))
    S, spread = compose_gdd_spread(td, trivial)
    params = verify_steiner(S, 3)
    assert params.v == 9 and params.b == 12  # 9 + 3 blocks
    assert all(len(bidx) == 1 for _, bidx in spread.parts)


def test_delete_zero_parts_is_identity(cache):
    design = cache.geometry("PG", 3, 2)
    from eaqldpc.geometry import pg_spread

    spread = pg_spread(design, 1)
    same = delete_subdesigns(design.structure, spread, 0)
    assert blocks_of(same) == blocks_of(design.structure)


def test_delete_rejects_bad_part(fano):
    fake = type(
        "S", (), {}
    )  # construct a spread whose "part" blocks are not inside the point set
    from eaqldpc.designs import SpreadPartition

    bad = SpreadPartition(parts=((frozenset({0, 1, 2}), (0, 1, 2, 3)),))
    with pytest.raises(DesignError):
        delete_subdesigns(fano.structure, bad, 1)



def test_spread_of_rejects_shared_and_uncovered_points(fano):
    with pytest.raises(DesignError, match="share points"):
        spread_of(fano.structure, [range(4), range(3, 7)])
    with pytest.raises(DesignError, match="does not cover all points"):
        spread_of(fano.structure, [range(3), range(4, 7)])

def test_girth_four_cycle():
    S = IncidenceStructure(v=4, blocks=((0, 1, 2), (0, 1, 3)))
    assert tanner_girth(S) == 4


def test_girth_fano(fano):
    assert tanner_girth(fano.structure) == 6


def test_girth_ag23(cache):
    assert tanner_girth(cache.geometry("AG", 2, 3).structure) == 6


def test_girth_disjoint_blocks():
    S = IncidenceStructure(v=6, blocks=((0, 1, 2), (3, 4, 5)))
    assert tanner_girth(S, cap=12) == ">=12"


def gq22():
    """GQ(2,2): points are the 15 pairs of {0..5}, lines the 15 partitions of
    {0..5} into three pairs; lambda <= 1 and no triangle, so girth 8."""
    duads = list(combinations(range(6), 2))
    lines = set()
    for a, b in duads:
        rest = [x for x in range(6) if x not in (a, b)]
        for c, d in combinations(rest, 2):
            e, f = [x for x in rest if x not in (c, d)]
            lines.add(tuple(sorted(duads.index(x) for x in ((a, b), (c, d), (e, f)))))
    return IncidenceStructure(v=15, blocks=tuple(sorted(lines)))


def test_girth_generalized_quadrangle_needs_bfs():
    S = gq22()
    assert S.b == 15 and S.replication_counts() == [3] * 15
    assert pair_walk(S)[2].size == 0  # lambda <= 1: past the 4-cycle test
    assert tanner_girth(S) == 8
    assert _bfs_girth(S, 16) == 8
    assert tanner_girth(S, cap=8) == ">=8"


def test_girth_six_fast_path_matches_bfs(fano, cache):
    for S in (fano.structure, cache.geometry("AG", 2, 3).structure, build_sts(13)):
        assert tanner_girth(S) == _bfs_girth(S, 16) == 6


def pair_walk(S: IncidenceStructure) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray]:
    """(ranges, ids, repeated): the first-point ranges of ``_pair_chunks``,
    its chunks concatenated, and the sorted distinct ids seen twice or more
    within a chunk."""
    chunks = list(_pair_chunks(S.v, [A for A in S.arrays if A.shape[1] > 1]))
    ids = np.concatenate([c[2] for c in chunks]) if chunks else np.empty(0, np.int32)
    repeated = [c[2][1:][c[2][1:] == c[2][:-1]] for c in chunks]
    return [c[:2] for c in chunks], ids, np.unique(np.concatenate(repeated + [ids[:0]]))


def mixed_sizes() -> IncidenceStructure:
    return IncidenceStructure(
        v=9,
        blocks=((0,), (0, 1), (0, 1, 2), (0, 3, 5, 8), (1, 2), (2, 4, 6), (3, 5), (4, 7, 8)),
    )


def test_pair_coverage_counts_mixed_block_sizes():
    S = mixed_sizes()
    ref = Counter(a * S.v + b for blk in blocks_of(S) for a, b in combinations(blk, 2))
    ranges, ids, repeated = pair_walk(S)
    assert ranges == [(0, S.v)]  # 13 pairs: one chunk
    assert ids.tolist() == sorted(ref.elements())
    assert np.unique(ids).tolist() == sorted(ref)
    assert repeated.tolist() == sorted(i for i in ref if ref[i] > 1)
    assert tanner_girth(S) == 4
    empty = pair_walk(IncidenceStructure(v=3, blocks=()))
    assert empty[0] == [(0, 3)] and [x.size for x in empty[1:]] == [0, 0]
    assert pair_walk(IncidenceStructure(v=0, blocks=()))[0] == []


def traced_peak(check, S: IncidenceStructure) -> int:
    """Bytes at the tracemalloc peak of ``check(S)``."""
    tracemalloc.start()
    try:
        check(S)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pair_coverage_memory_bound(cache):
    """AG(2,32) has 1056 lines of 32 points, 523776 in-block pairs.  The
    girth and Steiner checks peak below 12 bytes per pair."""
    S = cache.geometry("AG", 2, 32).structure
    pairs = S.b * 32 * 31 // 2
    for check in (tanner_girth, lambda S: verify_steiner(S, 32)):
        assert traced_peak(check, S) < 12 * pairs


def test_pair_walk_memory_is_bounded_by_the_chunk(cache):
    """AG(2,64) has 4160 lines of 64 points, 8386560 in-block pairs, 32 MiB
    as int32 ids.  The girth and Steiner checks read the stored block array
    (1 MiB) and hold its int32 column sort orders (1 MiB) and one chunk of
    pair ids with its gathers: traced peaks of 5.1 and 4.2 MiB, bounded at
    6 MiB, a margin of about 0.9 MiB."""
    S = cache.geometry("AG", 2, 64).structure
    for check in (tanner_girth, lambda S: verify_steiner(S, 64)):
        assert traced_peak(check, S) < 6 * 2**20


def test_uncovered_pair_search_memory_is_bounded_by_the_chunk(cache):
    """AG(2,64) without its first or its last line misses that line's pairs.
    The search names the first of them, counting each chunk's pairs by first
    point, and holds the block arrays and one chunk, below 8 MiB."""
    S = cache.geometry("AG", 2, 64).structure
    blocks = blocks_of(S)
    for drop, pair in ((0, (0, 1)), (S.b - 1, (4032, 4033))):
        deficient = IncidenceStructure(v=S.v, blocks=blocks[:drop] + blocks[drop + 1 :])

        def check(S):
            with pytest.raises(UncoveredPairError) as err:
                verify_steiner(S, 64)
            assert err.value.pair == pair

        assert traced_peak(check, deficient) < 8 * 2**20


def int64_case() -> IncidenceStructure:
    v = 46342
    blocks = ((0, 1, v - 1), (0, 4, v - 1), (2, v - 2, v - 1), (3, v - 2, v - 1))
    return IncidenceStructure(v=v, blocks=blocks)


def test_pair_coverage_int64_ids_past_int32():
    """v^2 >= 2^31 switches the ids to int64, where the largest pair id no
    longer fits int32; the first doubly covered pair in id order is reported."""
    S = int64_case()
    v = S.v
    _, ids, repeated = pair_walk(S)
    assert ids.dtype == np.int64 and ids[-1] == (v - 2) * v + v - 1 >= 2**31
    assert repeated.tolist() == [v - 1, (v - 2) * v + v - 1]
    with pytest.raises(DoublyCoveredPairError) as err:
        verify_steiner(S, 3)
    assert err.value.pair == (0, v - 1)


@pytest.mark.parametrize("budget", [1, 2, 7])
def test_pair_chunk_budget_changes_no_answer(budget, monkeypatch, fano, cache):
    """Cutting the pair walk into chunks of a few ids changes no id, no
    reported pair and no girth."""
    monkeypatch.setattr(designs, "PAIR_CHUNK_IDS", budget)
    S = mixed_sizes()
    ranges, ids, repeated = pair_walk(S)
    assert len(ranges) > 1 and ranges[0][0] == 0 and ranges[-1][1] == S.v
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    ref = Counter(a * S.v + b for blk in blocks_of(S) for a, b in combinations(blk, 2))
    assert ids.tolist() == sorted(ref.elements())
    assert repeated.tolist() == sorted(i for i in ref if ref[i] > 1)
    S = int64_case()
    _, ids, _ = pair_walk(S)
    assert ids.dtype == np.int64
    with pytest.raises(DoublyCoveredPairError) as err:
        verify_steiner(S, 3)
    assert err.value.pair == (0, S.v - 1)
    td = build_transversal_design(3, 5)
    for drop, pair in ((0, (0, 5)), (7, (1, 7)), (24, (4, 9))):
        blocks = blocks_of(td)
        blocks = blocks[:drop] + blocks[drop + 1 :]
        with pytest.raises(UncoveredPairError) as err:
            verify_gdd(IncidenceStructure(v=td.v, blocks=blocks, groups=td.groups), 3)
        assert err.value.pair == pair
    assert tanner_girth(mixed_sizes()) == 4
    for S in (fano.structure, cache.geometry("AG", 2, 3).structure, build_sts(13)):
        assert tanner_girth(S) == 6
    assert tanner_girth(gq22()) == 8
    assert tanner_girth(gq22(), cap=8) == ">=8"
    assert tanner_girth(IncidenceStructure(v=6, blocks=((0, 1, 2), (3, 4, 5))), cap=12) == ">=12"


def incidence_rows(S: IncidenceStructure) -> tuple[list[int], list[int]]:
    """(block-by-point, point-by-block) int rows set one incidence at a time
    (oracle)."""
    by_block, by_point = [0] * S.b, [0] * S.v
    for j, blk in enumerate(blocks_of(S)):
        for p in blk:
            by_block[j] |= 1 << p
            by_point[p] |= 1 << j
    return by_block, by_point


def test_incidence_matrices_match_per_incidence_reference(fano, cache):
    mixed = IncidenceStructure(v=70, blocks=((0,), (0, 1, 63, 64, 69), (2, 65), (68, 69)))
    empty = IncidenceStructure(v=3, blocks=())
    for S in (fano.structure, cache.geometry("AG", 2, 8).structure, build_sts(13), mixed, empty):
        by_block, by_point = incidence_rows(S)
        assert S.block_by_point() == BitMatrix(S.b, S.v, by_block)
        assert S.point_by_block() == BitMatrix(S.v, S.b, by_point)


def test_point_by_block_builds_no_dense_matrix(cache):
    """Scatter and blocked transpose stay below one byte per incidence cell."""
    S = cache.geometry("AG", 2, 32).structure
    tracemalloc.start()
    try:
        H = S.point_by_block()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (H.rows, H.cols) == (S.v, S.b) == (1024, 1056)
    assert peak < S.b * S.v


def count_pasch_bruteforce(S: IncidenceStructure) -> int:
    """Exhaustive 4-subset Pasch count (oracle; tiny instances only)."""
    n = 0
    blocks = blocks_of(S)
    for quad in combinations(range(len(blocks)), 4):
        cover: dict[int, int] = {}
        for j in quad:
            for p in blocks[j]:
                cover[p] = cover.get(p, 0) + 1
        if len(cover) == 6 and all(c == 2 for c in cover.values()):
            n += 1
    return n


def test_count_pasch_fano(fano):
    assert count_pasch(fano.structure) == 7
    assert count_pasch_bruteforce(fano.structure) == 7


PASCH_CASES = {  # id: (v, cyclic base blocks or None for build_sts, Pasch count)
    "7": (7, None, 7),
    "9": (9, None, 0),
    "13": (13, None, 13),
    "15": (15, None, 0),
    "cyclic13": (13, ((0, 1, 4), (0, 2, 7)), 13),
}


def pasch_case(v, bases) -> IncidenceStructure:
    return build_sts(v) if bases is None else develop_cyclic(v, bases)


@pytest.mark.parametrize("v, bases, count", PASCH_CASES.values(), ids=PASCH_CASES.keys())
def test_count_pasch_matches_bruteforce(v, bases, count):
    S = pasch_case(v, bases)
    assert count_pasch(S) == count_pasch_bruteforce(S) == count


def test_count_pasch_matches_weight4_codewords():
    from eaqldpc.gf2 import free_columns, nullspace_basis, weight_distribution

    for v, bases, count in PASCH_CASES.values():
        S = pasch_case(v, bases)
        H = S.point_by_block()
        counts = weight_distribution(nullspace_basis(H).to_packed(), H.cols, free_columns(H))
        assert count_pasch(S) == counts[4] == count


def test_count_pasch_refuses_more_than_100_points():
    with pytest.raises(DesignError, match="capped at v = 100"):
        count_pasch(build_sts(103))


def test_integer_gram_identity():
    """H H^T = (r - lambda) I + lambda J over the integers, for v <= 200."""
    instances = [build_sts(v) for v in (7, 9, 13, 15)]
    for S in instances:
        params = verify_steiner(S, 3)
        H = np.zeros((S.v, S.b), dtype=np.int64)
        for j, blk in enumerate(blocks_of(S)):
            for p in blk:
                H[p, j] = 1
        G = H @ H.T
        expect = (params.r - 1) * np.eye(S.v, dtype=np.int64) + np.ones(
            (S.v, S.v), dtype=np.int64
        )
        assert np.array_equal(G, expect)


def test_replication_parity_gram_rank():
    """r odd -> rank(H H^T) = 1; r even -> rank(H H^T) = v - 1."""
    from eaqldpc.gf2 import gram_rank

    for v in (7, 13, 15, 25):  # r = 3, 6, 7, 12
        S = build_sts(v)
        params = verify_steiner(S, 3)
        H = S.point_by_block()
        g = gram_rank(H)
        assert g == (1 if params.r % 2 else S.v - 1)


def test_full_rank_sts_meets_rate_bound():
    """Every full-rank Steiner incidence matrix meets b = v(v-1)/(mu(mu-1))."""
    for v in (9, 13, 15):
        S = build_sts(v)
        H = S.point_by_block()
        if rank_value(H) == S.v:
            assert S.b == S.v * (S.v - 1) // 6


def test_blocks_sorted_and_unique():
    with pytest.raises(DesignError):
        IncidenceStructure(v=5, blocks=((2, 1, 0),))
    with pytest.raises(DesignError):
        IncidenceStructure(v=5, blocks=((0, 1, 2), (0, 1, 2)))
    with pytest.raises(DesignError):
        IncidenceStructure(v=3, blocks=((0, 1, 5),))


@pytest.mark.parametrize("v,blocks,message", [
    (5, ((0, 1), (2, 1, 0)), "block (2, 1, 0) not sorted/distinct"),
    (5, ((0, 1), (1, 1, 2)), "block (1, 1, 2) not sorted/distinct"),
    (5, ((0, 1), (-1, 2)), "block (-1, 2) out of range for v=5"),
    (5, ((0, 1), (3, 5)), "block (3, 5) out of range for v=5"),
    (5, ((0, 1), (1, 2), (0, 1)), "duplicate block (0, 1)"),
    (5, ((0, 1, 2), (3,), (4, 1)), "block (4, 1) not sorted/distinct"),
    (5, ((), (0, 1), ()), "duplicate block ()"),
    # the first offending block decides, and within a block sorting is checked first
    (5, ((0, 1), (0, 1), (3, 2)), "duplicate block (0, 1)"),
    (5, ((0, 1), (7, 1), (0, 1)), "block (7, 1) not sorted/distinct"),
    (5, ((0, 9), (1, 0)), "block (0, 9) out of range for v=5"),
    (5, ((3,), (4,), (3,), (0, 0)), "duplicate block (3,)"),
    # points past 64 bits
    (5, ((0, 1), (0, 2**70)), f"block (0, {2**70}) out of range for v=5"),
    (5, ((1, 0), (0, 2**70)), "block (1, 0) not sorted/distinct"),
    (5, ((0, 1), (0, 1), (-(2**70),)), "duplicate block (0, 1)"),
    (5, ((2**70, 0),), f"block ({2**70}, 0) not sorted/distinct"),
])
def test_block_errors_name_the_first_offending_block(v, blocks, message):
    with pytest.raises(DesignError) as err:
        IncidenceStructure(v=v, blocks=blocks)
    assert str(err.value) == message


def test_mixed_sizes_and_an_empty_block_are_accepted():
    blocks = ((), (0,), (0, 1), (1, 2, 3), (0, 2, 3, 4), (4,))
    assert blocks_of(IncidenceStructure(v=5, blocks=blocks)) == blocks
    assert IncidenceStructure(v=0, blocks=((),)).b == 1
    assert IncidenceStructure(v=3, blocks=()).b == 0
