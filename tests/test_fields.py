"""Finite field tables: axioms, generators, projective representatives."""

import itertools

import pytest

from eaqldpc.fields import (
    _least_irreducible,
    _poly_is_irreducible,
    enumerate_subspace_reps,
    field_for_order,
    make_field,
    subfield_embedding,
)

EXHAUSTIVE_ORDERS = [2, 3, 4, 5, 7, 8, 9, 16, 27, 32, 64]


def test_gf2_basics():
    F = make_field(2, 1)
    assert F.add(1, 1) == 0
    assert F.mul(1, 1) == 1


def test_gf3_basics():
    F = make_field(3, 1)
    assert F.mul(2, 2) == 1
    assert F.add(2, 2) == 1


def test_gf16_generator_order():
    F = make_field(2, 4)
    g = F.generator
    seen = set()
    x = 1
    for _ in range(15):
        x = F.mul(x, g)
        seen.add(x)
    assert len(seen) == 15 and x == 1  # multiplicative group cyclic of order 15


@pytest.mark.parametrize("q", EXHAUSTIVE_ORDERS)
def test_field_axioms_exhaustive(q):
    F = field_for_order(q)
    els = range(q)
    # inverses and identities
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    # commutativity and the zero annihilator
    for a in els:
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
        assert F.mul(a, 0) == 0
    # associativity + distributivity on all triples
    for a in els:
        for b in els:
            ab_add = F.add(a, b)
            ab_mul = F.mul(a, b)
            for c in els:
                assert F.add(ab_add, c) == F.add(a, F.add(b, c))
                assert F.mul(ab_mul, c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q", EXHAUSTIVE_ORDERS)
def test_frobenius_additive(q):
    F = field_for_order(q)
    for a in range(q):
        for b in range(q):
            assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))


def test_make_field_rejects_bad_args():
    with pytest.raises(ValueError):
        make_field(6, 1)
    with pytest.raises(ValueError):
        make_field(2, 17)  # exceeds the order cap
    with pytest.raises(ValueError):
        field_for_order(12)


def test_subspace_reps_counts():
    assert len(enumerate_subspace_reps(make_field(2, 1), 3)) == 7
    assert len(enumerate_subspace_reps(make_field(2, 2), 3)) == 21
    assert len(enumerate_subspace_reps(make_field(3, 1), 4)) == 40


def test_subspace_reps_canonical_and_covering():
    F = make_field(3, 1)
    reps = enumerate_subspace_reps(F, 3)
    # leftmost nonzero coordinate is 1
    for r in reps:
        nz = next(i for i, x in enumerate(r) if x)
        assert r[nz] == 1
    # pairwise non-proportional, scalar multiples + zero cover the space
    seen = {(0, 0, 0)}
    for r in reps:
        for lam in range(1, 3):
            v = tuple(F.mul(lam, x) for x in r)
            assert v not in seen
            seen.add(v)
    assert len(seen) == 27


def test_subfield_embedding_gf2_gf8():
    sub = make_field(2, 1)
    big = make_field(2, 3)
    emb = subfield_embedding(sub, big)
    assert emb[0] == 0 and emb[1] == 1


def test_subfield_embedding_gf4_gf16():
    sub = make_field(2, 2)
    big = make_field(2, 4)
    emb = subfield_embedding(sub, big)
    for a in range(4):
        for b in range(4):
            assert emb[sub.add(a, b)] == big.add(emb[a], emb[b])
            assert emb[sub.mul(a, b)] == big.mul(emb[a], emb[b])
    assert len(set(emb.values())) == 4


# (p, e) -> the lexicographically least monic irreducible, low to high
LEAST_IRREDUCIBLE = {
    (2, 13): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1),
    (2, 15): (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1),
    (2, 16): (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1),
    (3, 9): (1, 0, 0, 0, 0, 0, 2, 1, 0, 1),
    (3, 10): (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1),
    (13, 4): (1, 0, 0, 1, 1),
    (251, 2): (1, 0, 1),
}


@pytest.mark.parametrize("p,e", sorted(LEAST_IRREDUCIBLE))
def test_least_irreducible_moduli_pinned(p, e):
    assert _least_irreducible(p, e) == LEAST_IRREDUCIBLE[(p, e)]


def _monic(p: int, e: int):
    return [low + (1,) for low in itertools.product(range(p), repeat=e)]


def _mobius(n: int) -> int:
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("p,top", [(2, 10), (3, 6), (5, 4), (7, 3)])
def test_irreducibility_against_a_product_sieve(p, top):
    """Every monic polynomial of degree 1..top: the verdict equals "not a
    product of two monic polynomials of lower degree", and the irreducible
    count of each degree is Gauss's (1/e) sum_{d | e} mu(d) p^(e/d)."""
    for e in range(1, top + 1):
        reducible = set()
        for d in range(1, e // 2 + 1):
            for f in _monic(p, d):
                for g in _monic(p, e - d):
                    prod = [0] * (e + 1)
                    for i, x in enumerate(f):
                        for j, y in enumerate(g):
                            prod[i + j] = (prod[i + j] + x * y) % p
                    reducible.add(tuple(prod))
        verdicts = {f: _poly_is_irreducible(f, p) for f in _monic(p, e)}
        assert all(verdicts[f] == (f not in reducible) for f in verdicts)
        gauss = sum(_mobius(d) * p ** (e // d) for d in range(1, e + 1) if e % d == 0) // e
        assert sum(verdicts.values()) == gauss
