"""Arithmetic in GF(p^e) via log/antilog tables.

Elements are integers in [0, q) encoding polynomial coefficients base p
(element ``sum a_i x^i`` is ``sum a_i p^i``), reduced modulo a fixed monic
irreducible polynomial.  The modulus per (p, e) is taken from a table of
standard (Conway) polynomials for the small fields the geometry constructions
use, falling back to the lexicographically least monic irreducible otherwise;
both choices are deterministic, so point orderings are reproducible across
runs.  Construction verifies irreducibility and generator order, so a wrong
table entry cannot pass silently.

GF(p^e) embeds in GF(p^E) (e | E) as the power map a = g^k -> x^k of the
least x that passes one exact test: x^(p^e - 1) = 1 and phi(a + 1) =
phi(a) + 1 for every a (see ``subfield_embedding``).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Sequence

import numpy as np

FIELD_ORDER_CAP = 1 << 16

# Modulus coefficients low-to-high, degree e monic (leading 1 included).
# Standard small-field choices; anything absent falls back to the
# lexicographically least irreducible.
_CONWAY = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 1): (3, 1),
    (5, 2): (2, 4, 1),
    (7, 1): (4, 1),
    (7, 2): (3, 6, 1),
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_mul_mod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> tuple[int, ...]:
    e = len(mod) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
    for d in range(len(prod) - 1, e - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for k in range(e):
                prod[d - e + k] = (prod[d - e + k] - c * mod[k]) % p
    out = prod[:e]
    out += [0] * (e - len(out))
    return tuple(out)


def _poly_is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Irreducibility of a monic polynomial over GF(p) by trial division: f
    of degree e is irreducible iff no monic g of degree 1..e/2 divides it."""
    e = len(coeffs) - 1
    for d in range(1, e // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            if not any(_poly_mul_mod(coeffs, (1,), low + (1,), p)):  # f mod g
                return False
    return True


def _least_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree e over GF(p)."""
    if e == 1:
        return (0, 1)
    for low in itertools.product(range(p), repeat=e):
        coeffs = tuple(low) + (1,)
        if coeffs[0] == 0:
            continue  # reducible: divisible by x
        if _poly_is_irreducible(coeffs, p):
            return coeffs
    raise RuntimeError(f"no irreducible polynomial found for GF({p}^{e})")


class FiniteField:
    """GF(p^e) with log/antilog multiplication tables."""

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus
        self._build_tables()

    def _build_tables(self):
        p, e, q = self.p, self.e, self.q

        def enc(t: Sequence[int]) -> int:
            v = 0
            for c in reversed(t):
                v = v * p + c
            return v

        def dec(v: int) -> tuple[int, ...]:
            out = []
            for _ in range(e):
                out.append(v % p)
                v //= p
            return tuple(out)

        self._enc, self._dec = enc, dec
        # multiplication via discrete logs: find a generator of the cyclic group
        fac = []
        n = q - 1
        d = 2
        while d * d <= n:
            if n % d == 0:
                fac.append(d)
                while n % d == 0:
                    n //= d
            d += 1
        if n > 1:
            fac.append(n)

        def mul_poly(a: int, b: int) -> int:
            return enc(_poly_mul_mod(dec(a), dec(b), self.modulus, p))

        # the least generator: g^((q-1)/f) != 1 for every prime factor f of q - 1
        gen = next((g for g in range(1, q)
                    if all(pow_mul(mul_poly, g, (q - 1) // f) != 1 for f in fac)), None)
        if gen is None:
            raise RuntimeError("no multiplicative generator found; modulus not irreducible?")
        self.generator = gen
        exp = [1] * (q - 1)
        cur = 1
        for i in range(1, q - 1):
            cur = mul_poly(cur, gen)
            exp[i] = cur
        if len(set(exp)) != q - 1:
            raise RuntimeError(f"generator order check failed for GF({self.p}^{self.e})")
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        self._exp, self._log = exp, log
        self._add_table = None

    def _addition(self) -> np.ndarray:
        """The q x q addition table, read-only, in the smallest unsigned dtype
        that holds q - 1; built on first use, by XOR for p = 2 and otherwise
        from base-p digit sums mod p, taken in a dtype that holds 2p - 2."""
        if self._add_table is None:
            p, q = self.p, self.q
            x = np.arange(q, dtype=np.min_scalar_type(max(q - 1, 2 * p - 2)))
            digits = (x // p**k % p for k in range(self.e))
            table = np.bitwise_xor.outer(x, x) if p == 2 else sum(
                np.add.outer(d, d) % p * p**k for k, d in enumerate(digits))
            self._add_table = table.astype(np.min_scalar_type(q - 1), copy=False)
            self._add_table.setflags(write=False)
        return self._add_table

    # --- arithmetic -------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.q <= 4096:
            return self._addition().item(a, b)
        return self._enc(tuple((x + y) % self.p for x, y in zip(self._dec(a), self._dec(b))))

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        return self._enc(tuple((-x) % self.p for x in self._dec(a)))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            return 0 if n else 1
        return self._exp[(self._log[a] * n) % (self.q - 1)]

    def elements(self) -> range:
        return range(self.q)

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Addition and multiplication of GF(q) as q x q arrays in the
        smallest unsigned dtype that holds q - 1 (uint8 up to q = 256); the
        addition table is the field's own, read-only."""
        log, exp = np.array(self._log), np.array(self._exp)
        mul = exp[(log[:, None] + log) % (self.q - 1)]
        mul[0, :] = mul[:, 0] = 0
        return self._addition(), mul.astype(np.min_scalar_type(self.q - 1))

    def __repr__(self):
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"

    # --- vectors ------------------------------------------------------------
    def normalize_projective(self, u: Sequence[int]) -> tuple[int, ...]:
        """Scale so the first nonzero coordinate is 1 (canonical representative)."""
        nz = next((i for i, x in enumerate(u) if x), None)
        if nz is None:
            raise ValueError("zero vector has no projective representative")
        inv = self.inv(u[nz])
        return tuple(self.mul(inv, x) for x in u)


def pow_mul(mul, a: int, n: int) -> int:
    out = 1
    base = a
    while n:
        if n & 1:
            out = mul(out, base)
        base = mul(base, base)
        n >>= 1
    return out


@lru_cache(maxsize=None)
def make_field(p: int, e: int) -> FiniteField:
    """Construct GF(p^e) with the fixed documented modulus.

    Deterministic: same (p, e) gives the same element ordering in every run.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e < 1:
        raise ValueError("extension degree must be >= 1")
    if p**e > FIELD_ORDER_CAP:
        raise ValueError(f"field order {p**e} exceeds cap {FIELD_ORDER_CAP}")
    modulus = _CONWAY.get((p, e))
    if modulus is None:
        modulus = _least_irreducible(p, e)
    if not _poly_is_irreducible(modulus, p):
        raise RuntimeError(f"modulus table entry for GF({p}^{e}) is not irreducible")
    return FiniteField(p, e, tuple(modulus))


def field_for_order(q: int) -> FiniteField:
    """GF(q) for a prime power q."""
    p = None
    for cand in range(2, q + 1):
        if q % cand == 0:
            p = cand
            break
    if p is None or not is_prime(p):
        raise ValueError(f"{q} is not a prime power")
    e = 0
    n = q
    while n % p == 0:
        n //= p
        e += 1
    if n != 1:
        raise ValueError(f"{q} is not a prime power")
    return make_field(p, e)


def enumerate_subspace_reps(field: FiniteField, dim_ambient: int) -> list[tuple[int, ...]]:
    """Canonical representatives of the 1-dim subspaces of F_q^dim_ambient.

    One vector per projective point, normalized so the leftmost nonzero
    coordinate equals 1; listed in lexicographic order of the coordinate
    tuples (with field elements in table order).  Count is
    (q^dim_ambient - 1) / (q - 1).
    """
    if dim_ambient < 1:
        raise ValueError("ambient dimension must be >= 1")
    q = field.q
    reps: list[tuple[int, ...]] = []
    for lead in range(dim_ambient):
        # vectors (0,...,0,1,*,...,*) with the 1 at position `lead`
        for tail in itertools.product(range(q), repeat=dim_ambient - lead - 1):
            reps.append((0,) * lead + (1,) + tail)
    assert len(reps) == (q**dim_ambient - 1) // (q - 1)
    return reps


def subfield_embedding(sub: FiniteField, big: FiniteField) -> dict[int, int]:
    """The embedding phi: GF(p^e) -> GF(p^E) (same p, e | E), as a map from
    each element of ``sub`` to its image.

    With g = ``sub.generator`` and q = p^e, phi(a) = x^(log_g a) and
    phi(0) = 0, for the least x of ``big`` in element order that passes two
    checks: x^(q-1) = 1, so that the power map is well defined and
    multiplicative, and phi(a + 1) = phi(a) + 1 for every a.  Together they
    are exact: for b != 0, phi(a + b) = phi(b) phi(a/b + 1) = phi(a) + phi(b),
    so phi is a field embedding and x = phi(g) is a root of g's minimal
    polynomial.  Every root passes, so x is the least root.
    """
    if sub.p != big.p or big.e % sub.e:
        raise ValueError("no embedding: need same characteristic and e | E")
    for x in big.elements():
        if big.pow(x, sub.q - 1) == 1:
            phi = {0: 0, **{a: big.pow(x, sub._log[a]) for a in range(1, sub.q)}}
            if all(phi[sub.add(a, 1)] == big.add(phi[a], 1) for a in sub.elements()):
                return phi
    raise RuntimeError(f"no embedding of {sub} into {big} found")
