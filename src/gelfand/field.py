"""Exact arithmetic in GF(q) for q = p^e.

A field element is a canonical index in [0, q): index a encodes the
polynomial sum(c_i * x^i) where (c_0, c_1, ...) are the base-p digits of a.
Index 0 is the additive identity, index 1 the multiplicative identity, and
for prime fields the index is just the residue itself.

All operations go through dense lookup tables (q^2 entries for add/mul)
built once at construction, so hot loops elsewhere in the package are flat
list indexing instead of polynomial arithmetic.  The batched matrix kernel
reads the same tables as (q, q) uint8 arrays, built on first use by
``arrays()``.  A field object is immutable after construction and safe to
share between workers.

The modulus for e >= 2 is the monic irreducible polynomial of degree e
whose coefficient encoding (same base-p digit convention as elements) is
least; this is deterministic and needs no external polynomial tables.
"""

from __future__ import annotations

import functools
from itertools import product

import numpy as np

from .errors import CapExceededError, DomainError

# Elements are plain ints (canonical indices); this alias marks intent.
Scalar = int

DEFAULT_MAX_Q = 25


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num / den over F_p; den must be monic."""
    num = list(num)
    dd = len(den) - 1
    while len(num) - 1 >= dd and any(num):
        shift = len(num) - 1 - dd
        lead = num[-1]
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - lead * c) % p
        _poly_trim(num)
        if not num:
            break
    return num


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1 .. deg/2."""
    e = len(poly) - 1
    for d in range(1, e // 2 + 1):
        for tail in product(range(p), repeat=d):
            den = list(tail) + [1]
            if not _poly_mod(poly, den, p):
                return False
    return True


class Fq:
    """GF(p^e) with dense add/mul/neg/inv tables over canonical indices."""

    __slots__ = ("p", "e", "q", "modulus", "_add", "_mul", "_neg", "_inv",
                 "_generator", "_arrays")

    def __init__(self, p: int, e: int, max_q: int = DEFAULT_MAX_Q):
        if not is_prime(p):
            raise DomainError(f"p = {p} is not prime")
        if e < 1:
            raise DomainError(f"extension degree must be >= 1, got {e}")
        q = p ** e
        if q > max_q:
            raise CapExceededError(f"q = {q} exceeds size cap {max_q}")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = self._select_modulus() if e > 1 else ()
        self._build_tables()
        self._generator = None
        self._arrays = None

    def _select_modulus(self) -> tuple[int, ...]:
        p, e = self.p, self.e
        # candidates ordered by their index encoding; first irreducible wins
        for idx in range(p ** e):
            low = self._digits(idx)
            poly = list(low) + [1]
            if poly[0] != 0 and _is_irreducible(poly, p):
                return tuple(poly)
        raise AssertionError(  # pragma: no cover - irreducibles always exist
            f"no irreducible polynomial of degree {e} over F_{p}")

    def _digits(self, idx: int) -> list[int]:
        d = []
        for _ in range(self.e):
            idx, r = divmod(idx, self.p)
            d.append(r)
        return d

    def _index(self, digits: list[int]) -> int:
        idx = 0
        for c in reversed(digits):
            idx = idx * self.p + c
        return idx

    def _build_tables(self):
        p, e, q = self.p, self.e, self.q
        if e == 1:
            self._add = [(a + b) % p for a in range(q) for b in range(q)]
            self._mul = [(a * b) % p for a in range(q) for b in range(q)]
            self._neg = [(-a) % p for a in range(q)]
        else:
            mod = list(self.modulus)
            dig = [self._digits(a) for a in range(q)]
            add = []
            mul = []
            for a in range(q):
                for b in range(q):
                    add.append(self._index(
                        [(x + y) % p for x, y in zip(dig[a], dig[b])]))
                    prod = [0] * (2 * e - 1)
                    for i, x in enumerate(dig[a]):
                        if x:
                            for j, y in enumerate(dig[b]):
                                prod[i + j] = (prod[i + j] + x * y) % p
                    rem = _poly_mod(prod, mod, p)
                    rem += [0] * (e - len(rem))
                    mul.append(self._index(rem))
            self._add = add
            self._mul = mul
            self._neg = [self._index([(-c) % p for c in dig[a]])
                         for a in range(q)]
        # Fermat: a^(q-2) inverts a for a != 0
        self._inv = [0] + [self.pow(a, q - 2) for a in range(1, q)]
        for a in range(1, q):
            assert self._mul[a * q + self._inv[a]] == 1

    # -- scalar operations --------------------------------------------------

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return self._add[a * self.q + b]

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return self._add[a * self.q + self._neg[b]]

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return self._mul[a * self.q + b]

    def neg(self, a: Scalar) -> Scalar:
        return self._neg[a]

    def inv(self, a: Scalar) -> Scalar:
        if a == 0:
            raise DomainError("0 has no multiplicative inverse")
        return self._inv[a]

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    def pow(self, a: Scalar, n: int) -> Scalar:
        if n == 0:
            return 1
        acc = 1
        base = a
        while n:
            if n & 1:
                acc = self._mul[acc * self.q + base]
            base = self._mul[base * self.q + base]
            n >>= 1
        return acc

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The add and mul tables as (q, q) uint8 arrays, built on first use."""
        if self._arrays is None:
            q = self.q
            self._arrays = tuple(np.array(t, dtype=np.uint8).reshape(q, q)
                                 for t in (self._add, self._mul))
        return self._arrays

    def elements(self) -> range:
        return range(self.q)

    def generator(self) -> Scalar:
        """Smallest index generating the multiplicative group (by exhaustion)."""
        if self._generator is None:
            target = self.q - 1
            for g in range(1, self.q):
                seen = set()
                x = 1
                for _ in range(target):
                    x = self.mul(x, g)
                    seen.add(x)
                if len(seen) == target:
                    self._generator = g
                    break
            else:  # pragma: no cover - F_q^* is always cyclic
                raise AssertionError("no multiplicative generator found")
        return self._generator

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Fq)
                and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus))

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"Fq({self.q})" if self.e == 1 else f"Fq({self.p}^{self.e})"


@functools.lru_cache(maxsize=None)
def build_field(p: int, e: int, max_q: int = DEFAULT_MAX_Q) -> Fq:
    """Construct (and cache) GF(p^e)."""
    return Fq(p, e, max_q=max_q)


def field_from_q(q: int, max_q: int = DEFAULT_MAX_Q) -> Fq:
    """Factor q = p^e and build the field; q must be a prime power."""
    if q < 2:
        raise DomainError(f"q = {q} is not a prime power")
    p = 2
    while q % p:
        p += 1
    e = 0
    rest = q
    while rest % p == 0:
        rest //= p
        e += 1
    if rest != 1:
        raise DomainError(f"q = {q} is not a prime power")
    return build_field(p, e, max_q=max_q)
