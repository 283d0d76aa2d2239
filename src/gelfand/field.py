"""Exact arithmetic in GF(q) for q = p^e.

A field element is a canonical index in [0, q): index a encodes the
polynomial sum(c_i * x^i) where (c_0, c_1, ...) are the base-p digits of a.
Index 0 is the additive identity, index 1 the multiplicative identity, and
for prime fields the index is just the residue itself.

All operations go through dense lookup tables, built once at construction by
one array expression for every q: add is the digit-wise sum mod p, mul the
digit convolution reduced by the monic modulus (for e = 1 there is nothing
to reduce).  The batched matrix kernel reads the tables as (q, q) uint8
arrays, scalar code as flat lists; neg and inv are read off them.  A field
object is immutable after construction and safe to share between workers.

The modulus for e >= 2 is the monic polynomial of degree e whose coefficient
encoding (same base-p digit convention as elements) is least among those
whose quotient ring F_p[x]/(f) has no zero divisor.  That ring is a field
exactly when f is irreducible, so the multiplication table that has to be
built anyway decides irreducibility; the same check guards every q.
"""

from __future__ import annotations

import functools

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


def _tables(p: int, e: int) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """(modulus, add, mul) of GF(p^e); the tables are (q, q) uint8 arrays.

    Each monic candidate x^e + low, least encoding first, reduces the digit
    convolution from degree 2e - 2 down; the first whose products of nonzero
    elements are all nonzero gives a field."""
    q = p ** e
    place = p ** np.arange(e)
    digits = np.arange(q)[:, None] // place % p
    add = (digits[:, None] + digits) % p @ place
    conv = np.zeros((q, q, 2 * e - 1), dtype=np.int64)
    for i in range(e):
        conv[:, :, i:i + e] += digits[:, None, i, None] * digits
    for low in digits:
        rem = conv.copy()
        for k in range(2 * e - 2, e - 1, -1):
            rem[..., k - e:k] -= rem[..., k, None] * low
        mul = rem[..., :e] % p @ place
        if mul[1:, 1:].all():
            modulus = tuple(low.tolist()) + (1,) if e > 1 else ()
            return modulus, add.astype(np.uint8), mul.astype(np.uint8)
    raise AssertionError(  # pragma: no cover - irreducibles always exist
        f"no irreducible polynomial of degree {e} over F_{p}")


class Fq:
    """GF(p^e) with dense add/mul/neg/inv tables over canonical indices."""

    __slots__ = ("p", "e", "q", "modulus", "_tables", "_add", "_mul", "_neg",
                 "_inv", "_generator")

    def __init__(self, p: int, e: int):
        if e < 1:
            raise DomainError(f"extension degree must be >= 1, got {e}")
        # p^e > cap once p >= 2 and 2^e > cap: refuse before taking the power
        if p >= 2 and e >= DEFAULT_MAX_Q.bit_length():
            raise CapExceededError(
                f"q = {p}^{e} exceeds size cap {DEFAULT_MAX_Q}")
        q = p ** e
        if q > DEFAULT_MAX_Q:  # before trial division, which a large p stalls
            raise CapExceededError(f"q = {q} exceeds size cap {DEFAULT_MAX_Q}")
        if not is_prime(p):
            raise DomainError(f"p = {p} is not prime")
        self.p = p
        self.e = e
        self.q = q
        self.modulus, add, mul = _tables(p, e)
        self._tables = (add, mul)
        self._add = add.ravel().tolist()
        self._mul = mul.ravel().tolist()
        # each row of add holds one 0, each nonzero row of mul one 1; row 0
        # of mul has none, so inv[0] reads 0
        self._neg = (add == 0).argmax(axis=1).tolist()
        self._inv = (mul == 1).argmax(axis=1).tolist()
        self._generator = None

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

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The add and mul tables as (q, q) uint8 arrays."""
        return self._tables

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
def build_field(p: int, e: int) -> Fq:
    """Construct (and cache) GF(p^e)."""
    return Fq(p, e)


def field_from_q(q: int) -> Fq:
    """Factor q = p^e and build the field; q must be a prime power."""
    if q < 2:
        raise DomainError(f"q = {q} is not a prime power")
    if q > DEFAULT_MAX_Q:  # before trial division, which a large q stalls
        raise CapExceededError(f"q = {q} exceeds size cap {DEFAULT_MAX_Q}")
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
    return build_field(p, e)
