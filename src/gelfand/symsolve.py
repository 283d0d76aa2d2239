"""Constructive solver: a symmetric invertible B over GF(q) with B*phi = v.

The recursion peels off the first coordinate.  Writing phi = (b1, phi1),
v = (a1, v1) and B = [[c, r1^T], [r1, A]], the constraints are

    c*b1 + <r1, phi1> = a1        b1*r1 + A*phi1 = v1

and the cases are dispatched in a fixed priority order:

  1. n = 1: B = [a1/b1].
  2. phi1 = 0 (so b1 != 0): c and r1 are forced; A is free, taken as the
     identity when r1 = 0, otherwise the identity with the diagonal slot
     paired to the first nonzero coordinate of r1 zeroed (which keeps the
     assembled matrix invertible for every field).
  3. v1 = 0, or a1 = 0 with b1 != 0: solve the swapped instance (v, phi)
     and invert the result (the swapped instance is case 2 or 4).
  4. b1 = 0 (phi1, v1 != 0): recurse for A*phi1 = v1; r1 only needs
     <r1, phi1> = a1 (supported on the first nonzero coordinate of phi1)
     and c is 0 or 1, whichever makes B invertible.
  5. everything nonzero: c = a1/b1, r1 = 0, recurse for A*phi1 = v1.

A failure of both c candidates in case 4 would contradict the construction
and aborts with a counterexample report instead of falling back silently.
Every returned matrix is re-checked for symmetry, invertibility and
B*phi = v before it leaves this module.

The brute-force oracle enumerates all symmetric matrices in canonical
order (upper-triangle entries, row-major, least index first) and returns
the first invertible solution; it shares nothing with the solver path.
"""

from __future__ import annotations

import functools
from itertools import product

import numpy as np

from .errors import CapExceededError, DomainError, InternalCheckError
from .field import Fq
from .matrix import MatFq, inverse_flat, mat_vec

ORACLE_SEARCH_CAP = 15_625


def _check_solution(field: Fq, phi: tuple, v: tuple, flat: tuple, n: int):
    m = MatFq(field, n, n, flat)
    if not m.is_symmetric():
        raise InternalCheckError(f"solver produced a non-symmetric matrix {flat}")
    if m.det() == 0:
        raise InternalCheckError(f"solver produced a singular matrix {flat}")
    if mat_vec(m, phi) != v:
        raise InternalCheckError(
            f"solver output does not map {phi} to {v}: {flat}")
    return m


def _solve(field: Fq, phi: tuple, v: tuple) -> list[list[int]]:
    n = len(phi)
    b1, phi1 = phi[0], phi[1:]
    a1, v1 = v[0], v[1:]

    if n == 1:
        return [[field.div(a1, b1)]]

    if not any(phi1):
        # b1 != 0; c and r1 forced, A chosen to keep B invertible
        c = field.div(a1, b1)
        r1 = tuple(field.div(x, b1) for x in v1)
        rows = [[c] + list(r1)]
        if any(r1):
            j0 = next(i for i, x in enumerate(r1) if x)
        else:
            j0 = None  # a1 != 0 here, plain identity block works
        for i in range(n - 1):
            arow = [1 if (i == j and i != j0) else 0 for j in range(n - 1)]
            rows.append([r1[i]] + arow)
        return rows

    if not any(v1) or (a1 == 0 and b1 != 0):
        # B^-1 v = phi: solve the swapped instance and invert
        swapped = _solve(field, v, phi)
        flat = tuple(x for row in swapped for x in row)
        inv = inverse_flat(flat, n, field)
        return [list(inv[i * n:(i + 1) * n]) for i in range(n)]

    if b1 == 0:
        a_block = _solve(field, phi1, v1)
        j0 = next(i for i, x in enumerate(phi1) if x)
        r1 = [0] * (n - 1)
        r1[j0] = field.div(a1, phi1[j0])
        for c in (0, 1):
            rows = [[c] + r1]
            for i in range(n - 1):
                rows.append([r1[i]] + a_block[i])
            m = MatFq.from_rows(field, rows)
            if m.det() != 0:
                return rows
        raise InternalCheckError(
            "both corner candidates 0 and 1 give a singular matrix for "
            f"phi={phi}, v={v} over F_{field.q}; this falsifies the "
            "construction and must be reported")

    a_block = _solve(field, phi1, v1)
    c = field.div(a1, b1)
    rows = [[c] + [0] * (n - 1)]
    for i in range(n - 1):
        rows.append([0] + a_block[i])
    return rows


def solve_symmetric(field: Fq, phi: tuple, v: tuple) -> MatFq:
    """Symmetric invertible B with B*phi = v, for nonzero phi and v."""
    phi = tuple(phi)
    v = tuple(v)
    if len(phi) != len(v) or not phi:
        raise DomainError("phi and v must be nonempty vectors of equal length")
    if not any(phi) or not any(v):
        raise DomainError("phi and v must both be nonzero")
    rows = _solve(field, phi, v)
    flat = tuple(x for row in rows for x in row)
    return _check_solution(field, phi, v, flat, len(phi))


# -- independent exhaustive oracle ---------------------------------------------

@functools.lru_cache(maxsize=None)
def _symmetric_stock(field: Fq, n: int):
    """All symmetric n x n matrices in canonical order, with their dets.

    For prime fields the stack and determinants are precomputed as numpy
    arrays so the per-instance scan is a few vector operations.
    """
    q = field.q
    tri = n * (n + 1) // 2
    flats = []
    for upper in product(range(q), repeat=tri):
        it = iter(upper)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = next(it)
        flats.append(tuple(x for row in m for x in row))
    if field.e == 1:
        mats = np.array(flats, dtype=np.int64).reshape(len(flats), n, n)
        if n == 1:
            dets = mats[:, 0, 0] % q
        elif n == 2:
            dets = (mats[:, 0, 0] * mats[:, 1, 1]
                    - mats[:, 0, 1] * mats[:, 1, 0]) % q
        elif n == 3:
            a = mats
            dets = (a[:, 0, 0] * (a[:, 1, 1] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 1])
                    - a[:, 0, 1] * (a[:, 1, 0] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 0])
                    + a[:, 0, 2] * (a[:, 1, 0] * a[:, 2, 1] - a[:, 1, 1] * a[:, 2, 0])
                    ) % q
        else:
            dets = np.array([MatFq(field, n, n, fl).det() for fl in flats],
                            dtype=np.int64)
        return flats, mats, dets
    dets = np.array([MatFq(field, n, n, fl).det() for fl in flats],
                    dtype=np.int64)
    return flats, None, dets


def oracle_symmetric(field: Fq, phi: tuple, v: tuple) -> MatFq | None:
    """First (canonical order) symmetric invertible B with B*phi = v."""
    phi = tuple(phi)
    v = tuple(v)
    n = len(phi)
    if len(v) != n or not phi:
        raise DomainError("phi and v must be nonempty vectors of equal length")
    if not any(phi) or not any(v):
        raise DomainError("phi and v must both be nonzero")
    if field.q ** (n * (n + 1) // 2) > ORACLE_SEARCH_CAP:
        raise CapExceededError(
            f"oracle search space q^(n(n+1)/2) exceeds {ORACLE_SEARCH_CAP}")
    flats, mats, dets = _symmetric_stock(field, n)
    if mats is not None:
        prod_ok = (mats @ np.array(phi, dtype=np.int64)) % field.q
        hits = np.nonzero((prod_ok == np.array(v)).all(axis=1) & (dets != 0))[0]
        if hits.size == 0:
            return None
        return MatFq(field, n, n, flats[int(hits[0])])
    for fl, det in zip(flats, dets):
        if det == 0:
            continue
        m = MatFq(field, n, n, fl)
        if mat_vec(m, phi) == v:
            return m
    return None
