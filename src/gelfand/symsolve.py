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

The brute-force oracle returns the first invertible solution in canonical
order (upper-triangle entries, row-major, least index first), for every
field and size under ORACLE_SEARCH_CAP by one path.  The symmetric matrices
are decoded from their upper-triangle codes as one uint8 batch and kept
when one batched fraction-free elimination through the field's add and mul
tables reaches rank n; that stock is built once per (field, n).  A call
then forms B*phi for the whole stock, column by column through the same
tables, and takes the first B whose image is v.  The oracle shares nothing
with the solver path: no ``_eliminate``, ``MatFq.det`` or ``inverse_flat``.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import CapExceededError, DomainError, InternalCheckError
from .field import Fq
from .groups import decode
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

def _full_rank(mats: np.ndarray, field: Fq) -> np.ndarray:
    """Indices of the matrices of a (count, n, n) uint8 batch that have rank
    n, by one batched elimination through the field's add and mul tables.
    Each step takes the first row with a nonzero leading entry as the pivot
    row and replaces every other row by pivot*row - entry*pivot_row, which
    needs no inverse; the pivot row and the leading column then drop out.
    A matrix leaves the batch at its first step with no pivot."""
    add, mul = field.arrays()
    minus = mul[field.neg(1)]
    kept = np.arange(len(mats))
    work = mats
    for _ in range(mats.shape[1]):
        nonzero = work[:, :, 0] != 0
        has = nonzero.any(1)
        kept, work, nonzero = kept[has], work[has], nonzero[has]
        at = np.arange(len(work)), nonzero.argmax(1)
        pivot_row = work[at]
        work[at] = work[:, 0]  # the other rows are now work[:, 1:]
        rest = work[:, 1:]
        work = add[mul[pivot_row[:, None, :1], rest[:, :, 1:]],
                   mul[minus[rest[:, :, :1]], pivot_row[:, None, 1:]]]
    return kept


@functools.lru_cache(maxsize=None)
def _symmetric_stock(field: Fq, n: int) -> np.ndarray:
    """The invertible symmetric n x n matrices in canonical order, as a
    (count, n, n) uint8 array: the upper triangles, row-major, are the
    base-q digits of 0, 1, ..., q^(n(n+1)/2) - 1."""
    q, tri = field.q, n * (n + 1) // 2
    upper = decode(np.arange(q ** tri), tri, q)
    rows, cols = np.triu_indices(n)
    mats = np.empty((len(upper), n, n), dtype=np.uint8)
    mats[:, rows, cols] = upper
    mats[:, cols, rows] = upper
    stock = mats[_full_rank(mats, field)]
    stock.flags.writeable = False  # the cache hands it to every call
    return stock


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
    stock = _symmetric_stock(field, n)
    add, mul = field.arrays()
    image = mul[phi[0]].take(stock[:, :, 0])
    for j in range(1, n):
        image = add[image, mul[phi[j]].take(stock[:, :, j])]
    hits = (image == np.array(v, dtype=np.uint8)).all(1)
    if not hits.any():
        return None
    return MatFq(field, n, n, stock[hits.argmax()].ravel().tolist())
