"""Constructive solver: a symmetric invertible B over GF(q) with B*phi = v.

For nonzero phi and v, let c = v^T phi and let j be the first index with
v_j != 0.  B is one closed form in two cases:

  c != 0:  B = v v^T / c + sum_{i != j} w_i w_i^T,
           w_i = e_i - (phi_i / c) v;
  c == 0:  B = (e_m v^T + v e_m^T) / phi_m + sum_{i not in {j, m}} w_i w_i^T,
           w_i = e_i - (phi_i / phi_m) e_m,

where m is the first index other than j with phi_m != 0.  Such an m exists
when c == 0, since phi = phi_j e_j would give c = v_j phi_j != 0.  The
second sum may as well run over i != j, as w_m = 0.

Every w_i is orthogonal to phi, so B*phi = v (v^T phi / c) = v in the first
case and B*phi = (e_m c + v phi_m) / phi_m = v in the second.  Every term
is symmetric, so B is.  B = M K M^T, where M has the columns
(v, w_i for i != j) and K = diag(1/c, 1, ..., 1) in the first case, and the
columns (e_m / phi_m, v, w_i for i not in {j, m}) with K a hyperbolic plane
[[0, 1], [1, 0]] plus the identity in the second.  The span of M's columns
holds v and every e_i other than e_j, and v_j != 0, so M is invertible, and
so is K.  Hence B is invertible in every characteristic, 2 included.
Every returned matrix is still re-checked for symmetry, invertibility and
B*phi = v before it leaves this module.

The brute-force oracle returns the first invertible solution in canonical
order (upper-triangle entries, row-major, least index first), for every
field and size under ORACLE_SEARCH_CAP by one path.  The symmetric matrices
are decoded from their upper-triangle codes as one uint8 batch and kept
when one batched fraction-free elimination through the field's add and mul
tables reaches rank n; that stock is built once per (field, n) and stored
as the base-q codes of its rows, one contiguous array per row index.
Coordinate i of B*phi depends only on row i of B, so a call folds phi once
over the q^n row vectors, dots[r] = r*phi, and then narrows the stock one
coordinate at a time by gathers through dots: coordinate 0 over the whole
stock, each later one only over the ascending indices still matching v.
The first survivor is returned; no survivor raises InternalCheckError.
The oracle shares nothing with the solver beyond the input check: no
``_eliminate`` or ``MatFq.det``.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import CapExceededError, DomainError, InternalCheckError
from .field import Fq
from .groups import decode, encode
from .matrix import MatFq, _inner, mat_vec, vec_dot

ORACLE_SEARCH_CAP = 15_625


def _check_input(field: Fq, phi, v) -> tuple[tuple, tuple]:
    phi = tuple(phi)
    v = tuple(v)
    if len(phi) != len(v) or not phi:
        raise DomainError("phi and v must be nonempty vectors of equal length")
    for x in phi + v:
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
            raise DomainError(f"entry {x!r} is not an integer")
        if not 0 <= x < field.q:
            raise DomainError(f"entry {x} not a valid index for {field!r}")
    if not any(phi) or not any(v):
        raise DomainError("phi and v must both be nonzero")
    # Fq's scalar ops index by a*q + b, which wraps in a numpy uint8
    return tuple(map(int, phi)), tuple(map(int, v))


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
    add, mul, div = field.add, field.mul, field.div
    j = next(i for i, x in enumerate(v) if x)
    c = vec_dot(field, v, phi)
    if c:
        b = [[div(mul(x, y), c) for y in v] for x in v]
        pivot, scale = v, c
    else:
        m = next(i for i, x in enumerate(phi) if x and i != j)
        b = [[0] * n for _ in range(n)]
        for i in range(n):
            b[i][m] = b[m][i] = div(v[i], phi[m])
        b[m][m] = div(add(v[m], v[m]), phi[m])
        pivot, scale = [int(i == m) for i in range(n)], phi[m]
    for i in range(n):
        if i == j:
            continue  # w_m is 0 in the second case
        t = field.neg(div(phi[i], scale))
        w = [add(int(k == i), mul(t, pivot[k])) for k in range(n)]
        for r in range(n):
            b[r] = [add(b[r][s], mul(w[r], w[s])) for s in range(n)]
    return b


def solve_symmetric(field: Fq, phi: tuple, v: tuple) -> MatFq:
    """Symmetric invertible B with B*phi = v, for nonzero phi and v."""
    phi, v = _check_input(field, phi, v)
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
    """The invertible symmetric n x n matrices in canonical order, as an
    (n, count) array whose [i] is the base-q code of row i of every matrix:
    the upper triangles, row-major, are the base-q digits of 0, 1, ...,
    q^(n(n+1)/2) - 1."""
    q, tri = field.q, n * (n + 1) // 2
    upper = decode(np.arange(q ** tri), tri, q)
    rows, cols = np.triu_indices(n)
    mats = np.empty((len(upper), n, n), dtype=np.uint8)
    mats[:, rows, cols] = upper
    mats[:, cols, rows] = upper
    kept = mats[_full_rank(mats, field)]
    stock = np.array([encode(kept[:, i], q) for i in range(n)],
                     dtype=np.min_scalar_type(q ** n - 1))
    stock.flags.writeable = False  # the cache hands it to every call
    return stock


@functools.lru_cache(maxsize=None)
def _row_vectors(field: Fq, n: int) -> np.ndarray:
    """The q^n row vectors of length n, row r holding the digits of code r."""
    return decode(np.arange(field.q ** n), n, field.q)


def oracle_symmetric(field: Fq, phi: tuple, v: tuple) -> MatFq:
    """First (canonical order) symmetric invertible B with B*phi = v.

    Coordinate i of B*phi is r*phi for row i of B, so one fold of phi over
    the q^n row vectors answers every row.  Coordinate 0 is then looked up
    over the whole stock; each later coordinate only over the ascending
    stock indices that matched v so far.  The module docstring proves a
    solution exists for nonzero phi and v, so an empty candidate set is an
    internal error."""
    phi, v = _check_input(field, phi, v)
    n = len(phi)
    if field.q ** (n * (n + 1) // 2) > ORACLE_SEARCH_CAP:
        raise CapExceededError(
            f"oracle search space q^(n(n+1)/2) exceeds {ORACLE_SEARCH_CAP}")
    stock = _symmetric_stock(field, n)
    rows = _row_vectors(field, n)
    dots = _inner(rows, np.array(phi, dtype=np.uint8), field)  # dots[r] = r*phi
    cand = np.flatnonzero((dots == v[0]).take(stock[0]))
    for i in range(1, n):
        cand = cand[(dots == v[i]).take(stock[i].take(cand))]
    if not len(cand):
        raise InternalCheckError(
            f"oracle found no symmetric invertible B mapping {phi} to {v}")
    return MatFq(field, n, n, rows[stock[:, cand[0]]].ravel().tolist())
