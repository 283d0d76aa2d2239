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
``_solve`` builds B through the field's flat add/mul/neg/inv tables, each
division a product with the inverse of c or phi_m, taken once.  Every
returned matrix is still re-checked for symmetry, invertibility and
B*phi = v before it leaves this module.

The brute-force oracle returns the first invertible solution in canonical
order (upper-triangle entries, row-major, least index first), for every
field and size under ORACLE_SEARCH_CAP by one path.  The symmetric matrices
are decoded from their upper-triangle codes as one uint8 batch and kept
when one batched fraction-free elimination through the field's add and mul
tables reaches rank n; that stock is built once per (field, n) and stored
as the base-q codes of its rows, one contiguous array per row index.
Coordinate i of B*phi depends only on row i of B, so phi's first call
folds it into dots[r] = r*phi for all q^n row codes r, one table gather
per digit, and reads the base-q code of B*phi for the whole stock, one
gather per row.  np.unique with return_index sorts stably, so for each code
it names the first matrix in canonical order that reaches it; those
indices fill a table of q^n entries, -1 where no matrix reaches the code,
cached per (field, phi).  A call is one lookup of v's code, and a -1
raises InternalCheckError.  The oracle shares nothing with the solver
beyond the input check: it never calls ``_solve`` or ``MatFq.det``.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import CapExceededError, DomainError, InternalCheckError
from .field import Fq
from .groups import decode, encode
from .matrix import MatFq, _as_ints, _dot, mat_vec

ORACLE_SEARCH_CAP = 15_625


def _check_input(field: Fq, phi, v) -> tuple[tuple, tuple]:
    # Fq's flat tables index by a*q + b, which wraps in a numpy uint8
    phi, v = _as_ints(phi), _as_ints(v)
    if len(phi) != len(v) or not phi:
        raise DomainError("phi and v must be nonempty vectors of equal length")
    for x in phi + v:
        if not 0 <= x < field.q:
            raise DomainError(f"entry {x} not a valid index for {field!r}")
    if not any(phi) or not any(v):
        raise DomainError("phi and v must both be nonzero")
    return phi, v


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
    q, n = field.q, len(phi)
    addt, mult, negt, invt = field._add, field._mul, field._neg, field._inv
    j = next(i for i, x in enumerate(v) if x)
    c = _dot(field, v, phi)  # _check_input made both ints
    if c:
        pivot, s = v, invt[c]
        vs = [mult[y * q + s] for y in v]  # v / c
        b = [[mult[x * q + y] for y in vs] for x in v]
    else:
        m = next(i for i, x in enumerate(phi) if x and i != j)
        pivot, s = [int(i == m) for i in range(n)], invt[phi[m]]
        vs = [mult[y * q + s] for y in v]  # v / phi_m
        b = [[0] * n for _ in range(n)]
        for i in range(n):
            b[i][m] = b[m][i] = vs[i]
        b[m][m] = addt[vs[m] * q + vs[m]]
    for i in range(n):
        if i == j:
            continue  # w_m is 0 in the second case
        tq = negt[mult[phi[i] * q + s]] * q  # t = -phi_i * s
        w = [mult[tq + x] for x in pivot]  # w_i = e_i + t * pivot
        w[i] = addt[w[i] * q + 1]
        for r, wr in enumerate(w):
            wq = wr * q
            b[r] = [addt[x * q + mult[wq + y]] for x, y in zip(b[r], w)]
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


@functools.lru_cache(maxsize=None)
def _first_hits(field: Fq, phi: tuple) -> np.ndarray:
    """For each base-q code of a vector v, the stock column of the first
    matrix B (canonical order) with B*phi = v, or -1 if there is none."""
    q, n = field.q, len(phi)
    stock = _symmetric_stock(field, n)
    add, mul = field.arrays()
    dots = mul[:, phi[0]]  # dots[r] = r*phi, r's leading digit first
    for x in phi[1:]:
        dots = add[dots[:, None], mul[:, x]].ravel()
    codes = np.zeros(stock.shape[1], dtype=np.int64)
    for row in stock:  # B*phi's leading coordinate first
        codes = codes * q + dots.take(row)
    found, first = np.unique(codes, return_index=True)  # a stable sort
    table = np.full(q ** n, -1)
    table[found] = first
    table.flags.writeable = False
    return table


def oracle_symmetric(field: Fq, phi: tuple, v: tuple) -> MatFq:
    """First (canonical order) symmetric invertible B with B*phi = v.

    phi's first call builds its table of first hits over the whole stock
    (see the module docstring); this call and every later one for phi look
    up v's code there.  The module docstring proves a solution exists for
    nonzero phi and v, so a code with no hit is an internal error."""
    phi, v = _check_input(field, phi, v)
    q, n = field.q, len(phi)
    if q ** (n * (n + 1) // 2) > ORACLE_SEARCH_CAP:
        raise CapExceededError(
            f"oracle search space q^(n(n+1)/2) exceeds {ORACLE_SEARCH_CAP}")
    code = 0
    for x in v:  # v's leading coordinate first
        code = code * q + x
    hit = _first_hits(field, phi)[code]
    if hit < 0:
        raise InternalCheckError(
            f"oracle found no symmetric invertible B mapping {phi} to {v}")
    b = _row_vectors(field, n)[_symmetric_stock(field, n)[:, hit]]
    return MatFq(field, n, n, b.ravel().tolist())
