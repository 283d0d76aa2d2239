"""Exact dense linear algebra over GF(q).

A matrix stores its entries as a flat row-major tuple of canonical field
indices plus a reference to its field; it is immutable and hashable.  Group
tables key their elements by int64 base-q codes (``groups.encode``).

Vectors are plain tuples of field indices; helpers below cover the
matrix-vector and inner products the rest of the package needs.

The determinant uses exact Gauss-Jordan elimination with the pivot chosen
as the first nonzero entry in column scan order (any pivot rule is correct
over an exact field; this one is deterministic).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .field import Fq, Scalar


def _mul_entries(a, b, rows: int, inner: int, cols: int, field: Fq) -> tuple:
    """Product of flat row-major rows x inner and inner x cols entry
    sequences, one entry at a time through the field's flat tables."""
    q = field.q
    addt = field._add
    mult = field._mul
    out = []
    for i0 in range(0, rows * inner, inner):
        arow = a[i0:i0 + inner]
        for j in range(cols):
            acc = 0
            bi = j
            for x in arow:
                acc = addt[acc * q + mult[x * q + b[bi]]]
                bi += cols
            out.append(acc)
    return tuple(out)


def mul_flat(a: tuple, b: tuple, n: int, field: Fq) -> tuple:
    """Product of two flat n x n entry tuples, one element at a time.  No
    code in the package calls it: the name is kept only for the perfbench
    hook, which counts calls to it as group-element products."""
    return _mul_entries(a, b, n, n, n, field)


def _inner(a: np.ndarray, b: np.ndarray, field: Fq) -> np.ndarray:
    """<a, b> = sum_i a_i b_i over the last axis of two broadcastable uint8
    arrays, folded through the field's add and mul tables."""
    add, mul = field.arrays()
    out = mul[a[..., 0], b[..., 0]]
    for i in range(1, a.shape[-1]):
        out = add[out, mul[a[..., i], b[..., i]]]
    return out


def mul_batch(a: np.ndarray, b: np.ndarray, n: int, field: Fq) -> np.ndarray:
    """Row-wise products a @ b of n x n matrices stored as uint8 rows of n^2
    entries.  Either side may be a single row, which then multiplies every
    row of the other side: a fixed matrix on the left or on the right.

    Prime fields use an int16 matmul reduced mod p; with p < 25 and n <= 7
    (the int64 code limit) a sum of n products stays far below 2^15.
    GF(p^e) takes entry (i, j) as the ``_inner`` fold of row i of a with
    column j of b.  The result is a uint8 batch of shape (rows, n^2).
    """
    a = np.asarray(a, dtype=np.uint8).reshape(-1, n, n)
    b = np.asarray(b, dtype=np.uint8).reshape(-1, n, n)
    if field.e == 1:
        out = (a.astype(np.int16) @ b.astype(np.int16)) % field.p
    else:
        out = _inner(a[:, :, None, :], b.transpose(0, 2, 1)[:, None], field)
    return out.astype(np.uint8).reshape(-1, n * n)


def transpose_flat(a: tuple, rows: int, cols: int) -> tuple:
    return tuple(a[r * cols + c] for c in range(cols) for r in range(rows))


def identity_flat(n: int) -> tuple:
    return tuple(1 if i == j else 0 for i in range(n) for j in range(n))


def _eliminate(rows_list: list[list[int]], field: Fq):
    """In-place Gauss-Jordan; returns (rank, det) with det 0 when
    rank-deficient, sign-corrected for row swaps."""
    m = len(rows_list)
    ncols = len(rows_list[0]) if m else 0
    rank = 0
    det = 1
    for col in range(ncols):
        if rank == m:
            break
        pivot_row = None
        for i in range(rank, m):
            if rows_list[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != rank:
            rows_list[rank], rows_list[pivot_row] = (rows_list[pivot_row],
                                                     rows_list[rank])
            det = field.neg(det)
        pivot = rows_list[rank][col]
        det = field.mul(det, pivot)
        pinv = field.inv(pivot)
        prow = rows_list[rank]
        for j in range(col, ncols):
            prow[j] = field.mul(prow[j], pinv)
        for i in range(m):
            if i != rank and rows_list[i][col]:
                f = rows_list[i][col]
                row = rows_list[i]
                for j in range(col, ncols):
                    row[j] = field.sub(row[j], field.mul(f, prow[j]))
        rank += 1
    return rank, det


class MatFq:
    """Immutable dense matrix over a fixed GF(q)."""

    __slots__ = ("rows", "cols", "entries", "field")

    def __init__(self, field: Fq, rows: int, cols: int, entries):
        entries = tuple(entries)
        if rows < 1 or cols < 1 or len(entries) != rows * cols:
            raise DomainError(f"bad shape {rows}x{cols} for {len(entries)} entries")
        q = field.q
        for x in entries:
            if not 0 <= x < q:
                raise DomainError(f"entry {x} not a valid index for {field!r}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, field: Fq, rows) -> "MatFq":
        rows = [list(r) for r in rows]
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise DomainError("ragged rows")
        return cls(field, len(rows), ncols, [x for r in rows for x in r])

    @classmethod
    def identity(cls, field: Fq, n: int) -> "MatFq":
        return cls(field, n, n, identity_flat(n))

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return self.entries[i * self.cols + j]

    # -- arithmetic ----------------------------------------------------------

    def _check_same_field(self, other: "MatFq"):
        if self.field != other.field:
            raise DomainError("matrices over different fields")

    def __mul__(self, other: "MatFq") -> "MatFq":
        self._check_same_field(other)
        if self.cols != other.rows:
            raise DomainError(
                f"dimension mismatch: {self.rows}x{self.cols} * "
                f"{other.rows}x{other.cols}")
        return MatFq(self.field, self.rows, other.cols,
                     _mul_entries(self.entries, other.entries, self.rows,
                                  self.cols, other.cols, self.field))

    def transpose(self) -> "MatFq":
        return MatFq(self.field, self.cols, self.rows,
                     transpose_flat(self.entries, self.rows, self.cols))

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self.entries == transpose_flat(
            self.entries, self.rows, self.cols)

    def det(self) -> Scalar:
        if self.rows != self.cols:
            raise DomainError("determinant requires a square matrix")
        work = self.to_rows()
        rank, det = _eliminate(work, self.field)
        return det if rank == self.rows else 0

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, MatFq)
                and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"MatFq({self.field!r}, {self.to_rows()})"


# -- vectors (plain tuples of indices) ----------------------------------------

def vec_dot(field: Fq, a: tuple, b: tuple) -> Scalar:
    acc = 0
    for x, y in zip(a, b):
        acc = field.add(acc, field.mul(x, y))
    return acc


def mat_vec(m: MatFq, v: tuple) -> tuple:
    if len(v) != m.cols:
        raise DomainError("vector length does not match matrix columns")
    return tuple(vec_dot(m.field, m.row(i), v) for i in range(m.rows))


# -- text literals -------------------------------------------------------------

def format_matrix(m: MatFq) -> str:
    return ";".join(",".join(str(x) for x in m.row(i)) for i in range(m.rows))


def parse_vector(field: Fq, text: str) -> tuple:
    try:
        v = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise DomainError(f"bad vector literal {text!r}") from exc
    for x in v:
        if not 0 <= x < field.q:
            raise DomainError(f"entry {x} not a valid index for {field!r}")
    return v
