"""Exact dense linear algebra over GF(q).

A matrix stores its entries as a flat row-major tuple of canonical field
indices plus a reference to its field; it is immutable and hashable.  The
entries are Python ints: numpy integers are converted on the way in, since
the field's scalar tables are indexed at a*q + b, which wraps in a uint8.
Group tables key their elements by int64 base-q codes (``groups.encode``).

Vectors are plain tuples of field indices; helpers below cover the
matrix-vector and inner products the rest of the package needs; they
convert numpy integer entries as ``MatFq`` does.

The determinant is the product of the pivots of exact forward elimination,
negated once per row swap.  The pivot is the first nonzero entry on or
below the diagonal (any pivot rule gives the same determinant over an exact
field), only the rows below it and the columns after it are updated, and a
column with no pivot gives 0 at once.  It and ``vec_dot`` read the field's
flat add/mul/neg/inv lists, as ``_mul_entries`` does.
"""

from __future__ import annotations

import operator

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


def _as_int(x) -> int:
    """x as a Python int; a bool or a non-integer is refused."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise DomainError(f"entry {x!r} is not an integer")


def _as_ints(xs) -> tuple:
    """xs as a tuple of Python ints: a numpy integer would wrap the field
    tables' a*q + b.  A tuple of exact ints passes through unconverted."""
    xs = tuple(xs)
    if set(map(type, xs)) != {int}:
        xs = tuple(map(_as_int, xs))
    return xs


class MatFq:
    """Immutable dense matrix over a fixed GF(q)."""

    __slots__ = ("rows", "cols", "entries", "field")

    def __init__(self, field: Fq, rows: int, cols: int, entries):
        entries = _as_ints(entries)
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
        n, e = self.rows, self.entries
        return n == self.cols and all(
            e[i * n:(i + 1) * n] == e[i::n] for i in range(n))

    def det(self) -> Scalar:
        if self.rows != self.cols:
            raise DomainError("determinant requires a square matrix")
        n, field = self.rows, self.field
        q = field.q
        addt, mult, negt, invt = field._add, field._mul, field._neg, field._inv
        e = self.entries
        a = [list(e[i:i + n]) for i in range(0, n * n, n)]
        det = 1
        for c in range(n):
            p = c  # the pivot row: the first nonzero a[p][c] with p >= c
            while not a[p][c]:
                p += 1
                if p == n:
                    return 0  # no pivot in column c: singular
            if p != c:
                a[c], a[p] = a[p], a[c]
                det = negt[det]
            top = a[c]
            det = mult[det * q + top[c]]
            pinv = invt[top[c]]
            for row in a[c + 1:]:
                if row[c]:  # row -= (row[c] / pivot) * top
                    f = negt[mult[row[c] * q + pinv]] * q
                    for k in range(c + 1, n):
                        row[k] = addt[row[k] * q + mult[f + top[k]]]
        return det

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

def _dot(field: Fq, a: tuple, b: tuple) -> Scalar:
    q = field.q
    addt = field._add
    mult = field._mul
    acc = 0
    for x, y in zip(a, b):
        acc = addt[acc * q + mult[x * q + y]]
    return acc


def vec_dot(field: Fq, a: tuple, b: tuple) -> Scalar:
    return _dot(field, _as_ints(a), _as_ints(b))


def mat_vec(m: MatFq, v: tuple) -> tuple:
    v = _as_ints(v)
    if len(v) != m.cols:
        raise DomainError("vector length does not match matrix columns")
    e, c, field = m.entries, m.cols, m.field
    return tuple([_dot(field, e[i:i + c], v) for i in range(0, len(e), c)])


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
