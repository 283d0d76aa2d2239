"""Enumerated finite matrix groups: GL_n(F_q) and O_n(F_q).

A GroupTable stores its elements as one (order, n^2) uint8 array ``mat``,
rows in the lexicographic order of their entries, next to int64 base-q
``codes`` that increase with that order.  ``ids_of`` maps a batch of
matrices to element ids by binary search on the codes and raises if any row
is not in the group, so every batched lookup is also a membership check.
The fixed order makes coset representatives, class representatives and
reports reproducible bit for bit.  MatFq objects are built only on demand.

Every pass over the whole group is a batched product
(``matrix.mul_batch``: every element times one fixed matrix, on the left or
on the right) turned into an id permutation by ``ids_of``.  ``orbits``
labels the orbits of a set of such permutations by their minimal element
id; generated subgroups, double cosets and conjugacy classes are all orbits
of this kind.

GL is enumerated by extending linearly independent row prefixes (the span
of the chosen rows is carried along, so the q^(n^2) ambient space is never
filtered).  O is the group of the identity bilinear form, built as the
multiplicative closure of all hyperplane reflections.  Its order is checked
against the closed form, and the closure is cross-checked against a direct
filter of {g : g^T g = I} when that filter is feasible.
"""

from __future__ import annotations

import functools
from itertools import product

import numpy as np

from .errors import CapExceededError, DomainError, InternalCheckError
from .field import Fq
from .matrix import (MatFq, identity_flat, inverse_flat, mul_batch, mul_flat,
                     vec_dot)

DEFAULT_GROUP_CAP = 25_000
O_FILTER_FEASIBLE = 10 ** 7


def gl_order(n: int, q: int) -> int:
    order = 1
    for i in range(n):
        order *= q ** n - q ** i
    return order


def o_order(n: int, field: Fq) -> int:
    """|O_n(F_q)| for the identity form, q odd, by the closed form."""
    q = field.q
    m = n // 2
    order = 2
    for i in range(1, m + (n % 2)):
        order *= q ** (2 * i) - 1
    if n % 2:
        return order * q ** (m * m)
    # plus type (q^m - 1) exactly when (-1)^m is a square in F_q
    sign = 1 if m % 2 == 0 else field.neg(1)
    plus = any(field.mul(a, a) == sign for a in range(1, q))
    return order * q ** (m * (m - 1)) * (q ** m - 1 if plus else q ** m + 1)


def check_code_range(n: int, q: int) -> None:
    """Base-q codes of n x n matrices must fit in an int64."""
    if q ** (n * n) >= 2 ** 63:
        raise CapExceededError(
            f"codes of {n}x{n} matrices over F_{q} overflow int64")


def encode(batch: np.ndarray, q: int) -> np.ndarray:
    """Base-q int64 codes of uint8 rows; monotone in lexicographic order."""
    codes = np.zeros(len(batch), dtype=np.int64)
    for col in np.asarray(batch).T:
        codes *= q
        codes += col
    return codes


def decode(codes: np.ndarray, width: int, q: int) -> np.ndarray:
    """The uint8 rows of ``width`` entries that ``encode`` maps to codes."""
    out = np.empty((len(codes), width), dtype=np.uint8)
    rest = np.array(codes, dtype=np.int64)
    for k in range(width - 1, -1, -1):
        rest, out[:, k] = np.divmod(rest, q)
    return out


def orbits(perms, size: int) -> np.ndarray:
    """Label every id by the minimal id of its orbit under the group that
    the id permutations ``perms`` generate.

    Min-label propagation, label[x] <- min(label[x], label[p[x]]) for every
    p, plus pointer jumping, label <- label[label], until a fixpoint.  A
    label is always an id of the same orbit and no larger than its element.
    At the fixpoint label[x] <= label[p[x]] for every p, which along the
    cycles of each p forces equality, so each orbit carries its minimal id.
    """
    label = np.arange(size)
    while True:
        prev = label
        for p in perms:
            label = np.minimum(label, label[p])
        label = label[label]
        if np.array_equal(label, prev):
            return label


class GroupTable:
    """Indexed element table of an enumerated matrix group."""

    def __init__(self, kind: str, n: int, field: Fq, mat,
                 generator_ids=None):
        check_code_range(n, field.q)
        self.kind = kind
        self.n = n
        self.field = field
        mat = np.asarray(mat, dtype=np.uint8).reshape(-1, n * n)
        codes = encode(mat, field.q)
        by_code = np.argsort(codes)
        self.mat = mat[by_code]
        self.codes = codes[by_code]
        self.order = len(self.codes)
        if np.any(self.codes[1:] == self.codes[:-1]):
            raise InternalCheckError("duplicate elements in group table")
        self.identity_id = self.id_of_entries(identity_flat(n))
        self._generator_ids = generator_ids
        self._inverse_ids = None
        self._transpose_ids = None
        self._center_ids = None

    # -- lookup ---------------------------------------------------------------

    def ids_of(self, batch: np.ndarray) -> np.ndarray:
        """Element id of every row of a uint8 batch; raises if any row is
        not in the group."""
        codes = encode(batch, self.field.q)
        ids = np.minimum(np.searchsorted(self.codes, codes), self.order - 1)
        missing = np.flatnonzero(self.codes[ids] != codes)
        if missing.size:
            row = tuple(np.asarray(batch)[missing[0]].tolist())
            raise InternalCheckError(
                f"matrix {row} not in {self.kind}_{self.n}(F_{self.field.q})")
        return ids

    def id_of_entries(self, entries: tuple) -> int:
        """Element id for a flat entry tuple; raises if not in the group."""
        return int(self.ids_of(np.array([entries], dtype=np.uint8))[0])

    def index_of(self, m: MatFq) -> int:
        if m.field != self.field or m.rows != self.n or m.cols != self.n:
            raise DomainError("matrix shape or field does not match group")
        return self.id_of_entries(m.entries)

    def element(self, i: int) -> MatFq:
        return MatFq(self.field, self.n, self.n, self.mat[i].tolist())

    @functools.cached_property
    def elements(self) -> list[MatFq]:
        return [self.element(i) for i in range(self.order)]

    def mul_ids(self, i: int, j: int) -> int:
        return self.id_of_entries(mul_flat(
            self.element(i).entries, self.element(j).entries, self.n,
            self.field))

    def perm(self, m: np.ndarray, left: bool = False) -> np.ndarray:
        """Id permutation x -> m x (left) or x -> x m of a group element m."""
        n, f = self.n, self.field
        return self.ids_of(mul_batch(m, self.mat, n, f) if left
                           else mul_batch(self.mat, m, n, f))

    # -- distinguished data (computed lazily, cached) ---------------------------

    @property
    def generator_ids(self) -> list[int]:
        if self._generator_ids is None:
            self._generator_ids = _greedy_generators(self)
        return self._generator_ids

    @property
    def inverse_ids(self) -> np.ndarray:
        """inv[x g] = g^-1 inv[x], spread from the identity along the
        generators, then checked as x inv[x] = 1 for every x."""
        if self._inverse_ids is None:
            n, f = self.n, self.field
            steps = []
            for g in self.generator_ids:
                row = self.mat[g]
                g_inv = np.array(inverse_flat(tuple(row.tolist()), n, f),
                                 dtype=np.uint8)
                steps.append((self.perm(row), self.perm(g_inv, left=True)))
            inv = np.full(self.order, -1)
            inv[self.identity_id] = self.identity_id
            frontier = np.array([self.identity_id])
            while frontier.size and steps:
                found = []
                for right, left_inv in steps:
                    y = right[frontier]
                    fresh = inv[y] < 0
                    inv[y[fresh]] = left_inv[inv[frontier[fresh]]]
                    found.append(y[fresh])
                frontier = np.concatenate(found)
            if np.any(inv < 0) or np.any(
                    mul_batch(self.mat, self.mat[inv], n, f)
                    != self.mat[self.identity_id]):
                raise InternalCheckError("inverse table is wrong")
            self._inverse_ids = inv
        return self._inverse_ids

    @property
    def transpose_ids(self) -> np.ndarray:
        if self._transpose_ids is None:
            n = self.n
            self._transpose_ids = self.ids_of(
                self.mat.reshape(-1, n, n).transpose(0, 2, 1)
                .reshape(-1, n * n))
        return self._transpose_ids

    def center_ids(self) -> list[int]:
        """Ids of elements commuting with the whole group (via generators)."""
        if self._center_ids is None:
            n, q = self.n, self.field.q
            central = np.ones(self.order, dtype=bool)
            for g in self.generator_ids:
                row = self.mat[g]
                central &= self.perm(row) == self.perm(row, left=True)
            center = np.flatnonzero(central).tolist()
            if self.kind == "GL":
                scalars = np.zeros((q - 1, n * n), dtype=np.uint8)
                scalars[:, ::n + 1] = np.arange(1, q)[:, None]
                if center != sorted(self.ids_of(scalars).tolist()):
                    raise InternalCheckError(
                        "GL center does not equal the scalar matrices")
            self._center_ids = center
        return self._center_ids

    def __repr__(self):
        return (f"GroupTable({self.kind}_{self.n}(F_{self.field.q}), "
                f"order={self.order})")


def _greedy_generators(table: GroupTable) -> list[int]:
    """Small generating set: seed with standard candidates, then greedy scan."""
    n, f = table.n, table.field
    seeds = []
    if n >= 2:
        transvection = list(identity_flat(n))
        transvection[1] = 1
        seeds.append(tuple(transvection))
        cycle = tuple(1 if c == (r + 1) % n else 0
                      for r in range(n) for c in range(n))
        seeds.append(cycle)
    g = f.generator() if f.q > 2 else 1
    if g != 1:
        diag = list(identity_flat(n))
        diag[0] = g
        seeds.append(tuple(diag))
    seeds = np.array(seeds, dtype=np.uint8).reshape(-1, n * n)
    seeds = seeds[np.isin(encode(seeds, f.q), table.codes)]

    gens: list[int] = []
    perms = []
    known = np.zeros(table.order, dtype=bool)
    known[table.identity_id] = True
    for cand in table.ids_of(seeds).tolist() + list(range(table.order)):
        if known.all():
            break
        if known[cand]:
            continue
        gens.append(cand)
        perms.append(table.perm(table.mat[cand]))
        label = orbits(perms, table.order)
        known = label == label[table.identity_id]
    if not known.all():
        raise InternalCheckError("generator search did not close the group")
    return gens


def enumerate_gl(n: int, field: Fq, cap: int = DEFAULT_GROUP_CAP) -> GroupTable:
    """GL_n(F_q) by extending linearly independent row prefixes, all
    prefixes of one length at a time.  Each prefix carries its span, so a
    new row is any vector outside it and the q^(n^2) ambient space is never
    filtered."""
    q = field.q
    check_code_range(n, q)
    expected = gl_order(n, q)
    if expected > cap:
        raise CapExceededError(f"|GL_{n}(F_{q})| = {expected} exceeds cap {cap}")
    add, mul = field.arrays()
    vectors = decode(np.arange(q ** n), n, q)
    scalars = np.arange(q)[:, None]
    prefixes = np.zeros((1, 0), dtype=np.uint8)
    span = np.zeros((1, 1, n), dtype=np.uint8)
    for depth in range(n):
        outside = np.ones((len(span), q ** n), dtype=bool)
        in_span = encode(span.reshape(-1, n), q).reshape(len(span), -1)
        outside[np.arange(len(span))[:, None], in_span] = False
        prefix, v = np.nonzero(outside)
        prefixes = np.hstack([prefixes[prefix], vectors[v]])
        if depth + 1 < n:
            # span of the longer prefix: s + c v for s in the old span
            span = add[span[prefix][:, :, None, :],
                       mul[scalars, vectors[v][:, None, :]][:, None]]
            span = span.reshape(len(prefix), -1, n)
    if len(prefixes) != expected:
        raise InternalCheckError(
            f"GL enumeration produced {len(prefixes)} elements, "
            f"expected {expected}")
    return GroupTable("GL", n, field, prefixes)


def _reflection_entries(field: Fq, w: tuple, n: int) -> tuple:
    """Hyperplane reflection x -> x - 2(<w,x>/<w,w>)w for non-isotropic w."""
    norm = vec_dot(field, w, w)
    coef = field.div(field.add(1, 1), norm)  # 2 / <w,w>
    out = []
    for i in range(n):
        for j in range(n):
            x = 1 if i == j else 0
            out.append(field.sub(x, field.mul(coef, field.mul(w[i], w[j]))))
    return tuple(out)


def _o_direct_filter(n: int, field: Fq) -> set:
    """All g with g^T g = I, by nested column extension with Gram pruning.

    Equivalent to filtering the full q^(n^2) space: a matrix passes iff its
    columns are orthonormal, which is checked column by column.
    """
    q = field.q
    vectors = list(product(range(q), repeat=n))
    unit = [v for v in vectors if vec_dot(field, v, v) == 1]
    found = set()

    def extend(cols):
        depth = len(cols)
        if depth == n:
            found.add(tuple(cols[j][i] for i in range(n) for j in range(n)))
            return
        for v in unit:
            if all(vec_dot(field, v, c) == 0 for c in cols):
                extend(cols + [v])

    extend([])
    return found


def enumerate_o(n: int, field: Fq, cap: int = DEFAULT_GROUP_CAP,
                cross_check: bool | None = None) -> GroupTable:
    """O_n(F_q) for the identity form, q odd: closure of all reflections."""
    if field.p == 2:
        raise DomainError(
            "orthogonal pipeline requires odd q (reflections divide by 2)")
    q = field.q
    check_code_range(n, q)
    expected = o_order(n, field)
    if expected > cap:
        raise CapExceededError(f"|O_{n}(F_{q})| = {expected} exceeds cap {cap}")
    refl = {}
    for w in product(range(q), repeat=n):
        if vec_dot(field, w, w) != 0:
            refl.setdefault(_reflection_entries(field, w, n), None)
    gens = np.array(list(refl), dtype=np.uint8)
    ident = np.array([identity_flat(n)], dtype=np.uint8)
    known = np.unique(encode(np.vstack([ident, gens]), q))
    frontier = decode(known, n * n, q)
    while len(frontier):
        fresh = np.empty(0, dtype=np.int64)
        for g in gens:
            codes = encode(mul_batch(frontier, g, n, field), q)
            fresh = np.union1d(fresh, codes[~np.isin(codes, known)])
            if len(known) + len(fresh) > cap:
                raise CapExceededError(f"group order exceeds cap {cap}")
        known = np.union1d(known, fresh)
        frontier = decode(fresh, n * n, q)
    mat = decode(known, n * n, q)

    gram = mul_batch(mat.reshape(-1, n, n).transpose(0, 2, 1), mat, n, field)
    if np.any(gram != ident):
        raise InternalCheckError("reflection closure left the orthogonal group")
    if len(known) != expected:
        raise InternalCheckError(
            f"reflection closure has {len(known)} elements, but "
            f"|O_{n}(F_{q})| = {expected}")

    if cross_check is None:
        cross_check = q ** (n * n) <= O_FILTER_FEASIBLE
    if cross_check:
        filtered = np.array(sorted(_o_direct_filter(n, field)), dtype=np.uint8)
        if not np.array_equal(filtered.reshape(-1, n * n), mat):
            raise InternalCheckError(
                "reflection closure disagrees with the direct g^T g = I filter")

    table = GroupTable("O", n, field, mat)
    table._generator_ids = sorted(table.ids_of(gens).tolist())
    return table


class Embedding:
    """Injective homomorphism small -> big given by an id map."""

    def __init__(self, small: GroupTable, big: GroupTable, map_ids: list[int]):
        self.small = small
        self.big = big
        self.map = map_ids
        if len(set(map_ids)) != len(map_ids):
            raise InternalCheckError("embedding is not injective")

    def __repr__(self):
        return f"Embedding({self.small!r} -> {self.big!r})"


def embed_standard(h: GroupTable, g: GroupTable) -> Embedding:
    """h ∋ B  ->  diag(B, 1) ∈ g; requires h.n + 1 = g.n, same kind/field."""
    if h.field != g.field:
        raise DomainError("embedding requires the same field")
    if h.n + 1 != g.n or h.kind != g.kind:
        raise DomainError("standard embedding requires same kind and n+1 size")
    n = h.n
    block = np.zeros((h.order, n + 1, n + 1), dtype=np.uint8)
    block[:, :n, :n] = h.mat.reshape(-1, n, n)
    block[:, n, n] = 1
    map_ids = g.ids_of(block.reshape(h.order, -1)).tolist()
    emb = Embedding(h, g, map_ids)
    # identity must map to identity; full homomorphism check lives in tests
    if map_ids[h.identity_id] != g.identity_id:
        raise InternalCheckError("embedding does not preserve the identity")
    return emb


def embed_identity(g: GroupTable) -> Embedding:
    """The degenerate self-pair H = G."""
    return Embedding(g, g, list(range(g.order)))
