"""Enumerated finite matrix groups: GL_n(F_q) and O_n(F_q).

A GroupTable stores its elements as one (order, n^2) uint8 array ``mat``,
rows in the lexicographic order of their entries, next to int64 base-q
``codes`` that increase with that order and the (n, order) base-q codes of
each element's rows, ``row_codes``.  ``ids_of_codes`` maps matrix codes to
element ids and raises, naming the matrix, if any is not in the group, so
every batched lookup is also a membership check; ``ids_of`` encodes a uint8
batch first.  Where the q^(n^2) codes number at most 4 |G| (every GL_n,
since |GL_n| / q^(n^2) = prod (1 - q^-i) > 0.288, and no O_n with n >= 2)
the lookup is one gather from the int32 code -> id array ``id_of_code``,
-1 off the group; elsewhere it is a binary search of ``codes``.  The fixed
order makes coset representatives, class representatives and reports
reproducible bit for bit.  MatFq objects are built only on demand.

The group is multiplied by one fixed matrix m without a matrix product: row
i of x m is row_i(x) m, so ``perm`` builds the table v -> code(v m) over the
q^n row vectors v (through the field's add and mul tables, for prime and
extension fields alike) and reads each product's code as the sum over i of
that table at row_i(x), weighted by q^(n(n-1-i)): n gathers, then one
lookup.  A left product is a right one between transposes, m x = (x^T
m^T)^T.  Each id permutation is computed once per element and side
(``id_perm``, memoised).  ``matrix.mul_batch`` is left for the pairwise
products of two checks, x x^-1 = 1 and, for O, g^T g = 1; the first still
checks the generator permutations, through the Schreier tree, against true
matrix products on every run.

The left and right permutations of the generators, lambda_g: x -> g x and
rho_g: x -> x g, carry the rest as gathers: the center is where they agree,
and conjugation by g is lambda_g after rho_g^-1.  One closure (``_close``)
finds the generators and the Schreier tree together (Holt, Eick and
O'Brien, *Handbook of Computational Group Theory*, ch. 4): it scans
candidate ids in order, keeps each one not yet reached, and grows one BFS
tree from the identity under left multiplication by the kept ones.  Along
that tree ``_spread`` carries the inverse table and the right-regular rows
x -> x t of any elements t with no further product.  ``orbits`` labels the
orbits of a set of id permutations by their minimal element id, and
``number_orbits`` numbers them in the order of those ids; double cosets and
conjugacy classes are orbits of this kind.

GL is enumerated by extending linearly independent row prefixes (the span
of the chosen rows is carried along, so the q^(n^2) ambient space is never
filtered).  O is the group of the identity bilinear form, enumerated the
same way by extending orthonormal row prefixes (each prefix carries the
mask of unit vectors orthogonal to all its rows).  Every O table is checked
three ways: g^T g = I for every element, the closed-form order, and the
closure over the hyperplane reflections in id order must reach every
element.  GL's candidates are a transvection, the n-cycle and diag(g, 1,
..., 1) for a primitive g, which generate GL_n(F_q).
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import CapExceededError, DomainError, InternalCheckError
from .field import Fq
from .matrix import MatFq, identity_flat, mul_batch, mul_flat

DEFAULT_GROUP_CAP = 25_000
# largest block of right-regular rows built at once, in int32 entries
ROW_CHUNK = 2 ** 17


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
    """Base-q codes of n x n matrices must fit in an int64.  Every q >= 2
    overflows once n^2 >= 63, so the power is only taken below that."""
    if n * n >= 63 or q ** (n * n) >= 2 ** 63:
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
    label = np.arange(size, dtype=np.int32)
    while True:
        prev = label
        for p in perms:
            label = np.minimum(label, label.take(p))
        label = label.take(label)
        if np.array_equal(label, prev):
            return label


def number_orbits(label: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The representatives of ``orbits`` labels, ascending (the ids that
    label themselves), and every id's orbit number in that order (int32)."""
    reps = np.flatnonzero(label == np.arange(len(label)))
    number = np.zeros(len(label), dtype=np.int32)
    number[reps] = np.arange(len(reps), dtype=np.int32)
    return reps, number.take(label)


def invert_perm(p: np.ndarray) -> np.ndarray:
    """The inverse of an id permutation."""
    inv = np.empty_like(p)
    inv[p] = np.arange(len(p), dtype=p.dtype)
    return inv


class GroupTable:
    """Indexed element table of an enumerated matrix group."""

    def __init__(self, kind: str, n: int, field: Fq, mat):
        check_code_range(n, field.q)
        self.kind = kind
        self.n = n
        self.field = field
        mat = np.asarray(mat, dtype=np.uint8).reshape(-1, n * n)
        codes = encode(mat, field.q)
        # row extension enumerates in code order; this also refuses
        # duplicate rows
        if not np.all(codes[1:] > codes[:-1]):
            raise InternalCheckError(
                "group table rows are not in strictly increasing code order")
        self.mat = mat
        self.codes = codes
        self.order = len(self.codes)
        # row_codes[i, x]: base-q code of row i of element x, in the
        # smallest unsigned type that holds q^n - 1 (``take`` gathers by
        # any of them at the same speed)
        rows = self.mat.reshape(-1, n, n)
        self.row_codes = np.empty((n, self.order),
                                  np.min_scalar_type(field.q ** n - 1))
        for i in range(n):
            self.row_codes[i] = encode(rows[:, i], field.q)
        # code -> id, -1 off the group, wherever the group is dense enough
        # in the q^(n^2) matrices for the array to cost at most 16 bytes an
        # element; None sends ``ids_of_codes`` to binary search
        self.id_of_code = None
        if field.q ** (n * n) <= 4 * self.order:
            self.id_of_code = np.full(field.q ** (n * n), -1, dtype=np.int32)
            self.id_of_code[self.codes] = np.arange(self.order,
                                                    dtype=np.int32)
        self.identity_id = self.id_of_entries(identity_flat(n))
        # both set by ``_close`` on the first read of ``generator_ids``
        self._generator_ids = None
        self.schreier_tree = None
        self._inverse_ids = None
        self._transpose_ids = None
        self._center_ids = None
        self._id_perms: dict[tuple[int, bool], np.ndarray] = {}

    # -- lookup ---------------------------------------------------------------

    def ids_of(self, batch: np.ndarray) -> np.ndarray:
        """Element id (int32) of every row of a uint8 batch; raises if any
        row is not in the group."""
        return self.ids_of_codes(encode(batch, self.field.q))

    def ids_of_codes(self, codes: np.ndarray) -> np.ndarray:
        """Element id (int32) of every int64 matrix code; raises, naming
        the decoded matrix, if any code is not in the group.

        One gather from ``id_of_code`` where the table has it (a code past
        its end comes only from entries outside F_q); else a binary search
        of the sorted ``codes``."""
        n, q = self.n, self.field.q
        codes = np.asarray(codes, dtype=np.int64)
        if self.id_of_code is not None:
            try:
                ids = self.id_of_code.take(codes)
                missing = np.flatnonzero(ids < 0)
            except IndexError:
                ids = None
                missing = np.flatnonzero(codes >= len(self.id_of_code))
        else:
            ids = np.minimum(np.searchsorted(self.codes, codes),
                             self.order - 1)
            missing = np.flatnonzero(self.codes[ids] != codes)
            ids = ids.astype(np.int32)
        if missing.size:
            row = tuple(decode(codes[missing[:1]], n * n, q)[0].tolist())
            raise InternalCheckError(
                f"matrix {row} not in {self.kind}_{n}(F_{q})")
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
        """Product of two ids, one element at a time (a reference for tests)."""
        return self.id_of_entries(mul_flat(
            self.element(i).entries, self.element(j).entries, self.n,
            self.field))

    @functools.cached_property
    def vectors(self) -> np.ndarray:
        """The q^n row vectors as uint8 rows, in the order of their codes;
        built on the first product."""
        return decode(np.arange(self.field.q ** self.n), self.n, self.field.q)

    def perm(self, m: np.ndarray) -> np.ndarray:
        """Id permutation x -> x m of a group element m (raises if m is not
        one).  Row i of x m is row_i(x) m, so one table of v m over the row
        vectors v, weighted by the place of row i in the code, gives every
        product's code in n gathers."""
        n, q = self.n, self.field.q
        m = np.asarray(m, dtype=np.uint8).reshape(n, n)
        image = encode(_inner(self.vectors[:, None], m.T, self.field), q)
        shifted = image * q ** (n * np.arange(n - 1, -1, -1))[:, None]
        codes = shifted[0].take(self.row_codes[0])
        for weights, rows in zip(shifted[1:], self.row_codes[1:]):
            codes += weights.take(rows)
        return self.ids_of_codes(codes)

    def id_perm(self, i: int, left: bool = False) -> np.ndarray:
        """Id permutation x -> x g, or x -> g x (left), of the element g of
        id i, computed once per id and side.  A left product is a right one
        between transposes, g x = (x^T g^T)^T, so lambda_g is rho_(g^T)
        between two gathers by the transpose permutation."""
        key = (int(i), left)
        if key not in self._id_perms:
            if left:
                t = self.transpose_ids
                self._id_perms[key] = t[self.id_perm(t[i])[t]]
            else:
                self._id_perms[key] = self.perm(self.mat[i])
        return self._id_perms[key]

    # -- distinguished data (computed lazily, cached) ---------------------------

    @property
    def generator_ids(self) -> list[int]:
        if self._generator_ids is None:
            self._close()
        return self._generator_ids

    def _close(self) -> None:
        """The generators and the Schreier tree from one closure.

        Scan the candidate ids in order (GL: ``_gl_seeds``, O: the
        hyperplane reflections) and keep each one not yet reached; each
        kept one extends the BFS tree under left multiplication by all kept
        generators from everything reached so far.  Edges (k, xs, ys) have
        ys = g_k xs, each x reached before any edge leaves it.  Raises
        unless every id is reached."""
        candidates = (_gl_seeds(self) if self.kind == "GL"
                      else _reflection_ids(self))
        reached = np.zeros(self.order, dtype=bool)
        reached[self.identity_id] = True
        gens, left, edges = [], [], []
        for cand in candidates:
            if reached[cand]:
                continue
            gens.append(cand)
            left.append(self.id_perm(cand, left=True))
            frontier = np.flatnonzero(reached).astype(np.int32)
            while frontier.size:
                found = []
                for k, lam in enumerate(left):
                    ys = lam[frontier]
                    fresh = ~reached[ys]
                    if fresh.any():
                        ys = ys[fresh]
                        reached[ys] = True
                        edges.append((k, frontier[fresh], ys))
                        found.append(ys)
                frontier = np.concatenate(found) if found else frontier[:0]
        if not reached.all():
            raise InternalCheckError("generator search did not close the group")
        self._generator_ids, self.schreier_tree = gens, edges

    @functools.cached_property
    def generator_perms(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """(lambda_g, rho_g) for the generators g: x -> g x and x -> x g."""
        gens = self.generator_ids
        return ([self.id_perm(g, left=True) for g in gens],
                [self.id_perm(g) for g in gens])

    def _spread(self, root, perms: list[np.ndarray]) -> np.ndarray:
        """Values carried along the Schreier tree: ``root`` at the identity
        and, along each edge y = g_k x, perms[k] of x's value at y."""
        root = np.asarray(root, dtype=np.int32)
        out = np.empty((self.order,) + root.shape, dtype=np.int32)
        out[self.identity_id] = root
        for k, xs, ys in self.schreier_tree:
            out[ys] = perms[k][out[xs]]
        return out

    def right_rows(self, t):
        """Right-regular rows x -> x t of the ids t, as int32 blocks of shape
        (rows, order) of at most ROW_CHUNK entries.

        No product: the identity's entry is t, and along each tree edge
        y = g x, y t = g (x t) is lambda_g of x's entry."""
        t = np.asarray(t, dtype=np.int32)
        left, _ = self.generator_perms
        step = max(1, ROW_CHUNK // self.order)
        for start in range(0, len(t), step):
            yield self._spread(t[start:start + step], left).T

    def conjugation_perms(self) -> list[np.ndarray]:
        """x -> g x g^-1 for each generator g: lambda_g after rho_g^-1."""
        left, right = self.generator_perms
        return [lam[invert_perm(rho)] for lam, rho in zip(left, right)]

    @property
    def inverse_ids(self) -> np.ndarray:
        """Along each tree edge y = g x, y^-1 = x^-1 g^-1 = rho_g^-1(x^-1);
        then checked as x inv[x] = 1 for every x by one batched product."""
        if self._inverse_ids is None:
            _, right = self.generator_perms
            inv = self._spread(self.identity_id,
                               [invert_perm(rho) for rho in right])
            if np.any(mul_batch(self.mat, self.mat[inv], self.n, self.field)
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
        """Ids of elements commuting with every generator: lambda_g = rho_g."""
        if self._center_ids is None:
            n, q = self.n, self.field.q
            central = np.ones(self.order, dtype=bool)
            for lam, rho in zip(*self.generator_perms):
                central &= lam == rho
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


def _gl_seeds(table: GroupTable) -> list[int]:
    """Ids of a transvection, the cyclic permutation matrix and diag(g, 1,
    ..., 1) for a primitive g: together they generate GL_n(F_q)."""
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
    return table.ids_of(np.array(seeds, dtype=np.uint8).reshape(-1, n * n)
                        ).tolist()


def _reflection_ids(table: GroupTable) -> list[int]:
    """Ids of the hyperplane reflections of an O table, in id order; by
    Cartan-Dieudonne they generate it."""
    vectors, f = table.vectors, table.field
    ws = vectors[_inner(vectors, vectors, f) != 0]
    return np.unique(table.ids_of(_reflection_entries(f, ws))).tolist()


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


def _inner(a: np.ndarray, b: np.ndarray, field: Fq) -> np.ndarray:
    """<a, b> = sum_i a_i b_i over the last axis of two broadcastable uint8
    arrays, folded through the field's add and mul tables."""
    add, mul = field.arrays()
    out = mul[a[..., 0], b[..., 0]]
    for i in range(1, a.shape[-1]):
        out = add[out, mul[a[..., i], b[..., i]]]
    return out


def unit_vectors(n: int, field: Fq) -> np.ndarray:
    """The x in F_q^n with <x, x> = 1, as uint8 rows in code order."""
    vectors = decode(np.arange(field.q ** n), n, field.q)
    return vectors[_inner(vectors, vectors, field) == 1]


def _reflection_entries(field: Fq, ws: np.ndarray) -> np.ndarray:
    """Hyperplane reflections x -> x - 2(<w,x>/<w,w>)w of the non-isotropic
    rows w of ws, as uint8 rows of n^2 entries: I + (-2/<w,w>) w^T w."""
    add, mul = field.arrays()
    n = ws.shape[1]
    minus_two = field.neg(field.add(1, 1))
    coef = np.array([0] + [field.div(minus_two, a) for a in range(1, field.q)],
                    dtype=np.uint8)[_inner(ws, ws, field)]
    scaled = mul[coef[:, None, None], mul[ws[:, :, None], ws[:, None, :]]]
    return add[np.eye(n, dtype=np.uint8), scaled].reshape(-1, n * n)


def enumerate_o(n: int, field: Fq, cap: int = DEFAULT_GROUP_CAP) -> GroupTable:
    """O_n(F_q) for the identity form, q odd, by extending orthonormal row
    prefixes, all prefixes of one length at a time: the next row is any
    unit vector orthogonal to every row so far.  Each prefix carries the
    mask of units still allowed, narrowed at each depth by one gather from
    the units' orthogonality table.

    Three routes check the table: every element passes g^T g = I; the
    closed-form order; and the closure over the reflections in id order
    reaches exactly the table (Cartan-Dieudonne), every product being
    looked up by ``ids_of``."""
    if field.p == 2:
        raise DomainError(
            "orthogonal pipeline requires odd q (reflections divide by 2)")
    q = field.q
    check_code_range(n, q)
    expected = o_order(n, field)
    if expected > cap:
        raise CapExceededError(f"|O_{n}(F_{q})| = {expected} exceeds cap {cap}")
    units = unit_vectors(n, field)
    orthogonal = _inner(units[:, None], units[None], field) == 0
    prefixes = np.zeros((1, 0), dtype=np.uint8)
    allowed = np.ones((1, len(units)), dtype=bool)
    for depth in range(n):
        prefix, u = np.nonzero(allowed)
        prefixes = np.hstack([prefixes[prefix], units[u]])
        if depth + 1 < n:
            allowed = allowed[prefix] & orthogonal[u]
    if len(prefixes) != expected:
        raise InternalCheckError(
            f"orthonormal row extension has {len(prefixes)} elements, but "
            f"|O_{n}(F_{q})| = {expected}")
    gram = mul_batch(prefixes.reshape(-1, n, n).transpose(0, 2, 1), prefixes,
                     n, field)
    if np.any(gram != np.array(identity_flat(n), dtype=np.uint8)):
        raise InternalCheckError("row extension left the orthogonal group")

    table = GroupTable("O", n, field, prefixes)
    table._close()
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
