"""Conjugacy classes and complex character tables by the modular method.

Conjugacy classes are the orbits (``groups.orbits``) of the id permutations
x -> a x a^-1 for the generators a of the group, gathered from the
generators' cached left and right permutations
(``GroupTable.conjugation_perms``); class ids follow the minimal element
ids.  The right-regular rows x -> x t of the class representatives t
(``GroupTable.right_rows``, gathers along the Schreier tree) give both the
element orders and the structure constants.

Character values live in Z[zeta_m] for m the group exponent; instead of
cyclotomic arithmetic everything is computed in F_l for a prime l chosen
with l = 1 (mod m) and l > 2|G|.  The first condition makes F_l contain a
primitive m-th root of unity, so every character value reduces to a
residue; the second makes every integer quantity we report (degrees,
invariant dimensions, coset counts) recoverable from its residue by
lifting into a stated interval.

The table itself comes from the class algebra.  With class sums z_i and
structure constants a_ijm (z_i z_j = sum_m a_ijm z_m;
counted with ``np.bincount`` from the rows of the class representatives;
one row is recomputed by a batched product as a cross-check), the vector
w = (omega(z_1), ..., omega(z_k)) of a central character satisfies
N_i w = w_i w for the matrix N_i[j][m] = a_ijm.  The N_i commute, so
iterated eigenspace splitting over F_l (class matrices in ascending class
id order, eigenvalues ascending within a space) reaches k one-dimensional
common eigenspaces, one per irreducible.  Degrees follow from the first
orthogonality relation, values from chi_i = d * w_i / h_i.

Invariant dimensions are averaged character sums:
dim pi^H = (1/|H|) sum_{h in H} chi(h), computed mod l and lifted into
[0, degree]; the dual uses the inverse class in place of the class.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, InternalCheckError
from .field import is_prime
from .groups import Embedding, GroupTable, orbits
# perfbench/tracing.py counts group-element products through this name in
# every module that loops over a group, so the import stays.
from .matrix import format_matrix, mul_flat  # noqa: F401

PRIME_SEARCH_BOUND = 10 ** 7
CACHE_SCHEMA = "gelfand-chartab/1"


# -- conjugacy classes ---------------------------------------------------------

@dataclass
class ConjClasses:
    class_of: list[int]
    reps: list[int]
    sizes: list[int]
    inverse_class: list[int]

    @property
    def count(self) -> int:
        return len(self.reps)


def conjugacy_classes(g: GroupTable) -> ConjClasses:
    """Orbits of conjugation by a generating set; ids by minimal element."""
    inv = g.inverse_ids
    reps, class_of, sizes = np.unique(orbits(g.conjugation_perms(), g.order),
                                      return_inverse=True, return_counts=True)
    if sizes.sum() != g.order:
        raise InternalCheckError("conjugacy classes do not partition the group")
    if sizes[class_of[g.identity_id]] != 1:
        raise InternalCheckError("identity class is not a singleton")
    return ConjClasses(class_of.tolist(), reps.tolist(), sizes.tolist(),
                       class_of[inv[reps]].tolist())


def element_order(g: GroupTable, i: int) -> int:
    """Order of one element by repeated products (a reference for tests)."""
    e = g.identity_id
    if i == e:
        return 1
    cur = i
    m = 1
    while cur != e:
        cur = g.mul_ids(cur, i)
        m += 1
    return m


def element_orders(g: GroupTable, ids) -> list[int]:
    """Orders of the given elements: t^(m+1) is the row x -> x t read at
    t^m, iterated until every power reaches the identity."""
    orders = []
    for rows in g.right_rows(ids):
        cur = rows[:, g.identity_id].copy()  # t itself
        order = np.ones(len(cur), dtype=np.int64)
        live = np.flatnonzero(cur != g.identity_id)
        while live.size:
            if order[live[0]] >= g.order:
                raise InternalCheckError("element powers never reach the "
                                         "identity; right rows are wrong")
            cur[live] = rows[live, cur[live]]
            order[live] += 1
            live = live[cur[live] != g.identity_id]
        orders += order.tolist()
    return orders


def group_exponent(g: GroupTable, classes: ConjClasses) -> int:
    return math.lcm(*element_orders(g, classes.reps))


# -- the modulus l and roots of unity ------------------------------------------

def choose_modulus(order: int, exponent: int,
                   bound: int = PRIME_SEARCH_BOUND) -> int:
    """Smallest prime l = 1 (mod exponent) with l > 2|G|."""
    t = (2 * order - 1) // exponent + 1
    while True:
        l = exponent * t + 1
        if l > bound:
            raise DomainError(
                f"no usable prime below {bound} for exponent {exponent}")
        if l > 2 * order and is_prime(l):
            return l
        t += 1


def _smallest_primitive_root(l: int) -> int:
    rest = l - 1
    factors = []
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            factors.append(d)
            while rest % d == 0:
                rest //= d
        d += 1
    if rest > 1:
        factors.append(rest)
    for g in range(2, l):
        if all(pow(g, (l - 1) // p, l) != 1 for p in factors):
            return g
    raise InternalCheckError(f"no primitive root mod {l}")  # pragma: no cover


# -- linear algebra over F_l ----------------------------------------------------

def _rref(mat: np.ndarray, l: int):
    m = mat % l
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, l)) % l
        col = m[:, c].copy()
        col[r] = 0
        m = (m - np.outer(col, m[r])) % l
        pivots.append(c)
        r += 1
    return m, pivots


def _nullspace(mat: np.ndarray, l: int) -> np.ndarray:
    """Columns spanning the kernel of mat over F_l."""
    rows, cols = mat.shape
    r, pivots = _rref(mat, l)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for j, fc in enumerate(free):
        basis[fc, j] = 1
        for i, pc in enumerate(pivots):
            basis[pc, j] = (-int(r[i, fc])) % l
    return basis


def _restrict(n_mat: np.ndarray, basis: np.ndarray, l: int) -> np.ndarray:
    """Matrix of the action of n_mat on an invariant column space."""
    r = basis.shape[1]
    image = (n_mat @ basis) % l
    red, pivots = _rref(np.hstack([basis, image]), l)
    if pivots[:r] != list(range(r)):
        raise InternalCheckError("subspace basis lost column independence")
    return red[:r, r:]


def _charpoly(a: np.ndarray, l: int) -> list[int]:
    """Coefficients c_0..c_r of det(x I - a) mod l (Faddeev-LeVerrier)."""
    r = a.shape[0]
    coeffs = [0] * (r + 1)
    coeffs[r] = 1
    m = np.eye(r, dtype=np.int64)
    for k in range(1, r + 1):
        x = (a @ m) % l
        c = (-int(np.trace(x)) * pow(k, -1, l)) % l
        coeffs[r - k] = c
        m = (x + c * np.eye(r, dtype=np.int64)) % l
    return coeffs


def _poly_roots(coeffs: list[int], l: int) -> np.ndarray:
    lam = np.arange(l, dtype=np.int64)
    acc = np.zeros(l, dtype=np.int64)
    for c in reversed(coeffs):
        acc = (acc * lam + c) % l
    return np.nonzero(acc == 0)[0]


def _split_eigenspaces(class_mats: list[np.ndarray], l: int,
                       identity_class: int) -> list[np.ndarray]:
    """Common eigenvectors of the commuting class matrices, one per irreducible."""
    k = len(class_mats)
    subspaces = [np.eye(k, dtype=np.int64)]
    for idx in range(k):
        if all(b.shape[1] == 1 for b in subspaces):
            break
        n_mat = class_mats[idx] % l
        refined = []
        for basis in subspaces:
            r = basis.shape[1]
            if r == 1:
                refined.append(basis)
                continue
            a = _restrict(n_mat, basis, l)
            roots = _poly_roots(_charpoly(a, l), l)
            total = 0
            for root in roots:
                ker = _nullspace((a - int(root) * np.eye(r, dtype=np.int64)) % l, l)
                if ker.shape[1] == 0:
                    continue
                refined.append((basis @ ker) % l)
                total += ker.shape[1]
            if total != r:
                raise InternalCheckError(
                    "class matrix is not diagonalizable over F_l")
        subspaces = refined
    if len(subspaces) != k or any(b.shape[1] != 1 for b in subspaces):
        raise InternalCheckError(
            "eigenspace splitting did not reach k one-dimensional spaces")
    vectors = []
    for basis in subspaces:
        v = basis[:, 0] % l
        pivot = int(v[identity_class])
        if pivot == 0:
            raise InternalCheckError("central character vanishes at the identity")
        vectors.append((v * pow(pivot, -1, l)) % l)
    return vectors


# -- the character table ---------------------------------------------------------

@dataclass
class CharacterTable:
    group: GroupTable
    classes: ConjClasses
    l: int
    root: int
    degrees: list[int]
    values: list[list[int]]

    @property
    def count(self) -> int:
        return len(self.degrees)

    def identity_class(self) -> int:
        return self.classes.class_of[self.group.identity_id]


def _structure_constants(g: GroupTable, classes: ConjClasses) -> np.ndarray:
    """a[i, j, m] = #{(x, y) in C_i x C_j : x y = t_m} for fixed t_m.

    The pairs are (u^-1, u t_m) for u in G, so each class rep t_m needs the
    class of every u t_m: its right-regular row.  The row of the last rep
    is also computed by one batched product, and any difference raises."""
    k = classes.count
    class_of = np.array(classes.class_of)
    inv_cell = class_of[g.inverse_ids] * k
    a = np.zeros((k, k, k), dtype=np.int64)
    m_idx = 0
    for rows in g.right_rows(classes.reps):
        for row in rows:
            a[:, :, m_idx] = np.bincount(inv_cell + class_of[row],
                                         minlength=k * k).reshape(k, k)
            m_idx += 1
    rep = classes.reps[-1]
    if rep != g.identity_id and not np.array_equal(rows[-1],
                                                   g.perm(g.mat[rep])):
        raise InternalCheckError(
            f"right-regular row of class rep {format_matrix(g.element(rep))} "
            "differs from its batched product")
    # orientation sanity: x y = identity forces y = x^-1
    expected = np.zeros((k, k), dtype=np.int64)
    expected[np.arange(k), classes.inverse_class] = classes.sizes
    if not np.array_equal(a[:, :, class_of[g.identity_id]], expected):
        raise InternalCheckError("structure constants fail the "
                                 "inverse-class identity")
    return a


def _verify_orthogonality(t: CharacterTable):
    l = t.l
    k = t.count
    order = t.group.order
    # int64 is plenty for every group under the default caps; degrade to
    # exact object arithmetic if a huge modulus would overflow the matmul
    dtype = np.int64 if l * l * max(t.classes.sizes) * k < 2 ** 62 else object
    v = np.array(t.values, dtype=dtype)
    sizes = np.array(t.classes.sizes, dtype=dtype)
    inv = t.classes.inverse_class
    rows = ((v * sizes) @ v[:, inv].T) % l
    if not np.array_equal(rows, (order % l) * np.eye(k, dtype=np.int64) % l):
        raise InternalCheckError("row orthogonality fails mod l")
    cols = (v.T @ v[:, inv]) % l
    expected = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        expected[i, i] = order * pow(int(sizes[i]), -1, l) % l
    if not np.array_equal(cols, expected):
        raise InternalCheckError("column orthogonality fails mod l")


def character_table(g: GroupTable, classes: ConjClasses,
                    cache_dir: str | Path | None = None,
                    prime_bound: int = PRIME_SEARCH_BOUND) -> CharacterTable:
    """Irreducible character values as residues mod l, degrees as integers.

    Rows are sorted by (degree, value row) so the table is deterministic.
    With cache_dir set, a previously computed table for the same
    (kind, n, q) is reused when its class data matches.
    """
    if cache_dir is not None:
        cached = load_character_table(g, classes, cache_dir)
        if cached is not None:
            return cached

    k = classes.count
    order = g.order
    exponent = group_exponent(g, classes)
    l = choose_modulus(order, exponent, prime_bound)
    root = pow(_smallest_primitive_root(l), (l - 1) // exponent, l)

    a = _structure_constants(g, classes)
    class_mats = list(a)
    e_cls = classes.class_of[g.identity_id]
    vectors = _split_eigenspaces(class_mats, l, e_cls)

    inv_sizes = [pow(s, -1, l) for s in classes.sizes]
    sqrt_cap = math.isqrt(order)
    rows = []
    for w in vectors:
        s = 0
        for i in range(k):
            s = (s + int(w[i]) * int(w[classes.inverse_class[i]])
                 * inv_sizes[i]) % l
        if s == 0:
            raise InternalCheckError("degree denominator vanished mod l")
        d2 = order * pow(s, -1, l) % l
        d = math.isqrt(d2)
        if d * d != d2 or not 1 <= d <= sqrt_cap:
            raise InternalCheckError(
                f"degree lift failed: residue {d2} is not an admissible square")
        chi = [d * int(w[i]) % l * inv_sizes[i] % l for i in range(k)]
        rows.append((d, chi))
    rows.sort(key=lambda dc: (dc[0], dc[1]))

    degrees = [d for d, _ in rows]
    if sum(d * d for d in degrees) != order:
        raise InternalCheckError("sum of squared degrees != |G|")
    for d in degrees:
        if order % d:
            raise InternalCheckError(f"degree {d} does not divide |G| = {order}")
    table = CharacterTable(g, classes, l, root, degrees,
                           [chi for _, chi in rows])
    _verify_orthogonality(table)
    if cache_dir is not None:
        save_character_table(table, cache_dir)
    return table


# -- caching ---------------------------------------------------------------------

def cache_path(cache_dir: str | Path, kind: str, n: int, q: int) -> Path:
    return Path(cache_dir) / f"chartab-{kind.lower()}{n}-q{q}-v1.json"


def save_character_table(t: CharacterTable, cache_dir: str | Path) -> Path:
    g = t.group
    path = cache_path(cache_dir, g.kind, g.n, g.field.q)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": CACHE_SCHEMA,
        "kind": g.kind.lower(),
        "n": g.n,
        "q": g.field.q,
        "l": t.l,
        "root": t.root,
        "class_reps": [format_matrix(g.element(r)) for r in t.classes.reps],
        "class_sizes": t.classes.sizes,
        "degrees": t.degrees,
        "values": t.values,
    }
    # write a sibling temp file and rename it over the target, so a reader
    # never sees a partial table; the pid keeps concurrent sweep workers apart
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_character_table(g: GroupTable, classes: ConjClasses,
                         cache_dir: str | Path) -> CharacterTable | None:
    path = cache_path(cache_dir, g.kind, g.n, g.field.q)
    if not path.is_file():
        return None
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if payload.get("schema") != CACHE_SCHEMA:
        return None
    reps = [format_matrix(g.element(r)) for r in classes.reps]
    if (payload.get("class_reps") != reps
            or payload.get("class_sizes") != classes.sizes):
        return None  # stale cache for a different enumeration
    table = CharacterTable(g, classes, payload["l"], payload["root"],
                           payload["degrees"],
                           [list(row) for row in payload["values"]])
    _verify_orthogonality(table)
    return table


# -- invariant dimensions ---------------------------------------------------------

@dataclass
class IrrepInvariants:
    degree: int
    dim_inv: int
    dim_dual_inv: int


@dataclass
class InvariantReport:
    rows: list[IrrepInvariants]
    max_dim_inv: int
    histogram: dict[int, int]

    @property
    def dual_dims_match(self) -> bool:
        return all(r.dim_inv == r.dim_dual_inv for r in self.rows)


def dim_invariants(t: CharacterTable, emb: Embedding) -> InvariantReport:
    """dim pi^H and dim (pi*)^H per irreducible, by averaged character sums."""
    if emb.big is not t.group:
        raise DomainError("embedding does not target the table's group")
    l = t.l
    classes = t.classes
    cnt = [0] * classes.count
    for img in emb.map:
        cnt[classes.class_of[img]] += 1
    h_order = len(emb.map)
    inv_h = pow(h_order, -1, l)
    rows = []
    for degree, chi in zip(t.degrees, t.values):
        s = sum(c * chi[i] for i, c in enumerate(cnt) if c) % l
        s_dual = sum(c * chi[classes.inverse_class[i]]
                     for i, c in enumerate(cnt) if c) % l
        dim = s * inv_h % l
        dim_dual = s_dual * inv_h % l
        for r in (dim, dim_dual):
            if r > degree:
                raise InternalCheckError(
                    f"invariant dimension residue {r} lifts outside "
                    f"[0, {degree}]; the table is broken")
        rows.append(IrrepInvariants(degree, dim, dim_dual))
    max_dim = max(r.dim_inv for r in rows)
    hist: dict[int, int] = {}
    for r in rows:
        hist[r.dim_inv] = hist.get(r.dim_inv, 0) + 1
    return InvariantReport(rows, max_dim, hist)


# -- the headline bound check ------------------------------------------------------

@dataclass
class VerificationOutcome:
    passed: bool
    max_dim_inv: int
    bound: int
    attained: bool
    failures: list[str]


def verify_pair(table: CharacterTable, invariants: InvariantReport,
                k: int) -> VerificationOutcome:
    """Check max dim pi^H against k+1 and the kind-specific bound (2 or 1)."""
    kind = table.group.kind
    kind_bound = 2 if kind == "GL" else 1
    failures = []
    for idx, row in enumerate(invariants.rows):
        if row.dim_inv > k + 1 or row.dim_inv > kind_bound:
            failures.append(
                f"irreducible #{idx} (degree {row.degree}): "
                f"dim_inv = {row.dim_inv} exceeds bound "
                f"min(k+1, {kind_bound}) = {min(k + 1, kind_bound)}")
    return VerificationOutcome(
        passed=not failures,
        max_dim_inv=invariants.max_dim_inv,
        bound=k + 1,
        attained=invariants.max_dim_inv == k + 1,
        failures=failures,
    )


def transpose_preserves_classes(g: GroupTable, classes: ConjClasses) -> bool:
    cls = np.array(classes.class_of)
    return np.array_equal(cls[g.transpose_ids], cls)
