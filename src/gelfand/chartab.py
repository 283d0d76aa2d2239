"""Conjugacy classes and complex character tables by the modular method.

Conjugacy classes are the orbits (``groups.orbits``) of the id permutations
x -> a x a^-1 for the generators a of the group, gathered from the
generators' cached left and right permutations
(``GroupTable.conjugation_perms``); class ids follow the minimal element
ids.  The right-regular rows x -> x t of the class representatives t
(``GroupTable.right_rows``, gathers along the Schreier tree) give both the
element orders and the structure constants, in one walk.

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
N_i w = w_i w for the matrix N_i[j][m] = a_ijm, so the k vectors w are
eigenvectors of N = sum_i s^i N_i.  The identity-class unit vector u has a
nonzero component d_chi^2/|G| on every w_chi; a Krylov basis of u gives the
minimal polynomial P of N, and each Lagrange projection P(N)/(N - mu) u is
u's component at one eigenvalue mu.  With s = 2 these are usually the k
vectors w; components sharing an eigenvalue are split again by s = 3, 4,
..., k + 1.  Degrees follow from the first orthogonality relation, values
from chi_i = d * w_i / h_i.

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


def _block_orders(g: GroupTable, rows: np.ndarray) -> list[int]:
    """Orders of the elements t whose rows x -> x t form the block: t^(m+1)
    is t's row read at t^m, until every power reaches the identity."""
    e = g.identity_id
    cur = rows[:, e].copy()  # t itself
    order = np.ones(len(cur), dtype=np.int64)
    live = np.flatnonzero(cur != e)
    while live.size:
        if order[live[0]] >= g.order:
            raise InternalCheckError("element powers never reach the "
                                     "identity; right rows are wrong")
        cur[live] = rows[live, cur[live]]
        order[live] += 1
        live = live[cur[live] != e]
    return order.tolist()


def element_orders(g: GroupTable, ids) -> list[int]:
    """Orders of the given elements, read from their right-regular rows."""
    return [o for rows in g.right_rows(ids) for o in _block_orders(g, rows)]


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


def _poly_roots(coeffs: np.ndarray, l: int) -> np.ndarray:
    lam = np.arange(l, dtype=np.int64)
    acc = np.zeros(l, dtype=np.int64)
    for c in reversed(coeffs):
        acc = (acc * lam + c) % l
    return np.nonzero(acc == 0)[0]


def _separator_bases(k: int) -> range:
    # two central characters share an eigenvalue of sum_i s^i N_i only at
    # the < k roots of a nonzero polynomial in s: k values separate them all
    return range(2, k + 2)


def _lagrange_split(n_mat: np.ndarray, v: np.ndarray, l: int,
                    cap: int) -> np.ndarray:
    """v's components in the eigenspaces of n_mat, as columns: the Krylov
    basis K = [v, N v, ...] (no longer than cap, the characters v may hold)
    gives the minimal polynomial P of N on v, and K (P(x) / (x - mu)) the
    component at mu."""
    krylov = np.zeros((len(v), cap + 1), dtype=np.int64)
    krylov[:, 0] = v
    for j in range(cap):
        krylov[:, j + 1] = n_mat @ krylov[:, j] % l
    red, pivots = _rref(krylov, l)
    r = len(pivots)
    if r > cap:
        raise InternalCheckError("a Krylov space outgrows its part")
    # N^r v = sum_j red[j, r] N^j v, so P = x^r - sum_j red[j, r] x^j
    poly = np.append(-red[:r, r] % l, 1)
    mu = _poly_roots(poly, l)
    if len(mu) != r:
        raise InternalCheckError("a class-algebra element is not "
                                 "diagonalisable over F_l")
    # synthetic division by every x - mu_j at once: q_(i-1) = p_i + mu_j q_i
    quot = np.ones((r, r), dtype=np.int64)
    for i in range(r - 1, 0, -1):
        quot[:, i - 1] = (poly[i] + mu * quot[:, i]) % l
    return krylov[:, :r] @ quot.T % l


def _split_eigenspaces(a: np.ndarray, l: int,
                       identity_class: int) -> np.ndarray:
    """Common eigenvectors of the class matrices N_i = a[i], one per
    irreducible, as the columns of a (k, k) array with identity entry 1:
    each N = sum_i s^i N_i splits every part of the identity-class unit
    vector into its components in N's eigenspaces."""
    k = a.shape[0]
    flat = a.reshape(k, k * k)  # a view: the (k, k, k) tensor is not copied
    parts = np.zeros((k, 1), dtype=np.int64)
    parts[identity_class, 0] = 1
    used = []
    for s in _separator_bases(k):
        if parts.shape[1] == k:
            break
        coeffs = np.array([pow(s, i, l) for i in range(k)], dtype=np.int64)
        used.append((coeffs @ flat).reshape(k, k) % l)
        parts = np.hstack([_lagrange_split(used[-1], v, l,
                                           k - parts.shape[1] + 1)
                           for v in parts.T])
    if parts.shape[1] != k:
        raise InternalCheckError(
            f"no separating class-algebra elements among s in "
            f"{_separator_bases(k)} for k = {k} classes mod l = {l}")
    pivot = parts[identity_class]
    if not pivot.all():
        raise InternalCheckError("central character vanishes at the identity")
    vecs = parts * [pow(int(p), -1, l) for p in pivot] % l
    for n_mat in used:
        images = n_mat @ vecs % l
        if not np.array_equal(images, vecs * images[identity_class] % l):
            raise InternalCheckError("a Lagrange projection is not an "
                                     "eigenvector of a separating element")
    return vecs


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


def _class_algebra(g: GroupTable,
                   classes: ConjClasses) -> tuple[list[int], np.ndarray]:
    """Orders of the class reps t_m and a[i, j, m] = #{(x, y) in C_i x C_j :
    x y = t_m}, from one walk over the reps' right-regular rows.

    The pairs are (u^-1, u t_m) for u in G, so each class rep t_m needs the
    class of every u t_m: its right-regular row.  The first block's last row
    is also made by one batched product, checked before any order is read."""
    k = classes.count
    class_of = np.array(classes.class_of)
    inv_cell = class_of[g.inverse_ids] * k
    a = np.zeros((k, k, k), dtype=np.int64)
    orders = []
    m_idx = 0
    for rows in g.right_rows(classes.reps):
        for row in rows:
            a[:, :, m_idx] = np.bincount(inv_cell + class_of[row],
                                         minlength=k * k).reshape(k, k)
            m_idx += 1
        rep = classes.reps[m_idx - 1]
        if m_idx == len(rows) and rep != g.identity_id and not np.array_equal(
                rows[-1], g.perm(g.mat[rep])):
            raise InternalCheckError("right-regular row of class rep "
                                     f"{format_matrix(g.element(rep))} "
                                     "differs from its batched product")
        orders += _block_orders(g, rows)
    # orientation sanity: x y = identity forces y = x^-1
    expected = np.zeros((k, k), dtype=np.int64)
    expected[np.arange(k), classes.inverse_class] = classes.sizes
    if not np.array_equal(a[:, :, class_of[g.identity_id]], expected):
        raise InternalCheckError("structure constants fail the "
                                 "inverse-class identity")
    return orders, a


def _structure_constants(g: GroupTable, classes: ConjClasses) -> np.ndarray:
    """The structure constants of ``_class_algebra`` alone."""
    return _class_algebra(g, classes)[1]


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

    order = g.order
    orders, a = _class_algebra(g, classes)
    exponent = math.lcm(*orders)
    l = choose_modulus(order, exponent, prime_bound)
    root = pow(_smallest_primitive_root(l), (l - 1) // exponent, l)

    # one normalised central character w per row
    w = _split_eigenspaces(a, l, classes.class_of[g.identity_id]).T
    inv_sizes = np.array([pow(s, -1, l) for s in classes.sizes])
    denoms = (w * w[:, classes.inverse_class] % l * inv_sizes % l).sum(1) % l
    sqrt_cap = math.isqrt(order)
    lifted = []
    for s in denoms.tolist():
        if s == 0:
            raise InternalCheckError("degree denominator vanished mod l")
        d2 = order * pow(s, -1, l) % l
        d = math.isqrt(d2)
        if d * d != d2 or not 1 <= d <= sqrt_cap:
            raise InternalCheckError(
                f"degree lift failed: residue {d2} is not an admissible square")
        lifted.append(d)
    chis = np.array(lifted)[:, None] * w % l * inv_sizes % l
    rows = sorted(zip(lifted, chis.tolist()))

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
