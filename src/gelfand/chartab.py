"""Conjugacy classes and complex character tables by the modular method.

Conjugacy classes are the orbits (``groups.orbits``) of the id permutations
x -> a x a^-1 for the generators a of the group, gathered from the
generators' cached left and right permutations
(``GroupTable.conjugation_perms``); class ids follow the minimal element
ids.

Character values live in Z[zeta_m] for m the group exponent; instead of
cyclotomic arithmetic everything is computed in F_l for a prime l chosen
with l = 1 (mod m) and l > 2|G|.  The first condition makes F_l contain a
primitive m-th root of unity, so every character value reduces to a
residue; the second makes every integer quantity we report (degrees,
invariant dimensions, coset counts) recoverable from its residue by
lifting into a stated interval.  So the element orders come first, before
any walk over the group: the class reps' powers t, t^2, ..., t^(2^j) by
batched doubling (``mul_batch``), until each reaches the identity.

The table itself comes from the class algebra.  With class sums z_i and
structure constants a_ijm (z_i z_j = sum_m a_ijm z_m), the vector
w = (omega(z_1), ..., omega(z_k)) of a central character satisfies
N_i w = w_i w for the matrix N_i[j][m] = a_ijm, so the k vectors w are
eigenvectors of every separator N_s = sum_i s^i N_i.  Only separators are
ever used, so the (k, k, k) tensor is never built: N_s is counted directly
by one walk over the right-regular rows x -> x t of the class reps
(``GroupTable.right_rows``, gathers along the Schreier tree; Dixon-Schneider,
G. Schneider, J. Symbolic Comput. 9, 1990).  Column m is a ``bincount`` of
the classes of u t_m weighted by s^(class of u^-1), in float64, exact while
|G| (l - 1) < 2^53.  The first walk also reads the element orders off the
rows, a second route to the powers, and one of its rows is recomputed by
``GroupTable.perm``.

The identity-class unit vector u has a nonzero component d_chi^2/|G| on
every w_chi; a Krylov basis of u gives the minimal polynomial P of N_s, and
each Lagrange projection P(N_s)/(N_s - mu) u is u's component at one
eigenvalue mu.  The roots mu come from one int64 product: for a primitive
root g mod l, P(g^(a + n1 b)) with n1 ~ sqrt(l) is entry (a, b) of
(U diag(c)) V, U[a, j] = g^(a j) and V[j, b] = g^(n1 b j).  Every int64
product mod l sums at most k + 1 terms below l^2, exact while
(k + 1) l^2 < 2^63; both bounds are checked before the walk.  With s = 2
the projections are usually the k vectors w, from one walk; components
sharing an eigenvalue are split again by s = 3, 4, ..., k + 1, one walk
each.  Degrees follow from the first orthogonality relation, values from
chi_i = d * w_i / h_i.

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

from .errors import CapExceededError, DomainError, InternalCheckError
from .field import is_prime
from .groups import Embedding, GroupTable, encode, number_orbits, orbits
# perfbench/tracing.py counts group-element products through this name in
# every module that loops over a group, so the import stays.
from .matrix import format_matrix, mul_batch, mul_flat  # noqa: F401

CACHE_SCHEMA = "gelfand-chartab/1"


# -- conjugacy classes ---------------------------------------------------------

@dataclass
class ConjClasses:
    class_of: np.ndarray  # class id of every element id
    reps: list[int]
    sizes: list[int]
    inverse_class: list[int]

    @property
    def count(self) -> int:
        return len(self.reps)


def conjugacy_classes(g: GroupTable) -> ConjClasses:
    """Orbits of conjugation by a generating set; ids by minimal element."""
    inv = g.inverse_ids
    reps, class_of = number_orbits(orbits(g.conjugation_perms(), g.order))
    sizes = np.bincount(class_of)
    if sizes.sum() != g.order:
        raise InternalCheckError("conjugacy classes do not partition the group")
    if sizes[class_of[g.identity_id]] != 1:
        raise InternalCheckError("identity class is not a singleton")
    return ConjClasses(class_of, reps.tolist(), sizes.tolist(),
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


def power_orders(g: GroupTable, ids) -> list[int]:
    """Orders of the elements t of ``ids`` by batched doubling: from the
    powers t, ..., t^(2^j) of every t not yet seen at the identity, one
    ``mul_batch`` by t^(2^j) gives t^(2^j + 1), ..., t^(2^(j+1)); t's order
    is the exponent of its first power with the identity's code."""
    n = g.n
    identity_code = g.codes[g.identity_id]
    ids = np.asarray(ids, dtype=np.int64)
    order = np.zeros(len(ids), dtype=np.int64)
    live = np.arange(len(ids))
    powers = g.mat[ids][:, None]  # powers[i, e - 1] = t_i^e, e <= 2^j
    new, done = powers, 0  # new[i, e] = t_i^(done + 1 + e)
    while True:
        hits = encode(new.reshape(-1, n * n), g.field.q).reshape(
            new.shape[:2]) == identity_code
        found = hits.any(1)
        order[live[found]] = done + 1 + hits[found].argmax(1)
        live, powers = live[~found], powers[~found]
        if not live.size:
            return order.tolist()
        done = powers.shape[1]
        if done >= g.order:
            raise InternalCheckError(
                f"powers of {format_matrix(g.element(int(ids[live[0]])))} "
                "never reach the identity")
        new = mul_batch(np.repeat(powers[:, -1], done, axis=0),
                        powers.reshape(-1, n * n), n, g.field
                        ).reshape(powers.shape)
        powers = np.concatenate([powers, new], axis=1)


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


# -- the modulus l and roots of unity ------------------------------------------

def choose_modulus(order: int, exponent: int) -> int:
    """Smallest prime l = 1 (mod exponent) with l > 2|G|; by Dirichlet's
    theorem one exists, and ``character_table`` bounds it by exactness."""
    t = (2 * order - 1) // exponent + 1
    while True:
        l = exponent * t + 1
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
    """Reduced row echelon form mod l and its pivot columns.  Each pivot
    reduces only its own row and column and subtracts one unreduced rank-1
    update, so entries stay below (rows + 1) l^2 in absolute value; the
    matrix is reduced once at the end."""
    m = mat % l
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = m[:, c] % l
        nz = np.nonzero(col[r:])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
            col[[r, i]] = col[[i, r]]
        m[r] = m[r] % l * pow(int(col[r]), -1, l) % l
        col[r] = 0
        m -= np.outer(col, m[r])
        pivots.append(c)
        r += 1
    return m % l, pivots


def _powers(base, count: int, l: int) -> np.ndarray:
    """out[i, j] = base[i]^j mod l for j < count, doubling the known
    columns at each step."""
    step = np.array(base, dtype=np.int64)  # base^m
    out = np.ones((len(step), count), dtype=np.int64)
    m = 1
    while m < count:
        width = min(m, count - m)
        out[:, m:m + width] = out[:, :width] * step[:, None] % l
        step = step * step % l
        m *= 2
    return out


def _poly_roots(coeffs: np.ndarray, l: int, g: int) -> np.ndarray:
    """The roots in F_l, ascending, of P = sum_j coeffs[j] x^j of degree r,
    for a primitive root g mod l.  0 is a root when coeffs[0] is 0; every
    other residue is g^(a + n1 b) with a < n1 ~ sqrt(l - 1) and b < n2, and
    P(g^(a + n1 b)) = sum_j (g^(a j) c_j) g^(n1 b j) is entry (a, b) of one
    int64 product (U diag(c)) V, exact while (r + 1) (l - 1)^2 < 2^63."""
    r = len(coeffs) - 1
    n1 = math.isqrt(l - 1)
    n2 = -(-(l - 1) // n1)
    g_a = _powers([g], n1, l)[0]  # g^a
    g_b = _powers([pow(g, n1, l)], n2, l)[0]  # g^(n1 b)
    # V as the transpose of a C-ordered array: numpy's integer matmul
    # then reads both operands along their rows, twice as fast
    values = (_powers(g_a, r + 1, l) * coeffs % l) @ _powers(g_b, r + 1, l).T
    values %= l
    a, b = np.nonzero(values == 0)
    inside = a + n1 * b < l - 1  # n1 n2 may pass l - 1 exponents
    roots = g_a[a[inside]] * g_b[b[inside]] % l
    if coeffs[0] % l == 0:
        roots = np.append(roots, 0)
    return np.sort(roots)


def _separator_bases(k: int) -> range:
    # two central characters share an eigenvalue of sum_i s^i N_i only at
    # the < k roots of a nonzero polynomial in s: k values separate them all
    return range(2, k + 2)


def _lagrange_split(n_mat: np.ndarray, v: np.ndarray, l: int, g: int,
                    cap: int) -> np.ndarray:
    """v's components in the eigenspaces of n_mat, as columns: the Krylov
    basis K = [v, N v, ...] (no longer than cap, the characters v may hold)
    gives the minimal polynomial P of N on v, and K (P(x) / (x - mu)) the
    component at mu.  g is a primitive root mod l."""
    krylov = np.zeros((len(v), cap + 1), dtype=np.int64)
    krylov[:, 0] = v
    for j in range(cap):
        krylov[:, j + 1] = n_mat @ krylov[:, j] % l
    red, pivots = _rref(krylov, l)
    r = len(pivots)
    if r > cap:
        raise InternalCheckError("a Krylov space outgrows its part")
    if r == 1:  # v is an eigenvector: P = x - mu has its one root
        return krylov[:, :1]
    # N^r v = sum_j red[j, r] N^j v, so P = x^r - sum_j red[j, r] x^j
    poly = np.append(-red[:r, r] % l, 1)
    mu = _poly_roots(poly, l, g)
    if len(mu) != r:
        raise InternalCheckError("a class-algebra element is not "
                                 "diagonalisable over F_l")
    # synthetic division by every x - mu_j at once: q_(i-1) = p_i + mu_j q_i
    quot = np.ones((r, r), dtype=np.int64)
    for i in range(r - 1, 0, -1):
        quot[:, i - 1] = (poly[i] + mu * quot[:, i]) % l
    return krylov[:, :r] @ quot.T % l


def _split_eigenspaces(separator, k: int, l: int, g: int,
                       identity_class: int) -> np.ndarray:
    """Common eigenvectors of the k class matrices N_i, one per irreducible,
    as the columns of a (k, k) array with identity entry 1: each separator
    N_s = sum_i s^i N_i, read as ``separator(s)``, splits every part of the
    identity-class unit vector into its components in N_s's eigenspaces.
    g is a primitive root mod l."""
    parts = np.zeros((k, 1), dtype=np.int64)
    parts[identity_class, 0] = 1
    used = []
    for s in _separator_bases(k):
        if parts.shape[1] == k:
            break
        used.append(separator(s))
        parts = np.hstack([_lagrange_split(used[-1], v, l, g,
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
        return int(self.classes.class_of[self.group.identity_id])


def _separator(g: GroupTable, classes: ConjClasses, l: int, s: int,
               orders: list[int] | None = None) -> np.ndarray:
    """N_s = sum_i s^i N_i mod l for the class matrices N_i[j, m] =
    #{(x, y) in C_i x C_j : x y = t_m}, from one walk over the reps'
    right-regular rows.

    The pairs are (u^-1, u t_m) for u in G, so column m counts the classes
    of row t_m's entries u t_m, each weighted by s^(class of u^-1): one
    float64 ``bincount`` per row, exact while |G| (l - 1) < 2^53.
    The first block's last row is also made by ``GroupTable.perm``, checked
    first; with ``orders`` given, the orders read off the rows must equal
    them."""
    k = classes.count
    class_of = classes.class_of
    power = np.array([pow(s, i, l) for i in range(k)])  # s^i mod l
    w = power.astype(np.float64)[class_of.take(g.inverse_ids)]
    n_s = np.empty((k, k), dtype=np.int64)
    m = 0
    for rows in g.right_rows(classes.reps):
        rep = classes.reps[m + len(rows) - 1]
        if m == 0 and rep != g.identity_id and not np.array_equal(
                rows[-1], g.perm(g.mat[rep])):
            raise InternalCheckError("right-regular row of class rep "
                                     f"{format_matrix(g.element(rep))} "
                                     "differs from its batched product")
        if orders is not None:
            for i, o in enumerate(_block_orders(g, rows), m):
                if o != orders[i]:
                    rep = format_matrix(g.element(classes.reps[i]))
                    raise InternalCheckError(
                        f"class rep {rep} has order {orders[i]} by powers "
                        f"but {o} along its right row")
        for row in rows:
            n_s[:, m] = np.bincount(class_of.take(row), weights=w,
                                    minlength=k) % l
            m += 1
    # orientation sanity: x y = identity forces y = x^-1, so the identity
    # column holds h_j s^(inverse class of j)
    if not np.array_equal(n_s[:, class_of[g.identity_id]],
                          power[classes.inverse_class] * classes.sizes % l):
        raise InternalCheckError("a separator fails the inverse-class "
                                 "identity")
    return n_s


def _sums_exact(order: int, k: int, l: int) -> bool:
    """A separator sums |G| float64 weights below l, and every int64
    product mod l sums at most k + 1 terms below l^2."""
    return order * (l - 1) < 2 ** 53 and (k + 1) * l * l < 2 ** 63


def _verify_orthogonality(t: CharacterTable):
    """Both relations mod l in int64: each product sums k terms below l^2,
    exact under ``_sums_exact``."""
    l = t.l
    k = t.count
    order = t.group.order
    v = np.array(t.values, dtype=np.int64)
    sizes = np.array(t.classes.sizes, dtype=np.int64)
    inv = t.classes.inverse_class
    # both operands read along rows: numpy's integer matmul is slow on the
    # transposed (F-ordered) operand of the plain row product
    rows = (v[:, inv] @ (v * sizes % l).T).T % l
    if not np.array_equal(rows, (order % l) * np.eye(k, dtype=np.int64) % l):
        raise InternalCheckError("row orthogonality fails mod l")
    cols = (np.ascontiguousarray(v.T) @ v[:, inv]) % l
    expected = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        expected[i, i] = order * pow(int(sizes[i]), -1, l) % l
    if not np.array_equal(cols, expected):
        raise InternalCheckError("column orthogonality fails mod l")


def character_table(g: GroupTable, classes: ConjClasses,
                    cache_dir: str | Path | None = None) -> CharacterTable:
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
    k = classes.count
    orders = power_orders(g, classes.reps)
    exponent = math.lcm(*orders)
    l = choose_modulus(order, exponent)
    if not _sums_exact(order, k, l):
        raise CapExceededError(f"|G| = {order} with k = {k} classes mod "
                               f"l = {l} overflows exact class-algebra sums")
    primitive = _smallest_primitive_root(l)
    root = pow(primitive, (l - 1) // exponent, l)

    # one normalised central character w per row; the first walk also
    # checks the element orders along the rows
    walked = []

    def separator(s: int) -> np.ndarray:
        n_s = _separator(g, classes, l, s, None if walked else orders)
        walked.append(s)
        return n_s

    w = _split_eigenspaces(separator, k, l, primitive,
                           classes.class_of[g.identity_id]).T
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
        # no indent: json.dumps then uses its C encoder
        tmp.write_text(json.dumps(payload, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _residues(x, length: int, l: int) -> bool:
    """x is a list of ``length`` ints in [0, l)."""
    return (isinstance(x, list) and len(x) == length
            and all(isinstance(v, int) and 0 <= v < l for v in x))


def load_character_table(g: GroupTable, classes: ConjClasses,
                         cache_dir: str | Path) -> CharacterTable | None:
    """The cached table, or None (recompute) when the file is missing, does
    not parse, has another schema or class data, lacks a key or has one of
    the wrong shape, or has an l past the exact-sum bounds.  A well-formed
    table that fails orthogonality raises."""
    path = cache_path(cache_dir, g.kind, g.n, g.field.q)
    if not path.is_file():
        return None
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict) or payload.get("schema") != CACHE_SCHEMA:
        return None
    reps = [format_matrix(g.element(r)) for r in classes.reps]
    if (payload.get("class_reps") != reps
            or payload.get("class_sizes") != classes.sizes):
        return None  # stale cache for a different enumeration
    k = classes.count
    l, root = payload.get("l"), payload.get("root")
    degrees, values = payload.get("degrees"), payload.get("values")
    if not (isinstance(l, int) and l > 2 * g.order
            and _sums_exact(g.order, k, l)
            and _residues([root], 1, l) and _residues(degrees, k, l)
            and isinstance(values, list) and len(values) == k
            and all(_residues(row, k, l) for row in values)):
        return None
    table = CharacterTable(g, classes, l, root, degrees, values)
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
    cnt = np.bincount(classes.class_of[emb.map],
                      minlength=classes.count).tolist()
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
    cls = classes.class_of
    return np.array_equal(cls[g.transpose_ids], cls)
