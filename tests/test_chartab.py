import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from gelfand import chartab
from gelfand.chartab import (cache_path, character_table, choose_modulus,
                             conjugacy_classes, dim_invariants,
                             load_character_table, power_orders,
                             save_character_table,
                             transpose_preserves_classes, verify_pair,
                             _poly_roots, _rref, _separator,
                             _smallest_primitive_root, _split_eigenspaces)
from gelfand.cosets import double_cosets, involution_action
from gelfand.errors import (CapExceededError, DomainError,
                            InternalCheckError)
from gelfand.field import field_from_q
from gelfand.groups import (Embedding, embed_standard, enumerate_gl,
                            enumerate_o)
from gelfand.matrix import format_matrix, mul_batch
from gelfand.pipeline import run_verify
from reference import element_order, mul_ids


def build(kind, n, q):
    field = field_from_q(q)
    enum = enumerate_gl if kind == "gl" else enumerate_o
    g = enum(n, field)
    classes = conjugacy_classes(g)
    return g, classes


def reference_tensor(g, classes):
    """a[i, j, m] = #{(x, y) in C_i x C_j : x y = t_m}, from all |G|^2
    products by ``mul_batch``: the pairs with x y in C_m, over h_m."""
    k = classes.count
    cls = classes.class_of
    a = np.zeros((k, k, k), dtype=np.int64)
    every = g.matrices(np.arange(g.order))
    for x in range(g.order):
        xy = g.ids_of(mul_batch(every[x], every, g.n, g.field))
        np.add.at(a, (cls[x], cls, cls[xy]), 1)
    sizes = np.array(classes.sizes)
    assert not (a % sizes).any()
    return a // sizes


# ---------------------------------------------------------
# conjugacy classes
# ---------------------------------------------------------

def test_gl2_f2_classes():
    g, classes = build("gl", 2, 2)
    assert sorted(classes.sizes) == [1, 2, 3]
    assert sum(classes.sizes) == g.order


def test_gl1_f3_classes_abelian():
    g, classes = build("gl", 1, 3)
    assert classes.sizes == [1, 1]


def test_gl2_f3_has_eight_classes():
    _, classes = build("gl", 2, 3)
    assert classes.count == 8


def test_classes_partition_and_rep_is_minimal():
    g, classes = build("gl", 2, 3)
    for c, rep in enumerate(classes.reps):
        members = [x for x in range(g.order) if classes.class_of[x] == c]
        assert rep == min(members)
        assert len(members) == classes.sizes[c]


def test_classes_against_brute_force_conjugation():
    # oracle: conjugate each element by every group element
    g, classes = build("gl", 2, 2)
    for x in range(g.order):
        orbit = {mul_ids(g, mul_ids(g, a, x), g.inverse_ids[a])
                 for a in range(g.order)}
        assert {classes.class_of[y] for y in orbit} == {classes.class_of[x]}


def test_inverse_class():
    g, classes = build("gl", 2, 3)
    for c, rep in enumerate(classes.reps):
        inv_id = g.inverse_ids[rep]
        assert classes.inverse_class[c] == classes.class_of[inv_id]
        assert classes.sizes[classes.inverse_class[c]] == classes.sizes[c]


def test_exponent_and_element_orders():
    g, classes = build("gl", 2, 2)
    assert sorted(element_order(g, r) for r in classes.reps) == [1, 2, 3]
    assert math.lcm(*power_orders(g, classes.reps)) == 6


# GL2(F7) and GL2(F8) reach orders 48 and 63, past five doublings
@pytest.mark.parametrize("kind,n,q", [("gl", 2, 3), ("gl", 2, 4),
                                      ("gl", 3, 2), ("o", 3, 3),
                                      ("gl", 1, 25), ("gl", 2, 7),
                                      ("gl", 2, 8)])
def test_power_orders_equal_element_orders(kind, n, q):
    g, classes = build(kind, n, q)
    assert power_orders(g, classes.reps) == \
        [element_order(g, r) for r in classes.reps]


def test_powers_that_never_reach_the_identity_raise(monkeypatch):
    g, classes = build("gl", 2, 2)
    # a broken product that returns its right factor: t^e = t for every e
    monkeypatch.setattr(chartab, "mul_batch", lambda a, b, n, f: b)
    with pytest.raises(InternalCheckError,
                       match=r"powers of .* never reach the identity"):
        power_orders(g, classes.reps)


def test_an_order_mismatch_names_the_rep(monkeypatch):
    g, classes = build("gl", 2, 3)
    true = power_orders(g, classes.reps)
    at = max(range(classes.count), key=true.__getitem__)
    # doubling the largest order keeps l = 1 (mod exponent) valid
    wrong = true[:at] + [2 * true[at]] + true[at + 1:]
    monkeypatch.setattr(chartab, "power_orders", lambda g, ids: wrong)
    rep = format_matrix(g.element(classes.reps[at]))
    with pytest.raises(InternalCheckError,
                       match=rf"class rep {re.escape(rep)} has order "
                             rf"{2 * true[at]} by powers but {true[at]}"):
        character_table(g, classes)


# ---------------------------------------------------------
# modulus choice
# ---------------------------------------------------------

def test_choose_modulus_examples():
    assert choose_modulus(6, 6) == 13      # smallest prime = 1 mod 6 above 12
    assert choose_modulus(48, 24) == 97    # 2|G| = 96
    assert choose_modulus(2, 2) == 5


def test_choose_modulus_has_no_search_bound():
    # GL5(F2): order 9,999,360, exponent 26,040; the exactness bounds that
    # character_table checks are the only limits on l
    assert choose_modulus(9_999_360, 26_040) == 19_998_721


# ---------------------------------------------------------
# character tables
# ---------------------------------------------------------

def test_gl2_f2_degrees():
    g, classes = build("gl", 2, 2)
    t = character_table(g, classes)
    assert t.degrees == [1, 1, 2]
    assert t.l == 13
    # the trivial character is the all-ones row
    assert t.values[0] == [1, 1, 1]


def test_gl2_f2_full_frozen_table():
    # the order-6 nonabelian group: columns are classes in min-id order,
    # which puts the order-2 class first, then order-3, then the identity
    g, classes = build("gl", 2, 2)
    assert [element_order(g, r) for r in classes.reps] == [2, 3, 1]
    t = character_table(g, classes)
    # rows: trivial, sign (order-2 class -> -1 = 12 mod 13), the 2-dim one
    assert t.values == [[1, 1, 1], [12, 1, 1], [0, 12, 2]]


def test_gl1_f5_table_matches_cyclic_group_oracle():
    # independent oracle: GL_1(F_5) is cyclic of order 4 generated by the
    # element 2, so its characters are exactly s -> root^(t*s) for the
    # table's own primitive 4th root of unity
    g, classes = build("gl", 1, 5)
    t = character_table(g, classes)
    l, root = t.l, t.root
    assert pow(root, 4, l) == 1 and pow(root, 2, l) != 1

    gen = g.id_of_entries((2,))
    power_of = {g.identity_id: 0}
    cur = gen
    s = 1
    while cur != g.identity_id:
        power_of[cur] = s
        cur = mul_ids(g, cur, gen)
        s += 1
    predicted = set()
    for tt in range(4):
        row = [0] * classes.count
        for x, s in power_of.items():
            row[classes.class_of[x]] = pow(root, tt * s, l)
        predicted.add(tuple(row))
    assert {tuple(r) for r in t.values} == predicted


def test_gl1_abelian_tables():
    for q in (3, 5):
        g, classes = build("gl", 1, q)
        t = character_table(g, classes)
        assert t.degrees == [1] * (q - 1)


# every GL1(F_q) and O2(F_q) under the default field cap: cyclic groups with
# k close to l (GL1(F_16): k = 15, l = 31) need more than one separator
@pytest.mark.parametrize("kind,q", [
    *[("gl", q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25)],
    *[("o", q) for q in (3, 5, 7, 9, 11, 13, 17, 19, 23, 25)]])
def test_gl1_and_o2_tables_up_to_q25(kind, q):
    g, classes = build(kind, 1 if kind == "gl" else 2, q)
    t = character_table(g, classes)
    if kind == "gl":
        assert t.degrees == [1] * (q - 1)
    else:  # dihedral: degrees 1 and 2
        assert set(t.degrees) <= {1, 2}
    assert sum(d * d for d in t.degrees) == g.order
    l = t.l
    for r1 in range(t.count):
        for r2 in range(t.count):
            s = sum(classes.sizes[i] * t.values[r1][i]
                    * t.values[r2][classes.inverse_class[i]]
                    for i in range(classes.count)) % l
            assert s == (g.order % l if r1 == r2 else 0)


def test_gl2_f3_degree_multiset():
    g, classes = build("gl", 2, 3)
    t = character_table(g, classes)
    assert sorted(t.degrees) == [1, 1, 2, 2, 2, 3, 3, 4]
    assert sum(d * d for d in t.degrees) == 48


def test_o3_f3_degrees():
    g, classes = build("o", 3, 3)
    t = character_table(g, classes)
    assert sum(d * d for d in t.degrees) == 48
    assert all(48 % d == 0 for d in t.degrees)


def test_degree_equals_identity_value():
    g, classes = build("gl", 2, 3)
    t = character_table(g, classes)
    e_cls = classes.class_of[g.identity_id]
    for d, row in zip(t.degrees, t.values):
        assert row[e_cls] == d


def test_row_orthogonality_recomputed():
    # independent double loop, no numpy
    g, classes = build("gl", 2, 3)
    t = character_table(g, classes)
    l = t.l
    for r1 in range(t.count):
        for r2 in range(t.count):
            s = sum(classes.sizes[i] * t.values[r1][i]
                    * t.values[r2][classes.inverse_class[i]]
                    for i in range(classes.count)) % l
            assert s == (g.order % l if r1 == r2 else 0)


def test_column_orthogonality_recomputed():
    g, classes = build("o", 3, 3)
    t = character_table(g, classes)
    l = t.l
    for i in range(classes.count):
        for j in range(classes.count):
            s = sum(row[i] * row[classes.inverse_class[j]]
                    for row in t.values) % l
            expected = (g.order * pow(classes.sizes[i], -1, l)) % l
            assert s == (expected if i == j else 0)


def test_structure_constants_total_mass():
    # sum_m a_ijm * h_m = h_i * h_j, and so sum_m N_s[j, m] h_m =
    # sum_i s^i h_i h_j mod l for the walked separators
    g, classes = build("gl", 2, 2)
    a = reference_tensor(g, classes)
    k = classes.count
    h = classes.sizes
    for i in range(k):
        for j in range(k):
            total = sum(a[i][j][m] * h[m] for m in range(k))
            assert total == h[i] * h[j]
    l = 13
    orders = power_orders(g, classes.reps)
    for s in (2, 3):
        n_s = _separator(g, classes, l, s, orders)
        for j in range(k):
            assert sum(int(n_s[j, m]) * h[m] for m in range(k)) % l == \
                sum(pow(s, i, l) * h[i] * h[j] for i in range(k)) % l


@pytest.mark.parametrize("kind,n,q", [("gl", 2, 2), ("gl", 2, 3),
                                      ("gl", 2, 4), ("o", 3, 3),
                                      ("gl", 1, 25)])
def test_walked_separators_equal_the_weighted_tensor_sums(kind, n, q):
    g, classes = build(kind, n, q)
    a = reference_tensor(g, classes)
    l = character_table(g, classes).l
    orders = power_orders(g, classes.reps)
    for s in (2, 3):
        weights = np.array([pow(s, i, l) for i in range(classes.count)])
        assert np.array_equal(_separator(g, classes, l, s, orders),
                              np.tensordot(weights, a, axes=1) % l)


def test_central_character_coherence():
    g, classes = build("gl", 2, 3)
    t = character_table(g, classes)
    exponent = math.lcm(*(element_order(g, r) for r in classes.reps))
    l = t.l
    for z in g.center_ids():
        c = classes.class_of[z]
        assert classes.class_of[g.transpose_ids[z]] == c
        for d, row in zip(t.degrees, t.values):
            ratio = row[c] * pow(d, -1, l) % l
            assert pow(ratio, exponent, l) == 1


def test_root_is_a_primitive_root_of_unity():
    g, classes = build("gl", 2, 3)
    t = character_table(g, classes)
    m = math.lcm(*(element_order(g, r) for r in classes.reps))
    assert pow(t.root, m, t.l) == 1
    for p in (2, 3):
        if m % p == 0:
            assert pow(t.root, m // p, t.l) != 1


@pytest.mark.parametrize("kind,n,q", [("gl", 2, 2), ("gl", 2, 3),
                                      ("o", 2, 3), ("o", 3, 3)])
def test_transpose_preserves_conjugacy_classes(kind, n, q):
    g, classes = build(kind, n, q)
    assert transpose_preserves_classes(g, classes)


# one walk per separator: GL2(F3) needs s = 3 after s = 2 collides
@pytest.mark.parametrize("kind,n,q,separators", [("gl", 3, 2, 1),
                                                 ("gl", 2, 3, 2)])
def test_one_walk_over_the_class_rows_per_separator(monkeypatch, kind, n, q,
                                                    separators):
    g, classes = build(kind, n, q)
    walks = []
    right_rows = g.right_rows

    def counted(ids):
        walks.append(list(ids))
        return right_rows(ids)

    monkeypatch.setattr(g, "right_rows", counted)
    character_table(g, classes)
    assert walks == [classes.reps] * separators


def test_an_identity_class_with_two_elements_is_caught(monkeypatch):
    g, _ = build("gl", 2, 3)
    e = g.identity_id
    swap = np.arange(g.order)
    swap[[e, e + 1]] = swap[[e + 1, e]]
    perms = g.conjugation_perms()
    monkeypatch.setattr(g, "conjugation_perms", lambda: perms + [swap])
    with pytest.raises(InternalCheckError,
                       match="identity class is not a singleton"):
        conjugacy_classes(g)


def test_every_walk_checks_the_orders(monkeypatch):
    # GL2(F3): s = 2 collides, so s = 3 walks again; each walk is one block
    g, classes = build("gl", 2, 3)
    walks, checks = [], []
    right_rows, block_orders = g.right_rows, chartab._block_orders

    def walked(ids):
        walks.append(len(ids))
        return right_rows(ids)

    def checked(g, rows):
        checks.append(len(rows))
        return block_orders(g, rows)

    monkeypatch.setattr(g, "right_rows", walked)
    monkeypatch.setattr(chartab, "_block_orders", checked)
    character_table(g, classes)
    assert walks == checks == [classes.count] * 2


# ---------------------------------------------------------
# central characters from the separating element
# ---------------------------------------------------------

@pytest.mark.parametrize("kind,n,q", [("gl", 2, 3), ("gl", 2, 4),
                                      ("o", 3, 3), ("gl", 1, 25)])
def test_every_vector_is_a_common_eigenvector(kind, n, q):
    g, classes = build(kind, n, q)
    l = character_table(g, classes).l
    a = reference_tensor(g, classes)
    e_cls = classes.class_of[g.identity_id]
    k = classes.count
    orders = power_orders(g, classes.reps)
    w = _split_eigenspaces(lambda s: _separator(g, classes, l, s, orders), k,
                           l, _smallest_primitive_root(l), e_cls)
    assert w.shape == (k, k)
    assert np.all(w[e_cls] == 1)
    assert len({tuple(col) for col in w.T.tolist()}) == k
    # N_i w = w_i w for every class matrix N_i and every column w
    images = np.tensordot(a, w, axes=([2], [0])) % l
    assert np.array_equal(images, w[:, None, :] * w[None, :, :] % l)


def test_a_colliding_first_separator_gives_the_same_table(monkeypatch):
    g, classes = build("gl", 2, 3)
    t = character_table(g, classes)
    # s = 1: the sum of all class matrices has eigenvalue 0 seven times
    bases = chartab._separator_bases
    monkeypatch.setattr(chartab, "_separator_bases",
                        lambda k: (1, *bases(k)))
    again = character_table(g, classes)
    assert (again.l, again.degrees, again.values) == \
        (t.l, t.degrees, t.values)


def test_a_modulus_past_exact_integer_sums_is_refused(monkeypatch):
    g, classes = build("gl", 2, 3)
    walks = []
    monkeypatch.setattr(g, "right_rows", lambda ids: walks.append(ids))
    monkeypatch.setattr(chartab, "choose_modulus",
                        lambda order, exponent: 2 ** 61 - 1)  # a prime
    with pytest.raises(CapExceededError, match="overflows exact"):
        character_table(g, classes)
    assert walks == []  # refused before the walk


@pytest.mark.parametrize("order,k,l,exact", [
    (2 ** 26 - 1, 1, 2 ** 27 + 1, True),  # |G| (l - 1) = 2^53 - 2^27
    (2 ** 26, 1, 2 ** 27 + 1, False),  # |G| (l - 1) = 2^53
    (1, 1, 2 ** 31 - 1, True),  # (k + 1) l^2 < 2^63
    (1, 1, 2 ** 31, False),  # (k + 1) l^2 = 2^63
])
def test_each_exact_sum_bound_holds_at_its_edge(order, k, l, exact):
    # float64 holds every integer up to 2^53 and loses 2^53 + 1; int64 stops
    # at 2^63 - 1
    assert float(2 ** 53) + 1 == 2 ** 53
    assert chartab._sums_exact(order, k, l) is exact


def test_the_table_size_check_passes_gl5_f2_and_refuses_gl6_f2():
    from gelfand.groups import gl_order
    from gelfand.pipeline import check_table_fits
    for n, fits in ((5, True), (6, False)):
        order = gl_order(n, 2)
        assert chartab._sums_exact(order, 1, 2 * order + 1) is fits
    check_table_fits("gl", 5, field_from_q(2))
    with pytest.raises(CapExceededError, match="too large") as info:
        check_table_fits("gl", 6, field_from_q(2))
    assert str(gl_order(6, 2)) in str(info.value)


def test_a_krylov_space_past_its_part_is_caught(monkeypatch):
    # GL2(F3): s = 2 leaves one part of two characters, so s = 3 splits
    # parts that hold at most 2; a random matrix gives them more
    g, classes = build("gl", 2, 3)
    real = chartab._separator

    def random_after_the_first(g, classes, l, s, orders):
        n_s = real(g, classes, l, s, orders)
        if s == 2:
            return n_s
        return np.random.default_rng(0).integers(0, l, n_s.shape)

    monkeypatch.setattr(chartab, "_separator", random_after_the_first)
    with pytest.raises(InternalCheckError, match="outgrows its part"):
        character_table(g, classes)


@pytest.mark.parametrize("corrupt,message", [
    # every central character times 3: GL2(F3)'s degree residues 1/9, 4/9
    # and 16/9 mod 97 are not squares of integers
    (lambda w, l: w * 3 % l, "degree lift failed"),
    # every central character the first one: 8 equal admissible degrees,
    # whose squares cannot sum to 48
    (lambda w, l: np.repeat(w[:, :1], w.shape[1], axis=1),
     "sum of squared degrees"),
], ids=["lift", "sum-of-squares"])
def test_a_wrong_degree_is_caught(corrupt, message, monkeypatch):
    g, classes = build("gl", 2, 3)
    real = chartab._split_eigenspaces
    monkeypatch.setattr(
        chartab, "_split_eigenspaces",
        lambda separator, k, l, root, e: corrupt(
            real(separator, k, l, root, e), l))
    with pytest.raises(InternalCheckError, match=message):
        character_table(g, classes)


def test_a_degree_that_does_not_divide_the_order_is_caught(monkeypatch):
    # GL2(F3), |G| = 48, has degrees 4, 3, 3, 2, 2, 2, 1, 1.  Scaling a
    # central character by d / d' mod l lifts it to degree d' instead; the
    # degrees 5, 3, 3, 1, 1, 1, 1, 1 pass the square lift, d <= sqrt(48)
    # and sum d^2 = 48, so only the divisibility check can fail
    g, classes = build("gl", 2, 3)
    real = chartab._split_eigenspaces
    inv = classes.inverse_class

    def rescaled(separator, k, l, root, e):
        w = real(separator, k, l, root, e)  # one column per character
        inv_h = np.array([[pow(h, -1, l)] for h in classes.sizes])
        denoms = (w * w[inv] % l * inv_h % l).sum(0) % l
        degrees = [math.isqrt(g.order * pow(int(s), -1, l) % l)
                   for s in denoms]
        wanted = dict(zip(np.argsort(degrees)[::-1].tolist(),
                          [5, 3, 3, 1, 1, 1, 1, 1]))
        return w * [d * pow(wanted[j], -1, l) % l
                    for j, d in enumerate(degrees)] % l

    monkeypatch.setattr(chartab, "_split_eigenspaces", rescaled)
    with pytest.raises(InternalCheckError,
                       match=re.escape("degree 5 does not divide |G| = 48")):
        character_table(g, classes)


def test_no_separating_element_raises(monkeypatch):
    g, classes = build("gl", 2, 3)
    monkeypatch.setattr(chartab, "_separator_bases", lambda k: (1,) * 32)
    with pytest.raises(InternalCheckError,
                       match="no separating .* k = 8 classes mod l = 97"):
        character_table(g, classes)


def corrupt_separators(monkeypatch, cell):
    """Every walked separator N_s gets +1 at ``cell``."""
    separator = chartab._separator

    def corrupted(*args, **kwargs):
        n_s = separator(*args, **kwargs)
        n_s[cell] += 1
        return n_s

    monkeypatch.setattr(chartab, "_separator", corrupted)


def test_a_corrupted_separator_never_gives_a_table(monkeypatch):
    g, classes = build("gl", 2, 3)
    corrupt_separators(monkeypatch, (2, 3))
    with pytest.raises(InternalCheckError):
        character_table(g, classes)


def test_every_single_corruption_of_gl2_f2_raises(monkeypatch):
    # s = 2 separates GL2(F2)'s three classes, so N_2 is its one separator;
    # its 9 corruptions reach the root count, the identity entry and the
    # degree lift
    g, classes = build("gl", 2, 2)
    for cell in np.ndindex((classes.count,) * 2):
        corrupt_separators(monkeypatch, cell)
        with pytest.raises(InternalCheckError):
            character_table(g, classes)
        monkeypatch.undo()


def test_inverses_that_disagree_with_the_inverse_classes_raise():
    # GL1(F5): 2 and 3 are inverses in one-element classes; the weights
    # follow the element inverses, the identity column the inverse classes
    g, classes = build("gl", 1, 5)
    g._inverse_ids = np.arange(g.order, dtype=np.int32)  # u^-1 = u
    with pytest.raises(InternalCheckError, match="inverse-class identity"):
        _separator(g, classes, 13, 2, power_orders(g, classes.reps))


def test_rref_matches_a_reduce_every_step_reference():
    rng = np.random.default_rng(5)
    l = 97
    for shape in [(6, 7), (8, 5), (5, 9)]:
        mat = rng.integers(0, l, shape)
        mat[:, 2] = mat[:, 0] * 3 % l  # force a non-pivot column
        ref = mat % l
        pivots, r = [], 0
        for c in range(shape[1]):
            nz = [i for i in range(r, shape[0]) if ref[i, c]]
            if r == shape[0] or not nz:
                continue
            ref[[r, nz[0]]] = ref[[nz[0], r]]
            ref[r] = ref[r] * pow(int(ref[r, c]), -1, l) % l
            for i in range(shape[0]):
                if i != r:
                    ref[i] = (ref[i] - ref[i, c] * ref[r]) % l
            pivots.append(c)
            r += 1
        red, got = _rref(mat, l)
        assert got == pivots and np.array_equal(red, ref)


@pytest.mark.parametrize("l", [5, 13, 97, 193, 3457])
def test_poly_roots_equal_the_full_scan(l):
    rng = np.random.default_rng(l)
    g = _smallest_primitive_root(l)
    for trial in range(20):
        degree = int(rng.integers(0, min(l, 12)))
        roots = rng.choice(l, degree, replace=False).tolist()
        if trial % 4 == 0 and 0 not in roots and degree:
            roots[0] = 0
        poly = [1]  # coefficients, constant first, of prod (x - r)
        for r in roots:
            poly = [(lo - r * hi) % l
                    for lo, hi in zip([0] + poly, poly + [0])]
        if trial % 5 == 0:  # an irreducible quadratic factor: no new roots
            nonsquare = next(c for c in range(2, l)
                             if pow(c, (l - 1) // 2, l) == l - 1)
            poly = [(lo - nonsquare * hi) % l for lo, hi
                    in zip([0, 0] + poly, poly + [0, 0])]
        coeffs = np.array(poly, dtype=np.int64)
        scan = [x for x in range(l)
                if sum(c * pow(x, j, l) for j, c in enumerate(poly)) % l == 0]
        assert _poly_roots(coeffs, l, g).tolist() == scan == sorted(roots)


# ---------------------------------------------------------
# invariant dimensions
# ---------------------------------------------------------

def test_trivial_subgroup_dims_are_degrees(f2):
    g, classes = build("gl", 2, 2)
    t = character_table(g, classes)
    emb = embed_standard(enumerate_gl(1, f2), g)
    rows = dim_invariants(t, emb)
    assert [(r.degree, r.dim_inv) for r in rows] == [(1, 1), (1, 1), (2, 2)]
    assert max(r.dim_inv for r in rows) == 2
    assert Counter(r.dim_inv for r in rows) == {1: 2, 2: 1}


def test_a_dim_inv_past_the_degree_is_caught(f2):
    # all 2s in the trivial row give dim pi^H = 2 > degree 1
    g, classes = build("gl", 2, 2)
    t = character_table(g, classes)
    values = [[2] * classes.count if set(row) == {1} else row
              for row in t.values]
    emb = embed_standard(enumerate_gl(1, f2), g)
    with pytest.raises(InternalCheckError, match=re.escape(
            "lifts outside [0, 1]")):
        dim_invariants(replace(t, values=values), emb)


def test_self_pair_dims():
    g, classes = build("gl", 2, 3)
    t = character_table(g, classes)
    rows = dim_invariants(t, Embedding(g, g, list(range(g.order))))
    dims = Counter(r.dim_inv for r in rows)
    assert dims == {0: 7, 1: 1}
    only_trivial = [r for r in rows if r.dim_inv == 1]
    assert only_trivial[0].degree == 1


def test_o3_over_o2_dims_at_most_one(f3):
    g, classes = build("o", 3, 3)
    t = character_table(g, classes)
    emb = embed_standard(enumerate_o(2, f3), g)
    rows = dim_invariants(t, emb)
    assert set(r.dim_inv for r in rows) <= {0, 1}
    assert all(r.dim_inv == r.dim_dual_inv for r in rows)


@pytest.mark.parametrize("kind,n,q", [("gl", 1, 2), ("gl", 1, 3), ("gl", 2, 2),
                                      ("o", 1, 3), ("o", 2, 3)])
def test_mackey_sum_equals_plain_coset_count(kind, n, q):
    field = field_from_q(q)
    enum = enumerate_gl if kind == "gl" else enumerate_o
    g = enum(n + 1, field)
    h = enum(n, field)
    emb = embed_standard(h, g)
    classes = conjugacy_classes(g)
    t = character_table(g, classes)
    rows = dim_invariants(t, emb)
    plain = double_cosets(g, emb, mod_center=False)
    assert sum(r.dim_inv ** 2 for r in rows) == plain.count


def test_dual_dims_match_everywhere(f3):
    g, classes = build("gl", 2, 3)
    t = character_table(g, classes)
    emb = embed_standard(enumerate_gl(1, f3), g)
    rows = dim_invariants(t, emb)
    assert all(r.dim_inv == r.dim_dual_inv for r in rows)


@pytest.mark.parametrize("kind,n,q", [("gl", 1, 3), ("gl", 1, 2), ("o", 2, 3)])
def test_dims_reconstruct_the_permutation_character(kind, n, q):
    # independent oracle: sum_pi dim(pi^H) * chi_pi(g) must equal the number
    # of left cosets xH fixed by g, i.e. #{xH : x^-1 g x in H}
    field = field_from_q(q)
    enum = enumerate_gl if kind == "gl" else enumerate_o
    g = enum(n + 1, field)
    h = enum(n, field)
    emb = embed_standard(h, g)
    classes = conjugacy_classes(g)
    t = character_table(g, classes)
    rows = dim_invariants(t, emb)

    in_h = set(emb.map)
    # left cosets xH as orbits of right multiplication
    coset_of = [-1] * g.order
    reps = []
    for x in range(g.order):
        if coset_of[x] != -1:
            continue
        c = len(reps)
        reps.append(x)
        for m in emb.map:
            coset_of[mul_ids(g, x, m)] = c
    assert len(reps) == g.order // h.order

    l = t.l
    for c, rep in enumerate(classes.reps):
        fixed = sum(1 for x in reps
                    if mul_ids(g, mul_ids(g, g.inverse_ids[x], rep), x)
                    in in_h)
        total = sum(r.dim_inv * t.values[i][c]
                    for i, r in enumerate(rows)) % l
        assert total == fixed % l
        assert fixed <= len(reps) < l  # the lift is unambiguous


# ---------------------------------------------------------
# verify_pair
# ---------------------------------------------------------

def test_verify_pair_gl(f2):
    g, classes = build("gl", 2, 2)
    t = character_table(g, classes)
    emb = embed_standard(enumerate_gl(1, f2), g)
    rows = dim_invariants(t, emb)
    action = involution_action(double_cosets(g, emb, mod_center=True))
    assert verify_pair(t, rows, action.k) == []


def test_verify_pair_flags_violations(f2):
    g, classes = build("gl", 2, 2)
    t = character_table(g, classes)
    emb = embed_standard(enumerate_gl(1, f2), g)
    rows = dim_invariants(t, emb)
    # pretend k = 0: bound 1 is violated by the degree-2 row
    assert verify_pair(t, rows, 0) == [
        "irreducible #2 (degree 2): dim_inv = 2 exceeds bound "
        "min(k+1, 2) = 1"]


# ---------------------------------------------------------
# cache round-trip
# ---------------------------------------------------------

def test_cache_roundtrip(tmp_path):
    g, classes = build("gl", 2, 3)
    cold = character_table(g, classes, cache_dir=tmp_path)
    assert (tmp_path / "chartab-gl2-q3-v1.json").is_file()
    warm = character_table(g, classes, cache_dir=tmp_path)
    assert warm.l == cold.l and warm.root == cold.root
    assert warm.degrees == cold.degrees and warm.values == cold.values


def test_stale_cache_is_ignored(tmp_path):
    g, classes = build("gl", 2, 3)
    t = character_table(g, classes, cache_dir=tmp_path)
    path = save_character_table(t, tmp_path)
    text = path.read_text().replace('"schema": "gelfand-chartab/1"',
                                    '"schema": "gelfand-chartab/0"')
    path.write_text(text)
    assert load_character_table(g, classes, tmp_path) is None


def test_corrupt_cache_values_fail_orthogonality(tmp_path):
    g, classes = build("gl", 2, 2)
    t = character_table(g, classes, cache_dir=tmp_path)
    import json
    path = save_character_table(t, tmp_path)
    payload = json.loads(path.read_text())
    payload["values"][0][1] = (payload["values"][0][1] + 1) % payload["l"]
    path.write_text(json.dumps(payload))
    # the row relation alone catches it: it implies the column relation
    with pytest.raises(InternalCheckError, match="row orthogonality"):
        load_character_table(g, classes, tmp_path)


@pytest.mark.parametrize("corrupt", [
    lambda p: p.pop("l"),
    lambda p: p.pop("values"),
    lambda p: p.update(root="3"),
    lambda p: p.update(degrees=p["degrees"][1:]),
    lambda p: p["values"][2].pop(),
    lambda p: p["values"][0].__setitem__(0, p["l"]),
    lambda p: p["degrees"].__setitem__(0, True),
    lambda p: p.update(l=5),
    lambda p: p.update(l=2 ** 31 - 1),
    lambda p: p["class_reps"].reverse(),
    lambda p: p["class_sizes"].reverse(),
], ids=["no-l", "no-values", "root-not-int", "short-degrees", "short-row",
        "value-not-below-l", "degree-a-bool", "l-too-small",
        "l-past-exact-sums",
        "other-class-reps", "other-class-sizes"])
def test_a_cache_with_missing_keys_or_wrong_shapes_is_a_miss(tmp_path,
                                                             corrupt):
    import json
    g, classes = build("gl", 2, 2)
    t = character_table(g, classes, cache_dir=tmp_path)
    path = cache_path(tmp_path, g.kind, g.n, g.field.q)
    payload = json.loads(path.read_text())
    corrupt(payload)
    path.write_text(json.dumps(payload))
    assert load_character_table(g, classes, tmp_path) is None
    again = character_table(g, classes, cache_dir=tmp_path)
    assert again.values == t.values
    assert load_character_table(g, classes, tmp_path).values == t.values


@pytest.mark.parametrize("degrees,message", [
    # GL2(F3)'s degrees 1, 1, 2, 2, 2, 3, 3, 4 with the first and last
    # swapped: the squares still sum to 48 and each still divides it
    ([4, 1, 2, 2, 2, 3, 3, 1], "degree 4 is not its character's value 1"),
    # 3, 4 -> 0, 5 keeps the sum of squares
    ([1, 1, 2, 2, 2, 3, 0, 5], re.escape("degree 0 does not divide |G|")),
], ids=["permuted", "zero"])
def test_cached_degrees_that_are_not_the_identity_values_raise(
        tmp_path, degrees, message):
    import json
    g, classes = build("gl", 2, 3)
    t = character_table(g, classes, cache_dir=tmp_path)
    assert t.degrees == [1, 1, 2, 2, 2, 3, 3, 4]
    path = cache_path(tmp_path, g.kind, g.n, g.field.q)
    payload = json.loads(path.read_text())
    payload["degrees"] = degrees
    path.write_text(json.dumps(payload))
    with pytest.raises(InternalCheckError, match=message):
        character_table(g, classes, cache_dir=tmp_path)


def test_a_cache_with_its_rows_reversed_raises(tmp_path):
    # every other check passes on the reversed rows: the same characters,
    # listed 8, 7, 6, 3, 3, 1 instead of the written order
    import json
    run_verify("gl", 2, 2, cache_dir=tmp_path)
    [path] = tmp_path.iterdir()
    payload = json.loads(path.read_text())
    payload["degrees"].reverse()
    payload["values"].reverse()
    path.write_text(json.dumps(payload))
    with pytest.raises(InternalCheckError, match=r"not sorted by "
                                                 r"\(degree, value row\)"):
        run_verify("gl", 2, 2, cache_dir=tmp_path)


def test_the_cache_is_written_without_indent(tmp_path):
    g, classes = build("gl", 2, 2)
    path = save_character_table(character_table(g, classes), tmp_path)
    text = path.read_text()
    assert text.count("\n") == 1 and '"schema": "gelfand-chartab/1"' in text


def test_truncated_cache_is_replaced_atomically(tmp_path, monkeypatch):
    g, classes = build("gl", 2, 2)
    path = cache_path(tmp_path, g.kind, g.n, g.field.q)
    path.write_text('{"schema": "gelfand-chartab/1", "l": 1')
    t = character_table(g, classes, cache_dir=tmp_path)
    assert load_character_table(g, classes, tmp_path).values == t.values
    assert list(tmp_path.iterdir()) == [path]

    # a write that fails before the rename leaves the old file and no temp
    from gelfand import chartab
    before = path.read_text()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(chartab.os, "replace", fail)
    with pytest.raises(OSError):
        save_character_table(t, tmp_path)
    assert path.read_text() == before
    assert list(tmp_path.iterdir()) == [path]


def test_a_vanishing_degree_denominator_is_caught(monkeypatch):
    g, classes = build("gl", 2, 3)
    split = chartab._split_eigenspaces

    def one_zero_character(*args):
        vecs = split(*args)
        vecs[:, -1] = 0
        return vecs

    monkeypatch.setattr(chartab, "_split_eigenspaces", one_zero_character)
    with pytest.raises(InternalCheckError,
                       match="degree denominator vanished mod l"):
        character_table(g, classes)


def test_invariants_need_an_embedding_into_the_table_group():
    g, classes = build("gl", 2, 3)
    t = character_table(g, classes)
    other = enumerate_gl(2, field_from_q(3))
    with pytest.raises(DomainError,
                       match="embedding does not target the table's group"):
        dim_invariants(t, Embedding(other, other, list(range(other.order))))
