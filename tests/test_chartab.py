from collections import Counter

import numpy as np
import pytest

from gelfand import chartab
from gelfand.chartab import (cache_path, character_table, choose_modulus,
                             conjugacy_classes, dim_invariants, element_order,
                             group_exponent, load_character_table,
                             save_character_table, transpose_preserves_classes,
                             verify_pair, _split_eigenspaces,
                             _structure_constants)
from gelfand.cosets import double_cosets, involution_action
from gelfand.errors import InternalCheckError
from gelfand.field import field_from_q
from gelfand.groups import (embed_identity, embed_standard, enumerate_gl,
                            enumerate_o)


def build(kind, n, q):
    field = field_from_q(q)
    enum = enumerate_gl if kind == "gl" else enumerate_o
    g = enum(n, field)
    classes = conjugacy_classes(g)
    return g, classes


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
        orbit = {g.mul_ids(g.mul_ids(a, x), g.inverse_ids[a])
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
    assert group_exponent(g, classes) == 6


# ---------------------------------------------------------
# modulus choice
# ---------------------------------------------------------

def test_choose_modulus_examples():
    assert choose_modulus(6, 6) == 13      # smallest prime = 1 mod 6 above 12
    assert choose_modulus(48, 24) == 97    # 2|G| = 96
    assert choose_modulus(2, 2) == 5


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

    gen = g.index_of(g.elements[g.id_of_entries((2,))])
    power_of = {g.identity_id: 0}
    cur = gen
    s = 1
    while cur != g.identity_id:
        power_of[cur] = s
        cur = g.mul_ids(cur, gen)
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
    e_cls = t.identity_class()
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
    # sum_m a_ijm * h_m = h_i * h_j
    g, classes = build("gl", 2, 2)
    a = _structure_constants(g, classes)
    k = classes.count
    for i in range(k):
        for j in range(k):
            total = sum(a[i][j][m] * classes.sizes[m] for m in range(k))
            assert total == classes.sizes[i] * classes.sizes[j]


def test_central_character_coherence():
    g, classes = build("gl", 2, 3)
    t = character_table(g, classes)
    exponent = group_exponent(g, classes)
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
    m = group_exponent(g, classes)
    assert pow(t.root, m, t.l) == 1
    for p in (2, 3):
        if m % p == 0:
            assert pow(t.root, m // p, t.l) != 1


@pytest.mark.parametrize("kind,n,q", [("gl", 2, 2), ("gl", 2, 3),
                                      ("o", 2, 3), ("o", 3, 3)])
def test_transpose_preserves_conjugacy_classes(kind, n, q):
    g, classes = build(kind, n, q)
    assert transpose_preserves_classes(g, classes)


def test_one_walk_over_the_class_rows_per_table(monkeypatch):
    g, classes = build("gl", 2, 3)
    walks = []
    right_rows = g.right_rows

    def counted(ids):
        walks.append(list(ids))
        return right_rows(ids)

    monkeypatch.setattr(g, "right_rows", counted)
    character_table(g, classes)
    assert walks == [classes.reps]


# ---------------------------------------------------------
# central characters from the separating element
# ---------------------------------------------------------

@pytest.mark.parametrize("kind,n,q", [("gl", 2, 3), ("gl", 2, 4),
                                      ("o", 3, 3), ("gl", 1, 25)])
def test_every_vector_is_a_common_eigenvector(kind, n, q):
    g, classes = build(kind, n, q)
    l = character_table(g, classes).l
    a = _structure_constants(g, classes)
    e_cls = classes.class_of[g.identity_id]
    w = _split_eigenspaces(a, l, e_cls)
    k = classes.count
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


def test_no_separating_element_raises(monkeypatch):
    g, classes = build("gl", 2, 3)
    monkeypatch.setattr(chartab, "_separator_bases", lambda k: (1,) * 32)
    with pytest.raises(InternalCheckError,
                       match="no separating .* k = 8 classes mod l = 97"):
        character_table(g, classes)


def test_a_corrupted_structure_constant_never_gives_a_table(monkeypatch):
    g, classes = build("gl", 2, 3)
    class_algebra = chartab._class_algebra

    def corrupted(g, classes):
        orders, a = class_algebra(g, classes)
        a[1, 2, 3] += 1
        return orders, a

    monkeypatch.setattr(chartab, "_class_algebra", corrupted)
    with pytest.raises(InternalCheckError):
        character_table(g, classes)


def test_every_single_corruption_of_gl2_f2_raises(monkeypatch):
    # the 27 corruptions reach the root count, the Krylov size, the
    # identity entry and the degree lift
    g, classes = build("gl", 2, 2)
    class_algebra = chartab._class_algebra
    for idx in np.ndindex((classes.count,) * 3):
        def corrupted(g, classes, idx=idx):
            orders, a = class_algebra(g, classes)
            a[idx] += 1
            return orders, a

        monkeypatch.setattr(chartab, "_class_algebra", corrupted)
        with pytest.raises(InternalCheckError):
            character_table(g, classes)


# ---------------------------------------------------------
# invariant dimensions
# ---------------------------------------------------------

def test_trivial_subgroup_dims_are_degrees(f2):
    g, classes = build("gl", 2, 2)
    t = character_table(g, classes)
    emb = embed_standard(enumerate_gl(1, f2), g)
    report = dim_invariants(t, emb)
    assert [(r.degree, r.dim_inv) for r in report.rows] == \
        [(1, 1), (1, 1), (2, 2)]
    assert report.max_dim_inv == 2
    assert report.histogram == {1: 2, 2: 1}


def test_self_pair_dims():
    g, classes = build("gl", 2, 3)
    t = character_table(g, classes)
    report = dim_invariants(t, embed_identity(g))
    dims = Counter(r.dim_inv for r in report.rows)
    assert dims == {0: 7, 1: 1}
    only_trivial = [r for r in report.rows if r.dim_inv == 1]
    assert only_trivial[0].degree == 1


def test_o3_over_o2_dims_at_most_one(f3):
    g, classes = build("o", 3, 3)
    t = character_table(g, classes)
    emb = embed_standard(enumerate_o(2, f3), g)
    report = dim_invariants(t, emb)
    assert set(r.dim_inv for r in report.rows) <= {0, 1}
    assert report.dual_dims_match


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
    report = dim_invariants(t, emb)
    plain = double_cosets(g, emb, mod_center=False)
    assert sum(r.dim_inv ** 2 for r in report.rows) == plain.count


def test_dual_dims_match_everywhere(f3):
    g, classes = build("gl", 2, 3)
    t = character_table(g, classes)
    emb = embed_standard(enumerate_gl(1, f3), g)
    report = dim_invariants(t, emb)
    assert all(r.dim_inv == r.dim_dual_inv for r in report.rows)


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
    report = dim_invariants(t, emb)

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
            coset_of[g.mul_ids(x, m)] = c
    assert len(reps) == g.order // h.order

    l = t.l
    for c, rep in enumerate(classes.reps):
        fixed = sum(1 for x in reps
                    if g.mul_ids(g.mul_ids(g.inverse_ids[x], rep), x) in in_h)
        total = sum(r.dim_inv * t.values[i][c]
                    for i, r in enumerate(report.rows)) % l
        assert total == fixed % l
        assert fixed <= len(reps) < l  # the lift is unambiguous


# ---------------------------------------------------------
# verify_pair
# ---------------------------------------------------------

def test_verify_pair_gl(f2):
    g, classes = build("gl", 2, 2)
    t = character_table(g, classes)
    emb = embed_standard(enumerate_gl(1, f2), g)
    report = dim_invariants(t, emb)
    action = involution_action(double_cosets(g, emb, mod_center=True))
    outcome = verify_pair(t, report, action.k)
    assert outcome.passed and outcome.bound == 2 and outcome.attained
    assert outcome.failures == []


def test_verify_pair_flags_violations(f2):
    g, classes = build("gl", 2, 2)
    t = character_table(g, classes)
    emb = embed_standard(enumerate_gl(1, f2), g)
    report = dim_invariants(t, emb)
    outcome = verify_pair(t, report, 0)  # pretend k = 0: bound 1 is violated
    assert not outcome.passed
    assert outcome.failures


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
    with pytest.raises(InternalCheckError):
        load_character_table(g, classes, tmp_path)


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
