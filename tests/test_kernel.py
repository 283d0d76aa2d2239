"""The batched group kernel: mul_batch, ids_of, the row-code products by a
fixed matrix, orbits, and the generator permutations with the Schreier tree
that gathers build on."""

import math
import random
import re
import signal
import tracemalloc

import numpy as np
import pytest

from gelfand import groups
from gelfand.chartab import (_block_orders, character_table,
                             conjugacy_classes, element_order, power_orders)
from gelfand.cosets import double_cosets, involution_action
from gelfand.errors import CapExceededError, InternalCheckError
from gelfand.field import field_from_q
from gelfand.groups import (GroupTable, embed_standard, enumerate_gl,
                            enumerate_o, orbits)
from gelfand.matrix import inverse_flat, mul_batch, mul_flat
from gelfand.pipeline import run_verify


@pytest.mark.parametrize("q", [2, 3, 5, 4, 8])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_mul_batch_matches_mul_flat_row_for_row(q, n):
    field = field_from_q(q)
    rng = random.Random(q * 10 + n)
    rows = [tuple(rng.randrange(q) for _ in range(n * n)) for _ in range(40)]
    other = [tuple(rng.randrange(q) for _ in range(n * n)) for _ in range(40)]
    fixed = rows[0]
    batch = np.array(rows, dtype=np.uint8)
    fixed_row = np.array(fixed, dtype=np.uint8)
    right = mul_batch(batch, fixed_row, n, field)
    left = mul_batch(fixed_row, batch, n, field)
    pairwise = mul_batch(batch, np.array(other, dtype=np.uint8), n, field)
    assert right.dtype == left.dtype == pairwise.dtype == np.uint8
    for i, (x, y) in enumerate(zip(rows, other)):
        assert tuple(right[i].tolist()) == mul_flat(x, fixed, n, field)
        assert tuple(left[i].tolist()) == mul_flat(fixed, x, n, field)
        assert tuple(pairwise[i].tolist()) == mul_flat(x, y, n, field)


def test_ids_of_round_trips_and_rejects_a_singular_matrix():
    g = enumerate_gl(2, field_from_q(3))
    every = g.matrices(np.arange(g.order))
    assert g.ids_of(every).tolist() == list(range(g.order))
    batch = np.array([every[5], [1, 2, 2, 1]], dtype=np.uint8)  # det 0 mod 3
    with pytest.raises(InternalCheckError, match=r"\(1, 2, 2, 1\)"):
        g.ids_of(batch)


def test_orbits_labels_each_id_by_its_orbit_minimum():
    # orbits {0}, {1, 4}, {2, 5, 6}, {3}
    swap = np.array([0, 4, 2, 3, 1, 5, 6])
    cycle = np.array([0, 1, 5, 3, 4, 6, 2])
    assert orbits([swap, cycle], 7).tolist() == [0, 1, 2, 3, 1, 2, 2]
    assert orbits([cycle], 7).tolist() == [0, 1, 2, 3, 4, 2, 2]
    assert orbits([], 3).tolist() == [0, 1, 2]


def test_orbits_of_one_long_cycle():
    size = 1000
    shift = np.roll(np.arange(size), -1)  # x -> x + 1 mod size
    assert not orbits([shift], size).any()


# Macdonald, Symmetric Functions and Hall Polynomials, ch. IV: GL_n(F_q) has
# q - 1, q^2 - 1, q^3 - q and q^4 - q conjugacy classes for n = 1 .. 4.
GL_CLASS_COUNTS = {1: lambda q: q - 1, 2: lambda q: q ** 2 - 1,
                   3: lambda q: q ** 3 - q, 4: lambda q: q ** 4 - q}


@pytest.mark.parametrize("n,q", [(1, 2), (1, 3), (1, 4), (1, 5),
                                 (2, 2), (2, 3), (2, 4), (2, 5),
                                 (3, 2), (3, 3), (4, 2)])
def test_gl_class_counts_match_the_closed_form(n, q):
    g = enumerate_gl(n, field_from_q(q))
    assert conjugacy_classes(g).count == GL_CLASS_COUNTS[n](q)


# -- generator permutations and the Schreier tree --------------------------------

KERNEL_GROUPS = {"GL3(F3)": (enumerate_gl, 3, 3), "GL2(F4)": (enumerate_gl, 2, 4),
                 "O3(F3)": (enumerate_o, 3, 3)}


@pytest.fixture(scope="module", params=sorted(KERNEL_GROUPS))
def group(request):
    enum, n, q = KERNEL_GROUPS[request.param]
    return enum(n, field_from_q(q))


def test_right_rows_equal_batched_products(group):
    g = group
    reps = conjugacy_classes(g).reps
    ids = sorted(set(reps) | set(range(0, g.order, max(1, g.order // 40))))
    rows = np.vstack(list(g.right_rows(ids)))
    assert rows.dtype == np.int32 and rows.shape == (len(ids), g.order)
    for t, row in zip(ids, rows):
        assert np.array_equal(row, g.perm(g.matrices(t)))


def test_conjugation_perms_equal_direct_products(group):
    g = group
    n, f = g.n, g.field
    every = g.matrices(np.arange(g.order))
    for a, conj in zip(g.generator_ids, g.conjugation_perms()):
        a_inv = np.array(inverse_flat(tuple(g.matrices(a).tolist()), n, f),
                         dtype=np.uint8)
        direct = g.ids_of(mul_batch(mul_batch(g.matrices(a), every, n, f),
                                    a_inv, n, f))
        assert np.array_equal(conj, direct)


def test_exponent_is_the_lcm_of_brute_force_orders(group):
    g = group
    classes = conjugacy_classes(g)
    brute = [element_order(g, r) for r in classes.reps]
    orders = power_orders(g, classes.reps)
    walked = [o for rows in g.right_rows(classes.reps)
              for o in _block_orders(g, rows)]
    assert orders == walked == brute
    assert math.lcm(*orders) == math.lcm(*brute)


def test_corrupted_tree_fails_the_structure_constant_cross_check(
        group, monkeypatch):
    g = group
    classes = conjugacy_classes(g)  # inverses come from the intact tree
    tree = list(g.schreier_tree)
    at = max(range(len(tree)), key=lambda i: len(tree[i][2]))
    k, xs, ys = tree[at]
    tree[at] = (k, xs, ys[::-1])
    monkeypatch.setattr(g, "schreier_tree", tree)
    with pytest.raises(InternalCheckError,
                       match="class rep .* differs from its batched product"):
        character_table(g, classes)


CLOSURE_GROUPS = KERNEL_GROUPS | {"GL4(F2)": (enumerate_gl, 4, 2)}


@pytest.mark.parametrize("name", sorted(CLOSURE_GROUPS))
def test_the_closure_leaves_a_tree_of_left_products(name):
    enum, n, q = CLOSURE_GROUPS[name]
    g = enum(n, field_from_q(q))
    left = [g.perm(g.matrices(i), left=True) for i in g.generator_ids]
    reached = np.zeros(g.order, dtype=bool)
    reached[g.identity_id] = True
    for k, xs, ys in g.schreier_tree:
        assert np.array_equal(ys, left[k][xs])
        assert reached[xs].all()
        reached[ys] = True
    ys = np.concatenate([ys for _, _, ys in g.schreier_tree])
    assert sorted(ys.tolist()) == [
        i for i in range(g.order) if i != g.identity_id]


@pytest.mark.parametrize("enum,n,q", [(enumerate_gl, 3, 4),
                                      (enumerate_o, 4, 3)])
def test_a_table_keeps_no_id_permutations_but_its_generators_pairs(enum, n, q):
    f = field_from_q(q)
    g = enum(n, f, cap=200_000)
    emb = embed_standard(enum(n - 1, f), g)
    plain = double_cosets(g, emb)
    involution_action(plain)
    involution_action(double_cosets(g, emb, mod_center=True, plain=plain))
    conjugacy_classes(g)
    held, todo = {}, list(vars(g).values())
    while todo:
        x = todo.pop()
        if isinstance(x, dict):
            todo.extend(x.values())
        elif isinstance(x, (list, tuple)):
            todo.extend(x)
        elif isinstance(x, np.ndarray):
            held[id(x)] = x
    perms = [a for a in held.values()
             if a.dtype == np.int32 and a.shape == (g.order,)
             and a is not g.inverse_ids and a is not g.transpose_ids]
    assert len(perms) == 2 * len(g.generator_ids)


# -- lookup: a direct code -> id array where the group is dense -----------------

LOOKUP_GROUPS = KERNEL_GROUPS | {"GL4(F2)": (enumerate_gl, 4, 2),
                                 "O4(F3)": (enumerate_o, 4, 3),
                                 "O3(F7)": (enumerate_o, 3, 7)}


@pytest.mark.parametrize("name", sorted(LOOKUP_GROUPS))
def test_every_code_looks_up_its_own_id(name):
    enum, n, q = LOOKUP_GROUPS[name]
    g = enum(n, field_from_q(q))
    # the table's density picks the path: every GL_n, no O_n with n >= 2
    assert (g.id_of_code is not None) == (g.kind == "GL")
    ids = g.ids_of_codes(groups.encode(g.row_codes.T, q ** n))
    assert ids.dtype == np.int32
    assert np.array_equal(ids, np.arange(g.order))


@pytest.mark.parametrize("name", ["GL3(F3)", "GL2(F4)", "GL4(F2)"])
def test_the_direct_array_agrees_with_binary_search(name):
    enum, n, q = LOOKUP_GROUPS[name]
    g = enum(n, field_from_q(q))
    picks = random.Random(name).sample(range(g.order), 8)
    every = g.matrices(np.arange(g.order))
    codes = np.concatenate([
        groups.encode(mul_batch(every, g.matrices(t), n, g.field), q)
        for t in picks])
    assert np.array_equal(g.ids_of_codes(codes), np.searchsorted(
        groups.encode(g.row_codes.T, q ** n), codes))


def test_no_gl_table_searches_its_codes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("searchsorted called")

    monkeypatch.setattr(np, "searchsorted", refuse)
    report = run_verify("gl", 2, 3)
    assert report.passed


@pytest.mark.parametrize("enum,n,q,m,kind", [
    (enumerate_gl, 2, 3, (1, 2, 2, 1), "GL_2"),  # det 0 mod 3
    (enumerate_gl, 4, 2, (1, 1) + (0,) * 14, "GL_4"),  # singular
    (enumerate_o, 3, 3, (1, 1, 0, 0, 1, 0, 0, 0, 1), "O_3"),  # not orthogonal
])
def test_a_non_member_is_named_by_either_lookup(enum, n, q, m, kind):
    g = enum(n, field_from_q(q))
    batch = np.array([g.matrices(1), m], dtype=np.uint8)
    with pytest.raises(InternalCheckError,
                       match=re.escape(f"matrix {m} not in {kind}(F_{q})")):
        g.ids_of(batch)


def test_entries_outside_the_field_are_not_members():
    # both rows' codes decode to group elements: (3, 0, 0, 3) to (0, 0, 1,
    # 0) and (1, 3, 0, 1) to diag(2, 1), which both tables hold
    for g in (enumerate_gl(2, field_from_q(3)),
              enumerate_o(2, field_from_q(3))):
        for m in ((3, 0, 0, 3), (1, 3, 0, 1)):
            batch = np.array([g.matrices(1), m], dtype=np.uint8)
            with pytest.raises(InternalCheckError, match=re.escape(
                    f"matrix {m} not in {g.kind}_2(F_3)")):
                g.ids_of(batch)


def test_every_inverse_is_checked_block_by_block(monkeypatch):
    # GL4(F2) checks 20,160 elements in blocks of 8,192: break the last one
    g = enumerate_gl(4, field_from_q(2))
    spread = g._spread

    def break_last(root, perms):
        out = spread(root, perms)
        out[-1] = out[-2]
        return out

    monkeypatch.setattr(g, "_spread", break_last)
    with pytest.raises(InternalCheckError, match="inverse table is wrong"):
        g.inverse_ids


def test_the_gl3_f4_inverse_check_peaks_below_5_mb():
    # one product over all 181,440 elements at once peaked at 7.05 MiB
    g = enumerate_gl(3, field_from_q(4), cap=200_000)
    g.generator_perms
    tracemalloc.start()
    try:
        inv = g.inverse_ids
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inv[inv[g.identity_id]] == g.identity_id
    assert peak < 5 * 2 ** 20


def test_a_table_stores_each_element_as_its_row_codes():
    # before any lazy data: n bytes of row codes an element, next to the
    # code -> id array, its one lookup index
    g = enumerate_gl(3, field_from_q(4), cap=200_000)
    stored = sum(v.nbytes for k, v in vars(g).items()
                 if isinstance(v, np.ndarray) and k != "id_of_code")
    assert stored <= g.n * g.order


def test_gl_enumeration_keeps_no_transients_into_the_table():
    # the last depth's mask and np.nonzero pair are dropped before the
    # table is built: GL3(F5) peaked at 62.8 MiB with them, for a table of
    # 11.7 MiB
    tracemalloc.start()
    try:
        g = enumerate_gl(3, field_from_q(5), cap=2_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.order == 1_488_000
    assert peak <= 40 * 2 ** 20


# -- products by a fixed matrix: row-code gathers ----------------------------------

# every product path the pipeline meets: prime and extension fields, GL and O
PRODUCT_GROUPS = KERNEL_GROUPS | {"GL2(F8)": (enumerate_gl, 2, 8),
                                  "O4(F3)": (enumerate_o, 4, 3)}


@pytest.mark.parametrize("name", sorted(PRODUCT_GROUPS))
def test_left_and_right_perms_equal_batched_products(name):
    enum, n, q = PRODUCT_GROUPS[name]
    g = enum(n, field_from_q(q))
    f = g.field
    every = g.matrices(np.arange(g.order))
    ids = range(0, g.order, max(1, g.order // 40))
    assert len(ids) >= 40
    for i in ids:
        assert np.array_equal(g.perm(g.matrices(i)),
                              g.ids_of(mul_batch(every, g.matrices(i), n, f)))
        assert np.array_equal(g.perm(g.matrices(i), left=True),
                              g.ids_of(mul_batch(g.matrices(i), every, n, f)))


@pytest.mark.parametrize("enum,n,q,m", [
    (enumerate_gl, 2, 3, (1, 1, 1, 1)),  # singular
    (enumerate_o, 3, 3, (1, 1, 0, 0, 1, 0, 0, 0, 1)),  # not orthogonal
])
def test_a_product_by_a_non_member_names_the_missing_matrix(enum, n, q, m):
    g = enum(n, field_from_q(q))
    # x m is outside the group for every x, so id 0's product is named
    first = mul_flat(tuple(g.matrices(0).tolist()), m, n, g.field)
    with pytest.raises(InternalCheckError,
                       match=re.escape(f"matrix {first} not in")):
        g.perm(np.array(m, dtype=np.uint8))


def test_the_vector_table_waits_for_the_first_product(monkeypatch):
    built = []
    decode = groups.decode
    monkeypatch.setattr(groups, "decode",
                        lambda *args: built.append(args[1:]) or decode(*args))
    with pytest.raises(CapExceededError, match="int64"):
        GroupTable("GL", 4, field_from_q(25), np.zeros((0, 16), np.uint8))
    g = GroupTable("GL", 1, field_from_q(3), [[1], [2]])
    assert built == [] and "vectors" not in g.__dict__
    assert g.perm(g.matrices(1)).tolist() == [1, 0]
    assert built == [(1, 3)] and g.vectors.tolist() == [[0], [1], [2]]


def test_right_rows_whose_powers_never_reach_the_identity_are_caught():
    g = enumerate_gl(2, field_from_q(2))
    e = g.identity_id
    row = np.arange(g.order)
    row[e] = (e + 1) % g.order  # t t = t: the walk stays at t

    def stuck(signum, frame):
        raise TimeoutError("the walk did not stop")

    # without the check the walk never ends; the alarm turns that into a
    # failure
    old = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(10)
    try:
        with pytest.raises(InternalCheckError,
                           match="never reach the identity; right rows"):
            _block_orders(g, [row])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
