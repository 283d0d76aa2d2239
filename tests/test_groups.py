from itertools import product

import pytest

import numpy as np

from gelfand import groups
from gelfand.errors import CapExceededError, DomainError, InternalCheckError
from gelfand.field import build_field, field_from_q
from gelfand.groups import (Embedding, GroupTable, embed_identity,
                            embed_standard, enumerate_gl, enumerate_o,
                            gl_order, o_order)
from gelfand.matrix import MatFq, mul_flat


def brute_force_gl(field, n):
    """Oracle: filter the whole q^(n^2) space by det != 0."""
    out = []
    for entries in product(range(field.q), repeat=n * n):
        if MatFq(field, n, n, entries).det() != 0:
            out.append(entries)
    return sorted(out)


def brute_force_o(field, n):
    """Oracle: filter the whole q^(n^2) space by g^T g = I."""
    ident = MatFq.identity(field, n)
    out = []
    for entries in product(range(field.q), repeat=n * n):
        m = MatFq(field, n, n, entries)
        if m.transpose() * m == ident:
            out.append(entries)
    return sorted(out)


# ---------------------------------------------------------
# GL enumeration
# ---------------------------------------------------------

def test_gl2_f2_order_and_elements(f2):
    table = enumerate_gl(2, f2)
    assert table.order == 6
    assert [m.entries for m in table.elements] == brute_force_gl(f2, 2)


def test_gl1_f5_order(f5):
    assert enumerate_gl(1, f5).order == 4


def test_gl2_f3_order_formula_and_enumeration(f3):
    table = enumerate_gl(2, f3)
    assert table.order == 48 == (3 ** 2 - 1) * (3 ** 2 - 3) == gl_order(2, 3)
    assert [m.entries for m in table.elements] == brute_force_gl(f3, 2)


@pytest.mark.parametrize("n,q", [(1, 2), (1, 3), (2, 2), (2, 3), (2, 4),
                                 (2, 5), (3, 2), (3, 3), (4, 2)])
def test_gl_order_formula_matches(n, q):
    from gelfand.field import field_from_q
    table = enumerate_gl(n, field_from_q(q))
    assert table.order == gl_order(n, q)


def test_gl_cap(f5):
    with pytest.raises(CapExceededError):
        enumerate_gl(3, f5)  # order 372 000


def test_element_order_is_lexicographic(f3):
    table = enumerate_gl(2, f3)
    entries = [m.entries for m in table.elements]
    assert entries == sorted(entries)
    for i, m in enumerate(table.elements):
        assert table.index_of(m) == i  # index round-trips


# ---------------------------------------------------------
# O enumeration
# ---------------------------------------------------------

def test_o2_f3_order_and_elements(f3):
    table = enumerate_o(2, f3)
    assert table.order == 8
    assert [m.entries for m in table.elements] == brute_force_o(f3, 2)


@pytest.mark.parametrize("q", [3, 5])
def test_o1_is_plus_minus_one(q):
    field = build_field(q, 1)
    table = enumerate_o(1, field)
    assert table.order == 2
    assert {m.entries for m in table.elements} == {(1,), (q - 1,)}


def test_o3_f3_order(f3):
    table = enumerate_o(3, f3)
    assert table.order == 48
    assert [m.entries for m in table.elements] == brute_force_o(f3, 3)


def test_o_rejects_characteristic_two(f2, f4):
    with pytest.raises(DomainError):
        enumerate_o(2, f2)
    with pytest.raises(DomainError):
        enumerate_o(2, f4)


@pytest.mark.parametrize("q", [5, 9])  # GF(9): the add/mul table path
def test_o_row_built_table_equals_filter(q):
    field = field_from_q(q)
    table = enumerate_o(2, field)
    assert [m.entries for m in table.elements] == brute_force_o(field, 2)


@pytest.mark.parametrize("n,q,count", [(3, 3, 4), (3, 5, 5), (3, 7, 5),
                                       (4, 3, 6)])
def test_o_generators_are_few_reflections(n, q, count):
    field = field_from_q(q)
    table = enumerate_o(n, field)
    assert len(table.generator_ids) == count
    ident = MatFq.identity(field, n)
    for i in table.generator_ids:
        m = table.element(i)
        assert m * m == ident and m != ident
        g_minus_i = MatFq(field, n, n, [field.sub(a, b) for a, b
                                        in zip(m.entries, ident.entries)])
        assert g_minus_i.rank() == 1


@pytest.mark.parametrize("n,q,count", [(1, 2, 0), (1, 3, 1), (2, 2, 2),
                                       (2, 3, 2), (2, 4, 3), (2, 5, 3),
                                       (2, 8, 3), (3, 2, 2), (3, 3, 3),
                                       (4, 2, 2)])
def test_gl_generators_are_the_first_seeds_needed(n, q, count):
    table = enumerate_gl(n, field_from_q(q))
    assert table.generator_ids == groups._gl_seeds(table)[:count]


def test_gl_seeds_that_do_not_generate_are_caught(f3, monkeypatch):
    seeds = groups._gl_seeds
    monkeypatch.setattr(groups, "_gl_seeds", lambda table: seeds(table)[:1])
    with pytest.raises(InternalCheckError, match="did not close"):
        enumerate_gl(2, f3).generator_ids


def test_o_reflection_outside_the_table_is_caught(f3, monkeypatch):
    reflections = groups._reflection_entries

    def with_a_stranger(field, ws):
        out = reflections(field, ws)
        out[-1] = 0  # the zero matrix is in no O_n
        return out

    monkeypatch.setattr(groups, "_reflection_entries", with_a_stranger)
    with pytest.raises(InternalCheckError, match="not in O_3"):
        enumerate_o(3, f3)


def test_o_reflections_that_do_not_generate_are_caught(f3, monkeypatch):
    reflections = groups._reflection_entries
    monkeypatch.setattr(groups, "_reflection_entries",
                        lambda field, ws: reflections(field, ws)[:1])
    with pytest.raises(InternalCheckError, match="did not close"):
        enumerate_o(3, f3)


def test_o3_f5_closure(f5):
    # outside the verification grids but inside the caps; |O_3(F_5)| = 240
    table = enumerate_o(3, f5)
    assert table.order == 240
    ident = MatFq.identity(f5, 3)
    for i in table.generator_ids:
        m = table.elements[i]
        assert m * m == ident  # generators are reflections


def test_o_cap(f3):
    with pytest.raises(CapExceededError):
        enumerate_o(3, f3, cap=10)


@pytest.mark.parametrize("n,q,order", [(2, 3, 8), (2, 5, 8), (3, 3, 48),
                                       (3, 5, 240), (4, 3, 1152),
                                       (3, 9, 1440)])
def test_o_order_closed_form_and_closure_agree(n, q, order):
    # the closed form shares nothing with the row extension
    field = field_from_q(q)
    assert o_order(n, field) == order
    assert enumerate_o(n, field).order == order


def test_o_closure_is_checked_against_the_closed_form(f3, monkeypatch):
    monkeypatch.setattr(groups, "o_order", lambda n, field: 49)
    with pytest.raises(InternalCheckError, match="48 elements"):
        enumerate_o(3, f3)


def test_group_table_rows_out_of_code_order_or_repeated_are_refused():
    f3 = field_from_q(3)
    for rows in ([[2], [1]], [[1], [1], [2]]):
        with pytest.raises(InternalCheckError,
                           match="not in strictly increasing code order"):
            GroupTable("GL", 1, f3, rows)


def test_a_table_of_the_wrong_size_is_refused():
    # in code order, but GL1(F3) has 2 elements
    with pytest.raises(InternalCheckError,
                       match=r"GL_1\(F_3\) table has 1 elements, not 2"):
        GroupTable("GL", 1, field_from_q(3), [[1]])


@pytest.mark.parametrize("enum,q", [(enumerate_gl, 2), (enumerate_o, 3)])
def test_n_zero_is_a_domain_error(enum, q):
    with pytest.raises(DomainError, match="n must be >= 1"):
        enum(0, field_from_q(q))


def test_admit_refuses_by_cause_in_order():
    f4, f3 = field_from_q(4), field_from_q(3)
    # each input has every later cause too: the first one names it
    for kind, n, field, match in (("sp", 0, f4, "unknown pair kind 'sp'"),
                                  ("o", 0, f4, "n must be >= 1"),
                                  ("o", 100, f4, "requires odd q")):
        with pytest.raises(DomainError, match=match) as info:
            groups.admit(kind, n, field)
        assert not isinstance(info.value, CapExceededError)
    with pytest.raises(CapExceededError, match="8x8 matrices over F_3"):
        groups.admit("o", 8, f3)
    assert groups.admit("GL", 2, f3) == gl_order(2, 3)
    assert groups.admit("O", 3, f3) == o_order(3, f3) == 48


def test_o_order_is_never_asked_for_an_even_q():
    import sys
    from gelfand.pipeline import check_table_fits, run_verify
    seen = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code is o_order.__code__:
            seen.append(frame.f_locals["field"].q)

    sys.setprofile(watch)
    try:
        for n, q in ((1, 4), (2, 2), (5, 4)):
            for refuse in (lambda: run_verify("o", n, q),
                           lambda: check_table_fits("o", n + 1,
                                                    field_from_q(q)),
                           lambda: enumerate_o(n, field_from_q(q))):
                with pytest.raises(DomainError, match="requires odd q"):
                    refuse()
        check_table_fits("o", 2, field_from_q(3))
    finally:
        sys.setprofile(None)
    assert seen == [3]


def test_codes_past_int64_are_refused_before_enumeration():
    f25 = field_from_q(25)  # 25^16 > 2^63
    with pytest.raises(CapExceededError, match="int64"):
        enumerate_o(4, f25)
    with pytest.raises(CapExceededError, match="int64"):
        GroupTable("GL", 4, f25, np.zeros((0, 16), dtype=np.uint8))


def test_an_o_row_extension_off_the_group_is_caught(f3, monkeypatch):
    # pairwise orthogonal rows of norm 2, as many pairs as O2(F3) has
    # elements, but g^T g = 2 I
    twos = np.array([[1, 1], [1, 2], [2, 1], [2, 2]], dtype=np.uint8)
    monkeypatch.setattr(groups, "unit_vectors", lambda n, field: twos)
    with pytest.raises(InternalCheckError,
                       match="row extension left the orthogonal group"):
        enumerate_o(2, f3)


def test_index_of_refuses_a_matrix_of_another_shape_or_field(f2, f3):
    table = enumerate_gl(2, f3)
    for m in (MatFq.identity(f3, 3), MatFq.identity(f2, 2)):
        with pytest.raises(DomainError,
                           match="shape or field does not match group"):
            table.index_of(m)


def test_every_o_element_is_orthogonal(f3):
    table = enumerate_o(3, f3)
    ident = MatFq.identity(f3, 3)
    for m in table.elements:
        assert m.transpose() * m == ident


# ---------------------------------------------------------
# centers
# ---------------------------------------------------------

def test_center_gl2_f3(f3):
    table = enumerate_gl(2, f3)
    zs = [table.elements[i] for i in table.center_ids()]
    assert sorted(m.entries for m in zs) == [(1, 0, 0, 1), (2, 0, 0, 2)]


def test_center_gl2_f2_trivial(f2):
    table = enumerate_gl(2, f2)
    assert table.center_ids() == [table.identity_id]


def test_center_o3_f3(f3):
    table = enumerate_o(3, f3)
    zs = {table.elements[i].entries for i in table.center_ids()}
    assert zs == {MatFq.identity(f3, 3).entries,
                  tuple(2 if i == j else 0 for i in range(3) for j in range(3))}


def test_a_gl_center_other_than_the_scalars_is_caught(f3):
    table = enumerate_gl(2, f3)
    # with no generators to commute with, every element looks central
    table.__dict__["generator_perms"] = ([], [])
    with pytest.raises(InternalCheckError,
                       match="GL center does not equal the scalar matrices"):
        table.center_ids()


def test_a_table_given_a_lower_case_kind_is_the_same_gl_table(f3):
    upper = enumerate_gl(2, f3)
    table = GroupTable("gl", 2, f3, upper.row_codes.T)
    assert table.generator_ids == upper.generator_ids
    assert sorted(table.elements[z].entries for z in table.center_ids()) == [
        (1, 0, 0, 1), (2, 0, 0, 2)]
    small = GroupTable("gl", 1, f3, enumerate_gl(1, f3).row_codes.T)
    assert embed_standard(small, upper).map == embed_standard(
        enumerate_gl(1, f3), table).map


def test_center_commutes_with_everything(f3):
    table = enumerate_gl(2, f3)
    for z in table.center_ids():
        ze = table.elements[z].entries
        for m in table.elements:
            assert mul_flat(ze, m.entries, 2, f3) == mul_flat(m.entries, ze, 2, f3)


# ---------------------------------------------------------
# transpose stability
# ---------------------------------------------------------

@pytest.mark.parametrize("kind,n,q", [("gl", 2, 2), ("gl", 2, 3), ("gl", 2, 4),
                                      ("gl", 2, 8), ("o", 2, 3), ("o", 3, 3),
                                      ("o", 2, 5), ("o", 4, 3)])
def test_transpose_maps_group_to_itself(kind, n, q):
    from gelfand.field import field_from_q
    field = field_from_q(q)
    table = (enumerate_gl if kind == "gl" else enumerate_o)(n, field)
    tr = table.transpose_ids
    assert sorted(tr) == list(range(table.order))  # a permutation
    for z in table.center_ids():
        assert tr[z] == z  # transpose fixes the center pointwise
    for x in range(table.order):
        assert table.element(tr[x]) == table.element(x).transpose()


# ---------------------------------------------------------
# embeddings
# ---------------------------------------------------------

def test_embed_gl1_f2(f2):
    h = enumerate_gl(1, f2)
    g = enumerate_gl(2, f2)
    emb = embed_standard(h, g)
    assert [g.elements[i] for i in emb.map] == [MatFq.identity(f2, 2)]


def test_embed_gl1_f3(f3):
    h = enumerate_gl(1, f3)
    g = enumerate_gl(2, f3)
    emb = embed_standard(h, g)
    images = {g.elements[i].entries for i in emb.map}
    assert images == {(1, 0, 0, 1), (2, 0, 0, 1)}


def test_embed_o2_into_o3(f3):
    h = enumerate_o(2, f3)
    g = enumerate_o(3, f3)
    emb = embed_standard(h, g)
    assert len(emb.map) == 8
    ident = MatFq.identity(f3, 3)
    for i in emb.map:
        m = g.elements[i]
        assert m.transpose() * m == ident
        assert m[2, 2] == 1 and m[0, 2] == m[1, 2] == m[2, 0] == m[2, 1] == 0


@pytest.mark.parametrize("kind,n,q", [("gl", 1, 8), ("gl", 2, 3), ("o", 3, 3)])
def test_embedding_maps_each_element_to_its_block(kind, n, q):
    field = field_from_q(q)
    enum = enumerate_gl if kind == "gl" else enumerate_o
    h, g = enum(n, field), enum(n + 1, field)
    emb = embed_standard(h, g)
    for i in range(h.order):
        rows = [list(r) + [0] for r in h.element(i).to_rows()]
        block = MatFq.from_rows(field, rows + [[0] * n + [1]])
        assert g.element(emb.map[i]) == block


@pytest.mark.parametrize("kind,n,q", [("gl", 1, 3), ("gl", 2, 2), ("gl", 2, 3),
                                      ("o", 2, 3)])
def test_embedding_is_a_homomorphism_exhaustive(kind, n, q):
    from gelfand.field import field_from_q
    field = field_from_q(q)
    enum = enumerate_gl if kind == "gl" else enumerate_o
    h = enum(n, field)
    g = enum(n + 1, field)
    emb = embed_standard(h, g)
    assert h.order <= 10 ** 4
    for i in range(h.order):
        for j in range(h.order):
            assert emb.map[h.mul_ids(i, j)] == g.mul_ids(emb.map[i], emb.map[j])


def test_embed_requires_matching_shape(f2, f3):
    with pytest.raises(DomainError):
        embed_standard(enumerate_gl(1, f2), enumerate_gl(3, f2))
    with pytest.raises(DomainError):
        embed_standard(enumerate_gl(1, f2), enumerate_gl(2, f3))


def test_an_embedding_that_is_not_injective_is_caught(f2):
    g = enumerate_gl(2, f2)
    with pytest.raises(InternalCheckError, match="not injective"):
        Embedding(g, g, [0] * g.order)


def test_an_embedding_that_moves_the_identity_is_caught(f3):
    h, g = enumerate_gl(1, f3), enumerate_gl(2, f3)
    # GL1(F3) = {1, 2}: name 2 as the identity, so it maps to diag(2, 1)
    h.identity_id = 1 - h.identity_id
    with pytest.raises(InternalCheckError,
                       match="embedding does not preserve the identity"):
        embed_standard(h, g)


def test_embed_identity(f2):
    g = enumerate_gl(2, f2)
    emb = embed_identity(g)
    assert emb.map == list(range(6))
