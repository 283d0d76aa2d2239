import random
from itertools import product

import numpy as np
import pytest

from gelfand.errors import DomainError, InternalCheckError
from gelfand.groups import enumerate_gl
from gelfand.matrix import MatFq, format_matrix, mat_vec, parse_vector, vec_dot


def all_square(field, n):
    for entries in product(range(field.q), repeat=n * n):
        yield MatFq(field, n, n, entries)


def rows(field, *rows):
    return MatFq.from_rows(field, rows)


def elements_and_inverses(g):
    """Every element of the table g with its inverse, read off
    ``inverse_ids``."""
    return [(g.element(i), g.element(j)) for i, j in enumerate(g.inverse_ids)]


# ---------------------------------------------------------
# examples
# ---------------------------------------------------------

def test_identity_times_anything(f3):
    ident = MatFq.identity(f3, 2)
    for m in all_square(f3, 2):
        assert ident * m == m
        assert m * ident == m


def test_order_two_element_over_f2(f2):
    m = rows(f2, [1, 1], [0, 1])
    assert m * m == MatFq.identity(f2, 2)


def test_one_by_one_product(f5):
    assert rows(f5, [2]) * rows(f5, [3]) == rows(f5, [1])


def test_rectangular_products(f5):
    a = rows(f5, [1, 2, 3], [4, 0, 1])
    b = rows(f5, [1], [1], [2])
    assert a * b == rows(f5, [4], [1])  # 9 and 6 mod 5
    assert b.transpose() * a.transpose() == rows(f5, [4, 1])
    assert b * rows(f5, [1, 2]) == rows(f5, [1, 2], [1, 2], [2, 4])


def test_rank_of_block_matrix(f3):
    # rank 2 by rank-nullity: q^(n - 2) vectors in the kernel
    for m in (rows(f3, [1, 0, 0], [0, 1, 0], [0, 0, 0]),
              rows(f3, [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0],
                   [0, 0, 0, 0])):
        n = m.rows
        kernel = [v for v in product(range(3), repeat=n)
                  if mat_vec(m, v) == (0,) * n]
        assert len(kernel) == 3 ** (n - 2)


def test_det_example(f2):
    assert rows(f2, [1, 1], [0, 1]).det() == 1


def test_inverse_example(f2):
    g = enumerate_gl(2, f2)
    m = rows(f2, [0, 1], [1, 1])
    inv = g.element(g.inverse_ids[g.id_of_entries(m.entries)])
    assert inv == rows(f2, [1, 1], [1, 0])
    assert m * inv == MatFq.identity(f2, 2)
    assert inv * m == MatFq.identity(f2, 2)


# ---------------------------------------------------------
# algebraic properties
# ---------------------------------------------------------

def test_product_inverse_and_transpose_exhaustive_gl2_f2(f2):
    gl = elements_and_inverses(enumerate_gl(2, f2))
    inverse = {a: a_inv for a, a_inv in gl}
    for a, a_inv in gl:
        for b, b_inv in gl:
            ab = a * b
            assert inverse[ab] == b_inv * a_inv
            assert ab.transpose() == b.transpose() * a.transpose()
            assert ab.det() == f2.mul(a.det(), b.det())


def test_product_properties_sampled_gl2_f3(f3):
    gl = elements_and_inverses(enumerate_gl(2, f3))
    inverse = dict(gl)
    rng = random.Random(1234)
    for _ in range(200):
        (a, a_inv), (b, b_inv) = rng.choice(gl), rng.choice(gl)
        ab = a * b
        assert inverse[ab] == b_inv * a_inv
        assert ab.transpose() == b.transpose() * a.transpose()
        assert ab.det() == f3.mul(a.det(), b.det())


def test_rank_det_invertibility_agree(f3):
    # det != 0 exactly when the matrix is in GL2(F3), the rows that
    # enumerate_gl built from linearly independent prefixes
    g = enumerate_gl(2, f3)
    inverse = dict(elements_and_inverses(g))
    for m in all_square(f3, 2):
        assert m.det() == m.transpose().det()
        batch = np.array([m.entries], dtype=np.uint8)
        if m.det() != 0:
            g.ids_of(batch)
            assert m * inverse[m] == MatFq.identity(f3, 2)
        else:
            with pytest.raises(InternalCheckError, match="not in GL_2"):
                g.ids_of(batch)


def test_transpose_is_an_involution(f3):
    for m in all_square(f3, 2):
        assert m.transpose().transpose() == m


def test_symmetric_iff_inverse_symmetric(f3):
    seen = 0
    for m, m_inv in elements_and_inverses(enumerate_gl(2, f3)):
        if not m.is_symmetric():
            continue
        seen += 1
        assert m_inv.is_symmetric()
    assert seen > 0


# ---------------------------------------------------------
# errors and encodings
# ---------------------------------------------------------

def test_dimension_mismatch(f3):
    a = MatFq(f3, 2, 3, [0] * 6)
    b = MatFq(f3, 2, 2, [0] * 4)
    with pytest.raises(DomainError):
        a * b


def test_cross_field_product_rejected(f2, f3):
    a = MatFq.identity(f2, 2)
    b = MatFq.identity(f3, 2)
    with pytest.raises(DomainError):
        a * b


def test_entry_validation(f3):
    with pytest.raises(DomainError):
        MatFq(f3, 1, 1, [3])


def test_literal_roundtrip(f5):
    m = rows(f5, [1, 2], [0, 4])
    assert format_matrix(m) == "1,2;0,4"
    assert m.to_rows() == [[1, 2], [0, 4]]
    assert parse_vector(f5, "1,0,3") == (1, 0, 3)
    with pytest.raises(DomainError):
        parse_vector(f5, "1,7")
    with pytest.raises(DomainError, match="bad vector literal"):
        parse_vector(f5, "1,x")


def test_vector_helpers(f3):
    m = rows(f3, [1, 2], [0, 1])
    assert mat_vec(m, (1, 1)) == (0, 1)
    assert vec_dot(f3, (1, 2), (2, 2)) == 0  # 2 + 4 = 6 = 0 mod 3
    with pytest.raises(DomainError):
        mat_vec(m, (1, 1, 1))
