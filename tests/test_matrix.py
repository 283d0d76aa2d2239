import random
from itertools import product

import pytest

from gelfand.errors import DomainError, SingularMatrixError
from gelfand.groups import enumerate_gl
from gelfand.matrix import (MatFq, format_matrix, format_vector, mat_vec,
                            parse_matrix, parse_vector, vec_dot)


def all_square(field, n):
    for entries in product(range(field.q), repeat=n * n):
        yield MatFq(field, n, n, entries)


# ---------------------------------------------------------
# examples
# ---------------------------------------------------------

def test_identity_times_anything(f3):
    ident = MatFq.identity(f3, 2)
    for m in all_square(f3, 2):
        assert ident * m == m
        assert m * ident == m


def test_order_two_element_over_f2(f2):
    m = parse_matrix(f2, "1,1;0,1")
    assert m * m == MatFq.identity(f2, 2)


def test_one_by_one_product(f5):
    assert parse_matrix(f5, "2") * parse_matrix(f5, "3") == parse_matrix(f5, "1")


def test_rectangular_products(f5):
    a = parse_matrix(f5, "1,2,3;4,0,1")
    b = parse_matrix(f5, "1;1;2")
    assert a * b == parse_matrix(f5, "4;1")  # 9 and 6 mod 5
    assert b.transpose() * a.transpose() == parse_matrix(f5, "4,1")
    assert b * parse_matrix(f5, "1,2") == parse_matrix(f5, "1,2;1,2;2,4")


def test_rank_of_block_matrix(f3):
    assert parse_matrix(f3, "1,0,0;0,1,0;0,0,0").rank() == 2
    assert parse_matrix(f3, "1,0,0,0;0,1,0,0;0,0,0,0;0,0,0,0").rank() == 2


def test_det_example(f2):
    assert parse_matrix(f2, "1,1;0,1").det() == 1


def test_inverse_example(f2):
    m = parse_matrix(f2, "0,1;1,1")
    inv = m.inverse()
    assert inv == parse_matrix(f2, "1,1;1,0")
    assert m * inv == MatFq.identity(f2, 2)
    assert inv * m == MatFq.identity(f2, 2)


# ---------------------------------------------------------
# algebraic properties
# ---------------------------------------------------------

def test_product_inverse_and_transpose_exhaustive_gl2_f2(f2):
    gl = enumerate_gl(2, f2).elements
    for a in gl:
        for b in gl:
            ab = a * b
            assert ab.inverse() == b.inverse() * a.inverse()
            assert ab.transpose() == b.transpose() * a.transpose()
            assert ab.det() == f2.mul(a.det(), b.det())


def test_product_properties_sampled_gl2_f3(f3):
    gl = enumerate_gl(2, f3).elements
    rng = random.Random(1234)
    for _ in range(200):
        a, b = rng.choice(gl), rng.choice(gl)
        ab = a * b
        assert ab.inverse() == b.inverse() * a.inverse()
        assert ab.transpose() == b.transpose() * a.transpose()
        assert ab.det() == f3.mul(a.det(), b.det())


def test_rank_det_invertibility_agree(f3):
    for m in all_square(f3, 2):
        full = m.rank() == 2
        assert (m.det() != 0) == full
        assert m.rank() == m.transpose().rank()
        if full:
            assert m * m.inverse() == MatFq.identity(f3, 2)
        else:
            with pytest.raises(SingularMatrixError):
                m.inverse()


def test_transpose_is_an_involution(f3):
    for m in all_square(f3, 2):
        assert m.transpose().transpose() == m


def test_symmetric_iff_inverse_symmetric(f3):
    seen = 0
    for m in all_square(f3, 2):
        if not m.is_symmetric() or m.det() == 0:
            continue
        seen += 1
        assert m.inverse().is_symmetric()
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
    m = parse_matrix(f5, "1,2;0,4")
    assert format_matrix(m) == "1,2;0,4"
    assert m.to_rows() == [[1, 2], [0, 4]]
    v = parse_vector(f5, "1,0,3")
    assert format_vector(v) == "1,0,3"
    with pytest.raises(DomainError):
        parse_vector(f5, "1,7")
    with pytest.raises(DomainError, match="bad vector literal"):
        parse_vector(f5, "1,x")
    with pytest.raises(DomainError):
        parse_matrix(f5, "1,x")


def test_encoding_is_stable_and_injective(f3):
    m = parse_matrix(f3, "1,2;0,1")
    assert m.encode() == bytes([2, 2, 1, 2, 0, 1])
    seen = {mm.encode() for mm in all_square(f3, 2)}
    assert len(seen) == 3 ** 4
    # shape participates: a 1x4 and a 2x2 with equal entries differ
    assert MatFq(f3, 1, 4, [1, 2, 0, 1]).encode() != m.encode()


def test_vector_helpers(f3):
    m = parse_matrix(f3, "1,2;0,1")
    assert mat_vec(m, (1, 1)) == (0, 1)
    assert vec_dot(f3, (1, 2), (2, 2)) == 0  # 2 + 4 = 6 = 0 mod 3
    with pytest.raises(DomainError):
        mat_vec(m, (1, 1, 1))
