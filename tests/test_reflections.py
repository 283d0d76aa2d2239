import random
from itertools import product

import pytest

from gelfand.errors import CapExceededError, DomainError
from gelfand.field import build_field, field_from_q
from gelfand.groups import enumerate_o
from gelfand.matrix import MatFq, mat_vec, vec_dot
from gelfand.reflections import sphere_points, swap_element


def check_swap(field, u, v):
    g = swap_element(field, u, v)
    n = len(u)
    ident = MatFq.identity(field, n)
    assert g.transpose() * g == ident
    assert g * g == ident
    assert mat_vec(g, u) == v
    assert mat_vec(g, v) == u
    return g


# ---------------------------------------------------------
# sphere
# ---------------------------------------------------------

def test_sphere_2_f3(f3):
    assert sphere_points(2, f3) == [(0, 1), (0, 2), (1, 0), (2, 0)]


def test_sphere_1_f5(f5):
    assert sphere_points(1, f5) == [(1,), (4,)]


def test_sphere_3_f3_orbit_stabilizer(f3):
    pts = sphere_points(3, f3)
    assert len(pts) == 6
    assert len(pts) == enumerate_o(3, f3).order // enumerate_o(2, f3).order


def test_sphere_points_are_unit(f5):
    for x in sphere_points(3, f5):
        assert vec_dot(f5, x, x) == 1


# ---------------------------------------------------------
# swap elements
# ---------------------------------------------------------

def test_swap_equal_vectors_fixes_them(f3):
    g = check_swap(f3, (1, 0), (1, 0))
    # the second branch negates the orthogonal complement of u
    assert mat_vec(g, (0, 1)) == (0, 2)


def test_swap_standard_basis_f3(f3):
    g = check_swap(f3, (1, 0), (0, 1))
    assert g.to_rows() == [[0, 1], [1, 0]]


def test_swap_isotropic_difference_f5(f5):
    u, v = (1, 0, 0), (1, 1, 2)
    assert vec_dot(f5, v, v) == 1
    d = tuple(f5.sub(x, y) for x, y in zip(u, v))
    assert vec_dot(f5, d, d) == 0  # forces the second formula
    s = tuple(f5.add(x, y) for x, y in zip(u, v))
    assert vec_dot(f5, s, s) == 4
    check_swap(f5, u, v)


@pytest.mark.parametrize("n,q", [(2, 3), (3, 3), (2, 5)])
def test_swap_exhaustive_small_grids(n, q):
    field = build_field(q, 1)
    pts = sphere_points(n, field)
    for u in pts:
        for v in pts:
            check_swap(field, u, v)


@pytest.mark.parametrize("n,q", [(2, 9), (3, 9), (2, 25)])
def test_sphere_and_swaps_over_extension_fields(n, q):
    field = field_from_q(q)
    brute = [x for x in product(range(q), repeat=n)
             if vec_dot(field, x, x) == 1]
    pts = sphere_points(n, field)
    assert pts == brute
    pairs = [(u, v) for u in pts for v in pts]
    for u, v in random.Random(q * 10 + n).sample(pairs, min(len(pairs), 300)):
        check_swap(field, u, v)


def test_swap_rejects_characteristic_two(f2, f4):
    with pytest.raises(DomainError):
        swap_element(f2, (1,), (1,))
    with pytest.raises(DomainError):
        swap_element(f4, (1, 0), (0, 1))


def test_swap_rejects_non_unit_vectors(f3):
    with pytest.raises(DomainError):
        swap_element(f3, (1, 1), (1, 0))  # <u,u> = 2


def test_swap_rejects_vectors_of_unequal_length(f3):
    with pytest.raises(DomainError, match="same length"):
        swap_element(f3, (1, 0), (1, 0, 0))


def test_sphere_points_are_refused_past_the_cap(f3):
    # 3^100 candidate vectors: refused before any is built
    with pytest.raises(CapExceededError, match="exceeds sphere cap"):
        sphere_points(100, f3)


def test_swap_elements_act_transitively(f3):
    # the group generated by swap elements moves the base point everywhere
    for n in (2, 3):
        pts = sphere_points(n, f3)
        gens = [swap_element(f3, u, v) for u in pts for v in pts]
        orbit = {pts[0]}
        frontier = [pts[0]]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = mat_vec(g, x)
                    if y not in orbit:
                        orbit.add(y)
                        nxt.append(y)
            frontier = nxt
        assert orbit == set(pts)
