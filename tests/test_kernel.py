"""The batched group kernel: mul_batch, ids_of and orbits."""

import random

import numpy as np
import pytest

from gelfand.chartab import conjugacy_classes
from gelfand.errors import InternalCheckError
from gelfand.field import field_from_q
from gelfand.groups import enumerate_gl, orbits
from gelfand.matrix import mul_batch, mul_flat


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
    assert g.ids_of(g.mat).tolist() == list(range(g.order))
    batch = np.array([g.mat[5], [1, 2, 2, 1]], dtype=np.uint8)  # det 0 mod 3
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
