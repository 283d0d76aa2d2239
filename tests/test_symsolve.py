import functools
import random
import re
from itertools import product

import numpy as np
import pytest

from gelfand import symsolve
from gelfand.errors import CapExceededError, DomainError, InternalCheckError
from gelfand.field import build_field, field_from_q
from gelfand.groups import decode, enumerate_gl
from gelfand.matrix import MatFq, mat_vec, vec_dot
from gelfand.symsolve import (ORACLE_SEARCH_CAP, _first_hits,
                              _symmetric_stock, oracle_symmetric,
                              solve_symmetric)

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25)
# every (q, n) whose oracle search space is under the cap
ORACLE_GRID = [(q, n) for q in PRIME_POWERS for n in range(1, 5)
               if q ** (n * (n + 1) // 2) <= ORACLE_SEARCH_CAP]


def nonzero_vectors(field, n):
    return [v for v in product(range(field.q), repeat=n) if any(v)]


def assert_transports(b, phi, v):
    """b is a symmetric invertible matrix with b*phi = v."""
    assert b.is_symmetric() and b.det() != 0
    assert mat_vec(b, phi) == v


# ---------------------------------------------------------
# examples
# ---------------------------------------------------------

def test_scalar_case(f5):
    b = solve_symmetric(f5, (2,), (3,))
    assert b.to_rows() == [[4]]  # 4*2 = 8 = 3 mod 5


def test_f3_basis_swap_postcondition(f3):
    # any valid output is [[0,1],[1,c]]; the contract is the postcondition
    b = solve_symmetric(f3, (1, 0), (0, 1))
    assert b.is_symmetric() and b.det() != 0
    assert mat_vec(b, (1, 0)) == (0, 1)
    assert b[0, 0] == 0 and b[0, 1] == 1


def test_f2_unique_solution(f2):
    # brute force over the 8 symmetric binary 2x2 matrices leaves only one
    b = solve_symmetric(f2, (1, 0), (1, 1))
    assert b.to_rows() == [[1, 1], [1, 0]]
    assert oracle_symmetric(f2, (1, 0), (1, 1)).to_rows() == [[1, 1], [1, 0]]


def test_oracle_examples(f2, f3):
    assert_transports(oracle_symmetric(f3, (1, 0), (0, 1)), (1, 0), (0, 1))
    assert oracle_symmetric(f2, (1,), (1,)).to_rows() == [[1]]


def test_zero_vectors_rejected(f3):
    with pytest.raises(DomainError):
        solve_symmetric(f3, (0, 0), (1, 0))
    with pytest.raises(DomainError):
        solve_symmetric(f3, (1, 0), (0, 0))
    with pytest.raises(DomainError):
        oracle_symmetric(f3, (0, 0), (1, 0))


@pytest.mark.parametrize("phi,v", [((1, 0), (1,)), ((), ())])
def test_vectors_of_unequal_or_no_length_are_refused(f3, phi, v):
    for solve in (solve_symmetric, oracle_symmetric):
        with pytest.raises(DomainError,
                           match="nonempty vectors of equal length"):
            solve(f3, phi, v)


@pytest.mark.parametrize("rows,phi,v,match", [
    ([[1, 1], [0, 1]], (1, 0), (1, 0), "non-symmetric"),
    ([[1, 0], [0, 0]], (1, 0), (1, 0), "singular"),
    ([[1, 0], [0, 1]], (1, 0), (0, 1), r"does not map \(1, 0\) to \(0, 1\)"),
], ids=["non-symmetric", "singular", "wrong-image"])
def test_a_wrong_solver_output_is_caught(f3, monkeypatch, rows, phi, v,
                                         match):
    monkeypatch.setattr(symsolve, "_solve", lambda field, phi, v: rows)
    with pytest.raises(InternalCheckError, match=match):
        solve_symmetric(f3, phi, v)


@pytest.mark.parametrize("phi,v,entry", [((5, 0), (1, 0), 5),
                                          ((1, 0), (0, 7), 7)])
def test_solver_refuses_entries_outside_the_field(f3, phi, v, entry):
    with pytest.raises(DomainError, match=f"entry {entry} not a valid index"):
        solve_symmetric(f3, phi, v)


@pytest.mark.parametrize("phi,v,entry", [((5, 0), (1, 0), 5),
                                          ((1, 0), (0, 7), 7)])
def test_oracle_refuses_entries_outside_the_field(f3, phi, v, entry):
    # (0, 7) used to read as "no transporter exists"
    with pytest.raises(DomainError, match=f"entry {entry} not a valid index"):
        oracle_symmetric(f3, phi, v)


@pytest.mark.parametrize("phi,v,entry", [
    ((1.0, 0), (1, 0), "1.0"),
    ((True, 0), (1, 0), "True"),
    ((1, 0), (0, np.float64(1)), "np.float64(1.0)"),
    ((1, 0), (np.bool_(True), 0), "np.True_"),
], ids=["float", "bool", "numpy-float", "numpy-bool"])
def test_entries_that_are_not_integers_are_refused(f3, phi, v, entry):
    # a float used to raise a bare TypeError in the solver and an
    # IndexError in the oracle; True read as 1 in the solver and made the
    # oracle report that no transporter exists
    for solve in (solve_symmetric, oracle_symmetric):
        with pytest.raises(DomainError,
                           match=re.escape(f"entry {entry} is not an integer")):
            solve(f3, phi, v)


@pytest.mark.parametrize("dtype", [np.int64, np.uint8])
@pytest.mark.parametrize("q,phi,v", [(3, (1, 0), (0, 1)),
                                     (23, (22, 21), (20, 22))])
def test_numpy_integer_entries_are_accepted(q, phi, v, dtype):
    # over GF(23) a uint8 entry used to wrap the solver's a*q + b and make
    # it report a non-symmetric matrix
    field = field_from_q(q)
    as_numpy = tuple(np.array(phi, dtype)), tuple(np.array(v, dtype))
    for solve in (solve_symmetric, oracle_symmetric):
        assert solve(field, *as_numpy) == solve(field, phi, v)


def test_oracle_cap():
    f7 = build_field(7, 1)
    with pytest.raises(CapExceededError):
        oracle_symmetric(f7, (1, 0, 0), (0, 1, 0))  # 7^6 > 15625


# ---------------------------------------------------------
# regression inputs from the old five-case split (the corners of its
# recursion on the first coordinate)
# ---------------------------------------------------------

def test_case_b1_zero(f3):
    b = solve_symmetric(f3, (0, 1), (1, 1))
    assert mat_vec(b, (0, 1)) == (1, 1) and b.is_symmetric() and b.det() != 0


def test_case_a1_zero(f3):
    b = solve_symmetric(f3, (1, 1), (0, 1))
    assert mat_vec(b, (1, 1)) == (0, 1) and b.is_symmetric() and b.det() != 0


def test_case_both_corners_zero(f3):
    b = solve_symmetric(f3, (0, 1), (0, 2))
    assert mat_vec(b, (0, 1)) == (0, 2) and b.det() != 0


def test_case_tail_of_v_zero(f3):
    b = solve_symmetric(f3, (1, 1), (1, 0))
    assert mat_vec(b, (1, 1)) == (1, 0) and b.is_symmetric() and b.det() != 0


def test_long_r1_block(f5):
    # phi1 = 0 with several nonzero entries in r1 exercises the zeroed slot
    b = solve_symmetric(f5, (2, 0, 0), (1, 3, 4))
    assert mat_vec(b, (2, 0, 0)) == (1, 3, 4)
    assert b.is_symmetric() and b.det() != 0


# ---------------------------------------------------------
# exhaustive sweeps (the n = 3, q = 5 sweep runs in acceptance)
# ---------------------------------------------------------

@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                 (3, 3), (5, 1), (5, 2)])
def test_solver_matches_oracle_exhaustively(q, n):
    field = build_field(q, 1)
    vecs = nonzero_vectors(field, n)
    for phi in vecs:
        for v in vecs:
            b = solve_symmetric(field, phi, v)  # postconditions self-checked
            assert_transports(oracle_symmetric(field, phi, v), phi, v)
            assert mat_vec(b, phi) == v


def test_solver_over_f4(f4):
    # the construction carries no characteristic restriction; F_4 included
    vecs = nonzero_vectors(f4, 2)
    for phi in vecs:
        for v in vecs:
            b = solve_symmetric(f4, phi, v)
            assert_transports(oracle_symmetric(f4, phi, v), phi, v)
            assert mat_vec(b, phi) == v


@pytest.mark.parametrize("q,n", [(2, 4), (3, 4), (8, 2), (9, 2)])
def test_solver_postconditions_past_the_oracle_grid(q, n):
    field = field_from_q(q)
    vecs = nonzero_vectors(field, n)
    for phi in vecs:
        for v in vecs:
            b = solve_symmetric(field, phi, v)  # postconditions self-checked
            assert mat_vec(b, phi) == v


def test_f3_reaches_both_branches(f3):
    vecs = nonzero_vectors(f3, 2)
    by_branch = {True: 0, False: 0}
    for phi in vecs:
        for v in vecs:
            solve_symmetric(f3, phi, v)
            by_branch[vec_dot(f3, v, phi) == 0] += 1
    # each nonzero phi has 2 nonzero v with v^T phi = 0
    assert by_branch == {True: 16, False: 48}
    # c = 0: (e_0 v^T + v e_0^T) / phi_0 with j = 1, m = 0, no w_i
    assert solve_symmetric(f3, (1, 0), (0, 1)).to_rows() == [[0, 1], [1, 0]]
    # c = 1: v v^T + w_1 w_1^T with j = 0, w_1 = e_1 - v = (2, 1)
    assert solve_symmetric(f3, (1, 1), (1, 0)).to_rows() == [[2, 2], [2, 1]]


# ---------------------------------------------------------
# coherence properties
# ---------------------------------------------------------

def test_scaling_coherence(f5):
    for phi, v in [((1, 2), (3, 1)), ((0, 1), (2, 0)), ((1, 0, 1), (0, 2, 0))]:
        b = solve_symmetric(f5, phi, v)
        for t in range(1, 5):
            tphi = tuple(f5.mul(t, x) for x in phi)
            tv = tuple(f5.mul(t, x) for x in v)
            assert mat_vec(b, tphi) == tv  # the same B transports the scaled pair
            solve_symmetric(f5, tphi, tv)  # and the solver succeeds on it


def test_swap_inverse_duality(f3):
    gl = enumerate_gl(2, f3)
    vecs = nonzero_vectors(f3, 2)
    for phi in vecs:
        for v in vecs:
            b = solve_symmetric(f3, phi, v)
            binv = gl.element(gl.inverse_ids[gl.id_of_entries(b.entries)])
            assert binv.is_symmetric()
            assert mat_vec(binv, v) == phi


# ---------------------------------------------------------
# the batched oracle against a scalar reference
# ---------------------------------------------------------

@functools.lru_cache(maxsize=None)
def reference_stock(q, n):
    """The invertible symmetric matrices in canonical order, one MatFq.det
    at a time."""
    field = field_from_q(q)
    stock = []
    for upper in product(range(q), repeat=n * (n + 1) // 2):
        it = iter(upper)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = next(it)
        b = MatFq.from_rows(field, m)
        if b.det() != 0:
            stock.append(b)
    return stock


@pytest.mark.parametrize("q,n", ORACLE_GRID)
def test_oracle_matches_a_scalar_reference(q, n):
    field = field_from_q(q)
    vecs = nonzero_vectors(field, n)
    rng = random.Random(q * 10 + n)
    for _ in range(8):
        phi, v = rng.choice(vecs), rng.choice(vecs)
        expected = next(b for b in reference_stock(q, n)
                        if mat_vec(b, phi) == v)
        assert oracle_symmetric(field, phi, v) == expected


@pytest.mark.parametrize("q,n", ORACLE_GRID)
def test_stock_size_is_the_closed_form(q, n):
    # q^(m(m+1)) prod_{i=1}^{ceil(n/2)} (q^(2i-1) - 1), m = floor(n/2)
    m = n // 2
    expected = q ** (m * (m + 1))
    for i in range(1, (n + 1) // 2 + 1):
        expected *= q ** (2 * i - 1) - 1
    # the stock holds row codes, (n, count); one matrix per column
    stock = _symmetric_stock(field_from_q(q), n)
    assert stock.shape == (n, expected)


def test_the_stock_equals_the_reference_in_canonical_order(f5):
    # column c holds the base-5 codes of matrix c's rows
    stock = _symmetric_stock(f5, 2)
    matrices = decode(stock.T.ravel(), 2, 5).reshape(-1, 4)
    assert [MatFq(f5, 2, 2, b.tolist())
            for b in matrices] == reference_stock(5, 2)


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2),
                                 (5, 2)])
def test_oracle_matches_the_reference_on_every_instance(q, n):
    # every nonzero entry of every table of (q, n), against the first
    # reference matrix in canonical order that maps phi to v
    field = field_from_q(q)
    vecs = nonzero_vectors(field, n)
    first = {}
    for b in reference_stock(q, n):
        for phi in vecs:
            first.setdefault((phi, mat_vec(b, phi)), b)
    assert len(first) == len(vecs) ** 2  # 676 for (3, 3), 225 for (4, 2)
    for (phi, v), expected in first.items():
        assert oracle_symmetric(field, phi, v) == expected


@pytest.mark.parametrize("q,n", ORACLE_GRID)
def test_the_row0_runs_partition_the_stock(q, n):
    # canonical order leads with row 0's digits, so the stock is sorted by
    # row 0's code: its row-0 runs follow one another and cover it once,
    # one run for each nonzero row
    row0 = _symmetric_stock(field_from_q(q), n)[0].astype(np.int64)
    assert (np.diff(row0) >= 0).all()
    assert np.array_equal(np.unique(row0), np.arange(1, q ** n))


@pytest.fixture
def fresh_tables():
    """An empty table cache, emptied again afterwards, so no table built
    here outlives the test."""
    _first_hits.cache_clear()
    yield
    _first_hits.cache_clear()


@pytest.mark.parametrize("q,n", ORACLE_GRID)
def test_each_table_entry_is_the_first_column_reaching_its_code(q, n):
    field = field_from_q(q)
    add, mul = field.arrays()
    stock = _symmetric_stock(field, n)
    mats = decode(stock.T.ravel(), n, q).reshape(-1, n, n)
    vecs = nonzero_vectors(field, n)
    rng = random.Random(q * 10 + n)
    for phi in [vecs[0], vecs[-1]] + rng.sample(vecs, min(6, len(vecs))):
        # B*phi entry by entry, then its base-q code, leading entry first
        image = mul[mats[:, :, 0], phi[0]]
        for j in range(1, n):
            image = add[image, mul[mats[:, :, j], phi[j]]]
        codes = (image.astype(np.int64)
                 * q ** np.arange(n - 1, -1, -1)).sum(1)
        table = _first_hits(field, phi)
        assert table.shape == (q ** n,) and not table.flags.writeable
        # B is invertible, so only v = 0 has no hit
        assert table[0] == -1 and (table[1:] >= 0).all()
        hit = table[1:]
        assert (codes[hit] == np.arange(1, q ** n)).all()
        assert (table[codes] <= np.arange(len(codes))).all()  # the first


def test_a_first_call_builds_one_table(fresh_tables, f5):
    assert _first_hits.cache_info().currsize == 0
    oracle_symmetric(f5, (1, 2, 0), (0, 1, 1))
    assert _first_hits.cache_info().currsize == 1
    oracle_symmetric(f5, (1, 2, 0), (4, 4, 2))  # the same phi's table
    assert _first_hits.cache_info().currsize == 1
    oracle_symmetric(f5, (0, 2, 0), (0, 1, 1))
    assert _first_hits.cache_info().currsize == 2


def test_an_oracle_with_no_hit_raises_naming_phi_and_v(f3, monkeypatch,
                                                        fresh_tables):
    # an empty stock reaches no code, so every table entry is -1
    monkeypatch.setattr(symsolve, "_symmetric_stock",
                        lambda field, n: np.zeros((n, 0), dtype=np.uint8))
    with pytest.raises(InternalCheckError,
                       match=r"no symmetric invertible B mapping "
                             r"\(1, 0\) to \(0, 1\)"):
        oracle_symmetric(f3, (1, 0), (0, 1))
