"""Acceptance criteria, one test per criterion.

Every check is exact integer arithmetic; there are no tolerances anywhere.
The verification grids are

    GL pairs (big group size, q): (2,2) (2,3) (2,4) (2,5) (3,2) (3,3) (4,2)
    O  pairs (big group size, q): (2,3) (3,3) (2,5)

and each criterion prints one PASS line with the numbers it certified.
"""

import hashlib
from itertools import product

from gelfand.field import build_field
from gelfand.matrix import MatFq, mat_vec, vec_dot
from gelfand.reflections import sphere_points, swap_element
from gelfand.symsolve import oracle_symmetric, solve_symmetric


def _label(kind, big, q):
    return f"{kind.upper()}{big}/{kind.upper()}{big - 1}(F_{q})"


# criterion 1: two transpose-non-fixed mod-center cosets on every GL point
def test_criterion_1_gl_nonfixed_cosets(gl_reports):
    for (big, q), r in gl_reports.items():
        assert r.sigma_nonfixed == 2, _label("gl", big, q)
        assert r.k == 1, _label("gl", big, q)
        # lemma_3_1 includes the swapped-pair representative shape check
        assert r.checks["lemma_3_1"], _label("gl", big, q)
    print("ACCEPTANCE 1 (GL non-fixed mod-center cosets = 2, swapped): PASS "
          f"on {len(gl_reports)} grid points")


# criterion 2: every irreducible has dim pi^H <= 2 on every GL point
def test_criterion_2_gl_dimension_bound(gl_reports):
    attained = []
    for (big, q), r in gl_reports.items():
        dims = [c["dim_inv"] for c in r.characters]
        assert all(0 <= d <= 2 for d in dims), _label("gl", big, q)
        assert r.max_dim_inv <= 2
        assert r.checks["corollary_3_3"], _label("gl", big, q)
        attained.append(((big, q), r.attained))
    assert all(r.passed for r in gl_reports.values())
    print("ACCEPTANCE 2 (GL invariant dimension <= 2): PASS; attainment: "
          + ", ".join(f"{_label('gl', b, q)}={'yes' if a else 'no'}"
                      for (b, q), a in attained))


# criterion 3: orthogonal pairs have k = 0 and all dims <= 1
def test_criterion_3_o_gelfand_property(o_reports):
    for (big, q), r in o_reports.items():
        assert r.sigma_nonfixed == 0 and r.k == 0, _label("o", big, q)
        dims = [c["dim_inv"] for c in r.characters]
        assert all(0 <= d <= 1 for d in dims), _label("o", big, q)
        assert r.checks["theorem_4_1"], _label("o", big, q)
        assert r.passed
    print("ACCEPTANCE 3 (O pairs: k = 0 and dims <= 1): PASS on "
          f"{len(o_reports)} grid points")


# criterion 4: the symmetric solver is sound and complete vs the oracle;
# ORACLE_DIGEST is the sha256 of the oracle's outputs' entries as bytes,
# in this loop's order
ORACLE_DIGEST = (
    "eedf1b3d20b896cb8cb4b7d29ce457e2aca760e22b3e67d20d87ac179db96437")


def test_criterion_4_symmetric_solver_exhaustive():
    checked = 0
    digest = hashlib.sha256()
    for q in (2, 3, 5):
        field = build_field(q, 1)
        for n in (1, 2, 3):
            vecs = [v for v in product(range(q), repeat=n) if any(v)]
            for phi in vecs:
                for v in vecs:
                    b = solve_symmetric(field, phi, v)
                    first = oracle_symmetric(field, phi, v)
                    for m in (b, first):
                        assert m.is_symmetric() and m.det() != 0
                        assert mat_vec(m, phi) == v
                    digest.update(bytes(first.entries))
                    checked += 1
    assert checked == 16_771
    assert digest.hexdigest() == ORACLE_DIGEST
    print(f"ACCEPTANCE 4 (symmetric solver, n <= 3, q in 2/3/5): PASS on "
          f"{checked} instances, zero failures")


# criterion 5: swap reflections on all ordered unit-vector pairs
def test_criterion_5_swap_reflections_exhaustive():
    checked = 0
    isotropic_diffs = 0
    for n, q in ((2, 3), (3, 3), (2, 5), (3, 5)):
        field = build_field(q, 1)
        ident = MatFq.identity(field, n)
        pts = sphere_points(n, field)
        for u in pts:
            for v in pts:
                d = tuple(field.sub(x, y) for x, y in zip(u, v))
                if vec_dot(field, d, d) == 0 and u != v:
                    isotropic_diffs += 1
                g = swap_element(field, u, v)
                assert g.transpose() * g == ident
                assert g * g == ident
                assert mat_vec(g, u) == v
                assert mat_vec(g, v) == u
                checked += 1
    assert isotropic_diffs > 0  # (3,5) contains them, e.g. (1,0,0),(1,1,2)
    print(f"ACCEPTANCE 5 (swap reflections on 4 grids): PASS on {checked} "
          f"ordered pairs including {isotropic_diffs} with isotropic u-v")


# criterion 6: dual dimensions equal and transpose preserves classes
def test_criterion_6_dual_dims_and_transpose_classes(gl_reports, o_reports):
    points = [("gl", big, q, r) for (big, q), r in gl_reports.items()] + \
             [("o", big, q, r) for (big, q), r in o_reports.items()]
    for kind, big, q, r in points:
        assert r.checks["dual_dims"], _label(kind, big, q)
        assert r.checks["transpose_classes"], _label(kind, big, q)
        for c in r.characters:
            assert c["dim_inv"] == c["dim_dual_inv"]
    print("ACCEPTANCE 6 (dim pi^H = dim (pi*)^H and g ~ g^T): PASS on "
          f"{len(points)} grid points")


# criterion 7: sum over irreducibles of (dim pi^H)^2 = |H\G/H|
def test_criterion_7_mackey_cross_module(gl_reports, o_reports):
    points = [("gl", big, q, r) for (big, q), r in gl_reports.items()] + \
             [("o", big, q, r) for (big, q), r in o_reports.items()]
    for kind, big, q, r in points:
        lhs = sum(c["dim_inv"] ** 2 for c in r.characters)
        assert lhs == r.plain_count, _label(kind, big, q)
        assert r.checks["mackey_sum"]
    print("ACCEPTANCE 7 (character pipeline vs orbit pipeline agree): PASS "
          f"on {len(points)} grid points")
