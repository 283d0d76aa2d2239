import json
from pathlib import Path

import numpy as np
import pytest

from gelfand.cosets import (DoubleCosetDecomposition, classify_nonfixed_gl,
                            double_cosets, involution_action)
from gelfand.errors import InternalCheckError
from gelfand.groups import (embed_identity, embed_standard, enumerate_gl,
                            enumerate_o, orbits)
from gelfand.matrix import mat_vec


def make_pair(kind, n, q):
    from gelfand.field import field_from_q
    field = field_from_q(q)
    enum = enumerate_gl if kind == "gl" else enumerate_o
    g = enum(n + 1, field)
    h = enum(n, field)
    return g, embed_standard(h, g)


# ---------------------------------------------------------
# decompositions
# ---------------------------------------------------------

def test_trivial_subgroup_gives_singletons(f2):
    g, emb = make_pair("gl", 1, 2)
    d = double_cosets(g, emb, mod_center=False)
    assert d.count == 6
    assert all(len(d.members(c)) == 1 for c in range(6))


def test_decomposition_is_a_partition(f3):
    g, emb = make_pair("gl", 1, 3)
    d = double_cosets(g, emb, mod_center=False)
    assert sorted(x for c in range(d.count) for x in d.members(c)) == \
        list(range(g.order))


def test_reps_are_minimal_ids_in_ascending_order(f3):
    g, emb = make_pair("o", 2, 3)
    d = double_cosets(g, emb, mod_center=False)
    assert d.reps == sorted(d.reps)
    for c in range(d.count):
        assert d.reps[c] == min(d.members(c))


def test_cosets_are_actual_double_cosets(f3):
    # oracle: brute-force H x K products of each representative
    g, emb = make_pair("gl", 1, 3)
    for mod_center in (False, True):
        d = double_cosets(g, emb, mod_center)
        right = set(emb.map)
        if mod_center:
            right = {g.mul_ids(z, h)
                     for z in g.center_ids() for h in emb.map}
        for c in range(d.count):
            orbit = {g.mul_ids(g.mul_ids(h, d.reps[c]), k)
                     for h in emb.map for k in right}
            assert orbit == set(d.members(c))


def test_o3_count_matches_sphere_pair_orbits(f3):
    # H\G/H is in bijection with G-orbits on (G/H x G/H); G/H is the sphere
    from gelfand.reflections import sphere_points
    g, emb = make_pair("o", 2, 3)
    d = double_cosets(g, emb, mod_center=False)

    sphere = sphere_points(3, f3)
    assert len(sphere) == g.order // emb.small.order
    pairs = {(u, v) for u in sphere for v in sphere}
    orbits = 0
    seen = set()
    gens = [g.elements[i] for i in g.generator_ids]
    for p in sorted(pairs):
        if p in seen:
            continue
        orbits += 1
        frontier = [p]
        seen.add(p)
        while frontier:
            nxt = []
            for (u, v) in frontier:
                for m in gens:
                    img = (mat_vec(m, u), mat_vec(m, v))
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
            frontier = nxt
    assert d.count == orbits


def test_mod_center_coarsens_plain(f3):
    g, emb = make_pair("gl", 1, 3)
    plain = double_cosets(g, emb, mod_center=False)
    mc = double_cosets(g, emb, mod_center=True)
    assert mc.count <= plain.count
    # each plain coset maps into exactly one mod-center coset
    refine = {}
    for x in range(g.order):
        pc, mcc = plain.coset_of[x], mc.coset_of[x]
        assert refine.setdefault(pc, mcc) == mcc
    # and each mod-center coset is a union of at most |Z(G)| plain cosets
    from collections import Counter
    sizes = Counter(refine.values())
    assert max(sizes.values()) <= len(g.center_ids())


GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                     / "goldens.json").read_text())["points"]


def mod_center_by_orbits_over_g(g, emb):
    """The reference route: orbits over all of G of H's left and right
    permutations together with every nontrivial central element's."""
    gens = [emb.map[i] for i in emb.small.generator_ids]
    perms = [g.perm(g.matrices(h), left=True) for h in gens]
    perms += [g.perm(g.matrices(h)) for h in gens]
    perms += [g.perm(g.matrices(z)) for z in g.center_ids()
              if z != g.identity_id]
    reps, coset_of = np.unique(orbits(perms, g.order), return_inverse=True)
    return reps.tolist(), coset_of


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_mod_center_from_the_plain_cosets_equals_orbits_over_g(name):
    point = GOLDEN[name]
    g, emb = make_pair(point["kind"], point["n"], point["q"])
    plain = double_cosets(g, emb)
    mc = double_cosets(g, emb, True, plain)
    reps, coset_of = mod_center_by_orbits_over_g(g, emb)
    assert mc.mod_center and mc.count == len(reps)
    assert mc.reps == reps
    assert np.array_equal(mc.coset_of, coset_of)
    # computed here from scratch when no plain decomposition is given
    again = double_cosets(g, emb, mod_center=True)
    assert again.reps == reps and np.array_equal(again.coset_of, coset_of)


@pytest.mark.parametrize("n", [2, 3])
def test_an_embedded_generator_of_g_reuses_its_pair(monkeypatch, n):
    # on GL_{n+1}(F_2) H's transvection embeds onto G's own, so only the
    # embedded cyclic permutation needs a new pair
    g, emb = make_pair("gl", n, 2)
    hs = [int(emb.map[i]) for i in emb.small.generator_ids]
    assert [x in g.generator_ids for x in hs] == [True, False]
    g.generator_perms  # built by the center stage before the cosets
    calls = []
    perm = type(g).perm
    monkeypatch.setattr(type(g), "perm",
                        lambda self, m, left=False: calls.append(left) or
                        perm(self, m, left))
    d = double_cosets(g, emb)
    # a left build calls perm once more for the right one of m^T, so every
    # build makes exactly one call with left=False
    assert calls.count(False) == 2 and calls.count(True) == 1
    monkeypatch.undo()
    fresh = [g.perm(g.matrices(h), left) for h in hs for left in (True, False)]
    assert np.array_equal(d.coset_of,
                          np.unique(orbits(fresh, g.order),
                                    return_inverse=True)[1])


def test_a_center_that_does_not_permute_the_plain_cosets_is_caught(f3):
    g, emb = make_pair("gl", 1, 3)
    # a false "plain" partition, the identity against everything else: -I
    # maps the identity out of its part and -I into it
    assert g.identity_id > 0
    coset_of = np.zeros(g.order, dtype=np.int32)
    coset_of[g.identity_id] = 1
    fake = DoubleCosetDecomposition(g, emb, False, coset_of,
                                    [0, g.identity_id], 2)
    with pytest.raises(InternalCheckError,
                       match="center does not permute the plain double"):
        double_cosets(g, emb, True, fake)


def test_cosets_need_an_embedding_into_the_group(f3):
    g, emb = make_pair("gl", 1, 3)
    other = enumerate_gl(2, f3)
    with pytest.raises(InternalCheckError,
                       match="embedding does not target this group"):
        double_cosets(other, emb)


def test_mod_center_needs_the_plain_cosets_of_the_same_pair(f3):
    g, emb = make_pair("gl", 1, 3)
    plain = double_cosets(g, emb)
    mc = double_cosets(g, emb, True, plain)
    other = embed_identity(g)
    for wrong, e in ((mc, emb), (plain, other)):
        with pytest.raises(InternalCheckError, match="plain decomposition"):
            double_cosets(g, e, True, wrong)


# ---------------------------------------------------------
# transpose action
# ---------------------------------------------------------

def test_gl2_f2_involution_detail(f2):
    g, emb = make_pair("gl", 1, 2)
    d = double_cosets(g, emb, mod_center=True)
    a = involution_action(d)
    assert (a.fixed_count, a.nonfixed_count, a.k) == (4, 2, 1)
    assert a.nonfixed_count == 2
    # the fixed cosets are exactly the symmetric elements here (all cosets
    # are singletons since H and the center are trivial)
    for c in range(d.count):
        m = g.elements[d.reps[c]]
        assert (a.perm[c] == c) == m.is_symmetric()
    nf = a.nonfixed_coset_ids()
    reps = {g.elements[d.reps[c]].entries for c in nf}
    assert reps == {(1, 1, 0, 1), (1, 0, 1, 1)}


def test_gl3_f2_over_gl2_f2(f2):
    g, emb = make_pair("gl", 2, 2)
    a = involution_action(double_cosets(g, emb, mod_center=True))
    assert a.nonfixed_count == 2 and a.k == 1


def test_o3_f3_all_cosets_transpose_fixed(f3):
    g, emb = make_pair("o", 2, 3)
    for mod_center in (False, True):
        a = involution_action(double_cosets(g, emb, mod_center))
        assert a.nonfixed_count == 0 and a.k == 0


def test_self_pair_has_one_coset(f3):
    g = enumerate_gl(2, f3)
    a = involution_action(double_cosets(g, embed_identity(g), mod_center=True))
    assert a.decomp.count == 1
    assert a.nonfixed_count == 0


def test_perm_is_an_involution(f3):
    g, emb = make_pair("gl", 1, 3)
    a = involution_action(double_cosets(g, emb, mod_center=True))
    assert [a.perm[a.perm[c]] for c in range(a.decomp.count)] == \
        list(range(a.decomp.count))
    assert a.nonfixed_count % 2 == 0


@pytest.mark.parametrize("n,q", [(1, 2), (1, 3), (1, 4), (2, 2)])
def test_nonfixed_reps_have_the_classified_shape(n, q):
    # the two swapped cosets zero the last row or the last column, one each
    g, emb = make_pair("gl", n, q)
    a = involution_action(double_cosets(g, emb, mod_center=True))
    shapes = classify_nonfixed_gl(a)
    assert sorted(shapes) == ["col", "row"]


def _gl3_f3_swapped_reps_replaced(*rows):
    """GL3(F3) over GL2(F3) mod center, with the representative of the
    i-th swapped coset replaced by the matrix rows[i]."""
    from dataclasses import replace
    g, emb = make_pair("gl", 2, 3)
    a = involution_action(double_cosets(g, emb, mod_center=True))
    reps = list(a.decomp.reps)
    for c, m in zip(a.nonfixed_coset_ids(), rows):
        reps[c] = g.id_of_entries(tuple(x for row in m for x in row))
    return replace(a, decomp=replace(a.decomp, reps=reps))


def test_a_representative_zero_on_both_sides_is_caught():
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    a = _gl3_f3_swapped_reps_replaced(identity)
    with pytest.raises(InternalCheckError, match="does not match the "
                       "expected zero-row/zero-column shape"):
        classify_nonfixed_gl(a)


def test_two_representatives_zero_on_the_same_side_are_caught():
    row_zero = ((1, 0, 1), (0, 1, 0), (0, 0, 1))
    a = _gl3_f3_swapped_reps_replaced(row_zero, row_zero)
    with pytest.raises(InternalCheckError, match="same side"):
        classify_nonfixed_gl(a)


def test_a_transpose_not_well_defined_on_cosets_is_caught():
    g, emb = make_pair("gl", 1, 3)
    d = double_cosets(g, emb, mod_center=False)
    reps = set(d.reps)
    x = next(i for i in range(g.order) if i not in reps)
    y = next(i for i in range(g.order)
             if i not in reps and d.coset_of[i] != d.coset_of[x])
    tr = g.transpose_ids.copy()
    tr[x], tr[y] = tr[y], tr[x]  # x and y now land in each other's image
    g._transpose_ids = tr
    with pytest.raises(InternalCheckError, match="not well defined"):
        involution_action(d)


def test_a_coset_action_that_is_not_an_involution_is_caught():
    from types import SimpleNamespace
    # three singleton cosets cycled: well defined, but of order 3
    g = SimpleNamespace(transpose_ids=np.array([1, 2, 0]))
    d = SimpleNamespace(group=g, coset_of=np.arange(3), reps=[0, 1, 2],
                        count=3)
    with pytest.raises(InternalCheckError, match="not an involution"):
        involution_action(d)


def test_an_action_without_one_swapped_pair_is_caught():
    from gelfand.cosets import InvolutionAction
    g, emb = make_pair("gl", 1, 3)
    d = double_cosets(g, emb, mod_center=True)
    a = InvolutionAction(d, list(range(d.count)), d.count, 0)
    with pytest.raises(InternalCheckError, match="exactly one swapped pair"):
        classify_nonfixed_gl(a)
