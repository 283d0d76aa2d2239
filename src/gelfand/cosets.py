"""Double-coset decompositions H\\G/K and the transpose action on them.

K is the embedded subgroup itself, or the subgroup HZ it generates
together with the center Z of G ("mod center").  For the plain
decomposition each generator of H acts on G by left and by right
multiplication.  A generator of H that is also one of G's reuses the pair
that ``GroupTable.generator_perms`` holds; the others' id permutations come
from ``GroupTable.perm`` and are dropped once ``groups.orbits`` has labelled
their orbits, the double cosets, by their minimal element ids.  Coset ids
follow those representatives in ascending order, so they are canonical for
a fixed element order.

The mod-center decomposition is built from the plain one.  H x HZ is the
union of the plain cosets H z x H over z in Z, and Z is central, so it only
permutes the plain cosets.  Each nontrivial z in Z acts on them as
c -> coset_of[rep_c z], which is checked on every element, and the
mod-center cosets are the orbits of these permutations on the plain coset
ids.  Each plain representative is its coset's minimal id, so an orbit's
minimal coset id carries the minimal id of the union: the representatives
stay minimal.

The transpose map g -> g^T is an anti-involution; it permutes double cosets
whenever both subgroups are transpose-stable, which holds for the standard
embeddings used here.  Well-definedness is still checked on every element
rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalCheckError
from .groups import Embedding, GroupTable, number_orbits, orbits
# perfbench/tracing.py counts group-element products through this name in
# every module that loops over a group, so the import stays.
from .matrix import mul_flat  # noqa: F401


@dataclass
class DoubleCosetDecomposition:
    group: GroupTable
    embedding: Embedding
    mod_center: bool
    coset_of: np.ndarray  # coset id of every element id
    reps: list[int]
    count: int


@dataclass
class InvolutionAction:
    decomp: DoubleCosetDecomposition
    perm: list[int]
    fixed_count: int
    nonfixed_count: int  # the 2k of the weak-pair bound dim <= k + 1

    @property
    def k(self) -> int:
        return self.nonfixed_count // 2

    def nonfixed_coset_ids(self) -> list[int]:
        return [c for c, t in enumerate(self.perm) if t != c]


def double_cosets(g: GroupTable, emb: Embedding, mod_center: bool = False,
                  plain: DoubleCosetDecomposition | None = None
                  ) -> DoubleCosetDecomposition:
    """Partition g into H x K orbits, K = H or the subgroup <Z(G), H>.

    Mod center, the plain decomposition ``plain`` (computed here if not
    given) is merged along the action of Z(G)."""
    if emb.big is not g:
        raise InternalCheckError("embedding does not target this group")
    if mod_center:
        if plain is None:
            plain = double_cosets(g, emb)
        elif (plain.group is not g or plain.embedding is not emb
              or plain.mod_center):
            raise InternalCheckError(
                "mod-center cosets need the plain decomposition of this group")
        return _merge_by_center(plain)
    left, right = g.generator_perms
    known = dict(zip(g.generator_ids, zip(left, right)))

    def pair(x: int) -> tuple[np.ndarray, np.ndarray]:
        if x in known:  # one of g's generators: its pair is already built
            return known[x]
        m = g.matrices(x)
        return g.perm(m, left=True), g.perm(m)

    label = orbits([p for i in emb.small.generator_ids
                    for p in pair(int(emb.map[i]))], g.order)
    reps, coset_of = number_orbits(label)
    return DoubleCosetDecomposition(g, emb, False, coset_of, reps.tolist(),
                                    len(reps))


def _induced(d: DoubleCosetDecomposition, image: np.ndarray,
             what: str) -> np.ndarray:
    """The map c -> coset_of[image[rep_c]] that the element map ``image``
    induces on d's cosets, checked on every element x as coset_of[image[x]]
    = perm[coset_of[x]]; a failure is raised as ``what``, naming x."""
    coset_of = d.coset_of
    perm = coset_of[image[d.reps]]
    bad = np.flatnonzero(coset_of[image] != perm[coset_of])
    if bad.size:
        raise InternalCheckError(f"{what} (element id {bad[0]})")
    return perm


def _merge_by_center(plain: DoubleCosetDecomposition
                     ) -> DoubleCosetDecomposition:
    """The mod-center decomposition: orbits on the plain cosets of the maps
    induced by the nontrivial central z, x -> x z, each built by
    ``GroupTable.perm`` and dropped once its coset map is read off."""
    g = plain.group
    perms = [_induced(plain, g.perm(g.matrices(z)),
                      "the center does not permute the plain double cosets")
             for z in g.center_ids() if z != g.identity_id]
    roots, merged = number_orbits(orbits(perms, plain.count))
    reps = np.asarray(plain.reps)[roots]
    return DoubleCosetDecomposition(g, plain.embedding, True,
                                    merged.take(plain.coset_of),
                                    reps.tolist(), len(reps))


def involution_action(d: DoubleCosetDecomposition) -> InvolutionAction:
    """Permutation induced on cosets by transpose, checked element by element."""
    perm = _induced(d, d.group.transpose_ids,
                    "transpose is not well defined on double cosets")
    ids = np.arange(d.count)
    if not np.array_equal(perm[perm], ids):
        raise InternalCheckError("coset transpose action is not an involution")
    fixed = int(np.count_nonzero(perm == ids))
    # the involution check pairs every non-fixed coset with its image, so
    # the non-fixed count is even
    return InvolutionAction(d, perm.tolist(), fixed, d.count - fixed)


def classify_nonfixed_gl(a: InvolutionAction) -> list[str]:
    """For a GL pair mod center: check the two swapped cosets carry the
    expected shape (last row xor last column is zero, corner aside), and
    return which side is zero for each representative.

    Any mismatch is raised loudly rather than patched over.
    """
    d = a.decomp
    g = d.group
    nf = a.nonfixed_coset_ids()
    if len(nf) != 2 or a.perm[nf[0]] != nf[1]:
        raise InternalCheckError(
            f"expected exactly one swapped pair of cosets, got {nf}")
    n = g.n
    shapes = []
    for c in nf:
        m = g.element(d.reps[c])
        last_row = m.row(n - 1)[:n - 1]
        last_col = tuple(m[i, n - 1] for i in range(n - 1))
        row_zero = not any(last_row)
        col_zero = not any(last_col)
        if row_zero == col_zero:
            raise InternalCheckError(
                "non-fixed coset representative does not match the "
                f"expected zero-row/zero-column shape: {m.to_rows()}")
        shapes.append("row" if row_zero else "col")
    if shapes[0] == shapes[1]:
        raise InternalCheckError(
            "swapped cosets should zero opposite sides, got same side")
    return shapes
