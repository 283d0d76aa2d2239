"""Double-coset decompositions H\\G/K and the transpose action on them.

K is the embedded subgroup itself, or the subgroup it generates together
with the center of G ("mod center").  Each generator of H acts on G by left
multiplication and each generator of K by right multiplication; their id
permutations come from ``GroupTable.id_perm``, which computes each one once
per group, so the plain and mod-center decompositions share them, and
``groups.orbits`` labels their orbits, the double cosets, by their minimal
element ids.  Coset ids follow those representatives in
ascending order, so they are canonical for a fixed element order.

The transpose map g -> g^T is an anti-involution; it permutes double cosets
whenever both subgroups are transpose-stable, which holds for the standard
embeddings used here.  Well-definedness is still checked on every element
rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalCheckError
from .groups import Embedding, GroupTable, orbits
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

    def members(self, c: int) -> list[int]:
        return np.flatnonzero(self.coset_of == c).tolist()


@dataclass
class InvolutionAction:
    decomp: DoubleCosetDecomposition
    perm: list[int]
    fixed_count: int
    nonfixed_count: int

    @property
    def k(self) -> int:
        return self.nonfixed_count // 2

    def nonfixed_coset_ids(self) -> list[int]:
        return [c for c, t in enumerate(self.perm) if t != c]


def double_cosets(g: GroupTable, emb: Embedding,
                  mod_center: bool = False) -> DoubleCosetDecomposition:
    """Partition g into H x K orbits, K = H or the subgroup <Z(G), H>."""
    if emb.big is not g:
        raise InternalCheckError("embedding does not target this group")
    gens = [emb.map[i] for i in emb.small.generator_ids]
    perms = [g.id_perm(h, left=True) for h in gens]
    perms += [g.id_perm(h) for h in gens]
    if mod_center:
        perms += [g.id_perm(z) for z in g.center_ids() if z != g.identity_id]
    reps, coset_of = np.unique(orbits(perms, g.order), return_inverse=True)
    return DoubleCosetDecomposition(g, emb, mod_center, coset_of,
                                    reps.tolist(), len(reps))


def involution_action(d: DoubleCosetDecomposition) -> InvolutionAction:
    """Permutation induced on cosets by transpose, checked element by element."""
    g = d.group
    tr = g.transpose_ids
    coset_of = d.coset_of
    perm = coset_of[tr[d.reps]]
    bad = np.flatnonzero(coset_of[tr] != perm[coset_of])
    if bad.size:
        raise InternalCheckError(
            "transpose is not well defined on double cosets "
            f"(element id {bad[0]})")
    perm = perm.tolist()
    for c, t in enumerate(perm):
        if perm[t] != c:
            raise InternalCheckError("coset transpose action is not an involution")
    fixed = sum(1 for c, t in enumerate(perm) if t == c)
    nonfixed = d.count - fixed
    if nonfixed % 2:
        raise InternalCheckError("odd number of non-fixed double cosets")
    return InvolutionAction(d, perm, fixed, nonfixed)


def count_nonfixed(a: InvolutionAction) -> int:
    """The 2k of the weak-pair bound dim <= k+1."""
    return a.nonfixed_count


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
