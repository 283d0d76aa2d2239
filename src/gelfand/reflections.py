"""Unit sphere over GF(q)^n and orthogonal swaps of unit-vector pairs.

The sphere is the solution set of <x, x> = 1 for the dot product, read off
the q^n vectors in code order by the same helper that gives ``enumerate_o``
its rows (``groups.unit_vectors``).  For unit vectors u, v the swap element
is a hyperplane reflection (``groups._reflection_entries``), chosen by
whether u - v is isotropic:

  <u-v, u-v> != 0:  the reflection along u - v,
                    g(x) = x - 2 (<u-v, x> / <u-v, u-v>) (u - v)
  <u-v, u-v>  = 0:  then <u+v, u+v> = 4, and g is minus the reflection
                    along u + v, g(x) = (<u+v, x> / 2) (u + v) - x

Both need division by 2, so characteristic 2 is rejected.  The degenerate
input u = v lands in the second branch and fixes u.  Reflections are
symmetric, so the returned matrix's columns are the images of the basis
vectors and g^T g = I is directly checkable.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceededError, DomainError
from .field import Fq
from .groups import _reflection_entries, unit_vectors
from .matrix import MatFq, _inner

SPHERE_ENUM_CAP = 10 ** 7


def sphere_points(n: int, field: Fq) -> list[tuple]:
    """All x in F_q^n with <x, x> = 1, in ascending lexicographic order."""
    if field.q ** n > SPHERE_ENUM_CAP:
        raise CapExceededError(f"q^n = {field.q ** n} exceeds sphere cap")
    return [tuple(x) for x in unit_vectors(n, field).tolist()]


def swap_element(field: Fq, u: tuple, v: tuple) -> MatFq:
    """Orthogonal g with g u = v and g v = u, for unit vectors u, v; q odd."""
    if field.p == 2:
        raise DomainError("swap reflections need odd characteristic")
    if len(u) != len(v):
        raise DomainError("u and v must have the same length")
    uv = np.array([u, v], dtype=np.uint8)
    if np.any(_inner(uv, uv, field) != 1):
        raise DomainError("u and v must be unit vectors")
    add, mul = field.arrays()
    minus = mul[field.neg(1)]
    d = add[uv[0], minus[uv[1]]]
    if _inner(d, d, field):
        g = _reflection_entries(field, d[None])[0]
    else:
        g = minus[_reflection_entries(field, add[uv[0], uv[1]][None])[0]]
    n = len(u)
    return MatFq(field, n, n, g.tolist())
