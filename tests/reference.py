"""Independent references that tests compare the package against: one
product and one element order at a time, through ``MatFq`` products and
the table's lookup, never through the group kernel's permutations or
batches; and the determinant as the Leibniz sum, with no elimination."""

from itertools import combinations, permutations


def mul_ids(g, i: int, j: int) -> int:
    """The id of the product of elements i and j of the table g."""
    return g.id_of_entries((g.element(i) * g.element(j)).entries)


def element_order(g, i: int) -> int:
    """The order of element i of g by repeated products."""
    e = g.identity_id
    cur, m = i, 1
    while cur != e:
        cur = mul_ids(g, cur, i)
        m += 1
    return m


def leibniz_det(m) -> int:
    """det m = sum over permutations s of sign(s) prod_i m[i, s(i)], through
    the field's scalar add, mul and neg."""
    field, n = m.field, m.rows
    total = 0
    for perm in permutations(range(n)):
        term = 1
        for i, j in enumerate(perm):
            term = field.mul(term, m[i, j])
        if sum(a > b for a, b in combinations(perm, 2)) % 2:
            term = field.neg(term)
        total = field.add(total, term)
    return total
