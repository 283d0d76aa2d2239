"""Independent references that tests compare the group kernel against: one
product and one element order at a time, through ``MatFq`` products and
the table's lookup, never through its permutations or batches."""


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
