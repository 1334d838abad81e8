"""Group tables: the identity and inverses found by the power walk, on
bare tables, and the tables that are not groups."""
import pytest

from invsemifft.errors import StructureError
from invsemifft.groups import (GroupTable, cyclic_group, symmetric_group,
                               wreath_group)


def klein_four():
    keys = [(a, b) for a in range(2) for b in range(2)]
    return GroupTable(keys, lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2),
                      name="Z2xZ2")


BARE = {
    "Z4": lambda: GroupTable([0, 1, 2, 3], lambda a, b: (a + b) % 4, name="Z4"),
    "klein_four": klein_four,
    "S3": lambda: symmetric_group(3),
    "Z2wrS2": lambda: wreath_group(cyclic_group(2), 2),
}


@pytest.mark.parametrize("name", list(BARE))
def test_bare_table_identity_and_inverses(name):
    g = BARE[name]()
    e = g.identity
    for x in range(len(g)):
        assert g.mul(e, x) == x == g.mul(x, e)
        y = g.inverse[x]
        assert g.mul(x, y) == e == g.mul(y, x)


class CountingTable(GroupTable):
    """Counts products; fails the test once more than `limit` are asked for."""

    def __init__(self, keys, mul_key, limit):
        self.products, self.limit = 0, limit
        super().__init__(keys, mul_key)

    def mul(self, i, j):
        self.products += 1
        assert self.products <= self.limit, "product search did not stop"
        return super().mul(i, j)


def test_search_is_linear_in_the_order():
    """At most 3|G| products find the identity and sum(ord x) + |G| the
    inverses, against |G|^2 / 2 for a pairwise search."""
    ref = symmetric_group(5)
    n = len(ref)
    limit = 3 * n + sum(ref.element_order(x) for x in range(n)) + n
    g = CountingTable(ref.keys, lambda a, b: tuple(a[x - 1] for x in b), limit)
    assert g.identity == ref.identity and g.inverse == ref.inverse
    assert g.products < n * n / 2


def test_table_without_identity_rejected():
    # x y = x: every element is idempotent, none is a left identity
    with pytest.raises(StructureError, match="identity"):
        GroupTable([0, 1, 2], lambda a, b: a)


def test_walk_stops_in_a_monoid():
    """{1, 0} under multiplication: 0's powers never reach 1, and the walk
    gives up after |G| steps instead of running on."""
    with pytest.raises(StructureError, match="inverse"):
        CountingTable([1, 0], lambda a, b: a * b, limit=3 * 2 + 2 * (2 + 1))
