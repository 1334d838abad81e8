"""Finite group tables: cyclic, symmetric, and wreath-product builders.

A GroupTable indexes its elements 0..|G|-1 in a fixed canonical order and
multiplies lazily through a key-level product function, so large groups
(e.g. S_6) do not pay for a full |G| x |G| table up front.  The identity
and the inverses take about 3|G| + sum of element orders products: a few
per element, never a search over pairs.
"""
from __future__ import annotations

import itertools
import math
from typing import Callable, Hashable, Sequence

from .errors import DomainError, SizeCapError, StructureError

DEFAULT_SIZE_CAP = 5_000_000


class GroupTable:
    def __init__(self, keys: Sequence[Hashable], mul_key: Callable,
                 name: str = ""):
        if not keys:
            raise StructureError("a group has at least one element")
        self.keys = list(keys)
        self.name = name
        self._index = {k: i for i, k in enumerate(self.keys)}
        if len(self._index) != len(self.keys):
            raise StructureError("duplicate group elements")
        self._mul_key = mul_key
        self._cache: dict[tuple[int, int], int] = {}
        self.identity = self._find_identity()
        self.inverse = [self._find_inverse(i) for i in range(len(self.keys))]

    def __len__(self) -> int:
        return len(self.keys)

    def mul(self, i: int, j: int) -> int:
        hit = self._cache.get((i, j))
        if hit is not None:
            return hit
        k = self._index[self._mul_key(self.keys[i], self.keys[j])]
        self._cache[(i, j)] = k
        return k

    def inv(self, i: int) -> int:
        return self.inverse[i]

    def _find_identity(self) -> int:
        """A group's only idempotent: the first x with x x = x, accepted
        once it is a two-sided identity for every element."""
        n = len(self.keys)
        e = next((x for x in range(n) if self.mul(x, x) == x), None)
        if e is None or not all(self.mul(e, x) == x and self.mul(x, e) == x
                                for x in range(n)):
            raise StructureError("no identity element")
        return e

    def _find_inverse(self, i: int) -> int:
        """Walk i, i^2, ... for at most |G| steps; the power before the
        identity is the inverse."""
        prev, x = self.identity, i
        for _ in range(len(self.keys)):
            if x == self.identity:
                if self.mul(i, prev) != self.identity:
                    break
                return prev
            prev, x = x, self.mul(x, i)
        raise StructureError("element without inverse")

    def full_table(self) -> list[list[int]]:
        return [[self.mul(i, j) for j in range(len(self))] for i in range(len(self))]

    def element_order(self, i: int) -> int:
        k, x = 1, i
        while x != self.identity:
            x = self.mul(x, i)
            k += 1
        return k

    def generator_if_cyclic(self) -> int | None:
        """Index of the smallest generator, or None if the group is not cyclic."""
        for i in range(len(self)):
            if self.element_order(i) == len(self):
                return i
        return None

    def validate(self) -> None:
        """Exhaustive group-axiom check; intended for tests and small groups."""
        n = len(self)
        for a in range(n):
            for b in range(n):
                ab = self.mul(a, b)
                for c in range(n):
                    if self.mul(ab, c) != self.mul(a, self.mul(b, c)):
                        raise StructureError("associativity fails")
        for a in range(n):
            if self.mul(self.identity, a) != a:
                raise StructureError("identity fails")
            if self.mul(a, self.inverse[a]) != self.identity:
                raise StructureError("inverse fails")

    def is_abelian(self) -> bool:
        n = len(self)
        return all(self.mul(a, b) == self.mul(b, a)
                   for a in range(n) for b in range(a + 1, n))


def cyclic_group(k: int) -> GroupTable:
    if k < 1:
        raise DomainError("cyclic group needs k >= 1")
    return GroupTable(list(range(k)), lambda a, b: (a + b) % k, name=f"Z{k}")


def _perm_compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """(a o b)(x) = a(b(x)); permutations as image tuples on 1..k."""
    return tuple(a[b[x - 1] - 1] for x in range(1, len(a) + 1))


def symmetric_group(k: int, cap: int = DEFAULT_SIZE_CAP) -> GroupTable:
    if k < 0:
        raise DomainError("symmetric group needs k >= 0")
    if math.factorial(k) > cap:
        raise SizeCapError(f"S_{k} exceeds size cap {cap}")
    keys = sorted(itertools.permutations(range(1, k + 1)))
    return GroupTable(keys, _perm_compose, name=f"S{k}")


def wreath_mul_key(labels: GroupTable):
    """Product on (perm, label-tuple) keys of a wreath product by `labels`."""
    def mul(a, b):
        pa, ga = a
        pb, gb = b
        perm = _perm_compose(pa, pb)
        lab = tuple(labels.mul(ga[pb[x - 1] - 1], gb[x - 1])
                    for x in range(1, len(pa) + 1))
        return (perm, lab)
    return mul


def wreath_group(labels: GroupTable, k: int,
                 cap: int = DEFAULT_SIZE_CAP) -> GroupTable:
    """The full-rank labeled maps: permutations of 1..k with a label per point."""
    if k < 0:
        raise DomainError("wreath group needs k >= 0")
    size = math.factorial(k) * len(labels) ** k
    if size > cap:
        raise SizeCapError(f"{labels.name} wr S_{k} exceeds size cap {cap}")
    keys = sorted((p, g)
                  for p in itertools.permutations(range(1, k + 1))
                  for g in itertools.product(range(len(labels)), repeat=k))
    return GroupTable(keys, wreath_mul_key(labels), name=f"{labels.name}wrS{k}")


BUILTIN_LABEL_GROUPS = ("Z1", "Z2", "Z3", "Z4", "S3")


def label_group_by_name(name: str) -> GroupTable:
    if name in ("Z1", "Z2", "Z3", "Z4"):
        return cyclic_group(int(name[1:]))
    if name == "S3":
        return symmetric_group(3)
    raise DomainError(f"unknown label group {name!r}; known: {BUILTIN_LABEL_GROUPS}")
