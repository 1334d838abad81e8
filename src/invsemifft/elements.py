"""Labeled partial injective maps on {1..n} and their arithmetic.

An element is a set of pairs (i, j, g): domain point i is sent to range
point j carrying the label g (an index into a label group's elements,
0 being the identity).  Plain families use the identity label everywhere.
Composition reads right to left, matching partial function composition.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import StructureError
from .groups import GroupTable

Pair = tuple[int, int, int]


@dataclass(frozen=True, order=True)
class PartialMapElement:
    ambient_size: int
    pairs: tuple[Pair, ...]  # sorted by domain point

    def __post_init__(self):
        pairs = tuple(sorted(self.pairs))
        object.__setattr__(self, "pairs", pairs)
        doms = [p[0] for p in pairs]
        rans = [p[1] for p in pairs]
        if len(set(doms)) != len(doms) or len(set(rans)) != len(rans):
            raise StructureError("pairs must be injective in both coordinates")
        for i, j, _g in pairs:
            if not (1 <= i <= self.ambient_size and 1 <= j <= self.ambient_size):
                raise StructureError("pair outside ambient set")

    @property
    def rank(self) -> int:
        return len(self.pairs)

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(p[0] for p in self.pairs)

    @property
    def range(self) -> frozenset[int]:
        return frozenset(p[1] for p in self.pairs)

    def is_partial_identity(self) -> bool:
        return all(i == j and g == 0 for i, j, g in self.pairs)


def identity_map(n: int) -> PartialMapElement:
    return PartialMapElement(n, tuple((i, i, 0) for i in range(1, n + 1)))


def partial_identity(n: int, points) -> PartialMapElement:
    return PartialMapElement(n, tuple((i, i, 0) for i in sorted(points)))


def empty_map(n: int) -> PartialMapElement:
    return PartialMapElement(n, ())


def compose(a: PartialMapElement, b: PartialMapElement,
            labels: GroupTable | None = None) -> PartialMapElement:
    """a after b: domain points x of b with b(x) in dom(a); labels multiply."""
    if a.ambient_size != b.ambient_size:
        raise StructureError("mismatched ambient sizes")
    a_at = {i: (j, g) for i, j, g in a.pairs}
    out = []
    for x, bx, gb in b.pairs:
        hit = a_at.get(bx)
        if hit is None:
            continue
        abx, ga = hit
        if labels is None:
            if ga or gb:
                raise StructureError("labels present but no label group supplied")
            g = 0
        else:
            g = labels.mul(ga, gb)
        out.append((x, abx, g))
    return PartialMapElement(a.ambient_size, tuple(out))


def inverse_of(s: PartialMapElement,
               labels: GroupTable | None = None) -> PartialMapElement:
    """Swap domain and range of each pair and invert each label."""
    out = []
    for i, j, g in s.pairs:
        out.append((j, i, 0 if labels is None else labels.inv(g)))
    return PartialMapElement(s.ambient_size, tuple(out))


def natural_leq(t: PartialMapElement, s: PartialMapElement) -> bool:
    """t <= s in the natural partial order: s extends t as a labeled map."""
    return set(t.pairs) <= set(s.pairs)


def encode(s: PartialMapElement) -> str:
    """Canonical string form: "i>j" (or "i>j:g" when labeled), ";"-joined, "#" if empty."""
    if not s.pairs:
        return "#"
    parts = []
    for i, j, g in s.pairs:
        parts.append(f"{i}>{j}" if g == 0 else f"{i}>{j}:{g}")
    return ";".join(parts)


def decode(text: str, n: int) -> PartialMapElement:
    if text == "#":
        return empty_map(n)
    pairs = []
    for chunk in text.split(";"):
        head, _, label = chunk.partition(":")
        i, _, j = head.partition(">")
        pairs.append((int(i), int(j), int(label) if label else 0))
    return PartialMapElement(n, tuple(pairs))
