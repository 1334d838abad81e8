"""Built-in inverse semigroup families and their constructors.

Families: rook (all partial injections), planar_rook (order-preserving
partial injections), cyclic_shift (cyclic shifts between subsets),
rotation (restrictions of the n rotations of a circle), wreath_rook
(rook with group labels), and chain (nested partial identities under meet).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .elements import PartialMapElement, empty_map, partial_identity
from .errors import DomainError, SizeCapError, StructureError
from .groups import DEFAULT_SIZE_CAP, GroupTable, label_group_by_name
from .structure import SemigroupStructure

FAMILIES = ("rook", "planar_rook", "cyclic_shift", "rotation",
            "wreath_rook", "chain")


@dataclass(frozen=True)
class FamilySpec:
    family: str
    n: int
    label_group: Optional[GroupTable] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        if self.family == "wreath_rook":
            if self.label_group is None:
                raise DomainError("wreath_rook requires a label group")
        elif self.label_group is not None:
            raise DomainError(f"{self.family} does not take a label group")
        low = 1 if self.family in ("rotation", "chain") else 0
        if self.n < low:
            raise DomainError(f"{self.family} requires n >= {low}")

    def to_json(self) -> dict:
        out = {"family": self.family, "n": self.n}
        if self.label_group is not None:
            out["label_group"] = self.label_group.name
        return out

    @staticmethod
    def from_json(data: dict) -> "FamilySpec":
        lg = data.get("label_group")
        return FamilySpec(data["family"], int(data["n"]),
                          label_group_by_name(lg) if lg else None)


def predicted_size(spec: FamilySpec) -> int:
    """|S| from a closed form, or from the term ratio of count_formula's
    sum: a few big-integer operations per k, never a table of binomials."""
    n = spec.n
    if spec.family == "rotation":
        return 2 ** n * n - n + 1
    if spec.family == "chain":
        return n
    if spec.family == "planar_rook":
        return math.comb(2 * n, n)
    if spec.family == "cyclic_shift":
        return 1 + n * math.comb(2 * n - 1, n - 1) if n else 1
    if spec.family in ("rook", "wreath_rook"):
        h = len(spec.label_group) if spec.label_group is not None else 1
        # t_k = C(n,k)^2 k! h^k, and t_{k+1} = t_k (n-k)^2 h / (k+1)
        total = term = 1
        for k in range(n):
            term = term * (n - k) ** 2 * h // (k + 1)
            total += term
        return total
    raise DomainError(spec.family)


def count_formula(family: str) -> str:
    return {
        "rook": "sum_k C(n,k)^2 k!",
        "planar_rook": "sum_k C(n,k)^2",
        "cyclic_shift": "1 + sum_{k>=1} C(n,k)^2 k",
        "rotation": "2^n n - n + 1",
        "wreath_rook": "sum_k C(n,k)^2 k! |G|^k",
        "chain": "n",
    }[family]


# -- membership predicates -------------------------------------------------

def is_cyclic_shift(m: PartialMapElement) -> bool:
    """True iff m sends the sorted domain onto a rotation of the sorted range."""
    if any(g != 0 for _, _, g in m.pairs):
        raise DomainError("predicate defined for identity labels only")
    k = m.rank
    if k == 0:
        return True
    src = sorted(m.domain)
    dst = sorted(m.range)
    image = dict((i, j) for i, j, _ in m.pairs)
    j0 = dst.index(image[src[0]])
    return all(image[src[r]] == dst[(j0 + r) % k] for r in range(k))


def is_partial_rotation(m: PartialMapElement) -> bool:
    """True iff every pair (i, m(i)) shares one shift k with m(i) = i+k mod n."""
    if any(g != 0 for _, _, g in m.pairs):
        raise DomainError("predicate defined for identity labels only")
    n = m.ambient_size
    shifts = {(j - i) % n for i, j, _ in m.pairs}
    return len(shifts) <= 1


def rot_orbit_size(e: PartialMapElement, n: int) -> int:
    """j(e): the size of the orbit of dom(e) under rotation of {1..n}."""
    if not e.is_partial_identity():
        raise DomainError("rot_orbit_size expects an idempotent")
    base = e.domain
    for j in range(1, n + 1):
        if frozenset((i - 1 + j) % n + 1 for i in base) == base:
            return j
    raise DomainError("orbit computation failed")  # unreachable for valid input


# -- enumeration -----------------------------------------------------------

def _enumerate(spec: FamilySpec) -> list[PartialMapElement]:
    n = spec.n
    pts = range(1, n + 1)
    out: list[PartialMapElement] = []
    if spec.family == "rook":
        for k in range(n + 1):
            for dom in itertools.combinations(pts, k):
                for ran in itertools.combinations(pts, k):
                    for img in itertools.permutations(ran):
                        out.append(PartialMapElement(
                            n, tuple((i, j, 0) for i, j in zip(dom, img))))
    elif spec.family == "planar_rook":
        for k in range(n + 1):
            for dom in itertools.combinations(pts, k):
                for ran in itertools.combinations(pts, k):
                    out.append(PartialMapElement(
                        n, tuple((i, j, 0) for i, j in zip(dom, ran))))
    elif spec.family == "cyclic_shift":
        out.append(empty_map(n))
        for k in range(1, n + 1):
            for dom in itertools.combinations(pts, k):
                for ran in itertools.combinations(pts, k):
                    for off in range(k):
                        out.append(PartialMapElement(
                            n, tuple((dom[r], ran[(off + r) % k], 0)
                                     for r in range(k))))
    elif spec.family == "rotation":
        seen = {empty_map(n)}
        for shift in range(n):
            for r in range(1, n + 1):
                for dom in itertools.combinations(pts, r):
                    seen.add(PartialMapElement(
                        n, tuple((i, (i - 1 + shift) % n + 1, 0) for i in dom)))
        out = list(seen)
    elif spec.family == "wreath_rook":
        h = len(spec.label_group)
        for k in range(n + 1):
            for dom in itertools.combinations(pts, k):
                for ran in itertools.combinations(pts, k):
                    for img in itertools.permutations(ran):
                        for labels in itertools.product(range(h), repeat=k):
                            out.append(PartialMapElement(
                                n, tuple((i, j, g)
                                         for (i, j), g in zip(zip(dom, img), labels))))
    elif spec.family == "chain":
        out = [partial_identity(n, range(1, m + 1)) for m in range(1, n + 1)]
    return out


_BUILD_CACHE: dict[tuple, SemigroupStructure] = {}


def build(spec: FamilySpec, cap: int = DEFAULT_SIZE_CAP) -> SemigroupStructure:
    """Enumerate the family and run the full structural analysis."""
    predicted = predicted_size(spec)
    if predicted > cap:
        # Python will not print an int of more than 4,300 digits.
        size = (predicted if predicted.bit_length() <= 64
                else f"at least 2^{predicted.bit_length() - 1}")
        raise SizeCapError(
            f"{spec.family} n={spec.n} has {size} elements, over cap {cap}")
    key = (spec.family, spec.n,
           spec.label_group.name if spec.label_group is not None else None, cap)
    hit = _BUILD_CACHE.get(key)
    if hit is not None:
        return hit
    elements = _enumerate(spec)
    if len(set(elements)) != predicted:
        raise StructureError(
            f"enumerated {len(set(elements))} elements, expected {predicted}")
    s = SemigroupStructure(spec.family, spec.n, elements,
                           label_group=spec.label_group)
    _BUILD_CACHE[key] = s
    return s
