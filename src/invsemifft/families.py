"""Built-in inverse semigroup families and their constructors.

Families: rook (all partial injections), planar_rook (order-preserving
partial injections), cyclic_shift (cyclic shifts between subsets),
rotation (restrictions of the n rotations of a circle), wreath_rook
(rook with group labels), and chain (nested partial identities under meet).
Each is enumerated straight into its image and label tables, the input of
SemigroupStructure.  The four rook-type families share one enumerator: an
element is a k-subset D, a k-subset R and a positional map from the
family's own group (S_k, the identity, Z_k, or S_k with H^k labels).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractError, DomainError, SizeCapError, StructureError
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
        n, lg = data.get("n"), data.get("label_group")
        if isinstance(n, bool) or not isinstance(n, int):
            raise ContractError(f"family n is not an integer: {n!r}")
        return FamilySpec(data["family"], n,
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


# -- enumeration -----------------------------------------------------------

def _tables(spec: FamilySpec) -> tuple[np.ndarray, np.ndarray]:
    """The family's image and label tables, one row per element, in no
    particular order (SemigroupStructure sorts them)."""
    n, fam = spec.n, spec.family
    cols = np.arange(n + 1)
    if fam == "chain":
        images = cols * (cols <= cols[1:, None])
        return images, np.zeros_like(images)
    if fam == "rotation":
        # each nonempty domain under each of the n shifts, and the empty map
        on = (np.arange(1, 2 ** n)[:, None] >> cols[:-1]) & 1
        shifted = (cols[:-1, None] + cols[:-1]) % n + 1
        images = np.zeros(((2 ** n - 1) * n + 1, n + 1), dtype=np.intp)
        images[1:, 1:] = (on[:, None] * shifted).reshape(-1, n)
        return images, np.zeros_like(images)
    # rook-type: the r-th point of a k-subset D goes to the p(r)-th point
    # of a k-subset R with label g_r, for p one of the family's positional
    # maps and g in H^k (H trivial but for wreath_rook)
    h = 1 if spec.label_group is None else len(spec.label_group)
    images, labels = [], []
    for k in range(n + 1):
        subsets = np.array([*itertools.combinations(cols[1:], k)], dtype=np.intp)
        if fam == "planar_rook":
            perms = cols[None, :k]
        elif fam == "cyclic_shift":
            perms = (cols[:max(k, 1), None] + cols[:k]) % max(k, 1)
        else:
            perms = np.array([*itertools.permutations(range(k))], dtype=np.intp)
        labs = np.array([*itertools.product(range(h), repeat=k)], dtype=np.intp)
        d, r, p, g = (a.ravel() for a in np.indices(
            (len(subsets), len(subsets), len(perms), len(labs))))
        images.append(np.zeros((len(d), n + 1), dtype=np.intp))
        labels.append(np.zeros_like(images[-1]))
        np.put_along_axis(images[-1], subsets[d],
                          np.take_along_axis(subsets[r], perms[p], 1), 1)
        np.put_along_axis(labels[-1], subsets[d], labs[g], 1)
    return np.concatenate(images), np.concatenate(labels)


def build(spec: FamilySpec, cap: int = DEFAULT_SIZE_CAP) -> SemigroupStructure:
    """Enumerate the family and run the full structural analysis."""
    predicted = predicted_size(spec)
    if predicted > cap:
        # Python will not print an int of more than 4,300 digits.
        size = (predicted if predicted.bit_length() <= 64
                else f"at least 2^{predicted.bit_length() - 1}")
        raise SizeCapError(
            f"{spec.family} n={spec.n} has {size} elements, over cap {cap}")
    images, labels = _tables(spec)
    if len(images) != predicted:
        raise StructureError(
            f"enumerated {len(images)} elements, expected {predicted}")
    return SemigroupStructure(spec.family, spec.n, images, labels,
                              label_group=spec.label_group)
