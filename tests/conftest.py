import numpy as np
import pytest

from invsemifft.elements import PartialMapElement, compose, inverse_of
from invsemifft.errors import DomainError
from invsemifft.families import FamilySpec, build
from invsemifft.groups import cyclic_group
from invsemifft.structure import SEMIGROUP, FunctionOnS


def make_structure(family, n, label=None):
    lg = cyclic_group(label) if isinstance(label, int) else label
    return build(FamilySpec(family, n, lg))


def random_function(S, rng, real=False):
    vals = rng.normal(size=len(S))
    if not real:
        vals = vals + 1j * rng.normal(size=len(S))
    return FunctionOnS(S, SEMIGROUP, vals)


def generated(gens, cap=400):
    """The inverse semigroup generated by `gens`, or None past `cap`
    elements."""
    gens = gens + [inverse_of(g) for g in gens]
    seen, frontier = set(gens), list(gens)
    while frontier and len(seen) <= cap:
        new = {c for a in frontier for g in gens
               for c in (compose(a, g), compose(g, a))} - seen
        seen |= new
        frontier = list(new)
    return None if len(seen) > cap else sorted(seen)


def random_map(rng, n):
    r = int(rng.integers(1, n + 1))
    dom, img = (rng.choice(np.arange(1, n + 1), r, replace=False)
                for _ in range(2))
    return PartialMapElement(n, tuple((int(i), int(j), 0)
                                      for i, j in zip(dom, img)))


def generated_semigroups(count=60):
    """(n, elements) of `count` inverse semigroups closed from 1-3 random
    partial maps on n = 3-5 points, from a fixed seed."""
    rng = np.random.default_rng(2024)
    while count:
        n = int(rng.integers(3, 6))
        elements = generated([random_map(rng, n)
                              for _ in range(int(rng.integers(1, 4)))])
        if elements is not None:
            count -= 1
            yield n, elements


# -- membership predicates, an element at a time ---------------------------

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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
