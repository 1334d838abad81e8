import numpy as np
import pytest

from invsemifft.elements import PartialMapElement, compose, inverse_of
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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
