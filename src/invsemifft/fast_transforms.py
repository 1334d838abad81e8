"""Sub-quadratic zeta and Mobius transforms with operation counters.

One algorithm, the extension sweep, exact on every inverse semigroup of
partial maps: for i = n, ..., 1, every s in S adds the values at the t in
S with i = min(dom t - dom s) and dom t = cl(dom s + {i}), cl(X) being
the least idempotent domain containing X (SemigroupStructure.sweep_steps).
Every t >= s is reached from s along exactly one path of such steps, with
increasing i, so the sweep sums over all t >= s.  Where adding the least
missing point of an idempotent domain always gives an idempotent domain,
as in every built-in family, each step extends s by one pair.

Within a step no s is also a t, so each step is I + N with N^2 = 0, and
the Mobius direction is the same sweep with subtractions, run in reverse
position order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .structure import GROUPOID, SEMIGROUP, FunctionOnS


@dataclass
class OpCounter:
    additions: int = 0
    multiplications: int = 0

    @property
    def total(self) -> int:
        return self.additions + self.multiplications


def _steps_for(x: FunctionOnS,
               basis: str) -> list[tuple[np.ndarray, np.ndarray]]:
    if x.basis != basis:
        raise ContractError(f"expected the {basis} basis")
    return x.structure.sweep_steps


def fast_zeta(f: FunctionOnS, counter: OpCounter | None = None) -> FunctionOnS:
    """g(s) = sum of f(t) over t >= s; one addition per step pair."""
    steps = _steps_for(f, SEMIGROUP)
    counter = counter if counter is not None else OpCounter()
    vals = f.values.copy()
    # add.at accumulates in index order, and no source is a target, so this
    # is the pair-by-pair loop to the bit.
    for sources, targets in reversed(steps):
        np.add.at(vals, sources, vals[targets])
        counter.additions += len(sources)
    return FunctionOnS(f.structure, GROUPOID, vals)


def fast_mobius(g: FunctionOnS, counter: OpCounter | None = None) -> FunctionOnS:
    """The inverse of fast_zeta: the same steps, subtracted, in reverse."""
    steps = _steps_for(g, GROUPOID)
    counter = counter if counter is not None else OpCounter()
    vals = g.values.copy()
    for sources, targets in steps:
        np.subtract.at(vals, sources, vals[targets])
        counter.additions += len(sources)
    return FunctionOnS(g.structure, SEMIGROUP, vals)
