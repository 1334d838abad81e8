"""Sub-quadratic zeta and Mobius transforms with operation counters.

One algorithm, the extension sweep: for i = n, ..., 1, every s in S adds
the values at the t in S that extend s by one pair at domain point i.  A
t >= s is then reached along one path, which adds t's extra domain points
to s in ascending order, so the sweep sums over all t >= s exactly when
every intermediate restriction along such a path is in S: for all
idempotents e < f, the domain of e plus the least point of dom(f) - dom(e)
is an idempotent's domain.  SemigroupStructure checks this once and
leaves `sweep_steps` None when it fails; the transforms then raise
CapabilityError.  This covers every built-in family, and any user-built
semigroup that meets the condition.

Within a step no s is also a t, so each step is I + N with N^2 = 0, and
the Mobius direction is the same sweep with subtractions, run in reverse
position order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, ContractError
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
    steps = x.structure.sweep_steps
    if steps is None:
        raise CapabilityError(
            "the extension sweep is not exact on this semigroup: some "
            "idempotent e < f lacks e plus the least point of f - e")
    return steps


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
