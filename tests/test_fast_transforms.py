"""Fast zeta/Mobius transforms against the quadratic reference, plus
operation-count guarantees."""
import itertools

import numpy as np
import pytest

from invsemifft.elements import partial_identity
from invsemifft.errors import CapabilityError, ContractError
from invsemifft.fast_transforms import OpCounter, fast_mobius, fast_zeta
from invsemifft.semigroup_fourier import fft, ifft, induce, naive_ft
from invsemifft.structure import (GROUPOID, SEMIGROUP, FunctionOnS,
                                  SemigroupStructure, mobius_naive, zeta_naive)

from conftest import make_structure, random_function

CORPUS = [("rook", 4, None), ("planar_rook", 6, None),
          ("cyclic_shift", 5, None), ("rotation", 7, None),
          ("wreath_rook", 3, 2), ("chain", 6, None)]


@pytest.mark.parametrize("family,n,label", CORPUS)
def test_fast_matches_naive(family, n, label):
    S = make_structure(family, n, label)
    rng = np.random.default_rng(11)
    ups = [np.array(u) for u in S.upsets()]
    for trial in range(100):
        f = random_function(S, rng)
        fast = fast_zeta(f)
        ref = np.array([f.values[u].sum() for u in ups])
        scale = np.abs(ref).max()
        assert np.abs(fast.values - ref).max() <= 1e-10 * scale
        back = fast_mobius(fast)
        assert np.abs(back.values - f.values).max() <= 1e-10 * scale
        if trial < 3:  # the quadratic Mobius oracle, on a few trials
            naive = mobius_naive(zeta_naive(f))
            assert np.abs(naive.values - f.values).max() <= 1e-10 * scale


def test_fast_matches_naive_rotation8():
    S = make_structure("rotation", 8)
    rng = np.random.default_rng(12)
    ups = [np.array(u) for u in S.upsets()]
    for _ in range(100):
        f = random_function(S, rng)
        fast = fast_zeta(f)
        ref = np.array([f.values[u].sum() for u in ups])
        assert np.abs(fast.values - ref).max() <= 1e-10 * np.abs(ref).max()
        assert np.abs(fast_mobius(fast).values - f.values).max() <= 1e-10


@pytest.mark.parametrize("family,n,label", CORPUS)
def test_round_trip_both_directions(family, n, label):
    S = make_structure(family, n, label)
    rng = np.random.default_rng(13)
    g = FunctionOnS(S, GROUPOID, rng.normal(size=len(S)))
    again = fast_zeta(fast_mobius(g))
    assert np.abs(again.values - g.values).max() < 1e-12


def semilattice(n, domains):
    """A user-built semigroup: the partial identities on `domains`."""
    return SemigroupStructure("custom", n,
                              [partial_identity(n, d) for d in domains])


def boolean_semilattice(n):
    return semilattice(n, [d for k in range(n + 1)
                           for d in itertools.combinations(range(1, n + 1), k)])


def test_boolean_transform_counts_and_inverts():
    """The boolean lattice of all partial identities takes the fast path."""
    rng = np.random.default_rng(3)
    n = 6
    S = boolean_semilattice(n)
    f = random_function(S, rng, real=True)
    c1, c2 = OpCounter(), OpCounter()
    z = fast_zeta(f, c1)
    back = fast_mobius(z, c2)
    assert np.abs(back.values - f.values).max() < 1e-12
    assert c1.additions == c2.additions == n * (1 << (n - 1))
    # superset sums by brute force
    doms = [e.domain for e in S.elements]
    brute = np.array([sum(f.values[t] for t, d in enumerate(doms) if d >= m)
                      for m in doms])
    assert np.abs(z.values - brute).max() < 1e-10
    Y = induce(S)
    for a, b in zip(fft(f, Y).blocks, naive_ft(f, Y).blocks):
        assert np.abs(a - b).max() < 1e-10


@pytest.mark.parametrize("domains", [[(), (1, 2, 3)], [(), (2,), (1, 2)]])
def test_sweep_precondition_fails_closed(domains):
    """Idempotents e < f without e + min(f - e): no sweep, the quadratic
    transforms instead."""
    S = semilattice(3, domains)
    assert S.sweep_steps is None
    f = random_function(S, np.random.default_rng(5))
    with pytest.raises(CapabilityError):
        fast_zeta(f)
    with pytest.raises(CapabilityError):
        fast_mobius(zeta_naive(f))
    Y = induce(S)
    c = fft(f, Y)
    for a, b in zip(c.blocks, naive_ft(f, Y).blocks):
        assert np.abs(a - b).max() < 1e-10
    assert np.abs(ifft(c).values - f.values).max() < 1e-9


def test_sweep_addition_budget():
    # one addition per (element, removable pair): at most n per element
    for n in (2, 3, 4):
        S = make_structure("rook", n)
        f = random_function(S, np.random.default_rng(0))
        c = OpCounter()
        fast_zeta(f, c)
        assert c.additions == sum(e.rank for e in S.elements)
        assert c.additions <= n * len(S)
        assert c.multiplications == 0


def test_rotation_budget():
    for n in (4, 5, 6, 7, 8):
        S = make_structure("rotation", n)
        f = random_function(S, np.random.default_rng(1))
        c = OpCounter()
        fast_zeta(f, c)
        assert c.total <= n * n * 2 ** n + n + 1


def test_chain_exact_cost():
    for n in (1, 2, 5, 9):
        S = make_structure("chain", n)
        f = random_function(S, np.random.default_rng(2))
        c1, c2 = OpCounter(), OpCounter()
        g = fast_zeta(f, c1)
        back = fast_mobius(g, c2)
        assert c1.additions == n - 1 and c1.multiplications == 0
        assert c2.additions == n - 1 and c2.multiplications == 0
        assert np.abs(back.values - f.values).max() < 1e-12
        # integer inputs invert bit-exactly
        fi = FunctionOnS(S, SEMIGROUP, np.arange(1, n + 1, dtype=float))
        assert np.array_equal(fast_mobius(fast_zeta(fi)).values, fi.values)
        # the chain zeta is a suffix sum along the nesting order
        ref = zeta_naive(f)
        assert np.abs(g.values - ref.values).max() < 1e-12


def test_step_operators_nilpotent():
    """Applying one sweep position twice adds nothing new: each update
    writes to strictly smaller rank than it reads.  Sources and targets of
    a step are disjoint and the sources sorted, which makes the vectorized
    step equal to the pair-by-pair loop."""
    structures = [make_structure(*case) for case in CORPUS]
    for S in [*structures, boolean_semilattice(6)]:
        assert len(S.sweep_steps) == S.n
        for sources, targets in S.sweep_steps:
            assert not set(sources.tolist()) & set(targets.tolist())
            assert np.all(np.diff(sources) >= 0)


@pytest.mark.parametrize("family,n,label", CORPUS)
def test_vectorized_steps_equal_the_loop(family, n, label):
    """Each step as one add.at / subtract.at gives the pair-by-pair loop's
    values to the bit."""
    S = make_structure(family, n, label)
    f = random_function(S, np.random.default_rng(14))
    z, m = f.values.copy(), f.values.copy()
    for sources, targets in reversed(S.sweep_steps):
        for s, t in zip(sources, targets):
            z[s] += z[t]
    for sources, targets in S.sweep_steps:
        for s, t in zip(sources, targets):
            m[s] -= m[t]
    assert np.array_equal(fast_zeta(f).values, z)
    g = FunctionOnS(S, GROUPOID, f.values)
    assert np.array_equal(fast_mobius(g).values, m)


def test_basis_contracts():
    S = make_structure("rook", 2)
    f = random_function(S, np.random.default_rng(4))
    g = fast_zeta(f)
    assert f.basis == SEMIGROUP and g.basis == GROUPOID
    with pytest.raises(ContractError):
        fast_zeta(g)
    with pytest.raises(ContractError):
        fast_mobius(f)
