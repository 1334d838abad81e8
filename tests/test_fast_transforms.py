"""Fast zeta/Mobius transforms against the quadratic reference, plus
operation-count guarantees."""
import itertools

import numpy as np
import pytest

from invsemifft.elements import PartialMapElement, partial_identity
from invsemifft.errors import CapabilityError, ContractError, StructureError
from invsemifft.fast_transforms import OpCounter, fast_mobius, fast_zeta
from invsemifft.semigroup_fourier import fft, ifft, induce, naive_ft
from invsemifft.structure import (GROUPOID, SEMIGROUP, FunctionOnS,
                                  SemigroupStructure, _closure_steps,
                                  mobius_naive, zeta_naive)

from conftest import (generated, generated_semigroups, make_structure,
                      random_function)

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
    return SemigroupStructure.from_elements(
        "custom", n, [partial_identity(n, d) for d in domains])


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


@pytest.mark.parametrize("domains", [[(), (1, 2, 3)], [(), (2,), (1, 2)],
                                     [(), (1,), (2,), (1, 2, 3)]])
def test_sweep_precondition_fails_closed(domains):
    """Idempotents e < f without e + min(f - e), where the old one-point
    sweep was not exact: the closure sweep is."""
    S = semilattice(3, domains)
    f = random_function(S, np.random.default_rng(5))
    assert np.abs(fast_zeta(f).values - zeta_naive(f).values).max() < 1e-12
    assert np.abs(fast_mobius(fast_zeta(f)).values - f.values).max() < 1e-12
    Y = induce(S)
    c = fft(f, Y)
    for a, b in zip(c.blocks, naive_ft(f, Y).blocks):
        assert np.abs(a - b).max() < 1e-10
    assert np.abs(ifft(c).values - f.values).max() < 1e-9


def test_idempotents_not_closed_under_intersection_rejected():
    # {1,2} and {1,3} both extend the empty domain first at point 1, and
    # neither lies inside the other: {1} is missing.
    with pytest.raises(StructureError, match="intersection"):
        semilattice(3, [(), (1, 2), (1, 3)])


def check_transforms(S):
    """fast zeta/Mobius equal the oracles; where the built-in subgroup
    representations apply, fft equals naive_ft and ifft inverts it.
    Returns whether the second part ran."""
    f = random_function(S, np.random.default_rng(6))
    z = fast_zeta(f)
    assert np.abs(z.values - zeta_naive(f).values).max() < 1e-10
    assert np.abs(fast_mobius(z).values - f.values).max() < 1e-10
    try:
        Y = induce(S)
    except CapabilityError:          # a maximal subgroup is not cyclic
        return False
    c = fft(f, Y)
    for a, b in zip(c.blocks, naive_ft(f, Y).blocks):
        assert np.abs(a - b).max() < 1e-9
    assert np.abs(ifft(c).values - f.values).max() < 1e-9
    return True


def test_semigroup_without_order_preserving_connectors():
    """s = {1->3, 2->1} generates 14 maps; dom {1,2} reaches ran {1,3}
    only by s itself, which is not order preserving."""
    elements = generated([PartialMapElement(3, ((1, 3, 0), (2, 1, 0)))])
    S = SemigroupStructure.from_elements("custom", 3, elements)
    assert len(S) == 14
    assert check_transforms(S)


def test_random_generated_semigroups():
    """Inverse semigroups closed from 1-3 random partial maps on n = 3-5
    points: every one builds, and the transforms are exact on each."""
    full = sum(check_transforms(SemigroupStructure.from_elements(
        "custom", n, elements)) for n, elements in generated_semigroups())
    assert full >= 56              # every case with cyclic maximal subgroups


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
def test_family_steps_extend_by_one_pair(family, n, label):
    """On the built-in families an idempotent domain plus its least missing
    point is one, so step i holds exactly (t without its pair at i, t) for
    the t whose domain minus i is an idempotent's domain."""
    S = make_structure(family, n, label)
    domains = {S.elements[e].domain for e in S.idempotents}
    expect = [[] for _ in range(S.n)]
    for t, el in enumerate(S.elements):
        for k, (i, _, _) in enumerate(el.pairs):
            if el.domain - {i} in domains:
                s = S.id_of(PartialMapElement(
                    S.n, el.pairs[:k] + el.pairs[k + 1:]))
                expect[i - 1].append((s, t))
    for (sources, targets), pairs in zip(S.sweep_steps, expect, strict=True):
        assert list(zip(sources.tolist(), targets.tolist())) == sorted(pairs)


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


def closure_steps_by_float_product(dom):
    """_closure_steps with the subset test as a float product of the 0/1
    domain rows: d is inside f iff they share |d| points."""
    n_rows, n = dom.shape
    none = np.zeros(0, dtype=np.intp)
    if n == 0:
        return none, none, none
    size = dom.sum(1)
    counts = dom.astype(float)
    chunk = max(1, (1 << 20) // max(1, n_rows * n))
    out = [(none, none, none)]
    for lo in range(0, n_rows, chunk):
        inside = counts[lo:lo + chunk] @ counts.T == size[lo:lo + chunk, None]
        d, f = np.nonzero(inside & (size[lo:lo + chunk, None] < size))
        d += lo
        first = (dom[f] & ~dom[d]).argmax(1)
        order = np.lexsort((size[f], first, d))
        d, f, first = d[order], f[order], first[order]
        head = np.ones(len(d), dtype=bool)
        head[1:] = (d[1:] != d[:-1]) | (first[1:] != first[:-1])
        out.append((d[head], f[head], first[head]))
    return tuple(np.concatenate(a) for a in zip(*out))


@pytest.mark.parametrize("family,n,label",
                         CORPUS + [("rotation", 8, None), ("chain", 70, None)])
def test_closure_steps_equal_the_float_product(family, n, label):
    """The word-packed subset test gives the float product's steps; chain
    70 has n > 64, so each domain spans two words."""
    S = make_structure(family, n, label)
    dom = np.zeros((len(S.idempotents), S.n), dtype=bool)
    for r, e in enumerate(S.idempotents):
        dom[r, [i - 1 for i in S.elements[e].domain]] = True
    for got, ref in zip(_closure_steps(dom), closure_steps_by_float_product(dom),
                        strict=True):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


def test_closure_steps_read_every_word():
    """Domains on 130 points, three words each, that differ only past the
    first word: {65} is not inside {1, 66}, nor {130} inside {1, 65, 66}."""
    domains = [(), (65,), (1, 66), (1, 65, 66), (130,), (65, 130)]
    dom = np.zeros((len(domains), 130), dtype=bool)
    for r, d in enumerate(domains):
        dom[r, [i - 1 for i in d]] = True
    got = _closure_steps(dom)
    for a, b in zip(got, closure_steps_by_float_product(dom), strict=True):
        assert np.array_equal(a, b)
    assert sorted(zip(*(x.tolist() for x in got))) == [
        (0, 1, 64), (0, 2, 0), (0, 4, 129), (1, 3, 0), (1, 5, 129), (2, 3, 64),
        (4, 5, 64)]


def test_basis_contracts():
    S = make_structure("rook", 2)
    f = random_function(S, np.random.default_rng(4))
    g = fast_zeta(f)
    assert f.basis == SEMIGROUP and g.basis == GROUPOID
    with pytest.raises(ContractError):
        fast_zeta(g)
    with pytest.raises(ContractError):
        fast_mobius(f)
