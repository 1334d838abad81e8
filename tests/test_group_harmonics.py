"""Representation builders and the group transforms, the cyclic DFT
included."""
import cmath
import math

import numpy as np
import pytest

from invsemifft import group_harmonics
from invsemifft.errors import CapabilityError, ContractError
from invsemifft.fast_transforms import OpCounter
from invsemifft.group_harmonics import (GroupSpectrum, _yor_generators,
                                        abelian_characters, cyclic_repset_for,
                                        group_ft, group_ift, hook_length_dim,
                                        irreps_cyclic, irreps_symmetric,
                                        irreps_wreath_abelian, partitions,
                                        standard_tableaux, validate_repset)
from invsemifft.groups import GroupTable, cyclic_group, symmetric_group
from invsemifft.semigroup_fourier import induce

from conftest import make_structure


def test_partitions_and_tableaux():
    assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(standard_tableaux((2, 1))) == 2
    assert len(standard_tableaux((3, 2))) == 5
    for shape in partitions(5):
        assert len(standard_tableaux(shape)) == hook_length_dim(shape)


def test_hook_length_dims():
    assert [hook_length_dim(s) for s in partitions(4)] == [1, 3, 2, 3, 1]
    assert [hook_length_dim(s) for s in partitions(3)] == [1, 2, 1]
    assert sum(hook_length_dim(s) ** 2 for s in partitions(6)) == math.factorial(6)


def test_cyclic_characters():
    rs = irreps_cyclic(1)
    assert rs.dims == [1]
    rs = irreps_cyclic(2)
    assert np.allclose([m[0, 0] for m in rs.reps[1].matrices], [1, -1])
    rs = irreps_cyclic(4)
    assert abs(rs.reps[1].matrices[1][0, 0] - 1j) < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 12, 24])
def test_cyclic_gates(k):
    validate_repset(irreps_cyclic(k))


def test_cyclic_gates_large_vectorized():
    """Complete homomorphism check for every k up to 64 via index algebra."""
    for k in range(1, 65):
        j = np.arange(k)
        chars = np.exp(2j * np.pi * np.outer(j, j) / k)  # chars[rep, element]
        add = (j[:, None] + j[None, :]) % k
        for c in chars:
            assert np.abs(c[add] - np.outer(c, c)).max() < 1e-9
        gram = chars @ chars.conj().T / k
        assert np.abs(gram - np.eye(k)).max() < 1e-9
        built = irreps_cyclic(k)
        for c, rep in zip(chars, built.reps):
            assert np.abs(rep.matrices[:, 0, 0] - c).max() < 1e-9


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
def test_symmetric_gates(k):
    rs = irreps_symmetric(k)
    validate_repset(rs)
    assert sorted(rs.dims) == sorted(hook_length_dim(s) for s in partitions(k))


def test_symmetric_s6_gates():
    validate_repset(irreps_symmetric(6), pair_limit=120)


def test_symmetric_orthogonal_form():
    for k in (3, 4, 5):
        for shape in partitions(k):
            for i in range(1, k):
                m = _yor_generators(shape)[1][i - 1]
                assert np.abs(m @ m.T - np.eye(len(m))).max() < 1e-12


def reduced_word_yor(shape, perm):
    """Young's orthogonal form at `perm` as a product of generator
    matrices along a bubble-sort reduced word."""
    tabs, gens = _yor_generators(shape)
    arr, word = list(perm), []
    for _ in arr:
        for i in range(len(arr) - 1):
            if arr[i] > arr[i + 1]:
                arr[i], arr[i + 1] = arr[i + 1], arr[i]
                word.append(i + 1)
    m = np.eye(max(1, len(tabs)))
    for i in reversed(word):
        m = m @ gens[i - 1]
    return m


@pytest.mark.parametrize("k", range(7))
def test_symmetric_tensors_equal_reduced_words(k):
    """The Cayley-walk tensors equal the reduced-word products."""
    rs = irreps_symmetric(k)
    for rep, shape in zip(rs.reps, partitions(k), strict=True):
        assert rep.label == str(shape) and rep.matrices.dtype == complex
        ref = np.stack([reduced_word_yor(shape, p) for p in rs.group.keys])
        assert np.abs(rep.matrices - ref).max() <= 1e-12
    validate_repset(rs)


@pytest.mark.parametrize("h,k", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2),
                                 (3, 3), (4, 2)])
def test_wreath_tensors_equal_the_evaluator(h, k, monkeypatch):
    """The Cayley-walk tensors equal the wreath evaluators run at every
    element, with Young's form at any permutation from reduced words."""
    labels = cyclic_group(h)
    rs = irreps_wreath_abelian(labels, k)
    monkeypatch.setattr(group_harmonics, "_yor_at", reduced_word_yor)
    evaluators = group_harmonics.wreath_rep_evaluators(labels, k)
    for rep, (label, dim, ev) in zip(rs.reps, evaluators, strict=True):
        assert (rep.label, rep.dim) == (label, dim)
        ref = np.stack([ev(key) for key in rs.group.keys])
        assert np.abs(rep.matrices - ref).max() <= 1e-12
    validate_repset(rs)


def test_wreath_evaluators_see_only_generators(monkeypatch):
    """induce on wreath_rook 3/Z2 evaluates each wreath representation at
    the generators alone: the adjacent transpositions and the label 1 at
    point 1."""
    seen = []
    built = group_harmonics.wreath_rep_evaluators

    def recording(labels, k, cap=group_harmonics.SYMMETRIC_CAP):
        def wrap(ev):
            return lambda key: seen.append((k, key)) or ev(key)
        return [(label, dim, wrap(ev)) for label, dim, ev in built(labels, k, cap)]

    monkeypatch.setattr(group_harmonics, "wreath_rep_evaluators", recording)
    induce(make_structure("wreath_rook", 3, 2))
    assert set(seen) == {(1, ((1,), (1,))),
                         (2, ((2, 1), (0, 0))), (2, ((1, 2), (1, 0))),
                         (3, ((2, 1, 3), (0, 0, 0))), (3, ((1, 3, 2), (0, 0, 0))),
                         (3, ((1, 2, 3), (1, 0, 0)))}


def test_symmetric_cap():
    with pytest.raises(CapabilityError):
        irreps_symmetric(9)


def test_wreath_gates():
    rs = irreps_wreath_abelian(cyclic_group(2), 1)
    assert rs.dims == [1, 1]
    validate_repset(rs)
    rs = irreps_wreath_abelian(cyclic_group(2), 2)
    assert sorted(rs.dims) == [1, 1, 1, 1, 2]
    validate_repset(rs)
    rs = irreps_wreath_abelian(cyclic_group(2), 3)
    assert sum(d * d for d in rs.dims) == math.factorial(3) * 2 ** 3
    validate_repset(rs)


def test_wreath_degenerate_is_symmetric():
    rs = irreps_wreath_abelian(cyclic_group(1), 3)
    assert sorted(rs.dims) == [1, 1, 2]
    validate_repset(rs)


def test_wreath_requires_abelian():
    with pytest.raises(CapabilityError):
        irreps_wreath_abelian(symmetric_group(3), 1)


def test_abelian_characters_noncyclic():
    keys = [(a, b) for a in range(2) for b in range(2)]
    g = GroupTable(keys, lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2),
                   name="Z2xZ2")
    assert g.generator_if_cyclic() is None
    chars = abelian_characters(g)
    assert len(chars) == 4
    for ch in chars:
        for a in range(4):
            for b in range(4):
                assert abs(ch[g.mul(a, b)] - ch[a] * ch[b]) < 1e-9
    assert len({tuple(np.round(c, 6)) for c in chars}) == 4


def test_group_ft_delta_and_sums():
    rs = irreps_cyclic(2)
    spec = group_ft(np.array([1.0, 1.0]), rs)
    assert abs(spec.blocks["chi_0"][0, 0] - 2) < 1e-12
    assert abs(spec.blocks["chi_1"][0, 0]) < 1e-12
    rs3 = irreps_symmetric(3)
    delta = np.zeros(6)
    delta[rs3.group.identity] = 1.0
    spec = group_ft(delta, rs3)
    for rep in rs3.reps:
        assert np.abs(spec.blocks[rep.label] - np.eye(rep.dim)).max() < 1e-12


def test_group_ft_oracle_s3():
    rs = irreps_symmetric(3)
    rng = np.random.default_rng(8)
    f = rng.normal(size=6) + 1j * rng.normal(size=6)
    spec = group_ft(f, rs)
    for rep in rs.reps:
        brute = sum(f[s] * rep.matrices[s] for s in range(6))
        assert np.abs(spec.blocks[rep.label] - brute).max() < 1e-12


def test_group_ift_round_trip():
    rng = np.random.default_rng(9)
    for rs in (irreps_cyclic(4), irreps_symmetric(4),
               irreps_wreath_abelian(cyclic_group(2), 2)):
        n = len(rs.group)
        for _ in range(20):
            f = rng.normal(size=n) + 1j * rng.normal(size=n)
            back = group_ift(group_ft(f, rs), rs)
            assert np.abs(back - f).max() < 1e-10


def test_group_ift_delta_at_g0():
    rs = irreps_symmetric(3)
    g0 = 4
    spec = GroupSpectrum({rep.label: rep.matrices[g0].copy()
                          for rep in rs.reps})
    back = group_ift(spec, rs)
    expect = np.zeros(6)
    expect[g0] = 1.0
    assert np.abs(back - expect).max() < 1e-10


def test_parseval():
    rng = np.random.default_rng(10)
    groups = [irreps_cyclic(k) for k in (3, 16, 64)]
    groups += [irreps_symmetric(k) for k in (3, 4, 5)]
    groups += [irreps_wreath_abelian(cyclic_group(2), k) for k in (1, 2, 3)]
    for rs in groups:
        n = len(rs.group)
        f = rng.normal(size=n) + 1j * rng.normal(size=n)
        spec = group_ft(f, rs)
        lhs = sum(rep.dim * np.linalg.norm(spec.blocks[rep.label], "fro") ** 2
                  for rep in rs.reps) / n
        rhs = np.sum(np.abs(f) ** 2)
        assert abs(lhs - rhs) <= 1e-9 * rhs


def test_spectrum_shape_contract():
    rs = irreps_symmetric(3)
    bad = GroupSpectrum({rep.label: np.zeros((1, 1)) for rep in rs.reps})
    with pytest.raises(ContractError):
        group_ift(bad, rs)


def _bins(spec, rs):
    """A character set's spectrum as a vector over its reps, in rep order."""
    return np.array([spec.blocks[rep.label][0, 0] for rep in rs.reps])


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 16, 17, 31, 48,
                               63, 64, 100])
def test_cyclic_fast_matches_naive(k):
    rs = irreps_cyclic(k)
    rng = np.random.default_rng(k)
    f = rng.normal(size=k) + 1j * rng.normal(size=k)
    counter = OpCounter()
    spec = group_ft(f, rs, counter)
    naive = np.array([sum(f[t] * cmath.exp(2j * cmath.pi * j * t / k)
                          for t in range(k)) for j in range(k)])
    scale = max(1.0, np.abs(naive).max())
    assert np.abs(_bins(spec, rs) - naive).max() <= 1e-9 * scale
    assert np.abs(group_ift(spec, rs) - f).max() <= 1e-9
    # the dense character product at every length; length 1 is the identity
    per_row = (k * (k - 1), k * k) if k > 1 else (0, 0)
    assert (counter.additions, counter.multiplications) == per_row


def test_cyclic_fast_delta():
    assert np.allclose(_bins(group_ft(np.eye(8)[0], irreps_cyclic(8)),
                             irreps_cyclic(8)), np.ones(8))
    assert np.allclose(_bins(group_ft(np.array([3.0]), irreps_cyclic(1)),
                             irreps_cyclic(1)), [3.0])


def test_cyclic_repset_alignment():
    """Character set built for an arbitrary cyclic table follows its
    generator, so the character-matrix product in exponent order and the
    rep matrices agree."""
    z4 = [0, 2, 1, 3]       # element x is z4[x] in Z/4
    g = GroupTable([0, 1, 2, 3], lambda a, b: z4.index((z4[a] + z4[b]) % 4),
                   name="Z4")
    rs = cyclic_repset_for(g)
    validate_repset(rs)
    assert rs.cyclic_exponents != list(range(4))
    rng = np.random.default_rng(1)
    f = rng.normal(size=4)
    spec = group_ft(f, rs)
    for rep in rs.reps:
        direct = sum(f[x] * rep.matrices[x] for x in range(4))
        assert np.abs(spec.blocks[rep.label] - direct).max() < 1e-10
