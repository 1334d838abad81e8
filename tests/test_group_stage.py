"""The batched group stage of fft / ifft: agreement with the oracle for
user representation sets the fast paths must honour, its exact operation
counts, and the batch axis of the group transforms."""
import math

import numpy as np
import pytest

from invsemifft.errors import ContractError
from invsemifft.fast_transforms import OpCounter, fast_mobius, fast_zeta
from invsemifft.group_harmonics import (GroupRepSet, GroupSpectrum, Irrep,
                                        cyclic_repset_for, group_ft, group_ift,
                                        irreps_cyclic, irreps_symmetric,
                                        irreps_wreath_abelian, validate_repset)
from invsemifft.groups import cyclic_group
from invsemifft.semigroup_fourier import default_irreps, fft, ifft, induce, naive_ft

from conftest import make_structure, random_function

TOL = 1e-9


def _assert_oracle_and_round_trip(S, repsets, seed=5):
    for rs in repsets:
        validate_repset(rs)
    Y = induce(S, repsets)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        f = random_function(S, rng)
        c = fft(f, Y)
        ref = naive_ft(f, Y)
        assert max(np.abs(a - b).max() for a, b in zip(c.blocks, ref.blocks)) <= TOL
        assert np.abs(ifft(c).values - f.values).max() <= TOL


# -- cyclic classes: DFT bins follow the characters, not the list order -----

# cyclic_shift n=3 and 5, and rotation n=6, where classes of one group
# order share a DFT batch.
CYCLIC_CASES = [pytest.param("cyclic_shift", 3, id="3"),
                pytest.param("cyclic_shift", 5, id="5"),
                pytest.param("rotation", 6, id="rotation-6")]


def _reordered(rs, order):
    return GroupRepSet(rs.group, [rs.reps[i] for i in order],
                       cyclic_exponents=rs.cyclic_exponents)


@pytest.mark.parametrize("family,n", CYCLIC_CASES)
def test_cyclic_reversed_reps(family, n):
    S = make_structure(family, n)
    repsets = [_reordered(rs, range(len(rs.reps) - 1, -1, -1))
               for rs in default_irreps(S)]
    _assert_oracle_and_round_trip(S, repsets)


@pytest.mark.parametrize("family,n", CYCLIC_CASES)
def test_cyclic_shuffled_reps(family, n):
    S = make_structure(family, n)
    rng = np.random.default_rng(n)
    repsets = [_reordered(rs, rng.permutation(len(rs.reps)))
               for rs in default_irreps(S)]
    _assert_oracle_and_round_trip(S, repsets)


@pytest.mark.parametrize("family,n", CYCLIC_CASES)
def test_cyclic_non_default_generator(family, n):
    """Characters listed for the first generator, exponents for the last."""
    S = make_structure(family, n)
    repsets = []
    for rs in default_irreps(S):
        G = rs.group
        gens = [x for x in range(len(G)) if G.element_order(x) == len(G)]
        exps = cyclic_repset_for(G, gens[-1]).cyclic_exponents
        repsets.append(GroupRepSet(G, cyclic_repset_for(G).reps,
                                   cyclic_exponents=exps))
    assert any(rs.cyclic_exponents != cyclic_repset_for(rs.group).cyclic_exponents
               for rs in repsets)
    _assert_oracle_and_round_trip(S, repsets)


def test_cyclic_bins_need_characters():
    S = make_structure("cyclic_shift", 3)
    base = default_irreps(S)
    k = max(range(len(base)), key=lambda i: len(base[i].group))
    rs = base[k]
    bad_exps = GroupRepSet(rs.group, rs.reps, cyclic_exponents=[0] * len(rs.group))
    repeated = GroupRepSet(rs.group, [rs.reps[1]] * len(rs.reps),
                           cyclic_exponents=rs.cyclic_exponents)
    for bad in (bad_exps, repeated):
        with pytest.raises(ContractError):
            induce(S, base[:k] + [bad] + base[k + 1:])


def test_rep_labels_must_be_unique():
    """The group stage keys each class's blocks by rep label."""
    S = make_structure("rook", 3)
    repsets = default_irreps(S)
    top = repsets[-1]
    reps = [Irrep(top.reps[0].label, r.dim, r.matrices) for r in top.reps]
    repsets[-1] = GroupRepSet(top.group, reps)
    with pytest.raises(ContractError):
        induce(S, repsets)


# -- dense classes: reps need not be orthogonal ----------------------------

def _conjugated(rs, rng):
    reps = []
    for rep in rs.reps:
        A = rng.normal(size=(rep.dim, rep.dim)) + 2 * np.eye(rep.dim)
        reps.append(Irrep(rep.label, rep.dim,
                          A @ rep.matrices @ np.linalg.inv(A)))
    return GroupRepSet(rs.group, reps, cyclic_exponents=rs.cyclic_exponents)


@pytest.mark.parametrize("family,n,label", [("rook", 3, None),
                                            ("wreath_rook", 2, 2)])
def test_non_orthogonal_reps(family, n, label):
    S = make_structure(family, n, label)
    rng = np.random.default_rng(17)
    repsets = [_conjugated(rs, rng) for rs in default_irreps(S)]
    inv_is_transpose = all(
        np.allclose(rep.matrices[rs.group.inv(y)], rep.matrices[y].T)
        for rs in repsets for rep in rs.reps for y in range(len(rs.group)))
    assert not inv_is_transpose
    _assert_oracle_and_round_trip(S, repsets)


# -- exact operation counts of the group stage -----------------------------

def _expected_counts(S):
    """Per class of group order k, per idempotent pair: forward
    (k(k-1), k^2) additions and multiplications, inverse (k(k-1),
    k(k+1)); at k = 1 the transform is the identity, and the inverse
    counts only its 1/|G| scale."""
    fwd, inv = [0, 0], [0, 0]
    for dc in S.d_classes:
        pairs, k = dc.num_idempotents ** 2, len(dc.subgroup)
        per_row = (((k - 1) * k, k * k, (k - 1) * k, k * (k + 1)) if k > 1
                   else (0, 0, 0, 1))
        fwd[0] += pairs * per_row[0]
        fwd[1] += pairs * per_row[1]
        inv[0] += pairs * per_row[2]
        inv[1] += pairs * per_row[3]
    return tuple(fwd), tuple(inv)


@pytest.mark.parametrize("family,n,label", [
    pytest.param("rook", 4, None, id="rook-4"),
    pytest.param("cyclic_shift", 5, None, id="cyclic_shift-5"),
    pytest.param("rotation", 6, None, id="rotation-6"),
    pytest.param("cyclic_shift", 7, None, id="cyclic_shift-7"),
    pytest.param("rotation", 10, None, id="rotation-10"),
    pytest.param("planar_rook", 5, None, id="planar_rook-5"),
    pytest.param("wreath_rook", 3, 2, id="wreath_rook-3-Z2")])
def test_group_stage_exact_counts(family, n, label):
    S = make_structure(family, n, label)
    Y = induce(S)
    f = random_function(S, np.random.default_rng(3))
    whole_fwd, whole_inv, zeta, mobius = (OpCounter() for _ in range(4))
    c = fft(f, Y, whole_fwd)
    ifft(c, whole_inv)
    fast_mobius(fast_zeta(f, zeta), mobius)
    fwd = (whole_fwd.additions - zeta.additions,
           whole_fwd.multiplications - zeta.multiplications)
    inv = (whole_inv.additions - mobius.additions,
           whole_inv.multiplications - mobius.multiplications)
    assert (fwd, inv) == _expected_counts(S)
    if family not in ("rook", "wreath_rook"):
        # a cyclic class of order k <= n costs at most k of each per
        # element; the inverse one multiplication more, for the 1/k
        assert max(fwd) <= n * len(S)
        assert max(inv) <= (n + 1) * len(S)


def test_rook4_forward_count_is_the_per_pair_count():
    """The per-pair loop this stage replaced counted these numbers."""
    S = make_structure("rook", 4)
    counter = OpCounter()
    fft(random_function(S, np.random.default_rng(4)), induce(S), counter)
    assert (counter.additions, counter.multiplications) == (1648, 1296)


# -- the batch axis ---------------------------------------------------------

@pytest.mark.parametrize("rs", [irreps_symmetric(4),
                                irreps_wreath_abelian(cyclic_group(2), 2)],
                         ids=["S4", "Z2wrS2"])
def test_group_transforms_batch_rows(rs):
    n = len(rs.group)
    rng = np.random.default_rng(6)
    batch = rng.normal(size=(2, 3, n)) + 1j * rng.normal(size=(2, 3, n))
    counter = OpCounter()
    spec = group_ft(batch, rs, counter)
    one = OpCounter()
    for idx in np.ndindex(2, 3):
        row = group_ft(batch[idx], rs, one)
        for rep in rs.reps:
            assert np.abs(spec.blocks[rep.label][idx]
                          - row.blocks[rep.label]).max() <= 1e-12
    assert (counter.additions, counter.multiplications) == \
        (one.additions, one.multiplications)
    back = group_ift(spec, rs)
    assert back.shape == batch.shape
    assert np.abs(back - batch).max() <= 1e-10


@pytest.mark.parametrize("k", [1, 4, 7, 12])
def test_cyclic_fast_batch_rows(k):
    rs = irreps_cyclic(k)
    rng = np.random.default_rng(k)
    batch = rng.normal(size=(5, k)) + 1j * rng.normal(size=(5, k))
    tol = 1e-12 * max(1.0, math.sqrt(k))
    counter, one = OpCounter(), OpCounter()
    spec = group_ft(batch, rs, counter)
    for i, row in enumerate(batch):
        single = group_ft(row, rs, one)
        for rep in rs.reps:
            assert np.abs(spec.blocks[rep.label][i]
                          - single.blocks[rep.label]).max() <= tol
    assert (counter.additions, counter.multiplications) == \
        (one.additions, one.multiplications)
    counter, one = OpCounter(), OpCounter()
    back = group_ift(spec, rs, counter)
    for i in range(len(batch)):
        row_spec = GroupSpectrum({label: blk[i]
                                  for label, blk in spec.blocks.items()})
        assert np.abs(back[i] - group_ift(row_spec, rs, one)).max() <= tol
    assert (counter.additions, counter.multiplications) == \
        (one.additions, one.multiplications)
    assert np.abs(back - batch).max() <= 1e-12


def test_class_index_arrays():
    S = make_structure("rook", 3)
    for dc in S.d_classes:
        assert sorted(dc.coord_ids.ravel()) == sorted(dc.element_ids)
        for (a, b, y), i in np.ndenumerate(dc.coord_ids):
            assert S.element_coords[i] == (dc.index, a, b, y)
