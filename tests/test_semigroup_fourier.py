"""The induced representations, two-stage FFT pipeline, direct inversion
formulas, and convolution."""
import numpy as np
import pytest

from invsemifft.errors import ContractError
from invsemifft.fast_transforms import fast_zeta
from invsemifft.group_harmonics import GroupRepSet, Irrep, trivial_repset
from invsemifft.semigroup_fourier import (ConjugatedRepSet,
                                          FourierCoefficients, convolve_fft,
                                          convolve_naive, default_irreps, fft,
                                          function_from_json, function_to_json,
                                          ifft, induce, invert_equivalent_reps,
                                          invert_groupoid_local,
                                          invert_semigroup_basis,
                                          invert_uniform, multiply_spectra,
                                          naive_ft, spectrum_from_json,
                                          spectrum_to_json, steinberg_phi,
                                          steinberg_phi_inverse)
from invsemifft.structure import GROUPOID, SEMIGROUP, FunctionOnS, zeta_naive

from conftest import make_structure, random_function

CORPUS = [("rook", 3, None), ("planar_rook", 4, None),
          ("cyclic_shift", 4, None), ("rotation", 5, None),
          ("wreath_rook", 2, 2), ("chain", 5, None)]


def _spectrum_vec(c):
    return np.concatenate([b.ravel() for b in c.blocks])


def _delta(S, i):
    v = np.zeros(len(S))
    v[i] = 1.0
    return FunctionOnS(S, SEMIGROUP, v)


@pytest.mark.parametrize("family,n,label", CORPUS)
def test_dimension_identity(family, n, label):
    S = make_structure(family, n, label)
    Y = induce(S)
    assert sum(d * d for d in Y.dims) == len(S)


def test_planar_rook_induced_dims():
    # trivial subgroups: the class-k rep has dimension C(n,k)
    from math import comb
    S = make_structure("planar_rook", 4)
    Y = induce(S)
    assert Y.dims == [comb(4, k) for k in range(5)]


def test_rook2_induced_dims():
    S = make_structure("rook", 2)
    assert sorted(induce(S).dims) == [1, 1, 1, 2]


def test_rotation2_induced_dims():
    S = make_structure("rotation", 2)
    assert sorted(induce(S).dims) == [1, 1, 1, 2]


def test_induce_rejects_incomplete_repset():
    S = make_structure("rook", 2)
    repsets = default_irreps(S)
    top = repsets[-1].reps[:1]  # drop one irreducible of the top subgroup
    broken = repsets[:-1] + [GroupRepSet(repsets[-1].group, top)]
    with pytest.raises(ContractError):
        induce(S, broken)


def test_induced_homomorphism_sampled():
    """The natural-basis matrices multiply like the semigroup."""
    rng = np.random.default_rng(17)
    for family, n, label in [("rook", 3, None), ("rotation", 4, None),
                             ("wreath_rook", 2, 2)]:
        S = make_structure(family, n, label)
        Y = induce(S)
        X = ConjugatedRepSet.identity(Y)
        for _ in range(100):
            s = int(rng.integers(len(S)))
            t = int(rng.integers(len(S)))
            u = S.mul(s, t)
            for entry in Y.entries:
                lhs = X.natural_matrix(entry, s) @ X.natural_matrix(entry, t)
                assert np.abs(lhs - X.natural_matrix(entry, u)).max() < 1e-9


def test_steinberg_round_trip():
    S = make_structure("rook", 2)
    rng = np.random.default_rng(3)
    for dc in S.d_classes:
        vals = np.zeros(len(S), dtype=complex)
        for i in dc.element_ids:
            vals[i] = rng.normal() + 1j * rng.normal()
        x = FunctionOnS(S, GROUPOID, vals)
        mat = steinberg_phi(x, dc.index)
        back = steinberg_phi_inverse(S, dc.index, mat)
        assert np.array_equal(back.values, x.values)


def test_steinberg_images_of_basis_elements():
    S = make_structure("rook", 2)
    dc = S.d_classes[1]  # rank-1 class, two idempotents... r=2, |G|=1
    e_k = dc.rep_idempotent
    x = FunctionOnS(S, GROUPOID, np.eye(len(S))[e_k].astype(complex))
    mat = steinberg_phi(x, 1)
    pos = dc.idempotent_ids.index(e_k)
    assert mat[pos, pos, 0] == 1 and np.abs(mat).sum() == 1
    for e, p in dc.connectors.items():
        x = FunctionOnS(S, GROUPOID, np.eye(len(S))[p].astype(complex))
        mat = steinberg_phi(x, 1)
        assert mat[dc.idempotent_ids.index(e), pos, 0] == 1
        assert np.abs(mat).sum() == 1


def test_steinberg_support_contract():
    S = make_structure("rook", 2)
    x = FunctionOnS(S, GROUPOID, np.ones(len(S), dtype=complex))
    with pytest.raises(ContractError):
        steinberg_phi(x, 1)
    f = FunctionOnS(S, SEMIGROUP, np.zeros(len(S), dtype=complex))
    with pytest.raises(ContractError):
        steinberg_phi(f, 1)


def test_fft_hand_example_planar1():
    S = make_structure("planar_rook", 1)
    Y = induce(S)
    f = FunctionOnS(S, SEMIGROUP, np.array([2.0, 5.0]))  # f(#)=2, f(1>1)=5
    c = fft(f, Y)
    assert abs(c.blocks[0][0, 0] - 7.0) < 1e-12
    assert abs(c.blocks[1][0, 0] - 5.0) < 1e-12


@pytest.mark.parametrize("family,n,label", CORPUS)
def test_fft_delta_empty_map(family, n, label):
    S = make_structure(family, n, label)
    Y = induce(S)
    bottom = min(range(len(S)), key=lambda i: S.elements[i].rank)
    c = fft(_delta(S, bottom), Y)
    vec = _spectrum_vec(c)
    if family == "chain":
        # the chain has no empty map; its bottom sits under everything
        assert abs(c.blocks[0][0, 0] - 1.0) < 1e-12
    else:
        assert abs(c.blocks[0][0, 0] - 1.0) < 1e-12
        assert np.abs(vec).sum() == pytest.approx(1.0)


@pytest.mark.parametrize("family,n,label", CORPUS + [
    ("rook", 4, None), ("wreath_rook", 2, 3), ("wreath_rook", 3, 2)])
def test_fft_matches_naive(family, n, label):
    S = make_structure(family, n, label)
    Y = induce(S)
    rng = np.random.default_rng(23)
    for _ in range(5):
        f = random_function(S, rng)
        cf = _spectrum_vec(fft(f, Y))
        cn = _spectrum_vec(naive_ft(f, Y))
        assert np.abs(cf - cn).max() <= 1e-9 * max(1.0, np.abs(cn).max())


@pytest.mark.parametrize("family,n,label", CORPUS)
def test_ifft_round_trip(family, n, label):
    S = make_structure(family, n, label)
    Y = induce(S)
    rng = np.random.default_rng(29)
    for _ in range(5):
        f = random_function(S, rng)
        back = ifft(fft(f, Y))
        assert back.basis == SEMIGROUP
        assert np.abs(back.values - f.values).max() <= \
            1e-9 * max(1.0, np.abs(f.values).max())


def test_delta_round_trip_exhaustive_rook2():
    S = make_structure("rook", 2)
    Y = induce(S)
    for i in range(len(S)):
        f = _delta(S, i)
        back = ifft(fft(f, Y))
        assert np.abs(back.values - f.values).max() < 1e-10


def test_zero_spectrum_inverts_to_zero():
    S = make_structure("rook", 2)
    Y = induce(S)
    back = ifft(FourierCoefficients.zeros(Y))
    assert np.abs(back.values).max() == 0.0


def test_top_class_block_is_group_matrix():
    """A delta at a full-rank element transforms, in the top block, to the
    plain group representation matrix."""
    S = make_structure("rook", 3)
    Y = induce(S)
    dc = S.d_classes[-1]
    rs = Y.class_repsets[-1]
    for s in dc.element_ids[:3]:
        c = naive_ft(_delta(S, s), Y)
        y = dc.coord_ids[0, 0].tolist().index(s)
        for entry in Y.entries:
            if entry.class_index == dc.index:
                rep = rs.reps[entry.rep_index]
                assert np.abs(c.blocks[entry.offset]
                              - rep.matrices[y]).max() < 1e-12


@pytest.mark.parametrize("family,n,label",
                         [("rook", 2, None), ("cyclic_shift", 3, None),
                          ("rotation", 3, None)])
def test_four_formula_concordance(family, n, label):
    S = make_structure(family, n, label)
    Y = induce(S)
    rng = np.random.default_rng(31)
    X = ConjugatedRepSet.random(Y, seed=97)
    for _ in range(3):
        f = random_function(S, rng)
        c = fft(f, Y)
        g = zeta_naive(f)
        for s in range(len(S)):
            v1 = invert_groupoid_local(c, s)
            v2 = invert_equivalent_reps(c, s, X)
            v3 = invert_uniform(c, s, X)
            assert abs(v1 - g.values[s]) < 1e-8
            assert abs(v2 - v1) < 1e-8
            assert abs(v3 - v1) < 1e-8
        for s in range(0, len(S), max(1, len(S) // 8)):
            v4 = invert_semigroup_basis(c, s, X)
            assert abs(v4 - f.values[s]) < 1e-8


def test_identity_conjugation_reduces_to_local():
    S = make_structure("rook", 2)
    Y = induce(S)
    X = ConjugatedRepSet.identity(Y)
    f = random_function(S, np.random.default_rng(37))
    c = fft(f, Y)
    for s in range(len(S)):
        assert abs(invert_equivalent_reps(c, s, X)
                   - invert_groupoid_local(c, s)) < 1e-12


def test_semigroup_basis_delta():
    S = make_structure("rook", 2)
    Y = induce(S)
    X = ConjugatedRepSet.random(Y, seed=5)
    for i in range(len(S)):
        c = fft(_delta(S, i), Y)
        for s in range(len(S)):
            expect = 1.0 if s == i else 0.0
            assert abs(invert_semigroup_basis(c, s, X) - expect) < 1e-8


def test_wedderburn_invertible():
    """The transform, as a linear map on functions, has full rank."""
    for family, n, label in [("rook", 3, None), ("rotation", 5, None),
                             ("wreath_rook", 2, 2)]:
        S = make_structure(family, n, label)
        Y = induce(S)
        m = np.column_stack([_spectrum_vec(naive_ft(_delta(S, i), Y))
                             for i in range(len(S))])
        assert m.shape == (len(S), len(S))
        assert np.isfinite(np.linalg.cond(m))
        assert np.linalg.matrix_rank(m) == len(S)


def test_group_degeneration_on_top_class():
    """Functions supported on the invertible elements invert exactly like
    a plain group Fourier transform."""
    S = make_structure("rook", 3)
    Y = induce(S)
    dc = S.d_classes[-1]
    rs = Y.class_repsets[-1]
    rng = np.random.default_rng(41)
    vals = np.zeros(len(S), dtype=complex)
    group_vals = rng.normal(size=6) + 1j * rng.normal(size=6)
    for y, i in enumerate(dc.coord_ids[0, 0].tolist()):
        vals[i] = group_vals[y]
    f = FunctionOnS(S, SEMIGROUP, vals)
    c = fft(f, Y)
    X = ConjugatedRepSet.random(Y, seed=43)
    for y, i in enumerate(dc.coord_ids[0, 0].tolist()):
        direct = sum(rep.dim * np.trace(
            c.blocks[e.offset] @ rep.matrices[rs.group.inv(y)])
            for e in Y.entries if e.class_index == dc.index
            for rep in [rs.reps[e.rep_index]]) / len(rs.group)
        assert abs(direct - group_vals[y]) < 1e-10
        assert abs(invert_groupoid_local(c, i) - group_vals[y]) < 1e-10
        assert abs(invert_equivalent_reps(c, i, X) - group_vals[y]) < 1e-10
        assert abs(invert_uniform(c, i, X) - group_vals[y]) < 1e-10


def test_convolution_unit():
    from invsemifft.elements import identity_map
    for family, n, label in [("rook", 3, None), ("rotation", 4, None)]:
        S = make_structure(family, n, label)
        Y = induce(S)
        g = random_function(S, np.random.default_rng(47))
        unit = _delta(S, S.id_of(identity_map(n)))
        assert np.abs(convolve_naive(unit, g).values - g.values).max() < 1e-12
        assert np.abs(convolve_fft(unit, g, Y).values - g.values).max() < 1e-9


def test_convolution_of_deltas():
    S = make_structure("rook", 3)
    rng = np.random.default_rng(53)
    for _ in range(20):
        s = int(rng.integers(len(S)))
        t = int(rng.integers(len(S)))
        out = convolve_naive(_delta(S, s), _delta(S, t))
        expect = np.zeros(len(S))
        expect[S.mul(s, t)] = 1.0
        assert np.array_equal(out.values.real, expect)


@pytest.mark.parametrize("family,n,label",
                         [("rook", 3, None), ("rotation", 4, None)])
def test_convolution_theorem(family, n, label):
    S = make_structure(family, n, label)
    Y = induce(S)
    rng = np.random.default_rng(59)
    for _ in range(5):
        f, g = random_function(S, rng), random_function(S, rng)
        ref = convolve_naive(f, g)
        scale = max(1.0, np.abs(ref.values).max())
        assert np.abs(convolve_fft(f, g, Y).values - ref.values).max() \
            <= 1e-9 * scale
        # spectrum homomorphism
        lhs = _spectrum_vec(fft(ref, Y))
        rhs = _spectrum_vec(multiply_spectra(fft(f, Y), fft(g, Y)))
        assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(lhs).max())


def test_convolution_contracts():
    S = make_structure("rook", 2)
    T = make_structure("rook", 3)
    f = random_function(S, np.random.default_rng(0))
    g = random_function(T, np.random.default_rng(0))
    with pytest.raises(ContractError):
        convolve_naive(f, g)


def test_function_json_round_trip():
    S = make_structure("wreath_rook", 2, 2)
    f = random_function(S, np.random.default_rng(61))
    data = function_to_json(f)
    assert data["family"] == "wreath_rook" and data["basis"] == SEMIGROUP
    back = function_from_json(S, data)
    assert np.array_equal(back.values, f.values)
    with pytest.raises(ContractError):
        function_from_json(make_structure("rook", 2), data)


def test_function_json_sparse():
    S = make_structure("rook", 2)
    data = {"family": "rook", "n": 2, "basis": "semigroup",
            "values": {"1>2": [1.5, -0.5]}}
    f = function_from_json(S, data)
    assert np.count_nonzero(f.values) == 1
    assert function_to_json(f)["values"] == {"1>2": [1.5, -0.5]}


def test_spectrum_json_round_trip():
    S = make_structure("rook", 3)
    Y = induce(S)
    c = fft(random_function(S, np.random.default_rng(67)), Y)
    data = spectrum_to_json(c)
    back = spectrum_from_json(Y, data)
    assert all(np.array_equal(a, b) for a, b in zip(c.blocks, back.blocks))
    data["blocks"] = data["blocks"][:-1]
    with pytest.raises(ContractError):
        spectrum_from_json(Y, data)


# -- the spectrum buffer -----------------------------------------------------

def test_block_writes_reach_the_buffer_and_ifft():
    S = make_structure("rook", 3)
    Y = induce(S)
    c = fft(random_function(S, np.random.default_rng(73)), Y)
    before, i = c.data.copy(), len(Y.entries) - 1
    c.blocks[i][0, 0] += 1.0
    changed = np.flatnonzero(c.data != before)
    assert len(changed) == 1
    assert c.data[changed[0]] == before[changed[0]] + 1.0
    expected = ifft(FourierCoefficients.from_blocks(
        Y, [b.copy() for b in c.blocks]))
    assert np.array_equal(ifft(c).values, expected.values)


def test_copy_does_not_alias():
    S = make_structure("rook", 3)
    Y = induce(S)
    c = fft(random_function(S, np.random.default_rng(74)), Y)
    before = c.data.copy()
    d = c.copy()
    assert not np.shares_memory(c.data, d.data)
    d.blocks[-1][0, 0] += 1.0
    d.data[0] += 1.0
    assert np.array_equal(c.data, before)


def test_buffer_and_block_list_contracts():
    S = make_structure("rook", 3)
    Y = induce(S)
    blocks = fft(random_function(S, np.random.default_rng(75)), Y).blocks
    with pytest.raises(ContractError, match="one matrix per"):
        FourierCoefficients.from_blocks(Y, blocks[:-1])
    wrong = list(blocks)
    wrong[-1] = np.zeros((Y.dims[-1] + 1,) * 2, dtype=complex)
    with pytest.raises(ContractError, match="wrong shape"):
        FourierCoefficients.from_blocks(Y, wrong)
    for shape in ((len(S) - 1,), (len(S) + 1,), (1, len(S))):
        with pytest.raises(ContractError, match="spectrum buffer"):
            FourierCoefficients(Y, np.zeros(shape, dtype=complex))


@pytest.mark.parametrize("family,n,label", CORPUS)
def test_multiply_spectra_is_the_blockwise_product(family, n, label):
    S = make_structure(family, n, label)
    Y = induce(S)
    assert len(Y.stacks) == len(set(Y.dims))   # one stack per block size
    rng = np.random.default_rng(76)
    c1, c2 = (fft(random_function(S, rng), Y) for _ in range(2))
    prod = multiply_spectra(c1, c2)
    for a, b, p in zip(c1.blocks, c2.blocks, prod.blocks):
        assert np.array_equal(p, a @ b)


def test_corpus_has_mixed_block_sizes():
    assert sum(len(induce(make_structure(*case)).stacks) > 1
               for case in CORPUS) >= 5


@pytest.mark.parametrize("family,n,label", CORPUS)
def test_fft_blocks_are_the_product_buffer_in_spectrum_order(family, n, label):
    """fft's blocks, byte for byte, are the group stage's products gathered
    through spectrum_at, cut into one stack per block size and put in entry
    order: the block list fft returned before the spectrum was one buffer.
    No call on the way builds the block views."""
    S = make_structure(family, n, label)
    Y = induce(S)
    f = random_function(S, np.random.default_rng(77))
    c = fft(f, Y)
    ifft(c)
    multiply_spectra(c, c)
    assert "blocks" not in vars(c)
    g = fast_zeta(f).values
    products = np.concatenate([(g[ids] @ matrix).ravel()
                               for ids, _, operands in Y.batches
                               for matrix, _, _ in operands])
    spectrum, views = products[Y.spectrum_at], []
    for count, dim in Y.stacks:
        views += list(spectrum[:count * dim * dim].reshape(count, dim, dim))
        spectrum = spectrum[count * dim * dim:]
    expected = [views[k] for k in Y.block_at]
    assert len(c.blocks) == len(expected)
    for got, want in zip(c.blocks, expected):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_repset_mismatch_contract():
    S = make_structure("rook", 2)
    Y1, Y2 = induce(S), induce(S)
    c = fft(random_function(S, np.random.default_rng(71)), Y1)
    with pytest.raises(ContractError):
        multiply_spectra(c, fft(random_function(S, np.random.default_rng(3)), Y2))
