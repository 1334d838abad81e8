"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they go.
"""
import math
import time

import numpy as np
import pytest

from invsemifft.elements import identity_map
from invsemifft.families import FamilySpec, build, predicted_size
from invsemifft.fast_transforms import OpCounter, fast_mobius, fast_zeta
from invsemifft.group_harmonics import (irreps_cyclic, irreps_symmetric,
                                        irreps_wreath_abelian, validate_repset)
from invsemifft.groups import cyclic_group
from invsemifft.semigroup_fourier import (ConjugatedRepSet, convolve_fft,
                                          convolve_naive, fft, ifft, induce,
                                          invert_equivalent_reps,
                                          invert_groupoid_local,
                                          invert_semigroup_basis,
                                          invert_uniform, multiply_spectra,
                                          naive_ft)
from invsemifft.structure import SEMIGROUP, FunctionOnS, zeta_naive

from conftest import make_structure, random_function, rot_orbit_size


def check(num, name, ok):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def spectrum_vec(c):
    return np.concatenate([b.ravel() for b in c.blocks])


COUNT_CASES = [("rook", 4, None, 209), ("planar_rook", 4, None, 70),
               ("cyclic_shift", 4, None, 141), ("rotation", 4, None, 61),
               ("wreath_rook", 3, 2, 139)]

PIPELINE_CASES = [("rook", 3, None), ("planar_rook", 4, None),
                  ("cyclic_shift", 4, None), ("rotation", 5, None),
                  ("wreath_rook", 2, 2)]


def test_criterion_01_element_counts():
    ok = True
    for family, n, label, expect in COUNT_CASES:
        lg = cyclic_group(label) if label else None
        t0 = time.perf_counter()
        S = build(FamilySpec(family, n, lg))
        elapsed = time.perf_counter() - t0
        ok &= (len(S) == expect == predicted_size(FamilySpec(family, n, lg)))
        ok &= elapsed < 1.0
    check(1, "element counts match closed forms", ok)


def test_criterion_02_dimension_identity():
    ok = True
    for family, n, label, expect in COUNT_CASES:
        S = make_structure(family, n, label)
        Y = induce(S)
        ok &= (sum(d * d for d in Y.dims) == len(S) == expect)
    check(2, "induced dimensions square-sum to |S|", ok)


def test_criterion_03_fft_matches_oracle():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for family, n, label in PIPELINE_CASES:
        S = make_structure(family, n, label)
        Y = induce(S)
        for _ in range(100):
            f = random_function(S, rng)
            a = spectrum_vec(fft(f, Y))
            b = spectrum_vec(naive_ft(f, Y))
            worst = max(worst, np.abs(a - b).max() / max(1.0, np.abs(b).max()))
    check(3, f"fft equals naive transform (max rel err {worst:.2e})",
          worst <= 1e-9)


def test_criterion_04_round_trip():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for family, n, label in PIPELINE_CASES:
        S = make_structure(family, n, label)
        Y = induce(S)
        for _ in range(100):
            f = random_function(S, rng)
            back = ifft(fft(f, Y))
            worst = max(worst, np.abs(back.values - f.values).max()
                        / max(1.0, np.abs(f.values).max()))
    check(4, f"ifft inverts fft (max rel err {worst:.2e})", worst <= 1e-9)


def test_criterion_05_formula_concordance():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for family, n, label in [("rook", 2, None), ("cyclic_shift", 3, None),
                             ("rotation", 3, None)]:
        S = make_structure(family, n, label)
        Y = induce(S)
        X = ConjugatedRepSet.random(Y, seed=2024)
        for _ in range(20):
            f = random_function(S, rng)
            c = fft(f, Y)
            g = zeta_naive(f)
            back = ifft(c)
            for s in range(len(S)):
                v1 = invert_groupoid_local(c, s)
                v2 = invert_equivalent_reps(c, s, X)
                v3 = invert_uniform(c, s, X)
                v4 = invert_semigroup_basis(c, s, X)
                worst = max(worst, abs(v1 - g.values[s]), abs(v2 - v1),
                            abs(v3 - v1), abs(v4 - back.values[s]))
    check(5, f"four inversion formulas agree (max err {worst:.2e})",
          worst <= 1e-8)


def test_criterion_06_convolution_theorem():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for family, n in [("rook", 3), ("rotation", 4)]:
        S = make_structure(family, n)
        Y = induce(S)
        for _ in range(100):
            f, g = random_function(S, rng), random_function(S, rng)
            ref = convolve_naive(f, g)
            scale = max(1.0, np.abs(ref.values).max())
            worst = max(worst, np.abs(convolve_fft(f, g, Y).values
                                      - ref.values).max() / scale)
            lhs = spectrum_vec(fft(ref, Y))
            rhs = spectrum_vec(multiply_spectra(fft(f, Y), fft(g, Y)))
            worst = max(worst,
                        np.abs(lhs - rhs).max() / max(1.0, np.abs(lhs).max()))
    check(6, f"convolution theorem (max rel err {worst:.2e})", worst <= 1e-9)


def test_criterion_07_fast_transform_scaling():
    ok = True
    ratios = []
    for n in (3, 4, 5):
        S = make_structure("rook", n)
        f = random_function(S, np.random.default_rng(n))
        c = OpCounter()
        fast_zeta(f, c)
        ok &= c.additions <= 2 * n * n * len(S)
        ratios.append(c.additions / (n * n * len(S)))
    ok &= all(ratios[i + 1] <= 2 * ratios[i] for i in range(len(ratios) - 1))
    for n in range(4, 11):
        S = make_structure("rotation", n)
        f = random_function(S, np.random.default_rng(n))
        c = OpCounter()
        fast_zeta(f, c)
        ok &= c.total <= n * n * 2 ** n + n + 1
    check(7, "operation counts within the fast-transform budgets", ok)


def test_criterion_08_mobius_closed_form():
    ok = True
    for family in ("rook", "planar_rook", "cyclic_shift", "rotation"):
        S = make_structure(family, 3)
        for s in range(len(S)):
            for t in S.upsets()[s]:
                diff = S.elements[t].rank - S.elements[s].rank
                ok &= (S.mobius(s, t) == (-1) ** diff)
    check(8, "Mobius function is (-1)^(rank difference)", ok)


def test_criterion_09_rotation_structure():
    n = 6
    S = make_structure("rotation", n)
    # orbit count of subsets of an n-cycle under rotation
    burnside = sum(_phi(d) * 2 ** (n // d) for d in range(1, n + 1)
                   if n % d == 0) // n
    ok = (len(S.d_classes) == burnside == 14)
    for dc in S.d_classes:
        e = S.elements[dc.rep_idempotent]
        if e.rank == 0:
            ok &= (dc.num_idempotents == 1 and len(dc.subgroup) == 1)
            continue
        j = rot_orbit_size(e, n)
        ok &= (dc.num_idempotents == j)
        ok &= (len(dc.subgroup) == n // j)
        ok &= (dc.subgroup.generator_if_cyclic() is not None)
    check(9, "rotation monoid class structure", ok)


def _phi(d):
    return sum(1 for x in range(1, d + 1) if math.gcd(x, d) == 1)


def test_criterion_10_chain_linear_cost():
    ok = True
    for n in (1, 2, 3, 5, 8):
        S = make_structure("chain", n)
        f = FunctionOnS(S, SEMIGROUP, np.arange(1, n + 1, dtype=float))
        c1, c2 = OpCounter(), OpCounter()
        g = fast_zeta(f, c1)
        back = fast_mobius(g, c2)
        ok &= (c1.additions == n - 1 and c2.additions == n - 1)
        ok &= (c1.multiplications == 0 and c2.multiplications == 0)
        ok &= np.array_equal(back.values, f.values)
    check(10, "chain transforms cost exactly n-1 additions", ok)


def test_criterion_11_representation_gates():
    ok = True
    try:
        for k in (1, 2, 3, 5, 8, 12, 24):
            validate_repset(irreps_cyclic(k))
        for k in range(1, 65):
            j = np.arange(k)
            built = np.stack([r.matrices[:, 0, 0]
                              for r in irreps_cyclic(k).reps])
            chars = np.exp(2j * np.pi * np.outer(j, j) / k)
            add = (j[:, None] + j[None, :]) % k
            ok &= bool(np.abs(built - chars).max() < 1e-9)
            for c in chars:
                ok &= bool(np.abs(c[add] - np.outer(c, c)).max() < 1e-9)
            ok &= bool(np.abs(chars @ chars.conj().T / k
                              - np.eye(k)).max() < 1e-9)
        for k in range(7):
            validate_repset(irreps_symmetric(k))
        for k in (1, 2, 3):
            validate_repset(irreps_wreath_abelian(cyclic_group(2), k))
    except Exception:
        ok = False
        raise
    finally:
        check(11, "representation sets pass the three gates", ok)
