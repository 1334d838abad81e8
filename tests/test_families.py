"""Family builders: element counts, membership predicates, specs."""
import math
import time

import numpy as np
import pytest

from invsemifft.elements import PartialMapElement, empty_map
from invsemifft.errors import (ContractError, DomainError, SizeCapError,
                               StructureError)
from invsemifft.families import FAMILIES, FamilySpec, build, predicted_size
from invsemifft.groups import GroupTable, cyclic_group, symmetric_group
from invsemifft.semigroup_fourier import fft, ifft, induce

from conftest import (is_cyclic_shift, is_partial_rotation, make_structure,
                      random_function, rot_orbit_size)


def test_rook_counts():
    # closed form: sum_k C(n,k)^2 k!
    assert [predicted_size(FamilySpec("rook", n)) for n in range(5)] == \
        [1, 2, 7, 34, 209]
    assert len(make_structure("rook", 4)) == 209


def test_planar_rook_counts():
    assert [predicted_size(FamilySpec("planar_rook", n)) for n in range(5)] == \
        [1, 2, 6, 20, 70]
    assert len(make_structure("planar_rook", 4)) == 70
    # central binomial: sum_k C(n,k)^2 = C(2n,n)
    assert predicted_size(FamilySpec("planar_rook", 6)) == math.comb(12, 6)


def test_cyclic_shift_counts():
    assert [predicted_size(FamilySpec("cyclic_shift", n)) for n in range(5)] == \
        [1, 2, 7, 31, 141]
    assert len(make_structure("cyclic_shift", 4)) == 141


def test_rotation_counts():
    assert [predicted_size(FamilySpec("rotation", n)) for n in range(1, 5)] == \
        [2, 7, 22, 61]
    assert len(make_structure("rotation", 4)) == 61
    assert predicted_size(FamilySpec("rotation", 10)) == 10 * 2 ** 10 - 9


def test_wreath_counts():
    assert predicted_size(FamilySpec("wreath_rook", 2, cyclic_group(2))) == 17
    assert predicted_size(FamilySpec("wreath_rook", 3, cyclic_group(2))) == 139
    assert len(make_structure("wreath_rook", 3, 2)) == 139


def test_chain_counts():
    S = make_structure("chain", 5)
    assert len(S) == 5
    # nested partial identities; bottom is rank 1, top is the full identity
    assert [e.rank for e in S.elements] == [1, 2, 3, 4, 5]
    assert all(e.is_partial_identity() for e in S.elements)


def laguerre_size(n, h):
    """sum_k C(n,k)^2 k! h^k by its three-term (Laguerre) recurrence
    a_m = ((2m-1)h + 1) a_{m-1} - (m-1)^2 h^2 a_{m-2}."""
    a, b = 1, 1 + h
    for m in range(2, n + 1):
        a, b = b, ((2 * m - 1) * h + 1) * b - (m - 1) ** 2 * h * h * a
    return b if n else a


@pytest.mark.parametrize("family,n,size", [
    ("chain", 10 ** 6, 10 ** 6),
    ("rotation", 3000, 3000 * 2 ** 3000 - 2999),
    ("planar_rook", 6000, math.comb(12000, 6000)),
    ("cyclic_shift", 6000, 1 + 6000 * math.comb(11999, 5999)),
    ("rook", 3000, laguerre_size(3000, 1)),
    ("wreath_rook", 1000, laguerre_size(1000, 2))],
    ids=["chain", "rotation", "planar_rook", "cyclic_shift", "rook",
         "wreath_rook"])
def test_closed_form_sizes_return_at_once(family, n, size):
    """Every size comes from a closed form or a term recurrence, so checking
    a large n against the cap cannot hang.  wreath_rook has labels Z2."""
    spec = FamilySpec(family, n,
                      cyclic_group(2) if family == "wreath_rook" else None)
    t0 = time.perf_counter()
    assert predicted_size(spec) == size
    assert time.perf_counter() - t0 < 0.1


def test_sizes_equal_their_defining_sums():
    """predicted_size equals the sum it stands for, exactly, for n <= 30."""
    C = math.comb
    sums = {
        "rook": lambda n, h: sum(C(n, k) ** 2 * math.factorial(k)
                                 for k in range(n + 1)),
        "planar_rook": lambda n, h: sum(C(n, k) ** 2 for k in range(n + 1)),
        "cyclic_shift": lambda n, h: 1 + sum(C(n, k) ** 2 * k
                                             for k in range(1, n + 1)),
        # the empty map, and each of the n rotations on each nonempty subset
        "rotation": lambda n, h: 1 + sum(C(n, k) * n for k in range(1, n + 1)),
        "wreath_rook": lambda n, h: sum(C(n, k) ** 2 * math.factorial(k) * h ** k
                                        for k in range(n + 1)),
        "chain": lambda n, h: n,
    }
    assert sorted(sums) == sorted(FAMILIES)
    for family, total in sums.items():
        labels = ([cyclic_group(2), cyclic_group(3), symmetric_group(3)]
                  if family == "wreath_rook" else [None])
        for lg in labels:
            h = len(lg) if lg is not None else 1
            for n in range(1 if family in ("rotation", "chain") else 0, 31):
                assert predicted_size(FamilySpec(family, n, lg)) == total(n, h)
    assert all(laguerre_size(n, h) == sums["wreath_rook"](n, h)
               for n in range(31) for h in (1, 2, 6))


def test_cyclic_shift_membership():
    assert is_cyclic_shift(empty_map(4))
    assert is_cyclic_shift(PartialMapElement(4, ((1, 2, 0), (3, 4, 0))))
    # sorted domain (1,3) onto rotated sorted range (4,2): 1->4, 3->2
    assert is_cyclic_shift(PartialMapElement(4, ((1, 4, 0), (3, 2, 0))))
    # order-reversal is not a cyclic shift at rank 3
    assert not is_cyclic_shift(
        PartialMapElement(3, ((1, 3, 0), (2, 2, 0), (3, 1, 0))))
    S = make_structure("cyclic_shift", 4)
    assert all(is_cyclic_shift(e) for e in S.elements)


def test_rotation_membership():
    assert is_partial_rotation(empty_map(5))
    assert is_partial_rotation(PartialMapElement(4, ((1, 2, 0), (4, 1, 0))))
    assert not is_partial_rotation(PartialMapElement(4, ((1, 2, 0), (2, 4, 0))))
    S = make_structure("rotation", 5)
    assert all(is_partial_rotation(e) for e in S.elements)


def test_rotation_orbit_size():
    assert rot_orbit_size(PartialMapElement(4, ((1, 1, 0), (3, 3, 0))), 4) == 2
    assert rot_orbit_size(PartialMapElement(4, ((2, 2, 0),)), 4) == 4
    assert rot_orbit_size(PartialMapElement(6, tuple((i, i, 0)
                                                     for i in (1, 3, 5))), 6) == 2


def test_spec_validation():
    with pytest.raises(DomainError):
        FamilySpec("rook", 2, cyclic_group(2))
    with pytest.raises(DomainError):
        FamilySpec("wreath_rook", 2)
    with pytest.raises(DomainError):
        FamilySpec("chain", 0)
    with pytest.raises(DomainError):
        FamilySpec("mystery", 2)


def test_spec_json_round_trip():
    spec = FamilySpec("wreath_rook", 2, cyclic_group(3))
    again = FamilySpec.from_json(spec.to_json())
    assert again.family == "wreath_rook" and again.n == 2
    assert len(again.label_group) == 3
    plain = FamilySpec.from_json({"family": "rotation", "n": 5})
    assert plain == FamilySpec("rotation", 5)


@pytest.mark.parametrize("n", [3.7, 2.0, "3", True])
def test_spec_json_needs_an_integer_n(n):
    with pytest.raises(ContractError):
        FamilySpec.from_json({"family": "rook", "n": n})


def test_size_cap():
    with pytest.raises(SizeCapError):
        build(FamilySpec("rook", 4), cap=100)
    with pytest.raises(SizeCapError, match="at least 2"):
        build(FamilySpec("rotation", 20000))


def test_build_cache_keys_on_the_label_table():
    """Two unnamed label groups of different orders build two semigroups."""
    z2 = GroupTable([0, 1], lambda a, b: (a + b) % 2)
    z3 = GroupTable([0, 1, 2], lambda a, b: (a + b) % 3)
    assert len(build(FamilySpec("wreath_rook", 2, z2))) == 17
    assert len(build(FamilySpec("wreath_rook", 2, z3))) == 31


@pytest.mark.parametrize("family,n,label", [
    ("rook", 4, None), ("planar_rook", 4, None), ("cyclic_shift", 4, None),
    ("rotation", 5, None), ("wreath_rook", 2, 2), ("chain", 5, None)])
def test_pipeline_builds_no_elements(family, n, label, monkeypatch):
    """build, induce and an fft -> ifft round trip work on the image
    table alone: none of them constructs a PartialMapElement."""
    def fail(self):
        raise AssertionError("a PartialMapElement was constructed")

    monkeypatch.setattr(PartialMapElement, "__post_init__", fail)
    S = make_structure(family, n, label)
    f = random_function(S, np.random.default_rng(3))
    back = ifft(fft(f, induce(S)))
    assert np.abs(back.values - f.values).max() < 1e-9


def test_restriction_closure():
    """Every restriction of a family element stays in the family —
    the property the fast sweep relies on."""
    from itertools import combinations
    for family, n, label in [("planar_rook", 4, None),
                             ("cyclic_shift", 4, None),
                             ("rotation", 4, None), ("wreath_rook", 2, 2)]:
        S = make_structure(family, n, label)
        for e in S.elements:
            for r in range(e.rank):
                for sub in combinations(e.pairs, r):
                    S.id_of(PartialMapElement(n, sub))  # raises if absent


def test_cyclic_shift_subgroups_are_cyclic_of_rank_order():
    for n in (3, 4, 5):
        S = make_structure("cyclic_shift", n)
        for dc in S.d_classes:
            k = S.elements[dc.rep_idempotent].rank
            assert len(dc.subgroup) == max(1, k)
            assert dc.subgroup.generator_if_cyclic() is not None


def test_rotation_d_relation_matches_range_orbits():
    n = 6
    S = make_structure("rotation", 6)

    def orbit(fs):
        return min(tuple(sorted((i - 1 + j) % n + 1 for i in fs))
                   for j in range(n))

    for dc in S.d_classes:
        keys = {orbit(S.elements[i].range) for i in dc.element_ids}
        assert len(keys) == 1
    all_keys = [orbit(S.elements[dc.rep_idempotent].range)
                for dc in S.d_classes]
    assert len(set(all_keys)) == len(S.d_classes)


def test_rotation_poset_is_glued_boolean_copies():
    for n in (3, 4, 5):
        S = make_structure("rotation", n)
        assert len(S) == n * 2 ** n - n + 1
        bottoms = [i for i, e in enumerate(S.elements) if e.rank == 0]
        assert len(bottoms) == 1
        tops = [i for i, e in enumerate(S.elements) if e.rank == n]
        assert len(tops) == n
        seen = set()
        for t in tops:
            ideal = set(S.downsets()[t])
            assert len(ideal) == 2 ** n
            assert seen & ideal <= set(bottoms)
            seen |= ideal
        assert len(seen) == len(S)


def test_nonabelian_labels_still_build():
    S = make_structure("wreath_rook", 1, symmetric_group(3))
    assert len(S) == 7  # empty map plus six labeled 1>1 maps
