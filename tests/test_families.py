"""Family builders: element counts, membership predicates, specs."""
import math
import time

import pytest

from invsemifft.elements import PartialMapElement, empty_map
from invsemifft.errors import DomainError, SizeCapError, StructureError
from invsemifft.families import (FamilySpec, build, is_cyclic_shift,
                                 is_partial_rotation, predicted_size,
                                 rot_orbit_size)
from invsemifft.groups import cyclic_group, symmetric_group

from conftest import make_structure


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


@pytest.mark.parametrize("family,n,size", [
    ("chain", 10 ** 6, 10 ** 6),
    ("rotation", 3000, 3000 * 2 ** 3000 - 2999)], ids=["chain", "rotation"])
def test_closed_form_sizes_return_at_once(family, n, size):
    """chain and rotation sizes take no binomials, so checking a large n
    against the cap cannot hang."""
    spec = FamilySpec(family, n)
    t0 = time.perf_counter()
    assert predicted_size(spec) == size
    assert time.perf_counter() - t0 < 0.1


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


def test_size_cap():
    with pytest.raises(SizeCapError):
        build(FamilySpec("rook", 4), cap=100)
    with pytest.raises(SizeCapError, match="at least 2"):
        build(FamilySpec("rotation", 20000))


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
