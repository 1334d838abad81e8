"""Structural decomposition: D-classes, connectors, subgroups, the
natural order, Mobius values, and the groupoid product law."""
import numpy as np
import pytest

from invsemifft.elements import (PartialMapElement, compose, empty_map,
                                 inverse_of, partial_identity)
from invsemifft.errors import ContractError, DomainError, StructureError
from invsemifft.structure import (GROUPOID, SEMIGROUP, FunctionOnS,
                                  SemigroupStructure, mobius_naive, zeta_naive)

from conftest import make_structure, random_function

CORPUS = [("rook", 3, None), ("planar_rook", 3, None),
          ("cyclic_shift", 3, None), ("rotation", 4, None),
          ("wreath_rook", 2, 2), ("chain", 4, None)]


@pytest.mark.parametrize("family,n,label", CORPUS)
def test_closure_and_inverses(family, n, label):
    S = make_structure(family, n, label)
    ids = range(len(S))
    for i in ids:
        assert S.mul(i, S.mul(S.inv(i), i)) == i
        assert S.inv(S.inv(i)) == i
    # spot-check closure on a grid of products
    step = max(1, len(S) // 12)
    for i in range(0, len(S), step):
        for j in range(0, len(S), step):
            S.mul(i, j)  # raises if the product escapes the family


@pytest.mark.parametrize("family,n,label", CORPUS)
def test_order_definitions_agree(family, n, label):
    """Pair containment matches the idempotent-multiple definition."""
    S = make_structure(family, n, label)
    lg = S.label_group
    for t in range(len(S)):
        te = S.elements[t]
        restrictor = partial_identity(S.n, te.range)
        for s in range(len(S)):
            alg = compose(restrictor, S.elements[s], lg) == te
            assert S.leq(t, s) == alg


@pytest.mark.parametrize("family,n,label", CORPUS)
def test_dclass_partition(family, n, label):
    S = make_structure(family, n, label)
    seen = []
    for dc in S.d_classes:
        seen.extend(dc.element_ids)
        r, g = dc.num_idempotents, len(dc.subgroup)
        assert len(dc.element_ids) == r * r * g
        # idempotents of the class are exactly its rank-matching identities
        for e in dc.idempotent_ids:
            assert S.mul(e, e) == e
        # connectors align every idempotent with the representative
        for e, p in dc.connectors.items():
            assert S.dom_id[p] == dc.rep_idempotent and S.ran_id[p] == e
        dc.subgroup.validate()
    assert sorted(seen) == list(range(len(S)))


@pytest.mark.parametrize("family,n,label", CORPUS)
def test_connectors_are_the_family_bijections(family, n, label):
    """The first element from e_k onto e is the order-preserving bijection,
    or on rotation the restriction of the least rotation that fits."""
    S = make_structure(family, n, label)
    for dc in S.d_classes:
        base = sorted(S.elements[dc.rep_idempotent].domain)
        for e, p in dc.connectors.items():
            dst = sorted(S.elements[e].domain)
            if family == "rotation":
                m = next(m for m in range(n)
                         if sorted((i - 1 + m) % n + 1 for i in base) == dst)
                dst = [(i - 1 + m) % n + 1 for i in base]
            assert S.elements[p] == PartialMapElement(
                n, tuple((i, j, 0) for i, j in zip(base, dst)))


@pytest.mark.parametrize("n", [2, 4])
def test_ambient_size_mismatch_rejected(n):
    elements = [empty_map(3), partial_identity(3, [1, 2, 3])]
    with pytest.raises(StructureError, match="act on"):
        SemigroupStructure("custom", n, elements)


@pytest.mark.parametrize("family,n,label", CORPUS)
def test_dom_ran_ids_are_products(family, n, label):
    """dom_id / ran_id, read from the pairs, equal s^-1 s and s s^-1."""
    S = make_structure(family, n, label)
    lg = S.label_group
    for i, el in enumerate(S.elements):
        inv = inverse_of(el, lg)
        assert S.dom_id[i] == S.id_of(compose(inv, el, lg))
        assert S.ran_id[i] == S.id_of(compose(el, inv, lg))


def test_domain_without_idempotent_rejected():
    # 1 -> 2 without its inverse: no idempotent has the domain {1}
    with pytest.raises(StructureError, match="no idempotent"):
        SemigroupStructure("custom", 2,
                           [empty_map(2), PartialMapElement(2, ((1, 2, 0),))])


@pytest.mark.parametrize("family,n,label", CORPUS)
def test_subgroup_identity_and_inverses(family, n, label):
    """Each maximal subgroup's identity is its class's representative
    idempotent, and its inverses are the semigroup's."""
    S = make_structure(family, n, label)
    for dc in S.d_classes:
        g = dc.subgroup
        assert g.keys[g.identity] == dc.rep_idempotent
        for x, key in enumerate(g.keys):
            assert g.inverse[x] == dc.local_of[S.inv(key)]


@pytest.mark.parametrize("family,n,label",
                         [("rook", 3, None), ("cyclic_shift", 3, None),
                          ("rotation", 3, None), ("wreath_rook", 2, 2)])
def test_groupoid_product_law(family, n, label):
    """Product of groupoid basis elements: the product element's basis
    vector when dom(s) = ran(t), zero otherwise — checked faithfully on
    the induced matrices."""
    from invsemifft.semigroup_fourier import ConjugatedRepSet, induce

    S = make_structure(family, n, label)
    Y = induce(S)
    X = ConjugatedRepSet.identity(Y)
    mats = [[X.groupoid_matrix(e, s) for e in Y.entries]
            for s in range(len(S))]
    for s in range(len(S)):
        for t in range(len(S)):
            if S.dom_id[s] == S.ran_id[t]:
                expect = mats[S.mul(s, t)]
            else:
                expect = [np.zeros_like(m) for m in mats[0]]
            for a, b, e in zip(mats[s], mats[t], expect):
                assert np.abs(a @ b - e).max() < 1e-10


def test_rook3_class_shape():
    S = make_structure("rook", 3)
    assert [len(dc.element_ids) for dc in S.d_classes] == [1, 9, 18, 6]
    assert [dc.num_idempotents for dc in S.d_classes] == [1, 3, 3, 1]
    assert [len(dc.subgroup) for dc in S.d_classes] == [1, 1, 2, 6]


def test_coords_reconstruct_elements():
    for family, n, label in CORPUS:
        S = make_structure(family, n, label)
        for i in range(len(S)):
            k, a, b, y = S.element_coords[i]
            dc = S.d_classes[k]
            p_a = dc.connectors[dc.idempotent_ids[a]]
            p_b = dc.connectors[dc.idempotent_ids[b]]
            y_id = dc.subgroup.keys[y]
            assert S.mul(S.mul(p_a, y_id), S.inv(p_b)) == i


@pytest.mark.parametrize("family,n,label",
                         [("rook", 3, None), ("planar_rook", 3, None),
                          ("cyclic_shift", 3, None), ("rotation", 3, None)])
def test_mobius_closed_form(family, n, label):
    S = make_structure(family, n, label)
    for s in range(len(S)):
        for t in S.upsets()[s]:
            diff = S.elements[t].rank - S.elements[s].rank
            assert S.mobius(s, t) == (-1) ** diff


@pytest.mark.parametrize("family,n,label", CORPUS)
def test_idempotents_are_partial_identities(family, n, label):
    S = make_structure(family, n, label)
    for i, e in enumerate(S.elements):
        assert (S.mul(i, i) == i) == e.is_partial_identity()


def test_mobius_closed_form_wreath():
    S = make_structure("wreath_rook", 2, 2)
    for s in range(len(S)):
        for t in S.upsets()[s]:
            diff = S.elements[t].rank - S.elements[s].rank
            assert S.mobius(s, t) == (-1) ** diff


def test_mobius_requires_comparable():
    S = make_structure("rook", 2)
    a = S.id_of(S.elements[1])
    incomparable = [t for t in range(len(S))
                    if not S.leq(1, t) and not S.leq(t, 1)]
    with pytest.raises(DomainError):
        S.mobius(1, incomparable[0])


def test_zeta_example_rook2():
    S = make_structure("rook", 2)
    f = FunctionOnS(S, SEMIGROUP, np.ones(len(S)))
    g = zeta_naive(f)
    by_rank = {}
    for i, e in enumerate(S.elements):
        by_rank.setdefault(e.rank, set()).add(g.values[i].real)
    assert by_rank[0] == {7.0}   # everything lies above the empty map
    assert by_rank[1] == {2.0}   # each rank-1 map extends to one rank-2 map
    assert by_rank[2] == {1.0}


@pytest.mark.parametrize("family,n,label", CORPUS)
def test_zeta_mobius_inverse(family, n, label):
    S = make_structure(family, n, label)
    rng = np.random.default_rng(5)
    f = random_function(S, rng)
    assert np.abs(mobius_naive(zeta_naive(f)).values - f.values).max() < 1e-12


def test_function_contract():
    S = make_structure("rook", 2)
    with pytest.raises(ContractError):
        FunctionOnS(S, SEMIGROUP, np.zeros(3))
    with pytest.raises(ContractError):
        FunctionOnS(S, "fourier", np.zeros(len(S)))
    with pytest.raises(ContractError):
        zeta_naive(FunctionOnS(S, GROUPOID, np.zeros(len(S))))
