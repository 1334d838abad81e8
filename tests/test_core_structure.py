"""Structural decomposition: D-classes, connectors, subgroups, the
natural order, Mobius values, and the groupoid product law."""
import hashlib

import numpy as np
import pytest

from invsemifft.elements import (PartialMapElement, compose, empty_map,
                                 inverse_of, partial_identity)
from invsemifft.errors import ContractError, DomainError, StructureError
from invsemifft.groups import GroupTable, cyclic_group, symmetric_group
from invsemifft.structure import (GROUPOID, SEMIGROUP, FunctionOnS,
                                  SemigroupStructure, mobius_naive, zeta_naive)

from conftest import generated_semigroups, make_structure, random_function

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
def test_array_product_equals_compose(family, n, label):
    """S.mul and S.inv, read off the row index, equal the Python compose
    and inverse_of on every pair, and S.mul(ids, j) the scalar loop."""
    S = make_structure(family, n, label)
    lg, els, ids = S.label_group, S.elements, np.arange(len(S))
    for j in ids:
        scalar = [S.mul(i, j) for i in ids]
        assert scalar == [S.id_of(compose(el, els[j], lg)) for el in els]
        assert S.mul(ids, j).tolist() == scalar
        assert S.inv(j) == S.id_of(inverse_of(els[j], lg))


def test_missing_product_raises():
    """{0, id on {1,2}, id on {2,3}} builds, but the product of its two
    rank-2 identities, the identity on {2}, is not an element."""
    S = SemigroupStructure.from_elements(
        "custom", 3, [empty_map(3), partial_identity(3, [1, 2]),
                      partial_identity(3, [2, 3])])
    with pytest.raises(StructureError, match="product 2>2 is not in"):
        S.mul(1, 2)
    with pytest.raises(StructureError):
        S.mul([0, 1], 2)


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
        SemigroupStructure.from_elements("custom", n, elements)


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
        SemigroupStructure.from_elements(
            "custom", 2, [empty_map(2), PartialMapElement(2, ((1, 2, 0),))])


def test_missing_inverse_rejected():
    """1 -> 2 with both partial identities but without 2 -> 1: the
    inverse lookup names the missing map."""
    elements = [empty_map(2), partial_identity(2, [1]),
                partial_identity(2, [2]), PartialMapElement(2, ((1, 2, 0),))]
    with pytest.raises(StructureError, match="inverses: 2>1 is missing"):
        SemigroupStructure.from_elements("custom", 2, elements)


def coordinates_by_products(S):
    """dom_id, ran_id and element_coords computed with compose: s^-1 s,
    s s^-1 and y = p_ran^-1 s p_dom, looked up by id."""
    lg = S.label_group
    els = S.elements
    dom_id = [S.id_of(compose(inverse_of(el, lg), el, lg)) for el in els]
    ran_id = [S.id_of(compose(el, inverse_of(el, lg), lg)) for el in els]
    coords = []
    for i, el in enumerate(els):
        dc = next(dc for dc in S.d_classes if ran_id[i] in dc.idempotent_ids)
        p_ran = els[dc.connectors[ran_id[i]]]
        p_dom = els[dc.connectors[dom_id[i]]]
        y = compose(compose(inverse_of(p_ran, lg), el, lg), p_dom, lg)
        coords.append((dc.index, dc.idempotent_ids.index(ran_id[i]),
                       dc.idempotent_ids.index(dom_id[i]),
                       dc.coord_ids[0, 0].tolist().index(S.id_of(y))))
    return dom_id, ran_id, coords


def test_coordinates_equal_products():
    """dom_id, ran_id and the groupoid coordinates, read from the image
    table, equal their compose-based definitions on every CORPUS family
    and on the seeded generated semigroups."""
    cases = [make_structure(*case) for case in CORPUS]
    cases += [SemigroupStructure.from_elements("custom", n, elements)
              for n, elements in generated_semigroups()]
    for S in cases:
        assert (S.dom_id, S.ran_id, S.element_coords) == coordinates_by_products(S)


def rebuild_without_composing(S, monkeypatch):
    """Build S again with compose, inverse_of, S.mul and the subgroup key
    product GroupTable.mul patched to fail, and check the coordinates
    against the normal build."""
    def fail(*args):
        raise AssertionError("set-up composed elements")

    monkeypatch.setattr("invsemifft.elements.compose", fail)
    monkeypatch.setattr("invsemifft.elements.inverse_of", fail)
    monkeypatch.setattr(SemigroupStructure, "mul", fail)
    monkeypatch.setattr(GroupTable, "mul", fail)
    fresh = SemigroupStructure.from_elements(S.family, S.n, S.elements,
                                             S.label_group)
    assert fresh.element_coords == S.element_coords


@pytest.mark.parametrize("family,n,label", [("rook", 5, None),
                                            ("wreath_rook", 3, 2)])
def test_no_compose_outside_the_subgroup_tables(family, n, label, monkeypatch):
    """Set-up reads everything off the image table, the maximal subgroup
    tables included: building a structure calls no compose, inverse_of
    or S.mul, and no key product for a subgroup's identity or inverses."""
    rebuild_without_composing(make_structure(family, n, label), monkeypatch)


def test_structure_never_composes(monkeypatch):
    """The same guard on a non-abelian label group and a generated
    semigroup."""
    n, elements = next(generated_semigroups())
    for S in [make_structure("wreath_rook", 2, symmetric_group(3)),
              SemigroupStructure.from_elements("custom", n, elements)]:
        rebuild_without_composing(S, monkeypatch)


def test_missing_restriction_rejected():
    """The swap on {1, 2} without its restriction to {1}: the sweep's
    step build names the missing map."""
    elements = [empty_map(2), partial_identity(2, [1]),
                partial_identity(2, [1, 2]),
                PartialMapElement(2, ((1, 2, 0), (2, 1, 0)))]
    with pytest.raises(StructureError, match="restriction: 1>2 is missing"):
        SemigroupStructure.from_elements("custom", 2, elements)


def test_labeled_missing_restriction_rejected():
    """The Z2-labeled swap without its restriction to {1}: the missing
    map is read from the masked label row too."""
    elements = [empty_map(2), partial_identity(2, [1]),
                partial_identity(2, [1, 2]),
                PartialMapElement(2, ((1, 2, 1), (2, 1, 1)))]
    with pytest.raises(StructureError, match="restriction: 1>2:1 is missing"):
        SemigroupStructure.from_elements("custom", 2, elements,
                                         label_group=cyclic_group(2))


EMPTY, ONE, BOTH = [0, 0, 0], [0, 1, 0], [0, 1, 2]


@pytest.mark.parametrize("images,labels,label_group,match", [
    ([EMPTY, [0, 1, 1]], [EMPTY, EMPTY], None, "not injective"),
    ([EMPTY, [0, 3, 0]], [EMPTY, EMPTY], None, "image outside"),
    ([EMPTY, [1, 1, 2]], [EMPTY, EMPTY], None, "column 0"),
    ([EMPTY, ONE], [EMPTY, [0, 0, 1]], cyclic_group(2), "map is undefined"),
    ([EMPTY, BOTH], [EMPTY, ONE], None, "no label group"),
    ([EMPTY, BOTH], [EMPTY, [0, 2, 0]], cyclic_group(2), "outside the label"),
    ([EMPTY, BOTH, BOTH], [EMPTY] * 3, None, "duplicate"),
    ([[0, 1], [0, 0]], [[0, 0], [0, 0]], None, "shape"),
    ([EMPTY, BOTH], [EMPTY], None, "shape"),
    ([EMPTY, [0, 1.5, 0]], [EMPTY, EMPTY], None, "integer")],
    ids=["not-injective", "image-over-n", "column-0", "undefined-label",
         "no-label-group", "label-over-h", "duplicate", "width", "shapes",
         "floats"])
def test_malformed_tables_rejected(images, labels, label_group, match):
    """The table constructor checks its input before analysing it."""
    with pytest.raises(StructureError, match=match):
        SemigroupStructure("custom", 2, np.array(images), np.array(labels),
                           label_group)


def structure_digest(S):
    """sha256 over dom_id, ran_id, element_coords, every coord_ids, the
    sweep steps and each subgroup's identity and inverses."""
    h = hashlib.sha256()
    parts = [S.dom_id, S.ran_id, S.element_coords,
             *(dc.coord_ids for dc in S.d_classes),
             *(a for step in S.sweep_steps for a in step),
             *([dc.subgroup.identity, *dc.subgroup.inverse]
               for dc in S.d_classes)]
    for part in parts:
        a = np.asarray(part, dtype="<i8")
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("family,n,label,digest", [
    ("rook", 4, None,
     "c92e010f04f57c6426e47d2e50aa02fb34bea346f45c821250b555647088685e"),
    ("wreath_rook", 3, 2,
     "4747ac9bfbe4c8b646a8f867a322f4e756a3bbb0ba76fd83be48b7746d2c8604"),
    ("wreath_rook", 2, "S3",
     "a5144588f3c83b92819c402ea9b4a63c7ee468b4c199696c068797618c731c84"),
    ("rotation", 7, None,
     "82dbf9c2d4d052db441e0daba2a7db64b9e97b7561fc02efd259d869951e7ba0"),
    ("cyclic_shift", 5, None,
     "9f5cc6212f825b9bf2bb630921869995ec2582203efcc270416e5bb683a655a6"),
    ("chain", 70, None,
     "18f2ce2fecef9c259d7c8424552621e3e0cd9e460c817d9c2b870060320fde2b"),
    ("planar_rook", 5, None,
     "c217e3b33d9ba82194684e552433a12ca3f79c2fa9b6febd61fe48fd08969683"),
    ("rook", 5, None,
     "1551c8dc395177189e12d98abcfca3d1148c1b5c456828cb566b85a9109ba539")])
def test_structure_digest(family, n, label, digest):
    """The structure's integer outputs, byte for byte, as recorded before
    the subgroup tables and the sweep moved onto the image table."""
    lg = symmetric_group(3) if label == "S3" else label
    assert structure_digest(make_structure(family, n, lg)) == digest


@pytest.mark.parametrize("family,n,label,digest", [
    ("rook", 4, None,
     "8e8657e7748b8f776852fa0df544c1125b05d50f1303b7587083e39e11a57121"),
    ("wreath_rook", 3, 2,
     "66aba40f7b0c3f66081dcc819ab72855209584072b0da00d72e4ffcea26c8f70"),
    ("wreath_rook", 2, "S3",
     "d9471e849901a41d045a1d3270a1301c47068018c49eef744897e086ec8bbb72"),
    ("rotation", 7, None,
     "3bd9acd2d0ed68b9edbf082a95bc4bfddfee9ece320b307aa3c9f7827a997989"),
    ("cyclic_shift", 5, None,
     "051c8c484fb510222c84d86ef87804eab5299d99eb32a9333a8ef3931985cd6f"),
    ("chain", 70, None,
     "fcee310d339b78fcba1e62c4e2ad59d117e4626ab16c7555cd44d2c89fa39629"),
    ("planar_rook", 5, None,
     "ccc7a8d858ad0745a61dcfea1d26597ac3045852be1d0d409cc91494e16f967c"),
    ("rook", 5, None,
     "4d33794e5b4b1d311a44d7b65bc73f8d61ad8638b17a957dcaa9c0df49e79d04")])
def test_table_digest(family, n, label, digest):
    """The image and label tables, dtype, shape and bytes, as recorded
    before the families were enumerated straight into them."""
    lg = symmetric_group(3) if label == "S3" else label
    S = make_structure(family, n, lg)
    h = hashlib.sha256()
    for a in (S.images, S.labels):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("family,n,label", CORPUS)
def test_subgroup_identity_and_inverses(family, n, label):
    """Each maximal subgroup's identity is its class's representative
    idempotent, and its inverses are the semigroup's."""
    S = make_structure(family, n, label)
    for dc in S.d_classes:
        g, ids = dc.subgroup, dc.coord_ids[0, 0].tolist()
        k = S.elements[dc.rep_idempotent].rank
        assert g.keys[g.identity] == (tuple(range(1, k + 1)), (0,) * k)
        assert ids[g.identity] == dc.rep_idempotent
        for x, key in enumerate(ids):
            assert g.inverse[x] == ids.index(S.inv(key))


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
            y_id = dc.coord_ids[0, 0, y]
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
