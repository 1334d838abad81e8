"""Structural analysis of a finite inverse semigroup of partial maps.

A semigroup enters SemigroupStructure as its image table: images[s, x] =
s(x) and labels[s, x] its label, both 0 where s(x) is undefined, and
column 0 all 0 (from_elements builds the tables from PartialMapElements).
The rows are checked, sorted by rank and by their (i, s(i), label) pairs,
and indexed once by their bytes: every element lookup is one searchsorted
on that row index.  Every part of the decomposition is read off the
tables, so any inverse semigroup of partial maps is analysed the same
way: idempotents, dom / ran ids, inverses (a set not closed under them is
rejected) and Green's D-classes; the connector of idempotent e, the first
element in S's order from the class representative onto e; each maximal
subgroup as a table of labeled permutations of dom(e_k), given its
identity e_k and the semigroup's inverses; the groupoid coordinates; and
the sweep steps along the closures of idempotent domains, whose
restrictions are masked rows (see _sweep_steps).  Set-up calls no compose
and builds no elements: `elements` is a view decoded from the rows on
demand, for the oracles and the JSON boundary.  This module also hosts
the quadratic zeta/Mobius reference transforms used as oracles.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .elements import PartialMapElement, encode, natural_leq
from .errors import ContractError, DomainError, StructureError
from .groups import GroupTable, wreath_mul_key

@dataclass
class DClassStructure:
    index: int
    element_ids: list[int]
    idempotent_ids: list[int]          # sorted ascending
    rep_idempotent: int                # e_k
    connectors: dict[int, int]         # idempotent id -> p_e id
    # keys are (perm, labels): the action on sorted dom(e_k) in positions
    # 1..k, not element ids; the ids are coord_ids[0, 0]
    subgroup: GroupTable
    # (ran position, dom position, local subgroup index) -> element id
    coord_ids: np.ndarray | None = None

    @property
    def num_idempotents(self) -> int:
        return len(self.idempotent_ids)


class SemigroupStructure:
    def __init__(self, family: str, n: int, images: np.ndarray,
                 labels: np.ndarray, label_group: GroupTable | None = None):
        self.family = family
        self.n = n
        self.label_group = label_group
        self.images, self.labels = _sorted_tables(
            n, 1 if label_group is None else len(label_group),
            np.asarray(images), np.asarray(labels))
        # label_product[a, b] = a b in the label group
        self.label_product = (np.zeros((1, 1), dtype=np.intp)
                              if label_group is None else label_group.table)
        # the row index: each row's image and label bytes, and their order
        rows = np.concatenate([self.images, self.labels], 1)
        self.row_bytes = rows.view(f"V{rows.strides[0]}").ravel()
        self.row_order = np.argsort(self.row_bytes)
        self._mobius_memo: dict[tuple[int, int], int] = {}
        self._analyze()
        # sweep_steps[i-1]: the (sources, targets) of step i, sorted by (s, t).
        self.sweep_steps: list[tuple[np.ndarray, np.ndarray]] = \
            self._sweep_steps()

    @classmethod
    def from_elements(cls, family: str, n: int,
                      elements: Sequence[PartialMapElement],
                      label_group: GroupTable | None = None
                      ) -> "SemigroupStructure":
        """The structure of a closed set of user-built elements."""
        if any(e.ambient_size != n for e in elements):
            raise StructureError(f"every element must act on {{1..{n}}}")
        return cls(family, n, *_tables_of(n, elements), label_group)

    @functools.cached_property
    def elements(self) -> list[PartialMapElement]:
        """The elements, decoded from the rows on demand."""
        return _maps(self.n, self.images, self.labels)

    # -- arithmetic on ids, read off the row index ---------------------------

    def __len__(self) -> int:
        return len(self.images)

    def _find_maps(self, img: np.ndarray, lab: np.ndarray,
                   missing: str | None = None) -> np.ndarray:
        """The id of the element with each image row and label row, or -1;
        given `missing`, a StructureError naming the first row not found."""
        key = np.concatenate([img, lab], 1).astype(self.images.dtype).view(
            self.row_bytes.dtype).ravel()
        at = np.searchsorted(self.row_bytes, key, sorter=self.row_order)
        ids = self.row_order[np.minimum(at, len(self) - 1)]
        ids = np.where(self.row_bytes[ids] == key, ids, -1)
        if missing is not None and (ids < 0).any():
            at = np.flatnonzero(ids < 0)[:1]
            raise StructureError(missing.format(
                encode(_maps(self.n, img[at], lab[at])[0])))
        return ids

    def _product(self, a: np.ndarray, b: np.ndarray, missing: str) -> np.ndarray:
        """The ids of s_a s_b: x goes to s_a(s_b(x)), with s_a's label at
        s_b(x) times s_b's at x, one gather of rows and one lookup."""
        img = np.take_along_axis(self.images[a], self.images[b], 1)
        lab = self.label_product[np.take_along_axis(
            self.labels[a], self.images[b], 1), self.labels[b]]
        return self._find_maps(img, lab * (img > 0), missing)

    def ids_of(self, elements: Sequence[PartialMapElement]) -> np.ndarray:
        """The id of each element, or -1 for one that is not in S."""
        labels = set(range(len(self.label_product)))
        inside = np.array([e.ambient_size == self.n and {p[2] for p in e.pairs}
                           <= labels for e in elements], dtype=bool)
        ids = np.full(len(elements), -1)
        ids[inside] = self._find_maps(*_tables_of(
            self.n, [e for e, i in zip(elements, inside) if i]))
        return ids

    def id_of(self, e: PartialMapElement) -> int:
        [found] = self.ids_of([e]).tolist()
        if found < 0:
            raise StructureError(f"element {e!r} is not in the semigroup")
        return found

    def mul(self, i, j):
        """The id of s_i s_j (s_i after s_j), elementwise over arrays of ids."""
        i, j = np.broadcast_arrays(i, j)
        return self._product(i.ravel(), j.ravel(), "the product {} is not in "
                             "the semigroup").reshape(i.shape)[()]

    def inv(self, i):
        """The id of s_i^-1, elementwise over arrays of ids."""
        return self.inverse[i]

    def leq(self, t: int, s: int) -> bool:
        return natural_leq(self.elements[t], self.elements[s])

    # -- structural analysis -----------------------------------------------

    def _analyze(self) -> None:
        n_el, n = len(self), self.n
        entry = self.images.dtype
        lg = self.label_group
        rows, cols = np.nonzero(self.images)   # the pairs: s maps cols to dst
        dst = self.images[rows, cols]
        # s s = s for an injective labeled map iff s fixes its domain with
        # idempotent, hence identity, labels: a partial identity.
        defined = self.images > 0
        points = np.arange(n + 1, dtype=entry)
        idems = np.flatnonzero((self.images == points * defined).all(1)
                               & ~self.labels.any(1))
        self.idempotents = idems.tolist()
        # the rows of each s^-1: s's pairs swapped, its labels inverted
        inv_img = np.zeros_like(self.images)
        inv_img[rows, dst] = cols
        inv_lab = np.zeros_like(self.labels)
        inv_lab[rows, dst] = np.asarray([0] if lg is None else lg.inverse,
                                        dtype=entry)[self.labels[rows, cols]]
        # dom_id[i] = i^-1 i and ran_id[i] = i i^-1: the partial identities
        # on i's domain and range.
        on = np.concatenate([defined, inv_img > 0])
        found = self._find_maps(points * on, np.zeros_like(on, dtype=entry),
                                "no idempotent {} on a domain or range")
        dom_id, ran_id = found[:n_el], found[n_el:]
        self.dom_id, self.ran_id = dom_id.tolist(), ran_id.tolist()
        self.inverse = self._find_maps(inv_img, inv_lab, "the elements are "
                                       "not closed under inverses: {} is missing")

        # D-classes: idempotents e, f are D-related iff some s has dom(s)=e,
        # ran(s)=f.  In an inverse semigroup the least f that any s maps e
        # onto is the least of e's class, its representative e_k (an s
        # between two such classes means S is not closed under products);
        # the connector p_e, the first element of S from e_k onto e, exists
        # since S holds each s^-1.  p_{e_k} = e_k: the least such map.
        least = np.full(n_el, n_el)
        np.minimum.at(least, dom_id, ran_id)
        if (least[dom_id] != least[ran_id]).any():
            raise StructureError("the elements are not closed under products")
        class_of_idem = np.zeros(n_el, dtype=np.intp)
        class_of_idem[idems] = np.unique(least[idems], return_inverse=True)[1]
        classes = np.split(idems[np.argsort(class_of_idem[idems], kind="stable")],
                           np.cumsum(np.bincount(class_of_idem[idems])))[:-1]
        pos_of_idem = np.zeros(n_el, dtype=np.intp)
        for idems_k in classes:
            pos_of_idem[idems_k] = range(len(idems_k))
        codes, first = np.unique(dom_id * n_el + ran_id, return_index=True)
        connector = np.zeros(n_el, dtype=np.intp)
        connector[idems] = first[np.searchsorted(codes, least[idems] * n_el + idems)]

        # Groupoid coordinates: s in D_k corresponds to the subgroup element
        # y = p_ran(s)^-1 s p_dom(s) at grid position (ran(s), dom(s)),
        # two products on the rows.
        closed = "the elements are not closed under products: {} is missing"
        y_id = self._product(self.inverse[connector[ran_id]], self._product(
            np.arange(n_el), connector[dom_id], closed), closed)

        class_of = class_of_idem[ran_id]
        members = np.split(np.argsort(class_of, kind="stable"),
                           np.cumsum(np.bincount(class_of))[:-1])
        a_pos, b_pos = pos_of_idem[ran_id], pos_of_idem[dom_id]
        # The maximal subgroup of D_k: its elements from e_k onto e_k, keyed
        # by (perm, labels), their action on sorted dom(e_k) in positions
        # 1..k, gathered for every class at once.  Its identity is e_k and
        # its inverses are the semigroup's, so the table needs no product.
        corner = [ids[(a_pos[ids] == 0) & (b_pos[ids] == 0)] for ids in members]
        sub = np.concatenate(corner)
        img = self.images[sub]
        on = img > 0
        perm = np.take_along_axis(np.cumsum(on, 1, dtype=entry), img, 1)[on]
        perm, labs = perm.tolist(), self.labels[sub][on].tolist()
        ends = np.cumsum(on.sum(1)).tolist()
        keys = [(tuple(perm[lo:hi]), tuple(labs[lo:hi]))
                for lo, hi in zip([0] + ends, ends)]
        key_mul = wreath_mul_key(lg.mul if lg is not None else lambda a, b: 0)
        local = np.zeros(n_el, dtype=np.intp)
        self.d_classes: list[DClassStructure] = []
        start = 0
        for k, (idems_k, ids, sub_ids) in enumerate(zip(classes, members, corner)):
            local[sub_ids] = range(len(sub_ids))
            subgroup = GroupTable(keys[start:start + len(sub_ids)], key_mul,
                                  name=f"G[{self.family},{k}]",
                                  identity=local[idems_k[0]].item(),
                                  inverse=local[self.inverse[sub_ids]].tolist())
            start += len(sub_ids)
            idems_k = idems_k.tolist()
            dc = DClassStructure(k, ids.tolist(), idems_k, idems_k[0], dict(
                zip(idems_k, connector[idems_k].tolist())), subgroup)
            dc.coord_ids = np.zeros((len(idems_k), len(idems_k), len(subgroup)),
                                    dtype=np.intp)
            dc.coord_ids[a_pos[ids], b_pos[ids], local[y_id[ids]]] = ids
            self.d_classes.append(dc)
        self.class_of = class_of.tolist()
        self.element_coords: list[tuple[int, int, int, int]] = list(zip(
            self.class_of, a_pos.tolist(), b_pos.tolist(),
            local[y_id].tolist()))

    def _sweep_steps(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The extension sweep's steps: step i holds every s < t in S with
        i = min(dom t - dom s) and dom t = cl(dom s + {i}), where cl(X) is
        the least idempotent domain containing X.

        E(S) is closed under intersection, so cl exists, and s < t is
        joined by exactly one path of steps with increasing i: each step
        adds only points >= its index, so the first is forced, and so on.
        The sources of a target t are t restricted to each D that
        _closure_steps lists for dom t: t's image and label rows with the
        columns outside D zeroed, looked up among the elements' rows.
        """
        idems = np.asarray(self.idempotents, dtype=np.intp)
        dom = self.images[idems] > 0              # column 0 is never in
        d, f, point = _closure_steps(dom[:, 1:])
        # the targets on each idempotent domain, ascending, as one run each
        on_dom = np.searchsorted(idems, self.dom_id)
        by_dom = np.argsort(on_dom, kind="stable")
        count = np.bincount(on_dom, minlength=len(idems))
        size = count[f]
        targets = by_dom[np.repeat(np.cumsum(count)[f] - np.cumsum(size), size)
                         + np.arange(size.sum())]
        within = np.repeat(d, size)
        sources = np.empty_like(targets)
        # the masked rows of |S| targets at a time keep the peak memory
        # near that of the table
        chunk = max(1, len(self))
        for lo in range(0, len(targets), chunk):
            t, keep = targets[lo:lo + chunk], dom[within[lo:lo + chunk]]
            img, lab = self.images[t] * keep, self.labels[t] * keep
            sources[lo:lo + chunk] = self._find_maps(
                img, lab, "the elements are not closed under restriction: "
                "{} is missing")
        step = np.repeat(point, size)
        order = np.lexsort((targets, sources, step))
        sources, targets = sources[order], targets[order]
        ends = np.cumsum(np.bincount(step, minlength=self.n)).tolist()
        return [(sources[lo:hi], targets[lo:hi])
                for lo, hi in zip([0] + ends, ends)]

    # -- order structure ---------------------------------------------------

    def downsets(self) -> list[list[int]]:
        """For each s, the sorted ids of all t <= s (restrictions of s)."""
        return self._order[0]

    def upsets(self) -> list[list[int]]:
        """For each s, the sorted ids of all t >= s."""
        return self._order[1]

    @functools.cached_property
    def _order(self) -> tuple[list[list[int]], list[list[int]]]:
        """(downsets, upsets): the t <= s are s's rows, masked, looked up."""
        on = self.images > 0
        rank, place = on.sum(1), np.cumsum(on, 1) - on
        below, above = [], []
        for r in range(rank.max(initial=0) + 1):
            # row q: s = of_rank[q >> r] masked by u = q mod 2^r, bit j of u
            # keeping the j-th point of dom s; 2^16 rows at a time
            of_rank = np.flatnonzero(rank == r)
            for lo in range(0, max(1, len(of_rank) << r), 1 << 16):
                q = np.arange(lo, min(lo + (1 << 16), len(of_rank) << r))
                s, u = of_rank[q >> r], q[:, None] & (1 << r) - 1
                keep = on[s] & (u >> place[s] & 1 > 0)
                above.append(s)
                below.append(self._find_maps(self.images[s] * keep,
                                             self.labels[s] * keep))
        t, s = np.concatenate(below), np.concatenate(above)
        t, s = t[t >= 0], s[t >= 0]
        return _runs(s, t, len(self)), _runs(t, s, len(self))

    def mobius(self, s: int, t: int) -> int:
        """Mobius function of the natural partial order on the interval [s, t]."""
        if not self.leq(s, t):
            raise DomainError("mobius requires s <= t")
        return self._mobius(s, t)

    def _mobius(self, s: int, t: int) -> int:
        if s == t:
            return 1
        hit = self._mobius_memo.get((s, t))
        if hit is not None:
            return hit
        down_t = set(self.downsets()[t])
        val = -sum(self._mobius(s, u) for u in self.upsets()[s]
                   if u != t and u in down_t)
        self._mobius_memo[(s, t)] = val
        return val


def _sorted_tables(n: int, h: int, images: np.ndarray, labels: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The tables, checked, sorted by rank and then by their (i, s(i),
    label) pairs in domain order, in the least unsigned type that holds n
    and every label."""
    if (images.ndim != 2 or images.shape[1] != n + 1
            or labels.shape != images.shape
            or not {images.dtype.kind, labels.dtype.kind} <= set("iu")):
        raise StructureError(f"the tables must be integer arrays of shape "
                             f"(|S|, {n + 1})")
    ordered = np.sort(images, 1)
    for bad, what in [
            (images[:, 0].any() or labels[:, 0].any(), "a nonzero column 0"),
            (((images < 0) | (images > n)).any(), f"an image outside 1..{n}"),
            (((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] > 0)).any(),
             "a row that is not injective"),
            ((labels * (images == 0)).any(), "a label where a map is undefined"),
            (((labels < 0) | (labels >= h)).any(), "a label outside the label "
             "group" if h > 1 else "labels but no label group")]:
        if bad:
            raise StructureError(f"the tables hold {what}")
    # a row's key: its rank, then one integer per (i, s(i), label), i
    # ascending; the points past the rank never decide the order
    points = np.argsort(images[:, 1:] == 0, axis=1, kind="stable") + 1
    pairs = ((points * (n + 1) + np.take_along_axis(images, points, 1)) * h
             + np.take_along_axis(labels, points, 1))
    keys = np.vstack([pairs.T[::-1], (images > 0).sum(1)])
    order = np.lexsort(keys)
    if (keys[:, order[1:]] == keys[:, order[:-1]]).all(0).any():
        raise StructureError("duplicate elements")
    entry = np.min_scalar_type(max(n, h))
    return images[order].astype(entry), labels[order].astype(entry)


def _tables_of(n: int, elements: Sequence[PartialMapElement]
               ) -> tuple[np.ndarray, np.ndarray]:
    """The image and label rows of elements acting on {1..n}."""
    i, j, g = np.array([x for e in elements for p in e.pairs for x in p],
                       dtype=np.intp).reshape(-1, 3).T
    r = np.repeat(np.arange(len(elements)), [e.rank for e in elements])
    images = np.zeros((len(elements), n + 1), dtype=np.intp)
    labels = np.zeros_like(images)
    images[r, i], labels[r, i] = j, g
    return images, labels


def _runs(key: np.ndarray, value: np.ndarray, m: int) -> list[list[int]]:
    """For each k < m, the sorted values paired with key k."""
    value = value[np.lexsort((value, key))].tolist()
    ends = np.cumsum(np.bincount(key, minlength=m)).tolist()
    return [value[lo:hi] for lo, hi in zip([0] + ends, ends)]


def _maps(n: int, images: np.ndarray, labels: np.ndarray
          ) -> list[PartialMapElement]:
    """The elements with these image and label rows."""
    rows, cols = np.nonzero(images)
    pairs = list(zip(cols.tolist(), images[rows, cols].tolist(),
                     labels[rows, cols].tolist()))
    ends = np.cumsum(np.bincount(rows, minlength=len(images))).tolist()
    return [PartialMapElement(n, tuple(pairs[lo:hi]))
            for lo, hi in zip([0] + ends, ends)]


def _closure_steps(dom: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows d, rows f and points i (0-based) with row f = cl(row d + {i})
    and i = min(f - d), for `dom` the idempotent domains as 0/1 rows.

    Every pair d < f is met once, with i = min(f - d).  The rows f with
    the same (d, i) are those holding d + {i} and no other point below i,
    so cl(d + {i}) is the smallest of them, and lies inside all the rest.
    If it does not, the domains are not closed under intersection."""
    n_rows, n = dom.shape
    none = np.zeros(0, dtype=np.intp)
    if n == 0:
        return none, none, none          # the empty domain alone
    size = dom.sum(1)
    # d is inside f iff d & ~f is 0 in every little-endian 64-bit word
    padded = np.zeros((n_rows, -(-n // 64) * 64), dtype=bool)
    padded[:, :n] = dom
    words = np.packbits(padded, axis=1, bitorder="little").view("<u8")
    outside = ~words
    chunk = max(1, (1 << 20) // max(1, n_rows * n))  # ~1M cells at a time
    out = [(none, none, none)]
    for lo in range(0, n_rows, chunk):
        inside = ~(words[lo:lo + chunk, None] & outside).any(2)
        d, f = np.nonzero(inside & (size[lo:lo + chunk, None] < size))
        d += lo
        first = (dom[f] & ~dom[d]).argmax(1)
        order = np.lexsort((size[f], first, d))
        d, f, first = d[order], f[order], first[order]
        head = np.ones(len(d), dtype=bool)
        head[1:] = (d[1:] != d[:-1]) | (first[1:] != first[:-1])
        least = f[head][np.cumsum(head) - 1]
        if (dom[least] & ~dom[f]).any():
            raise StructureError("the idempotent domains are not closed "
                                 "under intersection")
        out.append((d[head], f[head], first[head]))
    return tuple(np.concatenate(a) for a in zip(*out))


# -- functions on S and the quadratic reference transforms -----------------

SEMIGROUP = "semigroup"
GROUPOID = "groupoid"


@dataclass
class FunctionOnS:
    structure: SemigroupStructure
    basis: str
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (len(self.structure),):
            raise ContractError("value vector length must equal |S|")
        if self.basis not in (SEMIGROUP, GROUPOID):
            raise ContractError(f"unknown basis {self.basis!r}")


def zeta_naive(f: FunctionOnS) -> FunctionOnS:
    """g(s) = sum of f(t) over t >= s; direct summation, the reference oracle."""
    if f.basis != SEMIGROUP:
        raise ContractError("zeta_naive expects the semigroup basis")
    S = f.structure
    out = np.zeros(len(S), dtype=complex)
    for s, up in enumerate(S.upsets()):
        out[s] = sum(f.values[t] for t in up)
    return FunctionOnS(S, GROUPOID, out)


def mobius_naive(g: FunctionOnS) -> FunctionOnS:
    """f(s) = sum of mu(s,t) g(t) over t >= s; exact inverse of zeta_naive."""
    if g.basis != GROUPOID:
        raise ContractError("mobius_naive expects the groupoid basis")
    S = g.structure
    out = np.zeros(len(S), dtype=complex)
    for s, up in enumerate(S.upsets()):
        out[s] = sum(S.mobius(s, t) * g.values[t] for t in up)
    return FunctionOnS(S, SEMIGROUP, out)
