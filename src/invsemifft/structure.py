"""Structural analysis of a finite inverse semigroup of partial maps.

A semigroup enters SemigroupStructure as its image table: images[s, x]
= s(x) and labels[s, x] its label, both 0 where s(x) is undefined, and
column 0 all 0 (from_elements builds the tables from PartialMapElements).
The rows are checked, then sorted by rank and by their (i, s(i), label)
pairs.  Every part of the decomposition is read off the tables, so any
inverse semigroup of partial maps is analysed the same way: idempotents,
dom / ran ids and Green's D-classes; the connector of idempotent e, the
first element in S's order from the class representative onto e; each
maximal subgroup as a table of labeled permutations of dom(e_k); the
groupoid coordinates; and the sweep steps along the closures of
idempotent domains, whose restrictions are masked rows (see
_sweep_steps).  Set-up composes no elements and builds none: `elements`
is a view decoded from the rows on demand, for the oracles and the JSON
boundary.  This module also hosts the quadratic zeta/Mobius reference
transforms used as oracles everywhere.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .elements import (PartialMapElement, compose, encode, inverse_of,
                       natural_leq)
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
    idem_pos: dict[int, int] = field(default_factory=dict)
    local_of: dict[int, int] = field(default_factory=dict)
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
        self._inv: list[int] | None = None
        self._downsets: list[list[int]] | None = None
        self._upsets: list[list[int]] | None = None
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
        flat = [(r, *p) for r, e in enumerate(elements) for p in e.pairs]
        r, i, j, g = np.array(flat, dtype=np.intp).reshape(-1, 4).T
        images = np.zeros((len(elements), n + 1), dtype=np.intp)
        labels = np.zeros_like(images)
        images[r, i], labels[r, i] = j, g
        return cls(family, n, images, labels, label_group)

    # -- elements, decoded from the rows on demand -------------------------

    @functools.cached_property
    def elements(self) -> list[PartialMapElement]:
        return _maps(self.n, self.images, self.labels)

    @functools.cached_property
    def _id_of(self) -> dict[PartialMapElement, int]:
        return {e: i for i, e in enumerate(self.elements)}

    # -- basic arithmetic on canonical ids ---------------------------------

    def __len__(self) -> int:
        return len(self.images)

    def id_of(self, e: PartialMapElement) -> int:
        try:
            return self._id_of[e]
        except KeyError:
            raise StructureError(f"element {e!r} is not in the semigroup") from None

    def mul(self, i: int, j: int) -> int:
        return self.id_of(compose(self.elements[i], self.elements[j],
                                  self.label_group))

    def inv(self, i: int) -> int:
        if self._inv is None:
            self._inv = [self.id_of(inverse_of(e, self.label_group))
                         for e in self.elements]
        return self._inv[i]

    def leq(self, t: int, s: int) -> bool:
        return natural_leq(self.elements[t], self.elements[s])

    # -- structural analysis -----------------------------------------------

    def _analyze(self) -> None:
        n_el, n = len(self), self.n
        entry = self.images.dtype
        h = 1 if self.label_group is None else len(self.label_group)
        rows, cols = np.nonzero(self.images)   # the pairs: s maps cols to dst
        dst = self.images[rows, cols]
        # s s = s for an injective labeled map iff s fixes its domain with
        # idempotent, hence identity, labels: a partial identity.
        defined = self.images > 0
        fixed = self.images == np.arange(n + 1, dtype=entry) * defined
        idems = np.flatnonzero(fixed.all(1) & ~self.labels.any(1))
        self.idempotents = idems.tolist()
        # dom_id[i] = i^-1 i and ran_id[i] = i i^-1: the idempotents whose
        # point sets are i's domain and range.
        ran = np.zeros_like(defined)
        ran[rows, dst] = True
        found = _find_rows(np.packbits(defined[idems], axis=1),
                           np.packbits(np.concatenate([defined, ran]), axis=1))
        if (found < 0).any():
            at = [np.flatnonzero(found < 0)[0] % n_el]
            el = _maps(n, self.images[at], self.labels[at])[0]
            raise StructureError(f"no idempotent on the domain or range of {el!r}")
        dom_id, ran_id = idems[found[:n_el]], idems[found[n_el:]]
        self.dom_id, self.ran_id = dom_id.tolist(), ran_id.tolist()

        # D-classes: idempotents e, f are D-related iff some s has dom(s)=e,
        # ran(s)=f; every s links its own dom and ran idempotents.
        parent = {e: e for e in self.idempotents}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        # The connector p_e of idempotent e is the first element of S from
        # the class representative e_k onto e; p_{e_k} = e_k, the identity
        # on dom(e_k) being the least map from dom(e_k) onto itself.
        codes, first = np.unique(dom_id * n_el + ran_id, return_index=True)
        first_from_to = dict(zip(codes.tolist(), first.tolist()))
        for code in codes.tolist():
            a, b = find(code // n_el), find(code % n_el)
            if a != b:
                parent[max(a, b)] = min(a, b)

        groups: dict[int, list[int]] = {}
        for e in self.idempotents:
            groups.setdefault(find(e), []).append(e)
        roots = sorted(groups, key=lambda r: min(groups[r]))
        classes = []
        class_of_idem = np.zeros(n_el, dtype=np.intp)
        pos_of_idem = np.zeros(n_el, dtype=np.intp)
        connector = np.zeros(n_el, dtype=np.intp)
        for k, root in enumerate(roots):
            idems_k = sorted(groups[root])
            e_k = idems_k[0]
            connectors = {e: first_from_to.get(e_k * n_el + e) for e in idems_k}
            if None in connectors.values():
                raise StructureError(f"no element maps idempotent {e_k} onto "
                                     f"every idempotent of its D-class")
            classes.append((idems_k, connectors))
            class_of_idem[idems_k] = k
            pos_of_idem[idems_k] = range(len(idems_k))
            connector[idems_k] = list(connectors.values())

        # Groupoid coordinates: s in D_k corresponds to the subgroup element
        # y = p_ran(s)^-1 s p_dom(s) at grid position (ran(s), dom(s)),
        # found among the elements by its image and label rows.
        inv_img = np.zeros_like(self.images)          # rows of s^-1
        inv_img[rows, dst] = cols
        p_dom, p_ran = connector[dom_id], connector[ran_id]
        p_img = self.images[p_dom]
        mid = np.take_along_axis(self.images, p_img, 1)        # s(p_dom(x))
        y_img = np.take_along_axis(inv_img[p_ran], mid, 1)
        y_lab = np.zeros_like(y_img)
        lg = self.label_group
        if lg is not None:
            table = np.array([[lg.mul(a, b) for b in range(h)]
                              for a in range(h)], dtype=entry)
            inv_lab = np.zeros_like(self.labels)      # labels of s^-1
            inv_lab[rows, dst] = np.asarray(lg.inverse)[self.labels[rows, cols]]
            y_lab = table[table[np.take_along_axis(inv_lab[p_ran], mid, 1),
                                np.take_along_axis(self.labels, p_img, 1)],
                          self.labels[p_dom]] * (y_img > 0)
        y_id = self._find_maps(y_img, y_lab)
        if (y_id < 0).any():
            raise StructureError("the elements are not closed under products")

        class_of = class_of_idem[ran_id]
        members = np.split(np.argsort(class_of, kind="stable"),
                           np.cumsum(np.bincount(class_of,
                                                 minlength=len(roots)))[:-1])
        a_pos, b_pos = pos_of_idem[ran_id], pos_of_idem[dom_id]
        # The maximal subgroup of D_k: its elements from e_k onto e_k, keyed
        # by (perm, labels), their action on sorted dom(e_k) in positions
        # 1..k, gathered for every class at once.
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
        for k, ((idems_k, connectors), ids, sub_ids) in enumerate(
                zip(classes, members, corner)):
            local[sub_ids] = range(len(sub_ids))
            subgroup = GroupTable(keys[start:start + len(sub_ids)], key_mul,
                                  name=f"G[{self.family},{k}]")
            start += len(sub_ids)
            dc = DClassStructure(k, ids.tolist(), idems_k, idems_k[0],
                                 connectors, subgroup)
            dc.idem_pos = {e: p for p, e in enumerate(idems_k)}
            dc.local_of = {g: p for p, g in enumerate(sub_ids.tolist())}
            dc.coord_ids = np.zeros((len(idems_k), len(idems_k), len(subgroup)),
                                    dtype=np.intp)
            dc.coord_ids[a_pos[ids], b_pos[ids], local[y_id[ids]]] = ids
            self.d_classes.append(dc)
        self.class_of = class_of.tolist()
        self.element_coords: list[tuple[int, int, int, int]] = list(zip(
            self.class_of, a_pos.tolist(), b_pos.tolist(),
            local[y_id].tolist()))

    def _find_maps(self, img: np.ndarray, lab: np.ndarray) -> np.ndarray:
        """The id of the element with each image row and label row, or -1."""
        return _find_rows(np.concatenate([self.images, self.labels], 1),
                          np.concatenate([img, lab], 1))

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
        # a lookup sorts the whole table with its rows; |S| rows at a time
        # keep the peak memory near that of the table
        chunk = max(1, len(self))
        for lo in range(0, len(targets), chunk):
            t, keep = targets[lo:lo + chunk], dom[within[lo:lo + chunk]]
            img, lab = self.images[t] * keep, self.labels[t] * keep
            sources[lo:lo + chunk] = found = self._find_maps(img, lab)
            if (found < 0).any():
                at = [np.flatnonzero(found < 0)[0]]
                missing = encode(_maps(self.n, img[at], lab[at])[0])
                raise StructureError(f"the elements are not closed under "
                                     f"restriction: {missing} is missing")
        step = np.repeat(point, size)
        order = np.lexsort((targets, sources, step))
        sources, targets = sources[order], targets[order]
        ends = np.cumsum(np.bincount(step, minlength=self.n)).tolist()
        return [(sources[lo:hi], targets[lo:hi])
                for lo, hi in zip([0] + ends, ends)]

    # -- order structure ---------------------------------------------------

    def downsets(self) -> list[list[int]]:
        """For each s, the sorted ids of all t <= s (restrictions of s)."""
        if self._downsets is None:
            down = []
            for e in self.elements:
                ids = []
                for r in range(e.rank + 1):
                    for sub in itertools.combinations(e.pairs, r):
                        t = self._id_of.get(PartialMapElement(e.ambient_size, sub))
                        if t is not None:
                            ids.append(t)
                down.append(sorted(ids))
            self._downsets = down
        return self._downsets

    def upsets(self) -> list[list[int]]:
        """For each s, the sorted ids of all t >= s."""
        if self._upsets is None:
            up: list[list[int]] = [[] for _ in self.elements]
            for s, down in enumerate(self.downsets()):
                for t in down:
                    up[t].append(s)
            self._upsets = [sorted(u) for u in up]
        return self._upsets

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


def _find_rows(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """For each row of `rows`, the index of the equal row of `table`,
    whose rows are distinct, or -1 where there is none."""
    both = np.ascontiguousarray(np.concatenate([table, rows]))
    cls = np.unique(both.view(np.dtype((np.void, both.itemsize * both.shape[1]))),
                    return_inverse=True)[1].ravel()
    at = np.full(len(table) + len(rows), -1)
    at[cls[:len(table)]] = np.arange(len(table))
    return at[cls[len(table):]]


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

    def copy(self) -> "FunctionOnS":
        return FunctionOnS(self.structure, self.basis, self.values.copy())


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
