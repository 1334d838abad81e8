"""Structural analysis of a finite inverse semigroup of partial maps.

SemigroupStructure takes a closed element set and produces the full
decomposition: idempotents, the natural partial order, Green's D-classes
with chosen representative idempotents, connectors, maximal subgroup
tables, the per-element coordinates under the groupoid decomposition, and
the steps of the extension sweep.  Every part is read off the elements,
so any inverse semigroup of partial maps is analysed the same way: the
connector of idempotent e is the first element, in S's order, from the
class representative onto e, and the sweep steps along the closures of
idempotent domains (see _sweep_steps).  This module also hosts the
quadratic zeta/Mobius reference transforms used as oracles everywhere.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Sequence

import numpy as np

from .elements import PartialMapElement, compose, inverse_of, natural_leq
from .errors import ContractError, DomainError, StructureError
from .groups import GroupTable

@dataclass
class DClassStructure:
    index: int
    element_ids: list[int]
    idempotent_ids: list[int]          # sorted ascending
    rep_idempotent: int                # e_k
    connectors: dict[int, int]         # idempotent id -> p_e id
    subgroup: GroupTable               # keys are semigroup element ids
    idem_pos: dict[int, int] = field(default_factory=dict)
    local_of: dict[int, int] = field(default_factory=dict)
    # (ran position, dom position, local subgroup index) -> element id
    coord_ids: np.ndarray | None = None

    @property
    def num_idempotents(self) -> int:
        return len(self.idempotent_ids)


class SemigroupStructure:
    def __init__(self, family: str, n: int,
                 elements: Sequence[PartialMapElement],
                 label_group: GroupTable | None = None):
        self.family = family
        self.n = n
        self.label_group = label_group
        self.elements = sorted(elements, key=lambda e: e.sort_key())
        if any(e.ambient_size != n for e in self.elements):
            raise StructureError(f"every element must act on {{1..{n}}}")
        self._id_of = {e: i for i, e in enumerate(self.elements)}
        if len(self._id_of) != len(self.elements):
            raise StructureError("duplicate elements")
        self._mul_cache: dict[tuple[int, int], int] = {}
        self._inv: list[int] | None = None
        self._downsets: list[list[int]] | None = None
        self._upsets: list[list[int]] | None = None
        self._mobius_memo: dict[tuple[int, int], int] = {}
        self._analyze()
        # sweep_steps[i-1]: the (sources, targets) of step i, sorted by (s, t).
        self.sweep_steps: list[tuple[np.ndarray, np.ndarray]] = \
            self._sweep_steps()

    # -- basic arithmetic on canonical ids ---------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def id_of(self, e: PartialMapElement) -> int:
        try:
            return self._id_of[e]
        except KeyError:
            raise StructureError(f"element {e!r} is not in the semigroup") from None

    def mul(self, i: int, j: int) -> int:
        hit = self._mul_cache.get((i, j))
        if hit is not None:
            return hit
        k = self.id_of(compose(self.elements[i], self.elements[j], self.label_group))
        self._mul_cache[(i, j)] = k
        return k

    def inv(self, i: int) -> int:
        if self._inv is None:
            self._inv = [self.id_of(inverse_of(e, self.label_group))
                         for e in self.elements]
        return self._inv[i]

    def leq(self, t: int, s: int) -> bool:
        return natural_leq(self.elements[t], self.elements[s])

    # -- structural analysis -----------------------------------------------

    def _analyze(self) -> None:
        n_el = len(self.elements)
        # s s = s for an injective labeled map iff s fixes its domain with
        # idempotent, hence identity, labels: a partial identity.
        self.idempotents = [i for i, el in enumerate(self.elements)
                            if el.is_partial_identity()]
        self.dom_id, self.ran_id = self._dom_ran_ids()

        # D-classes: idempotents e, f are D-related iff some s has dom(s)=e,
        # ran(s)=f; every s links its own dom and ran idempotents.
        parent = {e: e for e in self.idempotents}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in range(n_el):
            a, b = find(self.dom_id[i]), find(self.ran_id[i])
            if a != b:
                parent[max(a, b)] = min(a, b)

        groups: dict[int, list[int]] = {}
        for e in self.idempotents:
            groups.setdefault(find(e), []).append(e)
        roots = sorted(groups, key=lambda r: min(groups[r]))
        class_of_root = {r: k for k, r in enumerate(roots)}

        members: list[list[int]] = [[] for _ in roots]
        for i in range(n_el):
            members[class_of_root[find(self.ran_id[i])]].append(i)

        # The connector p_e of idempotent e is the first element of S from
        # the class representative e_k onto e; p_{e_k} = e_k, the identity
        # on dom(e_k) being the least map from dom(e_k) onto itself.
        first_from_to: dict[tuple[int, int], int] = {}
        for i in range(n_el):
            first_from_to.setdefault((self.dom_id[i], self.ran_id[i]), i)

        self.d_classes: list[DClassStructure] = []
        for k, root in enumerate(roots):
            idems = sorted(groups[root])
            e_k = idems[0]
            connectors = {e: first_from_to.get((e_k, e)) for e in idems}
            if None in connectors.values():
                raise StructureError(f"no element maps idempotent {e_k} onto "
                                     f"every idempotent of its D-class")
            sub_ids = [i for i in members[k]
                       if self.dom_id[i] == e_k and self.ran_id[i] == e_k]
            subgroup = GroupTable(sorted(sub_ids), self.mul,
                                  name=f"G[{self.family},{k}]")
            dc = DClassStructure(k, members[k], idems, e_k, connectors, subgroup)
            dc.idem_pos = {e: p for p, e in enumerate(idems)}
            dc.local_of = {g: p for p, g in enumerate(subgroup.keys)}
            dc.coord_ids = np.zeros((len(idems), len(idems), len(subgroup)),
                                    dtype=np.intp)
            self.d_classes.append(dc)

        # Groupoid coordinates: s in D_k corresponds to the subgroup element
        # y = p_ran(s)^-1 s p_dom(s) at grid position (ran(s), dom(s)).
        self.class_of = [0] * n_el
        self.element_coords: list[tuple[int, int, int, int]] = [None] * n_el
        for dc in self.d_classes:
            p_inv = {e: self.id_of(inverse_of(self.elements[p], self.label_group))
                     for e, p in dc.connectors.items()}
            for i in dc.element_ids:
                a, b = self.ran_id[i], self.dom_id[i]
                y = self.mul(self.mul(p_inv[a], i), dc.connectors[b])
                self.class_of[i] = dc.index
                coords = (dc.idem_pos[a], dc.idem_pos[b], dc.local_of[y])
                self.element_coords[i] = (dc.index, *coords)
                dc.coord_ids[coords] = i

    def _dom_ran_ids(self) -> tuple[list[int], list[int]]:
        """dom_id[i] = i^-1 i and ran_id[i] = i i^-1: the idempotents whose
        point sets are i's domain and range, looked up from the pairs."""
        by_points = {tuple(i for i, _, _ in self.elements[e].pairs): e
                     for e in self.idempotents}
        dom_id, ran_id = [], []
        try:
            for el in self.elements:
                dom_id.append(by_points[tuple(i for i, _, _ in el.pairs)])
                ran_id.append(by_points[tuple(sorted(j for _, j, _ in el.pairs))])
        except KeyError as exc:
            raise StructureError(f"no idempotent on the points {exc.args[0]} "
                                 f"of {el!r}") from None
        return dom_id, ran_id

    def _sweep_steps(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The extension sweep's steps: step i holds every s < t in S with
        i = min(dom t - dom s) and dom t = cl(dom s + {i}), where cl(X) is
        the least idempotent domain containing X.

        E(S) is closed under intersection, so cl exists, and s < t is
        joined by exactly one path of steps with increasing i: each step
        adds only points >= its index, so the first is forced, and so on.
        The sources of a target t are t restricted to each D that
        _closure_steps lists for dom t; every t with one domain has its
        pairs at the same positions, so one itemgetter serves them all.
        """
        idems = [self.elements[e].pairs for e in self.idempotents]
        dom = np.zeros((len(idems), self.n), dtype=bool)
        dom[[r for r, p in enumerate(idems) for _ in p],
            [i - 1 for p in idems for i, _, _ in p]] = True
        targets_on: dict[int, list[int]] = {e: [] for e in self.idempotents}
        for t, e in enumerate(self.dom_id):
            targets_on[e].append(t)
        pairs = [e.pairs for e in self.elements]
        id_of_pairs = {p: t for t, p in enumerate(pairs)}
        d, f, point = _closure_steps(dom)
        # positions of D's points among F's, in ascending order like t.pairs
        in_d = dom[d]
        rows, cols = np.nonzero(in_d)
        pos = (np.cumsum(dom[f], 1)[rows, cols] - 1).tolist()
        ends = np.cumsum(in_d.sum(1)).tolist()
        sources: list[list[int]] = [[] for _ in range(self.n)]
        targets: list[list[int]] = [[] for _ in range(self.n)]
        for row, i, lo, hi in zip(f.tolist(), point.tolist(), [0] + ends, ends):
            at = pos[lo:hi]
            # itemgetter of one position would return the bare pair
            restrict = (itemgetter(*at) if len(at) > 1
                        else lambda p, at=at: tuple(p[k] for k in at))
            on_f = targets_on[self.idempotents[row]]
            sources[i].extend([id_of_pairs[restrict(pairs[t])] for t in on_f])
            targets[i].extend(on_f)
        out = []
        for s, t in zip(sources, targets):
            s, t = np.array(s, dtype=np.intp), np.array(t, dtype=np.intp)
            order = np.lexsort((t, s))
            out.append((s[order], t[order]))
        return out

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

    def encode_id(self, i: int) -> str:
        from .elements import encode
        return encode(self.elements[i])


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
    counts = dom.astype(float)           # exact: shared counts are <= n
    chunk = max(1, (1 << 20) // max(1, n_rows * n))  # ~1M cells at a time
    out = [(none, none, none)]
    for lo in range(0, n_rows, chunk):
        inside = counts[lo:lo + chunk] @ counts.T == size[lo:lo + chunk, None]
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
