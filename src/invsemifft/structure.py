"""Structural analysis of a finite inverse semigroup of partial maps.

analyze() takes a closed element set and produces the full decomposition:
idempotents, the natural partial order, Green's D-classes with chosen
representative idempotents, connectors, maximal subgroup tables, and the
per-element coordinates under the groupoid decomposition.  It also hosts
the quadratic zeta/Mobius reference transforms used as oracles everywhere.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .elements import PartialMapElement, compose, inverse_of, natural_leq
from .errors import ContractError, DomainError, StructureError
from .groups import GroupTable

Connector = Callable[[PartialMapElement, PartialMapElement], PartialMapElement]


def order_preserving_connector(e_k: PartialMapElement,
                               e: PartialMapElement) -> PartialMapElement:
    """The unique order-preserving bijection dom(e_k) -> dom(e), identity labels."""
    src = sorted(e_k.domain)
    dst = sorted(e.domain)
    return PartialMapElement(e_k.ambient_size,
                             tuple((i, j, 0) for i, j in zip(src, dst)))


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
                 label_group: GroupTable | None = None,
                 connector: Connector | None = None):
        self.family = family
        self.n = n
        self.label_group = label_group
        self.elements = sorted(elements, key=lambda e: e.sort_key())
        self._id_of = {e: i for i, e in enumerate(self.elements)}
        if len(self._id_of) != len(self.elements):
            raise StructureError("duplicate elements")
        self._mul_cache: dict[tuple[int, int], int] = {}
        self._inv: list[int] | None = None
        self._downsets: list[list[int]] | None = None
        self._upsets: list[list[int]] | None = None
        self._mobius_memo: dict[tuple[int, int], int] = {}
        self._analyze(connector or order_preserving_connector)
        # sweep_steps[i-1]: the (sources, targets) of every s < t in S where
        # t extends s by one pair at domain point i, sorted by (s, t); None
        # when the extension sweep is not exact on S.
        self.sweep_steps: list[tuple[np.ndarray, np.ndarray]] | None = \
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

    def _analyze(self, connector: Connector) -> None:
        n_el = len(self.elements)
        self.idempotents = [i for i in range(n_el) if self.mul(i, i) == i]
        self.dom_id = [self.mul(self.inv(i), i) for i in range(n_el)]
        self.ran_id = [self.mul(i, self.inv(i)) for i in range(n_el)]

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

        self.d_classes: list[DClassStructure] = []
        for k, root in enumerate(roots):
            idems = sorted(groups[root])
            e_k = idems[0]
            e_k_el = self.elements[e_k]
            connectors: dict[int, int] = {}
            for e in idems:
                p = e_k if e == e_k else self.id_of(connector(e_k_el, self.elements[e]))
                if self.dom_id[p] != e_k or self.ran_id[p] != e:
                    raise StructureError("connector with wrong domain or range")
                connectors[e] = p
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
            for i in dc.element_ids:
                a, b = self.ran_id[i], self.dom_id[i]
                y = self.mul(self.mul(self.inv(dc.connectors[a]), i),
                             dc.connectors[b])
                self.class_of[i] = dc.index
                coords = (dc.idem_pos[a], dc.idem_pos[b], dc.local_of[y])
                self.element_coords[i] = (dc.index, *coords)
                dc.coord_ids[coords] = i

    def _sweep_steps(self) -> list[tuple[np.ndarray, np.ndarray]] | None:
        """The extension sweep's steps, or None when the sweep is not exact.

        t's restriction to D is in S iff the partial identity on D is, so
        point i is removable from t iff dom(t) - {i} is an idempotent's
        domain.  The sweep adds t's extra points to s in ascending order,
        so it reaches every t >= s iff those intermediate restrictions are
        all in S, which _removable_points checks on the idempotents alone.
        """
        idems = [self.elements[e].pairs for e in self.idempotents]
        dom = np.zeros((len(idems), self.n), dtype=bool)
        dom[[r for r, p in enumerate(idems) for _ in p],
            [i - 1 for p in idems for i, _, _ in p]] = True
        removable = _removable_points(dom)
        if removable is None:
            return None
        removable_at = dict(zip(self.idempotents, removable.tolist()))
        id_of_pairs = {e.pairs: t for t, e in enumerate(self.elements)}
        sources: list[list[int]] = [[] for _ in range(self.n)]
        targets: list[list[int]] = [[] for _ in range(self.n)]
        for t, el in enumerate(self.elements):
            p, ok = el.pairs, removable_at[self.dom_id[t]]
            for k, (i, _, _) in enumerate(p):
                if ok[i - 1]:
                    sources[i - 1].append(id_of_pairs[p[:k] + p[k + 1:]])
                    targets[i - 1].append(t)
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


def _removable_points(dom: np.ndarray) -> np.ndarray | None:
    """removable[f, i-1]: row f of `dom` (domains as 0/1 rows) minus point i
    is a row too.  None when some rows e < f have no row e + min(f - e).

    Every pair e < f is met once, with i = min(f - e); f is e + i itself
    exactly when |f| = |e| + 1, so e + i is a row iff some pair with the
    same (e, i) is one point apart."""
    n_rows, n = dom.shape
    removable = np.zeros_like(dom)
    if n == 0:
        return removable                 # the empty domain alone
    size = dom.sum(1)
    counts = dom.astype(float)           # exact: shared counts are <= n
    chunk = max(1, (1 << 20) // max(1, n_rows * n))  # ~1M cells at a time
    for lo in range(0, n_rows, chunk):
        inside = counts[lo:lo + chunk] @ counts.T == size[lo:lo + chunk, None]
        e, f = np.nonzero(inside & (size[lo:lo + chunk, None] < size))
        e += lo
        first = (dom[f] & ~dom[e]).argmax(1)
        step = size[f] == size[e] + 1
        if not np.isin(e * n + first, e[step] * n + first[step]).all():
            return None
        removable[f[step], first[step]] = True
    return removable


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
