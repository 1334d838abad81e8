"""Fourier analysis on a finite inverse semigroup.

The semigroup algebra splits, class by class, into matrix algebras over
the maximal subgroup algebras.  The forward transform therefore runs in
two stages: a fast zeta transform into the groupoid basis, then the
group stage: per D-class, one group Fourier transform batched over all
its idempotent pairs.  The inverse runs the stages backwards.  Also
here: the direct per-element inversion formulas, convolution (naive and
spectral), and JSON artifacts.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .elements import decode, encode
from .errors import ContractError, DomainError
from .fast_transforms import OpCounter, fast_mobius, fast_zeta
from .group_harmonics import (GroupRepSet, GroupSpectrum, cyclic_ft_fast,
                              cyclic_ift_fast, group_ft, group_ift,
                              repset_for_subgroup)
from .structure import GROUPOID, SEMIGROUP, FunctionOnS, SemigroupStructure


def default_irreps(S: SemigroupStructure) -> list[GroupRepSet]:
    """One built-in complete irreducible set per D-class maximal subgroup."""
    return [repset_for_subgroup(S, dc) for dc in S.d_classes]


@dataclass(frozen=True)
class InducedEntry:
    class_index: int
    rep_index: int
    label: str
    group_dim: int
    dim: int          # r_k * group_dim
    offset: int       # position in the flat block list


@dataclass(frozen=True)
class CyclicBatch:
    """Every cyclic class of one group order k, for one DFT call.

    ids: (rows, k) element ids, each class's r^2 idempotent pairs in
    turn, each row in exponent order.  blocks: per rep, its (block
    offset, first row, r, DFT bin); the block is the r^2 rows from the
    first row on, read at the bin.
    """
    ids: np.ndarray
    blocks: list[tuple[int, int, int, int]]


@dataclass
class InducedRepSet:
    structure: SemigroupStructure
    class_repsets: list[GroupRepSet]
    entries: list[InducedEntry] = field(default_factory=list)
    # Per D-class: its entries.
    class_entries: list[list[InducedEntry]] = field(default_factory=list)
    # The cyclic classes, stacked by group order k.
    cyclic_batches: list[CyclicBatch] = field(default_factory=list)

    def __post_init__(self):
        S = self.structure
        if len(self.class_repsets) != len(S.d_classes):
            raise ContractError("need one representation set per D-class")
        self.entries, self.class_entries = [], []
        total = 0
        for dc, rs in zip(S.d_classes, self.class_repsets):
            if rs.group is not dc.subgroup and rs.group.keys != dc.subgroup.keys:
                raise ContractError(
                    f"class {dc.index}: representation set is for another group")
            if sum(d * d for d in rs.dims) != len(dc.subgroup):
                raise ContractError(
                    f"class {dc.index}: incomplete representation set")
            if len({rep.label for rep in rs.reps}) != len(rs.reps):
                raise ContractError(f"class {dc.index}: repeated rep labels")
            r = dc.num_idempotents
            cls = [InducedEntry(dc.index, j, f"D{dc.index}:{rep.label}",
                                rep.dim, r * rep.dim, len(self.entries) + j)
                   for j, rep in enumerate(rs.reps)]
            self.entries += cls
            self.class_entries.append(cls)
            total += sum(e.dim ** 2 for e in cls)
        if total != len(S):
            raise ContractError(
                f"induced dimensions square-sum to {total}, |S| = {len(S)}")
        self.cyclic_batches = _cyclic_batches(S, self.class_repsets,
                                              self.class_entries)

    @property
    def dims(self) -> list[int]:
        return [e.dim for e in self.entries]


def _cyclic_batches(S: SemigroupStructure, class_repsets: list[GroupRepSet],
                    class_entries: list[list[InducedEntry]]) -> list[CyclicBatch]:
    ids: dict[int, list[np.ndarray]] = {}
    blocks: dict[int, list[tuple[int, int, int, int]]] = {}
    for dc, rs, entries in zip(S.d_classes, class_repsets, class_entries):
        if rs.cyclic_exponents is None:
            continue
        bins = _character_bins(rs)
        k, r = len(dc.subgroup), dc.num_idempotents
        by_exp = np.empty((r * r, k), dtype=np.intp)
        by_exp[:, rs.cyclic_exponents] = dc.coord_ids.reshape(r * r, k)
        start = sum(map(len, ids.get(k, [])))
        ids.setdefault(k, []).append(by_exp)
        blocks.setdefault(k, []).extend(
            (e.offset, start, r, j) for e, j in zip(entries, bins))
    return [CyclicBatch(np.concatenate(ids[k]), blocks[k]) for k in sorted(ids)]


def _character_bins(rs: GroupRepSet, tol: float = 1e-9) -> np.ndarray:
    """DFT bin j of each rep of a cyclic set, read off its value at the
    generator.  The rep must be the character x -> exp(2 pi i j e(x) / k)
    of the cyclic exponents e."""
    k, exps = len(rs.group), np.asarray(rs.cyclic_exponents)
    if sorted(rs.cyclic_exponents) != list(range(k)):
        raise ContractError("cyclic exponents must enumerate 0..k-1")
    gen = list(rs.cyclic_exponents).index(1 % k)
    bins = [round(k * np.angle(rep.matrices[gen, 0, 0]) / (2 * np.pi)) % k
            for rep in rs.reps]
    for rep, j in zip(rs.reps, bins):
        if rep.dim != 1 or np.abs(rep.matrices[:, 0, 0]
                                  - np.exp(2j * np.pi * j * exps / k)).max() > tol:
            raise ContractError(f"{rep.label}: not a cyclic character")
    if len(set(bins)) != k:
        raise ContractError("cyclic characters repeat")
    return np.array(bins)


def induce(S: SemigroupStructure,
           class_repsets: list[GroupRepSet] | None = None) -> InducedRepSet:
    return InducedRepSet(S, class_repsets if class_repsets is not None
                         else default_irreps(S))


@dataclass
class FourierCoefficients:
    repset: InducedRepSet
    blocks: list[np.ndarray]

    def __post_init__(self):
        if len(self.blocks) != len(self.repset.entries):
            raise ContractError("one matrix per induced representation required")
        for entry, blk in zip(self.repset.entries, self.blocks):
            if blk.shape != (entry.dim, entry.dim):
                raise ContractError(f"block {entry.label}: wrong shape {blk.shape}")

    @staticmethod
    def zeros(Y: InducedRepSet) -> "FourierCoefficients":
        return FourierCoefficients(
            Y, [np.zeros((e.dim, e.dim), dtype=complex) for e in Y.entries])

    def block(self, entry: InducedEntry, a: int, b: int) -> np.ndarray:
        d = entry.group_dim
        return self.blocks[entry.offset][a * d:(a + 1) * d, b * d:(b + 1) * d]

    def copy(self) -> "FourierCoefficients":
        return FourierCoefficients(self.repset, [b.copy() for b in self.blocks])


# -- forward and inverse pipelines -----------------------------------------

def fft(f: FunctionOnS, Y: InducedRepSet,
        counter: OpCounter | None = None) -> FourierCoefficients:
    """Fast zeta into the groupoid basis, then per D-class one group
    transform batched over all r^2 idempotent pairs."""
    S = f.structure
    if S is not Y.structure:
        raise ContractError("function and representation set disagree on S")
    if f.basis != SEMIGROUP:
        raise ContractError("fft expects the semigroup basis")
    counter = counter if counter is not None else OpCounter()
    g = fast_zeta(f, counter)
    blocks = [None] * len(Y.entries)
    for batch in Y.cyclic_batches:
        spectrum = cyclic_ft_fast(g.values[batch.ids], counter)
        for offset, start, r, j in batch.blocks:
            blocks[offset] = spectrum[start:start + r * r, j].reshape(r, r)
    for dc, rs, entries in zip(S.d_classes, Y.class_repsets, Y.class_entries):
        if rs.cyclic_exponents is not None:
            continue
        r = dc.num_idempotents
        spec = group_ft(g.values[dc.coord_ids].reshape(r * r, -1), rs, counter)
        for entry, rep in zip(entries, rs.reps):
            d = rep.dim
            blocks[entry.offset] = spec.blocks[rep.label].reshape(
                r, r, d, d).swapaxes(1, 2).reshape(r * d, r * d)
    return FourierCoefficients(Y, blocks)


def ifft(c: FourierCoefficients,
         counter: OpCounter | None = None) -> FunctionOnS:
    """Per D-class one batched group inversion, then the fast Mobius
    transform."""
    Y = c.repset
    S = Y.structure
    counter = counter if counter is not None else OpCounter()
    gvals = np.zeros(len(S), dtype=complex)
    for batch in Y.cyclic_batches:
        spectrum = np.empty(batch.ids.shape, dtype=complex)
        for offset, start, r, j in batch.blocks:
            spectrum[start:start + r * r, j] = c.blocks[offset].reshape(r * r)
        gvals[batch.ids] = cyclic_ift_fast(spectrum, counter)
    for dc, rs, entries in zip(S.d_classes, Y.class_repsets, Y.class_entries):
        if rs.cyclic_exponents is not None:
            continue
        r = dc.num_idempotents
        spec = GroupSpectrum({rep.label: c.blocks[e.offset].reshape(
            r, rep.dim, r, rep.dim).swapaxes(1, 2).reshape(r * r, rep.dim, rep.dim)
            for e, rep in zip(entries, rs.reps)})
        gvals[dc.coord_ids] = group_ift(spec, rs, counter).reshape(r, r, -1)
    return fast_mobius(FunctionOnS(S, GROUPOID, gvals), counter)


def naive_ft(f: FunctionOnS, Y: InducedRepSet) -> FourierCoefficients:
    """Direct sum of f(s) times the induced representation of s.

    The natural-basis matrix of s expands over the order ideal below s,
    and each groupoid term lands in exactly one block.  Quadratic; the
    ground truth for fft.
    """
    S = f.structure
    if S is not Y.structure:
        raise ContractError("function and representation set disagree on S")
    if f.basis != SEMIGROUP:
        raise ContractError("naive_ft expects the semigroup basis")
    out = FourierCoefficients.zeros(Y)
    down = S.downsets()
    for s in range(len(S)):
        fs = f.values[s]
        if fs == 0:
            continue
        for t in down[s]:
            k, a, b, y = S.element_coords[t]
            for entry in Y.class_entries[k]:
                rep = Y.class_repsets[k].reps[entry.rep_index]
                d = rep.dim
                out.blocks[entry.offset][a * d:(a + 1) * d,
                                         b * d:(b + 1) * d] += fs * rep.matrices[y]
    return out


# -- Steinberg's isomorphism on a single class ------------------------------

def steinberg_phi(x: FunctionOnS, k: int) -> np.ndarray:
    """Matrix-over-group-algebra image of a groupoid-basis function on D_k.

    Returns an (r, r, |G_k|) array: entry (a, b) is the coefficient vector
    in the group algebra of the class subgroup.
    """
    S = x.structure
    if x.basis != GROUPOID:
        raise ContractError("steinberg_phi expects the groupoid basis")
    dc = S.d_classes[k]
    support = np.flatnonzero(x.values)
    if any(S.class_of[i] != k for i in support):
        raise ContractError(f"support must lie inside D-class {k}")
    return x.values[dc.coord_ids]


def steinberg_phi_inverse(S: SemigroupStructure, k: int,
                          mat: np.ndarray) -> FunctionOnS:
    dc = S.d_classes[k]
    r = dc.num_idempotents
    if mat.shape != (r, r, len(dc.subgroup)):
        raise ContractError("matrix shape does not fit the class")
    vals = np.zeros(len(S), dtype=complex)
    vals[dc.coord_ids] = mat
    return FunctionOnS(S, GROUPOID, vals)


# -- direct inversion formulas ---------------------------------------------

def invert_groupoid_local(c: FourierCoefficients, s: int) -> complex:
    """g(s) from the single block the groupoid coefficient of s lives in."""
    Y = c.repset
    S = Y.structure
    k, a, b, y = S.element_coords[s]
    rs = Y.class_repsets[k]
    y_inv = rs.group.inv(y)
    acc = 0j
    for entry in Y.class_entries[k]:
        rep = rs.reps[entry.rep_index]
        acc += rep.dim * np.trace(c.block(entry, a, b) @ rep.matrices[y_inv])
    return acc / len(rs.group)


@dataclass
class ConjugatedRepSet:
    """An equivalent irreducible set: each induced rep conjugated by a
    fixed invertible matrix.  Realizes the 'any complete set' freedom in
    the inversion formulas."""
    base: InducedRepSet
    mats: list[np.ndarray]
    mats_inv: list[np.ndarray]
    _cache: dict = field(default_factory=dict, repr=False)

    @staticmethod
    def identity(Y: InducedRepSet) -> "ConjugatedRepSet":
        eyes = [np.eye(e.dim, dtype=complex) for e in Y.entries]
        return ConjugatedRepSet(Y, eyes, [m.copy() for m in eyes])

    @staticmethod
    def random(Y: InducedRepSet, seed: int,
               cond_cap: float = 1e3) -> "ConjugatedRepSet":
        rng = np.random.default_rng(seed)
        mats, invs = [], []
        for e in Y.entries:
            for _ in range(100):
                A = rng.normal(size=(e.dim, e.dim)) \
                    + 1j * rng.normal(size=(e.dim, e.dim))
                if np.linalg.cond(A) <= cond_cap:
                    break
            else:
                raise ContractError("could not draw a well-conditioned basis change")
            mats.append(A)
            invs.append(np.linalg.inv(A))
        return ConjugatedRepSet(Y, mats, invs)

    def spectrum(self, c: FourierCoefficients) -> list[np.ndarray]:
        if c.repset is not self.base:
            raise ContractError("spectrum built against another representation set")
        return [A @ blk @ Ai
                for A, Ai, blk in zip(self.mats, self.mats_inv, c.blocks)]

    def groupoid_matrix(self, entry: InducedEntry, t: int) -> np.ndarray:
        """rho-tilde of the groupoid basis element of t (zero off-class)."""
        key = ("groupoid", entry.offset, t)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        S = self.base.structure
        out = np.zeros((entry.dim, entry.dim), dtype=complex)
        k, a, b, y = S.element_coords[t]
        if k == entry.class_index:
            rep = self.base.class_repsets[k].reps[entry.rep_index]
            d = rep.dim
            out[a * d:(a + 1) * d, b * d:(b + 1) * d] = rep.matrices[y]
        A, Ai = self.mats[entry.offset], self.mats_inv[entry.offset]
        result = A @ out @ Ai
        self._cache[key] = result
        return result

    def natural_matrix(self, entry: InducedEntry, v: int) -> np.ndarray:
        """rho-tilde of the natural basis element v: sum over the ideal below."""
        key = ("natural", entry.offset, v)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        S = self.base.structure
        out = np.zeros((entry.dim, entry.dim), dtype=complex)
        k = entry.class_index
        rep = self.base.class_repsets[k].reps[entry.rep_index]
        d = rep.dim
        for t in S.downsets()[v]:
            ck, a, b, y = S.element_coords[t]
            if ck == k:
                out[a * d:(a + 1) * d, b * d:(b + 1) * d] += rep.matrices[y]
        A, Ai = self.mats[entry.offset], self.mats_inv[entry.offset]
        result = A @ out @ Ai
        self._cache[key] = result
        return result


def invert_equivalent_reps(c: FourierCoefficients, s: int,
                           X: ConjugatedRepSet) -> complex:
    """g(s) via the conjugated class representations; basis-choice invariant."""
    Y = X.base
    S = Y.structure
    k = S.class_of[s]
    s_inv = S.inv(s)
    spectra = X.spectrum(c)
    acc = 0j
    for entry in Y.class_entries[k]:
        acc += entry.group_dim * np.trace(
            spectra[entry.offset] @ X.groupoid_matrix(entry, s_inv))
    return acc / len(S.d_classes[k].subgroup)


def invert_uniform(c: FourierCoefficients, s: int,
                   X: ConjugatedRepSet) -> complex:
    """g(s) with the uniform 1/(r |G|) weight and full induced dimensions."""
    Y = X.base
    S = Y.structure
    dc = S.d_classes[S.class_of[s]]
    s_inv = S.inv(s)
    spectra = X.spectrum(c)
    acc = 0j
    for entry in Y.class_entries[dc.index]:
        acc += entry.dim * np.trace(
            spectra[entry.offset] @ X.groupoid_matrix(entry, s_inv))
    return acc / (dc.num_idempotents * len(dc.subgroup))


def invert_semigroup_basis(c: FourierCoefficients, s: int,
                           X: ConjugatedRepSet) -> complex:
    """f(s) directly from the spectrum, via a double Mobius sum.

    Outer sum over t >= s; inner sum over v with v^-1 below t^-1 in the
    natural order, evaluating every representation of X on the natural
    basis element v^-1.  Quadratic per element; small instances only.
    """
    Y = X.base
    S = Y.structure
    spectra = X.spectrum(c)
    acc = 0j
    for t in S.upsets()[s]:
        dc = S.d_classes[S.class_of[t]]
        t_inv = S.inv(t)
        inner = 0j
        for v_inv in S.downsets()[t_inv]:
            trace_sum = 0j
            for entry in Y.entries:
                trace_sum += entry.dim * np.trace(
                    spectra[entry.offset] @ X.natural_matrix(entry, v_inv))
            inner += S.mobius(v_inv, t_inv) * trace_sum
        acc += S.mobius(s, t) * inner / (dc.num_idempotents * len(dc.subgroup))
    return acc


# -- convolution -----------------------------------------------------------

def convolve_naive(f: FunctionOnS, g: FunctionOnS) -> FunctionOnS:
    S = f.structure
    if g.structure is not S:
        raise ContractError("convolution operands live on different semigroups")
    if f.basis != SEMIGROUP or g.basis != SEMIGROUP:
        raise ContractError("convolution expects the semigroup basis")
    out = np.zeros(len(S), dtype=complex)
    fs = np.flatnonzero(f.values)
    gs = np.flatnonzero(g.values)
    for i in fs:
        for j in gs:
            out[S.mul(i, j)] += f.values[i] * g.values[j]
    return FunctionOnS(S, SEMIGROUP, out)


def multiply_spectra(c1: FourierCoefficients,
                     c2: FourierCoefficients) -> FourierCoefficients:
    if c1.repset is not c2.repset:
        raise ContractError("spectra built against different representation sets")
    return FourierCoefficients(
        c1.repset, [a @ b for a, b in zip(c1.blocks, c2.blocks)])


def convolve_fft(f: FunctionOnS, g: FunctionOnS, Y: InducedRepSet,
                 counter: OpCounter | None = None) -> FunctionOnS:
    return ifft(multiply_spectra(fft(f, Y, counter), fft(g, Y, counter)),
                counter)


# -- JSON artifacts --------------------------------------------------------

def function_to_json(f: FunctionOnS) -> dict:
    S = f.structure
    values = {}
    for i in np.flatnonzero(f.values):
        z = f.values[i]
        values[encode(S.elements[i])] = [z.real, z.imag]
    return {"family": S.family, "n": S.n, "basis": f.basis, "values": values}


def _json_object(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise ContractError(f"{what} is not a JSON object")
    return data


def _check_semigroup(S: SemigroupStructure, data, what: str) -> dict:
    """data, once it is a JSON object naming S's family and n."""
    data = _json_object(data, f"{what} file")
    try:
        same = (data.get("family") == S.family
                and int(data.get("n", -1)) == S.n)
    except (TypeError, ValueError):
        same = False
    if not same:
        raise ContractError(f"{what} file is for a different semigroup")
    return data


def _numbers(x, count: int) -> bool:
    """Whether x is an array of `count` numbers (booleans excluded)."""
    return (isinstance(x, (list, tuple)) and len(x) == count
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in x))


def function_from_json(S: SemigroupStructure, data: dict) -> FunctionOnS:
    data = _check_semigroup(S, data, "function")
    basis = data.get("basis", SEMIGROUP)
    vals = np.zeros(len(S), dtype=complex)
    for key, pair in _json_object(data.get("values", {}),
                                  "function file's values").items():
        if not _numbers(pair, 2):
            raise ContractError(f"value of {key!r} is not a [re, im] pair "
                                "of numbers")
        vals[S.id_of(decode(key, S.n))] = complex(*pair)
    if not np.isfinite(vals).all():
        raise ContractError("function file holds a non-finite value")
    return FunctionOnS(S, basis, vals)


def spectrum_to_json(c: FourierCoefficients) -> dict:
    Y = c.repset
    S = Y.structure
    blocks = []
    for entry, blk in zip(Y.entries, c.blocks):
        dc = S.d_classes[entry.class_index]
        rep = Y.class_repsets[entry.class_index].reps[entry.rep_index]
        data = []
        for row in blk:
            for z in row:
                data.extend([z.real, z.imag])
        blocks.append({"class": entry.class_index, "rep": rep.label,
                       "rows": list(dc.idempotent_ids),
                       "cols": list(dc.idempotent_ids),
                       "data": data})
    return {"family": S.family, "n": S.n, "blocks": blocks}


def spectrum_from_json(Y: InducedRepSet, data: dict) -> FourierCoefficients:
    S = Y.structure
    data = _check_semigroup(S, data, "spectrum")
    raw = data.get("blocks", [])
    if not isinstance(raw, list) or len(raw) != len(Y.entries):
        raise ContractError("spectrum file has the wrong number of blocks")
    blocks = []
    for entry, item in zip(Y.entries, raw):
        rep = Y.class_repsets[entry.class_index].reps[entry.rep_index]
        item = _json_object(item, f"spectrum block {rep.label}")
        if item.get("class") != entry.class_index or item.get("rep") != rep.label:
            raise ContractError("spectrum blocks out of order")
        idems = list(S.d_classes[entry.class_index].idempotent_ids)
        if item.get("rows") != idems or item.get("cols") != idems:
            raise ContractError(f"block {rep.label}: rows/cols are not the "
                                "class's idempotents")
        flat = item.get("data")
        if not _numbers(flat, 2 * entry.dim ** 2):
            raise ContractError(f"block {rep.label}: data is not "
                                f"{2 * entry.dim ** 2} numbers")
        flat = np.asarray(flat, dtype=float)
        if not np.isfinite(flat).all():
            raise ContractError(f"block {rep.label}: non-finite value")
        arr = flat[0::2] + 1j * flat[1::2]
        blocks.append(arr.reshape(entry.dim, entry.dim))
    return FourierCoefficients(Y, blocks)


def dump_json(data: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
