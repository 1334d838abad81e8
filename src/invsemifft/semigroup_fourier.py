"""Fourier analysis on a finite inverse semigroup.

The semigroup algebra splits, class by class, into matrix algebras over
the maximal subgroup algebras.  So fft is a fast zeta transform into the
groupoid basis, then the group stage: `induce` lowers every D-class to
its ids, one row per idempotent pair, and its operands from
`group_operands`, classes with the same operands sharing one batch, and
each call makes one gather and one product per operand.  ifft runs the
operands transposed, then the fast Mobius transform.  Also here: the
direct per-element inversion formulas, convolution (naive and
spectral), and JSON artifacts.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .elements import decode, encode
from .errors import ContractError, DomainError, StructureError
from .fast_transforms import OpCounter, fast_mobius, fast_zeta
from .group_harmonics import (GroupRepSet, count_products, group_operands,
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


@dataclass
class InducedRepSet:
    structure: SemigroupStructure
    class_repsets: list[GroupRepSet]
    entries: list[InducedEntry] = field(default_factory=list)
    # Per D-class: its entries.
    class_entries: list[list[InducedEntry]] = field(default_factory=list)
    # The group stage, one batch per list of operand objects (see _lower):
    # (ids, S.inverse[ids], [(matrix, d/|G|, product buffer slice), ...]).
    batches: list[tuple] = field(default_factory=list)
    # The spectrum buffer: a (count, D, D) stack per block size D,
    # ascending; block_at[e] is entry e's place in the stacks, spectrum_at[i]
    # the product entry at buffer position i, transposed_at[j] the buffer
    # position of product entry j read in the transposed block.
    stacks: list[tuple[int, int]] = field(default_factory=list)
    block_at: list[int] = field(default_factory=list)
    spectrum_at: np.ndarray | None = None
    transposed_at: np.ndarray | None = None

    def __post_init__(self):
        S = self.structure
        if len(self.class_repsets) != len(S.d_classes):
            raise ContractError("need one representation set per D-class")
        self.entries, self.class_entries = [], []
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
        dims = self.dims
        by_size = sorted(range(len(dims)), key=dims.__getitem__)
        self.block_at, size_start, total = [0] * len(dims), [0] * len(dims), 0
        for k, i in enumerate(by_size):
            self.block_at[i], size_start[i], total = k, total, total + dims[i] ** 2
        if total != len(S):
            raise ContractError(
                f"induced dimensions square-sum to {total}, |S| = {len(S)}")
        self.stacks = [(len(list(run)), dim) for dim, run in
                       itertools.groupby(dims[i] for i in by_size)]
        self.batches, self.spectrum_at, self.transposed_at = _lower(
            S, self.class_repsets, self.class_entries, size_start)

    @property
    def dims(self) -> list[int]:
        return [e.dim for e in self.entries]

    def stack_views(self, buffer: np.ndarray) -> list[np.ndarray]:
        """A spectrum buffer's (count, D, D) stacks, as views."""
        views, lo = [], 0
        for count, dim in self.stacks:
            hi = lo + count * dim * dim
            views.append(buffer[lo:hi].reshape(count, dim, dim))
            lo = hi
        return views


@lru_cache(maxsize=None)
def _pair_positions(r: int, d: int, transpose: bool) -> np.ndarray:
    """(r^2, d^2), read-only: entry (a r + b, p d + q) is the position of
    (a d + p, b d + q) in an (r d, r d) block, or of (b d + q, a d + p)."""
    block = np.arange((r * d) ** 2).reshape(r, d, r, d)     # [a, p, b, q]
    out = block.transpose((2, 0, 3, 1) if transpose else (0, 2, 1, 3)
                          ).reshape(r * r, d * d)
    out.flags.writeable = False
    return out


def _lower(S, class_repsets, class_entries, size_start):
    """The group stage's batches, spectrum_at and transposed_at.  A class
    is its ids in its operands' element order, one row per idempotent pair
    (a, b), and its operands; classes with the same operand objects share
    a batch.  Each operand's (rows, m) product fills the next slice of the
    product buffer; its entry (pair (a, b), column (p, q) of rep j) is
    entry (a d + p, b d + q) of rep j's block, at size_start in the
    spectrum buffer."""
    stacked = {}
    for dc, rs, entries in zip(S.d_classes, class_repsets, class_entries):
        order, operands = group_operands(rs)
        r = dc.num_idempotents
        pairs = dc.coord_ids.reshape(r * r, -1)
        maps = [[(np.array([size_start[entries[i].offset] for i in idx])[:, None]
                  + _pair_positions(r, d, transpose)[:, None, :]).ravel()
                 for transpose in (False, True)]
                for _, idx, d in operands]
        key = tuple(id(matrix) for matrix, _, _ in operands)
        _, members = stacked.setdefault(key, (operands, []))
        members.append((np.take(pairs, order, axis=1), maps))
    batches, dest, src, lo = [], [], [], 0
    for operands, members in stacked.values():
        ids, maps = zip(*members)
        ids, slices = np.concatenate(ids), []
        for j, (matrix, _, d) in enumerate(operands):
            hi = lo + len(ids) * matrix.shape[1]
            slices.append((matrix, d / len(matrix), slice(lo, hi)))
            dest += [m[j][0] for m in maps]
            src += [m[j][1] for m in maps]
            lo = hi
        batches.append((ids, S.inverse[ids], slices))
    spectrum_at = np.empty(len(S), dtype=np.intp)
    spectrum_at[np.concatenate(dest)] = np.arange(len(S))
    return batches, spectrum_at, np.concatenate(src)


def induce(S: SemigroupStructure,
           class_repsets: list[GroupRepSet] | None = None) -> InducedRepSet:
    return InducedRepSet(S, class_repsets if class_repsets is not None
                         else default_irreps(S))


@dataclass
class FourierCoefficients:
    """A spectrum: one complex buffer of |S| entries in the repset's
    stacks layout.  blocks are writable views of it in entry order."""
    repset: InducedRepSet
    data: np.ndarray

    def __post_init__(self):
        if self.data.shape != (len(self.repset.structure),):
            raise ContractError(f"spectrum buffer has shape {self.data.shape}, "
                                f"not ({len(self.repset.structure)},)")

    @staticmethod
    def from_blocks(Y: InducedRepSet,
                    blocks: list[np.ndarray]) -> "FourierCoefficients":
        """The spectrum with these blocks, in entry order, copied in."""
        if len(blocks) != len(Y.entries):
            raise ContractError("one matrix per induced representation required")
        c = FourierCoefficients.zeros(Y)
        for entry, view, blk in zip(Y.entries, c.blocks, blocks):
            if np.shape(blk) != (entry.dim, entry.dim):
                raise ContractError(
                    f"block {entry.label}: wrong shape {np.shape(blk)}")
            view[...] = blk
        return c

    @staticmethod
    def zeros(Y: InducedRepSet) -> "FourierCoefficients":
        return FourierCoefficients(Y, np.zeros(len(Y.structure), dtype=complex))

    @cached_property
    def blocks(self) -> list[np.ndarray]:
        views = [v for stack in self.repset.stack_views(self.data) for v in stack]
        return [views[k] for k in self.repset.block_at]

    def block(self, entry: InducedEntry, a: int, b: int) -> np.ndarray:
        d = entry.group_dim
        return self.blocks[entry.offset][a * d:(a + 1) * d, b * d:(b + 1) * d]

    def copy(self) -> "FourierCoefficients":
        return FourierCoefficients(self.repset, self.data.copy())


# -- forward and inverse pipelines -----------------------------------------

def fft(f: FunctionOnS, Y: InducedRepSet,
        counter: OpCounter | None = None) -> FourierCoefficients:
    """Fast zeta, then per batch one gather of rows and per operand one
    product into the product buffer, which one gather puts in spectrum
    order."""
    S = f.structure
    if S is not Y.structure:
        raise ContractError("function and representation set disagree on S")
    if f.basis != SEMIGROUP:
        raise ContractError("fft expects the semigroup basis")
    counter = counter if counter is not None else OpCounter()
    g = fast_zeta(f, counter)
    products = np.empty(len(S), dtype=complex)
    for ids, _, operands in Y.batches:
        rows = g.values[ids]
        for matrix, _, at in operands:
            np.matmul(rows, matrix, out=products[at].reshape(len(rows), -1))
        # a complete set's operands have |G| columns in all
        count_products(counter, *rows.shape, rows.shape[1])
    return FourierCoefficients(Y, products[Y.spectrum_at])


def ifft(c: FourierCoefficients,
         counter: OpCounter | None = None) -> FunctionOnS:
    """The spectrum's transposed blocks in product order; per batch, the
    sum over operands of the scaled entries times the operand's transpose.
    Row (a, b) at y is then tr(F_ba rho(y)) summed over the reps, the
    groupoid coefficient of the inverse of (a, b, y), so it is written at
    the inverse ids; then fast Mobius."""
    Y = c.repset
    S = Y.structure
    counter = counter if counter is not None else OpCounter()
    spectrum = c.data[Y.transposed_at]
    gvals = np.empty(len(S), dtype=complex)
    for ids, inv_ids, operands in Y.batches:
        terms = ((spectrum[at].reshape(len(ids), -1) * scale) @ matrix.T
                 for matrix, scale, at in operands)
        acc = next(terms)
        for term in terms:
            acc += term
        gvals[inv_ids] = acc
        count_products(counter, *acc.shape, acc.shape[1], inverse=True)
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

    def _conjugated(self, key: tuple, entry: InducedEntry,
                    terms: list[int]) -> np.ndarray:
        """A rho(sum of the groupoid basis elements in terms) A^-1 for the
        entry's rep rho and basis change A, cached under key."""
        if key not in self._cache:
            k = entry.class_index
            rep = self.base.class_repsets[k].reps[entry.rep_index]
            d = rep.dim
            out = np.zeros((entry.dim, entry.dim), dtype=complex)
            for t in terms:
                ck, a, b, y = self.base.structure.element_coords[t]
                if ck == k:
                    out[a * d:(a + 1) * d, b * d:(b + 1) * d] += rep.matrices[y]
            self._cache[key] = (self.mats[entry.offset] @ out
                                @ self.mats_inv[entry.offset])
        return self._cache[key]

    def groupoid_matrix(self, entry: InducedEntry, t: int) -> np.ndarray:
        """rho-tilde of the groupoid basis element of t (zero off-class)."""
        return self._conjugated(("groupoid", entry.offset, t), entry, [t])

    def natural_matrix(self, entry: InducedEntry, v: int) -> np.ndarray:
        """rho-tilde of the natural basis element v: sum over the ideal below."""
        return self._conjugated(("natural", entry.offset, v), entry,
                                self.base.structure.downsets()[v])


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
    for j in np.flatnonzero(g.values):
        np.add.at(out, S.mul(fs, j), f.values[fs] * g.values[j])
    return FunctionOnS(S, SEMIGROUP, out)


def multiply_spectra(c1: FourierCoefficients,
                     c2: FourierCoefficients) -> FourierCoefficients:
    """Blockwise products, one stacked product per block size."""
    Y = c1.repset
    if c2.repset is not Y:
        raise ContractError("spectra built against different representation sets")
    out = np.empty(len(Y.structure), dtype=complex)
    for a, b, o in zip(Y.stack_views(c1.data), Y.stack_views(c2.data),
                       Y.stack_views(out)):
        np.matmul(a, b, out=o)
    return FourierCoefficients(Y, out)


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
    """data, once it is a JSON object naming S's family and, as a JSON
    integer (booleans excluded), its n."""
    data = _json_object(data, f"{what} file")
    n = data.get("n")
    if (data.get("family") != S.family or isinstance(n, bool)
            or not isinstance(n, int) or n != S.n):
        raise ContractError(f"{what} file is for a different semigroup")
    return data


def _numbers(x, count: int) -> bool:
    """Whether x is an array of `count` numbers (booleans excluded)."""
    return (isinstance(x, (list, tuple)) and len(x) == count
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in x))


def _finite(x, message: str) -> np.ndarray:
    """x, a nested list of numbers, as a float array, or a ContractError
    with message if a value is not finite or, as an integer, exceeds the
    float range."""
    try:
        arr = np.asarray(x, dtype=float)
    except OverflowError:
        raise ContractError(message) from None
    if not np.isfinite(arr).all():
        raise ContractError(message)
    return arr


def function_from_json(S: SemigroupStructure, data: dict) -> FunctionOnS:
    data = _check_semigroup(S, data, "function")
    basis = data.get("basis", SEMIGROUP)
    values = _json_object(data.get("values", {}), "function file's values")
    for key, pair in values.items():
        if not _numbers(pair, 2):
            raise ContractError(f"value of {key!r} is not a [re, im] pair "
                                "of numbers")
    ids = S.ids_of([decode(key, S.n) for key in values])
    if (ids < 0).any():
        key = list(values)[np.flatnonzero(ids < 0)[0]]
        raise StructureError(f"element {key!r} is not in the semigroup")
    pairs = _finite(list(values.values()), "function file holds a non-finite "
                    "value").reshape(-1, 2)
    vals = np.zeros(len(S), dtype=complex)
    vals[ids] = pairs.view(complex)[:, 0]
    return FunctionOnS(S, basis, vals)


def spectrum_to_json(c: FourierCoefficients) -> dict:
    Y = c.repset
    S = Y.structure
    blocks = []
    for entry, blk in zip(Y.entries, c.blocks):
        dc = S.d_classes[entry.class_index]
        rep = Y.class_repsets[entry.class_index].reps[entry.rep_index]
        data = np.stack([blk.real, blk.imag], axis=-1).ravel().tolist()
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
    c = FourierCoefficients.zeros(Y)
    for entry, item, view in zip(Y.entries, raw, c.blocks):
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
        flat = _finite(flat, f"block {rep.label}: non-finite value")
        view[...] = (flat[0::2] + 1j * flat[1::2]).reshape(entry.dim, entry.dim)
    return c


def dump_json(data: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
