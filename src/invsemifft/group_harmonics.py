"""Irreducible representations of the maximal-subgroup families and
exact group Fourier transforms, with a fast cyclic path.

Covered: characters of Z_k, Young's orthogonal representations of S_k,
and the induced-from-Young-subgroup construction for wreath products of
an abelian group by S_k.  Every transform takes a leading batch axis of
functions.  The dense group transforms are one matrix product per
representation over the whole batch; the cyclic case also has a counted
radix-2/Bluestein DFT with one array operation per butterfly stage.
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CapabilityError, ContractError, DomainError
from .fast_transforms import OpCounter
from .groups import GroupTable, cyclic_group, symmetric_group, wreath_group

SYMMETRIC_CAP = 8


@dataclass
class Irrep:
    label: str
    dim: int
    matrices: np.ndarray  # (|G|, d, d) complex, indexed by group element

    def character(self) -> np.ndarray:
        return np.einsum("gii->g", self.matrices)


@dataclass
class GroupRepSet:
    group: GroupTable
    reps: list[Irrep]
    # For recognized cyclic groups: exponent of each element w.r.t. the
    # chosen generator, enabling the fast DFT path.  The reps must then be
    # characters, in any order; induce() finds each one's DFT bin.
    cyclic_exponents: list[int] | None = None

    @property
    def dims(self) -> list[int]:
        return [r.dim for r in self.reps]


# -- partitions and standard tableaux --------------------------------------

def partitions(k: int) -> list[tuple[int, ...]]:
    """All partitions of k, in descending lexicographic order."""
    if k == 0:
        return [()]
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(maxpart, remaining), 0, -1):
            rec(remaining - p, p, prefix + [p])

    rec(k, k, [])
    return out


def hook_length_dim(shape: tuple[int, ...]) -> int:
    k = sum(shape)
    if k == 0:
        return 1
    prod = 1
    cols = [0] * (shape[0] if shape else 0)
    for row in shape:
        for c in range(row):
            cols[c] += 1
    for r, row in enumerate(shape):
        for c in range(row):
            prod *= (row - c) + (cols[c] - r) - 1
    return math.factorial(k) // prod


def standard_tableaux(shape: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
    """Tableaux as position tuples: entry v-1 is the (row, col) of value v."""
    k = sum(shape)
    out: list[tuple[tuple[int, int], ...]] = []

    def rec(filled_rows, positions):
        v = len(positions)
        if v == k:
            out.append(tuple(positions))
            return
        for r, row_len in enumerate(shape):
            if filled_rows[r] < row_len and (r == 0 or filled_rows[r] < filled_rows[r - 1]):
                filled_rows[r] += 1
                positions.append((r, filled_rows[r] - 1))
                rec(filled_rows, positions)
                positions.pop()
                filled_rows[r] -= 1

    rec([0] * len(shape), [])
    return out


@lru_cache(maxsize=None)
def _yor_generators(shape: tuple[int, ...]) -> tuple:
    """(tableau list, [matrix of adjacent transposition s_i for i=1..k-1])."""
    tabs = standard_tableaux(shape)
    d = len(tabs)
    index = {t: i for i, t in enumerate(tabs)}
    k = sum(shape)
    gens = []
    for i in range(1, k):
        m = np.zeros((d, d))
        for a, t in enumerate(tabs):
            ri, ci = t[i - 1]
            rj, cj = t[i]
            dist = (cj - rj) - (ci - ri)  # content difference, never 0
            m[a, a] = 1.0 / dist
            swapped = list(t)
            swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
            b = index.get(tuple(swapped))
            if b is not None and b > a:
                off = math.sqrt(1.0 - 1.0 / dist ** 2)
                m[b, a] = off
                m[a, b] = off
                m[b, b] = -1.0 / dist
        gens.append(m)
    return tabs, gens


def reduced_word(perm: tuple[int, ...]) -> list[int]:
    """Adjacent-transposition word (bubble sort): perm = s_{w[-1]} ... s_{w[0]}."""
    arr = list(perm)
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(len(arr) - 1):
            if arr[i] > arr[i + 1]:
                arr[i], arr[i + 1] = arr[i + 1], arr[i]
                word.append(i + 1)
                changed = True
    return word


def yor_matrix(shape: tuple[int, ...], perm: tuple[int, ...]) -> np.ndarray:
    tabs, gens = _yor_generators(shape)
    d = max(1, len(tabs))
    m = np.eye(d)
    for i in reversed(reduced_word(perm)):
        m = m @ gens[i - 1]
    return m


def symmetric_rep_evaluators(k: int, cap: int = SYMMETRIC_CAP):
    """[(label, dim, eval(perm) -> matrix)] for each partition of k."""
    if k > cap:
        raise CapabilityError(f"symmetric representations capped at k <= {cap}")
    out = []
    for shape in partitions(k):
        out.append((str(shape), hook_length_dim(shape),
                    lambda perm, s=shape: yor_matrix(s, perm)))
    return out


def irreps_symmetric(k: int, cap: int = SYMMETRIC_CAP) -> GroupRepSet:
    if k > cap:
        raise CapabilityError(f"symmetric representations capped at k <= {cap}")
    group = symmetric_group(k)
    reps = []
    for label, dim, ev in symmetric_rep_evaluators(k, cap):
        mats = np.stack([ev(p) for p in group.keys]).astype(complex)
        reps.append(Irrep(label, dim, mats))
    return GroupRepSet(group, reps)


# -- cyclic groups ---------------------------------------------------------

def irreps_cyclic(k: int) -> GroupRepSet:
    return cyclic_repset_for(cyclic_group(k))


def _exponents(group: GroupTable, gen: int) -> list[int]:
    """Exponent of each element as a power of the generator `gen`."""
    exps, x = [0] * len(group), group.identity
    for e in range(len(group)):
        exps[x], x = e, group.mul(x, gen)
    return exps


def cyclic_repset_for(group: GroupTable, gen: int | None = None) -> GroupRepSet:
    """Character rep set aligned to an arbitrary cyclic group table, with
    exponents w.r.t. `gen` (default: the first generator)."""
    gen = group.generator_if_cyclic() if gen is None else gen
    if gen is None or group.element_order(gen) != len(group):
        raise CapabilityError("group is not cyclic on that generator")
    k = len(group)
    exps = _exponents(group, gen)
    reps = []
    for j in range(k):
        mats = np.array([[[cmath.exp(2j * cmath.pi * j * exps[i] / k)]]
                         for i in range(k)])
        reps.append(Irrep(f"chi_{j}", 1, mats))
    return GroupRepSet(group, reps, cyclic_exponents=exps)


# -- abelian characters from a bare table ----------------------------------

def abelian_characters(group: GroupTable) -> list[np.ndarray]:
    """All |G| characters of an abelian group, deterministically ordered."""
    if not group.is_abelian():
        raise CapabilityError("character construction requires an abelian group")
    gen = group.generator_if_cyclic()
    k = len(group)
    if gen is not None:
        exps = _exponents(group, gen)
        chars = [np.array([cmath.exp(2j * cmath.pi * j * exps[i] / k)
                           for i in range(k)]) for j in range(k)]
    else:
        # Simultaneously diagonalize the regular representation with a
        # fixed pseudo-random combination; eigenvectors give the characters.
        rng = np.random.default_rng(12345)
        regs = np.zeros((k, k, k))
        for g in range(k):
            for h in range(k):
                regs[g, group.mul(g, h), h] = 1.0
        coeffs = rng.normal(size=k)
        _, vecs = np.linalg.eig(np.einsum("g,gij->ij", coeffs, regs))
        chars = []
        for c in range(k):
            v = vecs[:, c]
            m = int(np.argmax(np.abs(v)))
            chars.append(np.array([(regs[g] @ v)[m] / v[m] for g in range(k)]))
    chars.sort(key=lambda ch: tuple((round(z.real, 9), round(z.imag, 9))
                                    for z in ch))
    return chars


# -- wreath products of an abelian group by S_k ----------------------------

def _young_transversal(k: int, sizes: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Sorted minimal coset representatives of S_k over the Young subgroup."""
    blocks = []
    start = 1
    for sz in sizes:
        blocks.append(tuple(range(start, start + sz)))
        start += sz
    cosets: dict[tuple, tuple[int, ...]] = {}
    for perm in itertools.permutations(range(1, k + 1)):
        key = tuple(frozenset(perm[x - 1] for x in blk) for blk in blocks)
        if key not in cosets or perm < cosets[key]:
            cosets[key] = perm
    return sorted(cosets.values())


def wreath_rep_evaluators(labels: GroupTable, k: int, cap: int = SYMMETRIC_CAP):
    """[(label, dim, eval((perm, labtuple)) -> matrix)] for abelian `labels`.

    One representation per |G|-tuple of partitions with total size k, built
    by inducing character-twisted Young products from the block stabilizer.
    """
    if k > cap:
        raise CapabilityError(f"wreath representations capped at k <= {cap}")
    chars = abelian_characters(labels)
    h = len(labels)
    inv_perm = lambda p: tuple(p.index(x) + 1 for x in range(1, k + 1))

    evaluators = []
    for sizes in itertools.product(range(k + 1), repeat=h):
        if sum(sizes) != k:
            continue
        blocks = []
        start = 1
        for sz in sizes:
            blocks.append(tuple(range(start, start + sz)))
            start += sz
        block_of = {}
        for bi, blk in enumerate(blocks):
            for x in blk:
                block_of[x] = bi
        transversal = _young_transversal(k, sizes)
        inv_transversal = [inv_perm(t) for t in transversal]
        m = len(transversal)

        for shapes in itertools.product(*(partitions(sz) for sz in sizes)):
            dims = [hook_length_dim(s) for s in shapes]
            inner = math.prod(dims)

            def base_rep(perm, labs, shapes=shapes, blocks=blocks,
                         block_of=block_of):
                """Stabilizer rep: character twist times tensor of YOR blocks."""
                scale = 1.0 + 0j
                for x in range(1, k + 1):
                    scale *= chars[block_of[x]][labs[x - 1]]
                mat = np.eye(1, dtype=complex)
                for bi, blk in enumerate(blocks):
                    local = tuple(blk.index(perm[x - 1]) + 1 for x in blk)
                    mat = np.kron(mat, yor_matrix(shapes[bi], local))
                return scale * mat

            def ev(key, base_rep=base_rep, blocks=blocks, m=m,
                   transversal=transversal, inv_transversal=inv_transversal,
                   inner=inner):
                perm, labs = key
                out = np.zeros((m * inner, m * inner), dtype=complex)
                for a in range(m):
                    ta_inv = inv_transversal[a]
                    for b in range(m):
                        tb = transversal[b]
                        # w = t_a^-1 u t_b in the wreath product; t's carry
                        # identity labels so only the permutation part mixes.
                        w_perm = tuple(ta_inv[perm[tb[x - 1] - 1] - 1]
                                       for x in range(1, k + 1))
                        if any(w_perm[x - 1] not in blk
                               for blk in blocks for x in blk):
                            continue
                        w_labs = tuple(labs[tb[x - 1] - 1] for x in range(1, k + 1))
                        out[a * inner:(a + 1) * inner,
                            b * inner:(b + 1) * inner] = base_rep(w_perm, w_labs)
                return out

            evaluators.append((str(tuple(shapes)), m * inner, ev))
    return evaluators


def irreps_wreath_abelian(labels: GroupTable, k: int,
                          cap: int = SYMMETRIC_CAP) -> GroupRepSet:
    if k > cap:
        raise CapabilityError(f"wreath representations capped at k <= {cap}")
    if not labels.is_abelian():
        raise CapabilityError("wreath construction requires an abelian group")
    group = wreath_group(labels, k)
    reps = []
    for label, dim, ev in wreath_rep_evaluators(labels, k, cap):
        mats = np.stack([ev(key) for key in group.keys])
        reps.append(Irrep(label, dim, mats))
    return GroupRepSet(group, reps)


# -- alignment with maximal subgroups of a semigroup -----------------------

def trivial_repset(group: GroupTable) -> GroupRepSet:
    if len(group) != 1:
        raise ContractError("trivial rep set needs a trivial group")
    return GroupRepSet(group, [Irrep("triv", 1, np.ones((1, 1, 1), dtype=complex))],
                       cyclic_exponents=[0])


def repset_for_subgroup(structure, dclass, cap: int = SYMMETRIC_CAP) -> GroupRepSet:
    """A complete irreducible set aligned with a D-class maximal subgroup."""
    gt = dclass.subgroup
    if len(gt) == 1:
        return trivial_repset(gt)
    family = structure.family
    if family in ("rook", "wreath_rook"):
        e_k = structure.elements[dclass.rep_idempotent]
        base = sorted(e_k.domain)
        pos = {p: i + 1 for i, p in enumerate(base)}
        keys = []
        for gid in gt.keys:
            el = structure.elements[gid]
            img = {i: (j, g) for i, j, g in el.pairs}
            perm = tuple(pos[img[p][0]] for p in base)
            labs = tuple(img[p][1] for p in base)
            keys.append((perm, labs))
        k = len(base)
        if family == "rook":
            reps = []
            for label, dim, ev in symmetric_rep_evaluators(k, cap):
                mats = np.stack([ev(perm) for perm, _ in keys]).astype(complex)
                reps.append(Irrep(label, dim, mats))
            return GroupRepSet(gt, reps)
        if not structure.label_group.is_abelian():
            raise CapabilityError(
                "built-in wreath representations require an abelian label group")
        reps = []
        for label, dim, ev in wreath_rep_evaluators(structure.label_group, k, cap):
            mats = np.stack([ev(key) for key in keys])
            reps.append(Irrep(label, dim, mats))
        return GroupRepSet(gt, reps)
    # cyclic_shift, rotation, and any other cyclic case
    return cyclic_repset_for(gt)


# -- group Fourier transforms ----------------------------------------------

@dataclass
class GroupSpectrum:
    blocks: dict[str, np.ndarray] = field(default_factory=dict)


def group_ft(values: np.ndarray, reps: GroupRepSet,
             counter: OpCounter | None = None) -> GroupSpectrum:
    """f_hat(rho) = sum_s f(s) rho(s) for each row of values (..., |G|):
    one (rows, |G|) x (|G|, d^2) product per rep, blocks (..., d, d)."""
    counter = counter if counter is not None else OpCounter()
    values = np.asarray(values, dtype=complex)
    n = len(reps.group)
    if values.shape[-1:] != (n,):
        raise ContractError("value vector length must equal |G|")
    lead = values.shape[:-1]
    rows = values.reshape(-1, n)
    out = GroupSpectrum()
    for rep in reps.reps:
        d = rep.dim
        out.blocks[rep.label] = (rows @ rep.matrices.reshape(n, d * d)
                                 ).reshape(*lead, d, d)
        counter.multiplications += len(rows) * n * d * d
        counter.additions += len(rows) * (n - 1) * d * d
    return out


def group_ift(spec: GroupSpectrum, reps: GroupRepSet,
              counter: OpCounter | None = None) -> np.ndarray:
    """f(s) = (1/|G|) sum_rho d_rho tr(f_hat(rho) rho(s^-1)) for blocks
    (..., d, d).  Per rep, one product of the flattened transposed blocks
    with the flattened matrices gives tr(f_hat(rho) rho(y)) for every y,
    read at y = s^-1: nothing assumes rho(s^-1) = rho(s)^T."""
    counter = counter if counter is not None else OpCounter()
    n = len(reps.group)
    inv = np.asarray(reps.group.inverse)
    lead = np.shape(spec.blocks.get(reps.reps[0].label))[:-2]
    rows = math.prod(lead)
    out = np.zeros((rows, n), dtype=complex)
    for rep in reps.reps:
        d = rep.dim
        block = spec.blocks.get(rep.label)
        if block is None or block.shape != (*lead, d, d):
            raise ContractError(f"spectrum block missing or misshaped: {rep.label}")
        flat = np.swapaxes(block, -1, -2).reshape(rows, d * d) * (d / n)
        out += (flat @ rep.matrices.reshape(n, d * d).T)[:, inv]
        counter.multiplications += rows * d * d * (n + 1)
        counter.additions += rows * n * d * d
    return out.reshape(*lead, n)


def validate_repset(reps: GroupRepSet, tol: float = 1e-9,
                    pair_limit: int = 120, rng=None) -> None:
    """Homomorphism, completeness, and inequivalence gates; raises on failure."""
    group = reps.group
    n = len(group)
    if sum(d * d for d in reps.dims) != n:
        raise ContractError("sum of squared dimensions != |G|")
    if n <= pair_limit:
        pairs = [(a, b) for a in range(n) for b in range(n)]
    else:
        rng = rng or np.random.default_rng(0)
        pairs = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(1000)]
    for rep in reps.reps:
        for a, b in pairs:
            err = np.abs(rep.matrices[group.mul(a, b)]
                         - rep.matrices[a] @ rep.matrices[b]).max()
            if err > tol:
                raise ContractError(f"{rep.label}: homomorphism error {err:.2e}")
    chars = np.stack([r.character() for r in reps.reps])
    gram = chars @ chars.conj().T / n
    if np.abs(gram - np.eye(len(reps.reps))).max() > tol:
        raise ContractError("representations are not pairwise inequivalent")


# -- fast cyclic transforms ------------------------------------------------
#
# Each transforms the last axis, so a leading batch axis runs every row
# through one array operation per butterfly stage.  Counts are per row:
# a batch costs exactly what its rows cost one at a time.

def _count_pow2(counter: OpCounter, rows: int, n: int) -> None:
    stages = n.bit_length() - 1
    counter.multiplications += rows * stages * (n // 2)
    counter.additions += rows * stages * n


def _fft_pow2(x: np.ndarray, sign: int, counter: OpCounter) -> np.ndarray:
    n = x.shape[-1]
    if n & (n - 1):
        raise ContractError("power-of-two length required")
    rev = np.zeros(1, dtype=np.intp)  # bit-reversal permutation
    while len(rev) < n:
        rev = np.concatenate([2 * rev, 2 * rev + 1])
    a = np.asarray(x, dtype=complex)[..., rev]
    m = 2
    while m <= n:
        a = a.reshape(*x.shape[:-1], n // m, m)
        u = a[..., :m // 2]
        v = a[..., m // 2:] * np.exp(sign * 2j * np.pi * np.arange(m // 2) / m)
        a = np.concatenate([u + v, u - v], axis=-1).reshape(x.shape)
        m <<= 1
    _count_pow2(counter, x.size // n, n)
    return a


def _dft_any(x: np.ndarray, sign: int, counter: OpCounter) -> np.ndarray:
    """Length-k DFT sum_t x_t e^(sign 2 pi i j t / k); radix-2 or Bluestein."""
    k = x.shape[-1]
    if k == 1:
        return np.array(x, dtype=complex)
    if k & (k - 1) == 0:
        return _fft_pow2(x, sign, counter)
    rows = x.size // k
    m = 1
    while m < 2 * k - 1:
        m <<= 1
    t = np.arange(k)
    chirp = np.exp(sign * 1j * np.pi * (t * t % (2 * k)) / k)
    b = np.zeros(m, dtype=complex)
    b[:k] = chirp.conj()
    b[m - k + 1:] = chirp[:0:-1].conj()
    # The chirp filter does not depend on x: transformed once, counted
    # once per row like a standalone DFT.
    fb = _fft_pow2(b, 1, OpCounter())
    _count_pow2(counter, rows, m)
    a = np.zeros((*x.shape[:-1], m), dtype=complex)
    a[..., :k] = x * chirp
    conv = _fft_pow2(_fft_pow2(a, 1, counter) * fb, -1, counter) / m
    counter.multiplications += rows * (2 * k + 2 * m)
    return chirp * conv[..., :k]


def cyclic_ft_fast(values: np.ndarray, counter: OpCounter | None = None) -> np.ndarray:
    """Character transform c_j = sum_t f_t e^(+2 pi i j t / k) of each row."""
    counter = counter if counter is not None else OpCounter()
    return _dft_any(np.asarray(values, dtype=complex), +1, counter)


def cyclic_ift_fast(spectrum: np.ndarray, counter: OpCounter | None = None) -> np.ndarray:
    """Inverse of cyclic_ft_fast: f_t = (1/k) sum_j c_j e^(-2 pi i j t / k)."""
    counter = counter if counter is not None else OpCounter()
    spectrum = np.asarray(spectrum, dtype=complex)
    out = _dft_any(spectrum, -1, counter) / spectrum.shape[-1]
    counter.multiplications += spectrum.size
    return out
