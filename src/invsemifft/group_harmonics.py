"""Irreducible representations of the maximal-subgroup families and
exact group Fourier transforms.

Covered: characters of Z_k, Young's orthogonal representations of S_k,
and the induced-from-Young-subgroup construction for wreath products of
an abelian group by S_k.  The S_k and wreath representations are given
by their matrices on generators: the adjacent transpositions, plus each
non-identity label at point 1 for G wr S_k.  A breadth-first walk of the
Cayley graph from the identity, cached per group, fills each (|G|, d, d)
tensor with one batched product per (layer, generator), rho(g s) =
rho(g) rho(s); no element's matrix is evaluated on its own.  A group
transform is one product per operand over a batch of rows; only
group_operands makes operands: the shared character matrix W_k for the
characters of Z_k (a dense DFT), else each rep's tensor.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CapabilityError, ContractError, DomainError
from .fast_transforms import OpCounter
from .groups import (GroupTable, _perm_compose, cyclic_group,
                     symmetric_group, wreath_group, wreath_mul_key)

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
    # chosen generator.  The reps must then be characters, in any order;
    # group_operands finds each one's DFT bin.
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


def _yor_at(shape: tuple[int, ...], perm: tuple[int, ...]) -> np.ndarray:
    """YOR matrix of the identity or of one adjacent transposition s_i,
    read from _yor_generators; no other permutation is asked for."""
    tabs, gens = _yor_generators(shape)
    moved = [x for x, y in enumerate(perm, 1) if x != y]
    if not moved:
        return np.eye(max(1, len(tabs)))
    if len(moved) != 2 or moved[1] != moved[0] + 1:
        raise ContractError(f"{perm} is not an adjacent transposition")
    return gens[moved[0] - 1]


# -- representations from generators: the Cayley-graph walk -----------------

@dataclass(frozen=True)
class CayleyWalk:
    """A breadth-first walk of a group's Cayley graph from the identity.

    gens: the generator keys.  position: key -> walk position, in walk
    order (position 0 is the identity).  steps: per (layer, generator),
    (generator index, child positions, parent positions), each child
    being its parent times the generator, first met there."""
    gens: tuple
    position: dict
    steps: tuple


def _cayley_walk(identity, gens: list, mul) -> CayleyWalk:
    """Walk the Cayley graph of the group generated by `gens` under the
    key product `mul`, layer by layer."""
    position = {identity: 0}
    keys, steps, layer = [identity], [], [0]
    while layer:
        nxt = []
        for s, gen in enumerate(gens):
            children, parents = [], []
            for p in layer:
                child = mul(keys[p], gen)
                if child not in position:
                    position[child] = len(keys)
                    keys.append(child)
                    children.append(position[child])
                    parents.append(p)
            if children:
                steps.append((s, np.array(children), np.array(parents)))
            nxt += children
        layer = nxt
    return CayleyWalk(tuple(gens), position, tuple(steps))


def _fill(walk: CayleyWalk, rows: list[int], gen_mats: list[np.ndarray],
          d: int) -> np.ndarray:
    """The (|G|, d, d) complex tensor of the representation with these
    generator matrices, row j at the key whose walk position is rows[j]:
    rho(g s) = rho(g) rho(s), one product per (layer, generator).  Real
    generators fill the real part alone."""
    at = np.empty(len(rows), dtype=np.intp)      # walk position -> row
    at[rows] = np.arange(len(rows))
    out = np.zeros((len(rows), d, d), dtype=complex)
    part = out if any(np.iscomplexobj(m) for m in gen_mats) else out.real
    part[at[0]] = np.eye(d)
    for s, children, parents in walk.steps:
        part[at[children]] = part[at[parents]] @ gen_mats[s]
    return out


def _transpositions(k: int) -> list[tuple[int, ...]]:
    """The adjacent transpositions s_1, ..., s_{k-1} of S_k."""
    ident = tuple(range(1, k + 1))
    return [ident[:i - 1] + (i + 1, i) + ident[i + 1:] for i in range(1, k)]


@lru_cache(maxsize=None)
def _symmetric_walk(k: int) -> CayleyWalk:
    """S_k's walk over the adjacent transpositions."""
    return _cayley_walk(tuple(range(1, k + 1)), _transpositions(k),
                        _perm_compose)


def _symmetric_reps(k: int, keys: list[tuple[int, ...]],
                    cap: int) -> list[Irrep]:
    """Young's orthogonal representations of S_k at the permutations
    `keys`, filled from the adjacent transpositions."""
    if k > cap:
        raise CapabilityError(f"symmetric representations capped at k <= {cap}")
    walk = _symmetric_walk(k)
    rows = [walk.position[key] for key in keys]
    reps = []
    for shape in partitions(k):
        d = hook_length_dim(shape)
        reps.append(Irrep(str(shape), d,
                          _fill(walk, rows, _yor_generators(shape)[1], d)))
    return reps


def irreps_symmetric(k: int, cap: int = SYMMETRIC_CAP) -> GroupRepSet:
    if k > cap:
        raise CapabilityError(f"symmetric representations capped at k <= {cap}")
    group = symmetric_group(k)
    return GroupRepSet(group, _symmetric_reps(k, group.keys, cap))


# -- cyclic groups ---------------------------------------------------------

@lru_cache(maxsize=None)
def _character_matrix(k: int) -> np.ndarray:
    """W[t, j] = e^(2 pi i j t / k): character j at exponent t, so a row's
    DFT is x @ W.  Cached read-only, so every class of order k shares it."""
    t = np.arange(k)
    w = np.exp(2j * np.pi * (np.outer(t, t) % k) / k)
    w.flags.writeable = False
    return w


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
    exps = _exponents(group, gen)
    # W is symmetric: row j of W[:, exps] is character j at each element
    chars = _character_matrix(len(group))[:, exps]
    reps = [Irrep(f"chi_{j}", 1, ch[:, None, None])
            for j, ch in enumerate(chars)]
    return GroupRepSet(group, reps, cyclic_exponents=exps)


# -- abelian characters from a bare table ----------------------------------

def abelian_characters(group: GroupTable) -> list[np.ndarray]:
    """All |G| characters of an abelian group, deterministically ordered."""
    if not group.is_abelian():
        raise CapabilityError("character construction requires an abelian group")
    gen = group.generator_if_cyclic()
    k = len(group)
    if gen is not None:
        chars = list(_character_matrix(k)[:, _exponents(group, gen)])
    else:
        # Simultaneously diagonalize the regular representation with a
        # fixed pseudo-random combination; eigenvectors give the characters.
        rng = np.random.default_rng(12345)
        regs = np.zeros((k, k, k))
        regs[np.arange(k)[:, None], group.table, np.arange(k)] = 1.0
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
    """Sorted minimal coset representatives of S_k over the Young subgroup:
    the permutations increasing on each block of positions."""
    def increasing(values, sizes):
        if not sizes:
            yield ()
            return
        for head in itertools.combinations(values, sizes[0]):
            rest = [v for v in values if v not in head]
            for tail in increasing(rest, sizes[1:]):
                yield head + tail
    return sorted(increasing(range(1, k + 1), sizes))


def wreath_rep_evaluators(labels: GroupTable, k: int, cap: int = SYMMETRIC_CAP):
    """[(label, dim, eval((perm, labtuple)) -> matrix)] for abelian `labels`.

    One representation per |G|-tuple of partitions with total size k, built
    by inducing character-twisted Young products from the block stabilizer.
    Each evaluator takes only generator keys (an adjacent transposition
    with identity labels, or the identity permutation with labels): there
    every block-local permutation t_a^-1 u t_b is the identity or one
    adjacent transposition (Deodhar's lemma for minimal coset
    representatives), so the YOR blocks are read from _yor_generators.
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
                    mat = np.kron(mat, _yor_at(shapes[bi], local))
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


@lru_cache(maxsize=None)
def _wreath_walk(k: int, table: tuple[tuple[int, ...], ...],
                 e: int) -> CayleyWalk:
    """The walk of G wr S_k, G given by its product table and identity e,
    over the adjacent transpositions and each label g != e at point 1."""
    ident, plain = tuple(range(1, k + 1)), (e,) * k
    gens = [(perm, plain) for perm in _transpositions(k)]
    gens += [(ident, (g,) + plain[1:]) for g in range(len(table)) if k and g != e]
    return _cayley_walk((ident, plain), gens,
                        wreath_mul_key(lambda a, b: table[a][b]))


def _wreath_reps(labels: GroupTable, k: int, keys: list,
                 cap: int) -> list[Irrep]:
    """The induced representations of labels wr S_k at the (perm, labels)
    `keys`, filled from their values at the generators."""
    evaluators = wreath_rep_evaluators(labels, k, cap)
    table = tuple(map(tuple, labels.table.tolist()))
    walk = _wreath_walk(k, table, labels.identity)
    rows = [walk.position[key] for key in keys]
    return [Irrep(label, dim, _fill(walk, rows, [ev(g) for g in walk.gens], dim))
            for label, dim, ev in evaluators]


def irreps_wreath_abelian(labels: GroupTable, k: int,
                          cap: int = SYMMETRIC_CAP) -> GroupRepSet:
    if k > cap:
        raise CapabilityError(f"wreath representations capped at k <= {cap}")
    if not labels.is_abelian():
        raise CapabilityError("wreath construction requires an abelian group")
    group = wreath_group(labels, k)
    return GroupRepSet(group, _wreath_reps(labels, k, group.keys, cap))


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
    # the keys are (perm, labels) on the positions 1..k of dom(e_k)
    family, k = structure.family, len(gt.keys[0][0])
    if family == "rook":
        return GroupRepSet(gt, _symmetric_reps(
            k, [perm for perm, _ in gt.keys], cap))
    if family == "wreath_rook":
        if not structure.label_group.is_abelian():
            raise CapabilityError(
                "built-in wreath representations require an abelian label group")
        return GroupRepSet(gt, _wreath_reps(structure.label_group, k,
                                            gt.keys, cap))
    # cyclic_shift, rotation, and any other cyclic case
    return cyclic_repset_for(gt)


# -- group Fourier transforms ----------------------------------------------

def _character_bins(rs: GroupRepSet, tol: float = 1e-9) -> np.ndarray:
    """DFT bin j of each rep of a cyclic set, read off its value at the
    generator.  The rep must be the character x -> exp(2 pi i j e(x) / k)
    of the cyclic exponents e."""
    k = len(rs.group)
    if sorted(rs.cyclic_exponents) != list(range(k)):
        raise ContractError("cyclic exponents must enumerate 0..k-1")
    values = np.array([rep.matrices[:, 0, 0] for rep in rs.reps])
    gen = list(rs.cyclic_exponents).index(1 % k)
    bins = np.rint(k * np.angle(values[:, gen]) / (2 * np.pi)).astype(int) % k
    err = np.abs(values - _character_matrix(k)[bins][:, rs.cyclic_exponents])
    for rep, bad in zip(rs.reps, err.max(axis=1) > tol):
        if bad or rep.dim != 1:
            raise ContractError(f"{rep.label}: not a cyclic character")
    if len(set(bins.tolist())) != k:
        raise ContractError("cyclic characters repeat")
    return bins


def group_operands(rs: GroupRepSet) -> tuple[np.ndarray, list[tuple]]:
    """A rep set's operand element order and operands (matrix, reps, d):
    the (|G|, m) matrix's columns are the row-major d x d matrices of the
    reps with these indices, in turn.  A set with cyclic_exponents is the
    shared W_k in exponent order, column j the character of DFT bin j;
    any other set is each rep's tensor viewed as (|G|, d^2)."""
    n = len(rs.group)
    if rs.cyclic_exponents is not None:
        reps = tuple(np.argsort(_character_bins(rs)).tolist())
        return np.argsort(rs.cyclic_exponents), [(_character_matrix(n), reps, 1)]
    return np.arange(n), [(rep.matrices.reshape(n, rep.dim ** 2), (i,), rep.dim)
                          for i, rep in enumerate(rs.reps)]


def count_products(counter: OpCounter, rows: int, n: int, m: int,
                   inverse: bool = False) -> None:
    """Count rows times operands of m columns in all, over a group of
    order n (nothing at n = 1, the identity); inverse, also the d/|G|
    scale of the m entries and the sum of the operands' products."""
    counter.multiplications += rows * m * ((n if n > 1 else 0) + inverse)
    counter.additions += rows * (n * (m - 1) if inverse else (n - 1) * m)


@dataclass
class GroupSpectrum:
    blocks: dict[str, np.ndarray] = field(default_factory=dict)


def group_ft(values: np.ndarray, reps: GroupRepSet,
             counter: OpCounter | None = None) -> GroupSpectrum:
    """f_hat(rho) = sum_s f(s) rho(s) for each row of values (..., |G|):
    one (rows, |G|) x (|G|, m) product per operand, blocks (..., d, d)."""
    counter = counter if counter is not None else OpCounter()
    values = np.asarray(values, dtype=complex)
    n = len(reps.group)
    if values.shape[-1:] != (n,):
        raise ContractError("value vector length must equal |G|")
    order, operands = group_operands(reps)
    rows = values.reshape(-1, n)[:, order]
    blocks = {}
    for matrix, idx, d in operands:
        prod = (rows @ matrix).reshape(*values.shape[:-1], len(idx), d, d)
        blocks.update((reps.reps[i].label, prod[..., j, :, :])
                      for j, i in enumerate(idx))
        count_products(counter, len(rows), n, matrix.shape[1])
    return GroupSpectrum({rep.label: blocks[rep.label] for rep in reps.reps})


def group_ift(spec: GroupSpectrum, reps: GroupRepSet,
              counter: OpCounter | None = None) -> np.ndarray:
    """f(s) = (1/|G|) sum_rho d_rho tr(f_hat(rho) rho(s^-1)) for blocks
    (..., d, d).  Per operand, the scaled, transposed blocks times the
    operand's transpose give tr(f_hat(rho) rho(y)) for every y; their sum
    is written at y^-1, so nothing assumes rho(s^-1) = rho(s)^T."""
    counter = counter if counter is not None else OpCounter()
    n = len(reps.group)
    lead = np.shape(spec.blocks.get(reps.reps[0].label))[:-2]
    rows = math.prod(lead)
    for rep in reps.reps:
        block = spec.blocks.get(rep.label)
        if block is None or block.shape != (*lead, rep.dim, rep.dim):
            raise ContractError(f"spectrum block missing or misshaped: {rep.label}")
    order, operands = group_operands(reps)
    acc = np.zeros((rows, n), dtype=complex)
    for matrix, idx, d in operands:
        flat = np.concatenate([np.swapaxes(spec.blocks[reps.reps[i].label], -1, -2)
                               .reshape(rows, d * d) for i in idx], axis=1)
        acc += (flat * (d / n)) @ matrix.T
        count_products(counter, rows, n, matrix.shape[1], inverse=True)
    out = np.empty_like(acc)
    out[:, np.asarray(reps.group.inverse)[order]] = acc
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
