"""The symplectic vector space Z_d^{2n}: Lagrangians, cosets, stabilizer labels.

Phase-space vectors are integer arrays of length 2n storing (a_X, a_Z)
concatenated.  A list of Lagrangians is one array of canonical RREF bases
(`Lagrangians`), and a family of stabilizer labels is three arrays: the
Lagrangians, each label's index into them and each label's canonical coset
representative (`enumerate_stabilizer_labels`).
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np

from .errors import BudgetExceeded, NotBasisPreserving
from .zmod import require_prime

MAX_POINTS = 4096  # cap on d^{2n} for enumerations and certified generating sets
MAX_ENTRIES = 100_000_000  # cap on the entries of one array: a candidate block, a Gram, a table


def jvec(b):
    """J b = (b_Z, -b_X) along the last axis of an integer array b, so that
    [a, b] = a . J b mod d."""
    n = b.shape[-1] // 2
    return np.concatenate([b[..., n:], -b[..., :n]], axis=-1)


def all_vectors(d, length):
    return itertools.product(range(d), repeat=length)


@dataclass(frozen=True, eq=False)
class Lagrangians:
    """A list of Lagrangians of Z_d^{2n}: basis[l], the canonical echelon
    basis (n x 2n) of the l-th, as one read-only int64 array.  Equal and
    hashed by identity, so the cache keyed on a list (`lagrangian_tables`)
    never hashes a basis.  There are two kinds:
    `enumerate_lagrangians` builds the list of all of them, once per (d, n),
    and `clifford.real_clifford_closure` the rebits' real sublist."""

    d: int
    n: int
    basis: np.ndarray

    def __post_init__(self):
        self.basis.flags.writeable = False

    def __len__(self):
        return len(self.basis)


def wreath_decompose(perm, blocks):
    """The wreath coordinates (sigma, inners) of a permutation of indices
    grouped into equal `blocks` (at n = 1 the `operators.OperatorSet.blocks`):
    sigma[b] is the block that block b is mapped onto, and inners[b][k] the
    position there of the image of position k of block b.  A permutation
    that scatters a block raises NotBasisPreserving."""
    where = {v: (b, k) for b, block in enumerate(blocks) for k, v in enumerate(block)}
    sigma, inners = [], []
    for b, block in enumerate(blocks):
        targets, inner = zip(*(where[perm[v]] for v in block))
        if len(set(targets)) != 1:
            raise NotBasisPreserving(f"block {b} is scattered by the permutation")
        sigma.append(targets[0])
        inners.append(inner)
    return tuple(sigma), tuple(inners)


def wreath_compose(sigma, inners, blocks):
    """The permutation with wreath coordinates (sigma, inners) on `blocks`,
    the inverse of `wreath_decompose`."""
    perm = [None] * sum(map(len, blocks))
    for block, target, inner in zip(blocks, sigma, inners):
        for v, k in zip(block, inner):
            perm[v] = blocks[target][k]
    return tuple(perm)


def _echelon_blocks(d, ambient, k):
    """The canonical RREF bases of the k-dimensional subspaces of
    Z_d^ambient, one lexicographically sorted array (count, k, ambient) per
    pivot pattern, the free entries from `code_points`."""
    for pivots in itertools.combinations(range(ambient), k):
        free = [(r, c) for r, p in enumerate(pivots) for c in range(p + 1, ambient)
                if c not in pivots]
        block = np.zeros((d ** len(free), k, ambient), dtype=np.min_scalar_type(d - 1))
        block[:, range(k), pivots] = 1
        rows, cols = np.array(free, dtype=np.intp).reshape(-1, 2).T
        block[:, rows, cols] = code_points(np.arange(len(block)), d, len(free))
        yield block


@lru_cache(maxsize=None)
def enumerate_lagrangians(d, n) -> Lagrangians:
    """All Lagrangian subspaces of Z_d^{2n}, sorted by canonical basis: the
    echelon bases B of each pivot pattern with B J B^T = 0 mod d, one
    batched product per pattern.  Refused (BudgetExceeded) before any block
    is built if the largest, that of the pivots 0..n-1 with n^2 free
    entries, would pass MAX_ENTRIES entries."""
    require_prime(d)
    if d ** (2 * n) > MAX_POINTS:
        raise BudgetExceeded(f"d^(2n) = {d ** (2 * n)} exceeds cap {MAX_POINTS}")
    if (entries := d ** (n * n) * n * 2 * n) > MAX_ENTRIES:
        raise BudgetExceeded(f"a pivot pattern of the Lagrangians at (d, n) = ({d}, {n}) holds "
                             f"{entries} candidate entries, over the budget of {MAX_ENTRIES}")
    form = np.min_scalar_type(-2 * n * (d - 1) ** 2)  # holds every [u, v] before mod d
    kept = []
    for block in _echelon_blocks(d, 2 * n, n):
        b = block.astype(form)
        kept.append(block[~(b @ jvec(b).swapaxes(1, 2) % d).any(axis=(1, 2))])
    bases = np.concatenate(kept).reshape(-1, 2 * n * n)
    bases = bases[np.lexsort(bases.T[::-1])].reshape(-1, n, 2 * n)
    # the rows are canonical already, so they are not row-reduced again
    return Lagrangians(d, n, bases.astype(np.int64))


@lru_cache(maxsize=None)
def enumerate_stabilizer_labels(d, n):
    """All stabilizer labels (Lagrangian, coset) of (d, n), sorted by (basis,
    rep), as (lags, index, reps): lags = `enumerate_lagrangians(d, n)`,
    index[x] the Lagrangian of label x and reps[x] the canonical
    representative of its coset, zero at the pivots of that Lagrangian.  The
    d^n reps of each Lagrangian take the free coordinates from
    `code_points`, already in order.  The arrays are read-only, in the
    smallest unsigned dtypes that hold them."""
    lags = enumerate_lagrangians(d, n)
    pivots = (lags.basis != 0).argmax(-1).tolist()
    free = np.array([sorted(set(range(2 * n)) - set(p)) for p in pivots])
    reps = np.zeros((len(lags), d ** n, 2 * n), dtype=np.min_scalar_type(d - 1))
    np.put_along_axis(reps, free[:, None], code_points(np.arange(d ** n), d, n), axis=2)
    index = np.repeat(np.arange(len(lags), dtype=np.min_scalar_type(len(lags) - 1)), d ** n)
    reps = reps.reshape(-1, 2 * n)
    index.flags.writeable = reps.flags.writeable = False
    return lags, index, reps


def lagrangian_count(d, n):
    """prod_{k=1..n} (d^k + 1), the number of Lagrangians of Z_d^{2n}; each
    has d^n cosets, one stabilizer state each."""
    return prod(d ** k + 1 for k in range(1, n + 1))


def verify_enumeration(d, n):
    """The Lagrangians and stabilizer labels of (d, n), and whether the
    Lagrangians number `lagrangian_count`."""
    lags, index, reps = enumerate_stabilizer_labels(d, n)
    bases = lags.basis.tolist()
    return {
        "lagrangian_count": len(lags),
        "stabilizer_label_count": len(index),
        "lagrangians": bases,
        "labels": [{"L": bases[l], "rep": rep} for l, rep in zip(index.tolist(), reps.tolist())],
        "count_matches_product_formula": len(lags) == lagrangian_count(d, n),
    }


def point_codes(v, d):
    """The index of each point v[..., :] of Z_d^m in `all_vectors` order: its
    base-d code, the first coordinate most significant, as int64.  The code
    is built one coordinate at a time (Horner), so a small-dtype v is never
    copied whole into int64."""
    v = np.asarray(v)
    codes = np.zeros(v.shape[:-1], dtype=np.int64)
    for i in range(v.shape[-1]):
        codes *= d
        codes += v[..., i]
    return codes[()]


def code_points(codes, d, length):
    """The points of Z_d^length with the base-d `codes`, the inverse of
    `point_codes`, as an integer array (..., length)."""
    return np.asarray(codes)[..., None] // d ** np.arange(length - 1, -1, -1) % d


LagrangianTables = namedtuple("LagrangianTables", "basis pivots points codes member signs")


@lru_cache(maxsize=1024)
def lagrangian_tables(lags: Lagrangians) -> LagrangianTables:
    """Integer tables of the `Lagrangians` lags, read-only, as they are
    cached: the echelon basis[l] (n x 2n) of L_l and its pivot columns
    pivots[l]; points[l], the d^n points of L_l, the combinations of the
    basis rows with the coefficients in `code_points` order, and their
    `point_codes` codes[l]; member[l, x], whether the point with code x lies
    in L_l; and signs[l, x] = c_L(x), 0 off L_l and at odd d.

    The sign c_L(b) of b = sum k_i b_i in L (k_i is b at the i-th pivot) is
    defined by prod_{k_i = 1} T(b_i) = (-1)^c_L(b) T(b).  At odd d it is 0,
    as T(a) T(b) = T(a + b) when [a, b] = 0.  At d = 2, T(a) =
    i^(-a_X.a_Z) Z^(a_Z) X^(a_X) (`operators.weyl_table`): X^(x_k) passes
    Z^(z_l) with (-1)^(x_k.z_l), and Z^(b_Z) X^(b_X) = i^(b_X.b_Z) T(b), so
    2 c_L(b) = b_X.b_Z - sum_i k_i x_i.z_i + 2 sum_(i<j) k_i k_j x_i.z_j
    mod 4, for the rows b_i = (x_i, z_i) of the basis."""
    d, n, basis = lags.d, lags.n, lags.basis
    pivots = (basis != 0).argmax(-1)
    k = code_points(np.arange(d ** n), d, n)  # row p: the coefficients of point p
    points = k @ basis % d
    codes = point_codes(points, d)
    at = np.arange(len(lags))[:, None], codes
    member = np.zeros((len(lags), d ** (2 * n)), dtype=bool)
    member[at] = True
    signs = np.zeros(member.shape, dtype=np.uint8)
    if d == 2:
        xz = basis[..., :n] @ basis[..., n:].swapaxes(1, 2)  # xz[l, i, j] = x_i . z_j
        twice = ((points[..., :n] * points[..., n:]).sum(-1)
                 - np.einsum("pi,li->lp", k, np.diagonal(xz, axis1=1, axis2=2))
                 + 2 * np.einsum("pi,lij,pj->lp", k, np.triu(xz, 1), k))
        signs[at] = twice % 4 // 2
    tables = LagrangianTables(basis, pivots, points, codes, member, signs)
    for table in tables:
        table.flags.writeable = False
    return tables


def label_cosets(lags, index, reps):
    """coset[l, x] for the stabilizer labels (lags[index[y]], reps[y]) of the
    `Lagrangians` lags: the label y with the point x (by its `point_codes`
    code) in reps[y] + L_l, -1 if it is not given."""
    d, n = lags.d, lags.n
    small = np.min_scalar_type(-2 * d)  # signed, holds every rep + point <= 2(d - 1)
    points = lagrangian_tables(lags).points.astype(small)
    coset = np.full((len(lags), d ** (2 * n)), -1, dtype=np.int64)
    coset[index[:, None], point_codes((reps.astype(small)[:, None] + points[index]) % d, d)] = (
        np.arange(len(index))[:, None])
    return coset


def label_permutations(lags, index, reps, maps):
    """The permutation of the stabilizer labels (lags[index[x]], reps[x]) by
    each map (matrix, a[, eta]) of phase space, x -> matrix . x + a, every
    image one of the labels.

    With `eta` (d = 2) the map takes T(b) to (-1)^eta(b) T(S b), S = matrix
    symplectic, and (L, rep) to (S L, S rep + a + t_L), [t_L, b'] =
    c_L(S^-1 b') + eta(S^-1 b') on the basis rows b' of S L; eta takes an
    integer array of points and acts along its last axis.

    Points are read by their codes (`point_codes`) in the tables of
    `lagrangian_tables` and `label_cosets`.  Each labelled Lagrangian is
    keyed once by its point set (its packed `member` row), and the image of
    Lagrangian l is the one whose key is the set of codes of M x for the
    points x of l: a lookup per Lagrangian.  The pre-image S^-1 b' of a
    basis row b' of S L is the point of L whose code maps onto b''s, so no
    matrix is inverted.  A label's image is the coset entry of its mapped
    rep, and t_L is J f for f the values at the pivots of S L, as [J f, b] =
    f . b and the echelon row b_i is 1 at its own pivot and 0 at the others,
    for every Lagrangian at once.  A map raises ValueError, naming its
    index, when the image of a labelled Lagrangian is not exactly one
    labelled Lagrangian (M singular or not a similitude), when an image
    coset has no label, or when the images are not a bijection of the
    labels.  The rows of a Lagrangian with no label are computed and never
    read."""
    d, n = lags.d, lags.n
    coset = label_cosets(lags, index, reps)
    tables = lagrangian_tables(lags)
    labelled = np.flatnonzero(np.bincount(index, minlength=len(lags)))
    keys = {key.tobytes(): l
            for l, key in zip(labelled.tolist(), np.packbits(tables.member[labelled], axis=1))}
    basis_codes = point_codes(tables.basis, d)
    rows = np.arange(len(lags))[:, None]
    perms = []
    for k, (matrix, a, *eta) in enumerate(maps):
        m = np.asarray(matrix)
        # source[l, x]: the index of the point of L_l that M maps onto x, else -1
        source = np.full(tables.member.shape, -1, dtype=np.min_scalar_type(-d ** n))
        source[rows, point_codes(tables.points @ m.T % d, d)] = np.arange(d ** n)
        image = np.array([keys.get(key.tobytes(), -1)
                          for key in np.packbits(source >= 0, axis=1)])
        if (image[labelled] < 0).any():
            raise ValueError(f"map {k}: the image of a Lagrangian is not exactly one "
                             "labelled Lagrangian")
        f = np.zeros((len(lags), 2 * n), dtype=np.int64)
        if eta:
            pre = source[rows, basis_codes[image]]  # the points of L_l onto the basis rows
            f[rows, tables.pivots[image]] = (tables.signs[rows, tables.codes[rows, pre]]
                                             + eta[0](tables.points[rows, pre]))
        perm = coset[image[index], point_codes((reps @ m.T + a + jvec(f)[index]) % d, d)]
        if (perm < 0).any():
            raise ValueError(f"map {k}: an image coset has no label")
        if (np.bincount(perm, minlength=perm.size) != 1).any():
            raise ValueError(f"map {k}: the images are not a bijection of the labels")
        perms.append(tuple(perm.tolist()))
    return perms
