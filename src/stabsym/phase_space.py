"""The symplectic vector space Z_d^{2n}: Lagrangians, cosets, stabilizer labels.

Phase-space vectors are plain tuples of length 2n storing (a_X, a_Z)
concatenated; subspaces are canonical RREF row spans.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np

from .errors import BudgetExceeded, NotBasisPreserving
from .zmod import require_prime, rref

MAX_POINTS = 4096  # cap on d^{2n} for enumerations and certified generating sets


def symplectic_form(a, b, d: int) -> int:
    """[a, b] = a_X . b_Z - b_X . a_Z in Z_d."""
    if len(a) != len(b) or len(a) % 2:
        raise ValueError("vectors must share an even length")
    n = len(a) // 2
    return sum(a[i] * b[n + i] - b[i] * a[n + i] for i in range(n)) % d


def jvec(b):
    """J b = (b_Z, -b_X) along the last axis of an integer array b, so that
    [a, b] = a . J b mod d."""
    n = b.shape[-1] // 2
    return np.concatenate([b[..., n:], -b[..., :n]], axis=-1)


def vec_add(a, b, d):
    return tuple((x + y) % d for x, y in zip(a, b))


def all_vectors(d, length):
    return itertools.product(range(d), repeat=length)


@dataclass(frozen=True)
class Subspace:
    """Row span of a canonical RREF basis over Z_d."""

    basis: tuple
    d: int
    ambient: int

    def __post_init__(self):
        # hashed once: every label and every cache keyed by Lagrangians hashes it
        object.__setattr__(self, "_hash", hash((self.basis, self.d, self.ambient)))

    def __hash__(self):
        return self._hash

    @classmethod
    def from_rows(cls, rows, d, ambient=None):
        require_prime(d)
        rows = np.asarray(rows)
        if not rows.size:
            if ambient is None:
                raise ValueError("empty row list needs explicit ambient dimension")
            return cls(basis=(), d=d, ambient=ambient)
        ech, pivots = rref(rows, d)
        return cls(basis=tuple(map(tuple, ech[pivots < ech.shape[1]].tolist())), d=d,
                   ambient=ech.shape[1])

    @property
    def dim(self):
        return len(self.basis)

    @property
    def pivots(self):
        return tuple(next(i for i, x in enumerate(row) if x) for row in self.basis)

    def reduce(self, v):
        """Canonical coset representative of v + self: zero at all pivots.

        This is the lexicographically smallest vector in the coset.
        """
        d = self.d
        v = [int(x) % d for x in v]
        for p, row in zip(self.pivots, self.basis):
            f = v[p]
            if f:
                v = [(x - f * y) % d for x, y in zip(v, row)]
        return tuple(v)

    def contains(self, v) -> bool:
        return all(x == 0 for x in self.reduce(v))

    def points(self):
        """All d^dim vectors of the subspace."""
        d = self.d
        out = []
        for coeffs in itertools.product(range(d), repeat=self.dim):
            v = [0] * self.ambient
            for c, row in zip(coeffs, self.basis):
                if c:
                    v = [(x + c * y) % d for x, y in zip(v, row)]
            out.append(tuple(v))
        return out


class LagrangianSubspace(Subspace):
    """A maximal isotropic subspace: dimension n with vanishing form."""

    @classmethod
    def from_rows(cls, rows, d, ambient=None):
        sub = Subspace.from_rows(rows, d, ambient=ambient)
        n = sub.ambient // 2
        if sub.dim != n:
            raise ValueError(f"dimension {sub.dim} != n = {n}")
        basis = np.array(sub.basis)
        if (basis @ jvec(basis).T % d).any():
            raise ValueError("form does not vanish on the span")
        return cls(basis=sub.basis, d=d, ambient=sub.ambient)


@dataclass(frozen=True)
class StabilizerLabel:
    """A Lagrangian L plus the canonical coset representative of L + a.

    The representative encodes the functional g(b) = [a, b] on L.  The state
    is d^-n sum_{b in L} omega^chi(b) T(b), chi = g + c_L, with c_L the
    signs of `lagrangian_tables`.
    """

    L: LagrangianSubspace
    rep: tuple

    @classmethod
    def make(cls, L, rep):
        return cls(L=L, rep=L.reduce(rep))

    @property
    def d(self):
        return self.L.d

    @property
    def n(self):
        return self.L.ambient // 2

    def functional(self, b) -> int:
        """g(b) = [rep, b] for b in L."""
        return symplectic_form(self.rep, b, self.d)


LabelIndex = namedtuple("LabelIndex", "lags index reps blocks")


def lagrangian_index(labels) -> LabelIndex:
    """The stabilizer `labels` grouped by Lagrangian, the library's one
    grouping: the distinct Lagrangians lags in order of first appearance
    (for the library's families, sorted by Lagrangian, that of their bases),
    the array of each label's index into them, the reps as one integer
    array, and blocks[l], the indices of the labels of lags[l] (ints)."""
    where = {}
    index = [where.setdefault(lab.L, len(where)) for lab in labels]
    blocks = [[] for _ in where]
    for x, l in enumerate(index):
        blocks[l].append(x)
    return LabelIndex(tuple(where), np.array(index), np.array([lab.rep for lab in labels]), blocks)


def wreath_decompose(perm, blocks):
    """The wreath coordinates (sigma, inners) of a permutation of indices
    grouped into equal `blocks` (at n = 1 those of `lagrangian_index`):
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


def enumerate_subspaces(d, ambient, k):
    """All k-dimensional subspaces of Z_d^ambient as canonical RREF bases,
    one integer array (count, k, ambient)."""
    return np.concatenate(list(_echelon_blocks(d, ambient, k)))


@lru_cache(maxsize=None)
def enumerate_lagrangians(d, n):
    """All Lagrangian subspaces of Z_d^{2n}, sorted by canonical basis: the
    echelon bases B of each pivot pattern with B J B^T = 0 mod d, one
    batched product per pattern."""
    require_prime(d)
    if d ** (2 * n) > MAX_POINTS:
        raise BudgetExceeded(f"d^(2n) = {d ** (2 * n)} exceeds cap {MAX_POINTS}")
    form = np.min_scalar_type(-2 * n * (d - 1) ** 2)  # holds every [u, v] before mod d
    kept = []
    for block in _echelon_blocks(d, 2 * n, n):
        b = block.astype(form)
        kept.append(block[~(b @ jvec(b).swapaxes(1, 2) % d).any(axis=(1, 2))])
    bases = np.concatenate(kept).reshape(-1, 2 * n * n)
    bases = bases[np.lexsort(bases.T[::-1])].reshape(-1, n, 2 * n)
    # the rows are canonical already, so they are not row-reduced again
    return tuple(LagrangianSubspace(basis=tuple(map(tuple, rows)), d=d, ambient=2 * n)
                 for rows in bases.tolist())


@lru_cache(maxsize=None)
def enumerate_stabilizer_labels(d, n):
    """All (Lagrangian, coset) stabilizer labels, sorted by (basis, rep):
    the d^n canonical reps of each Lagrangian are 0 at its pivots and take
    the free coordinates from `code_points`, already in order."""
    lags = enumerate_lagrangians(d, n)
    free = np.array([sorted(set(range(2 * n)) - set(L.pivots)) for L in lags])
    reps = np.zeros((len(lags), d ** n, 2 * n), dtype=np.min_scalar_type(d - 1))
    np.put_along_axis(reps, free[:, None], code_points(np.arange(d ** n), d, n), axis=2)
    return tuple(StabilizerLabel(L, tuple(rep)) for L, block in zip(lags, reps.tolist())
                 for rep in block)


def lagrangian_count(d, n):
    """prod_{k=1..n} (d^k + 1), the number of Lagrangians of Z_d^{2n}; each
    has d^n cosets, one stabilizer state each."""
    return prod(d ** k + 1 for k in range(1, n + 1))


def verify_enumeration(d, n):
    """The Lagrangians and stabilizer labels of (d, n), and whether the
    Lagrangians number `lagrangian_count`."""
    lags = enumerate_lagrangians(d, n)
    labels = enumerate_stabilizer_labels(d, n)
    return {
        "lagrangian_count": len(lags),
        "stabilizer_label_count": len(labels),
        "lagrangians": [[list(r) for r in L.basis] for L in lags],
        "labels": [
            {"L": [list(r) for r in lab.L.basis], "rep": list(lab.rep)} for lab in labels
        ],
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
def lagrangian_tables(lags) -> LagrangianTables:
    """Integer tables of Lagrangians lags of one (d, n) (else ValueError),
    read-only, as they are cached: the echelon basis[l] (n x 2n) of L_l and
    its pivot columns pivots[l]; points[l], the d^n points of L_l in
    `Subspace.points` order, and their `point_codes` codes[l]; member[l, x],
    whether the point with code x lies in L_l; and signs[l, x] = c_L(x), 0
    off L_l and at odd d.

    The sign c_L(b) of b = sum k_i b_i in L (k_i is b at the i-th pivot) is
    defined by prod_{k_i = 1} T(b_i) = (-1)^c_L(b) T(b).  At odd d it is 0,
    as T(a) T(b) = T(a + b) when [a, b] = 0.  At d = 2, T(a) =
    i^(-a_X.a_Z) Z^(a_Z) X^(a_X) (`operators.weyl_table`): X^(x_k) passes
    Z^(z_l) with (-1)^(x_k.z_l), and Z^(b_Z) X^(b_X) = i^(b_X.b_Z) T(b), so
    2 c_L(b) = b_X.b_Z - sum_i k_i x_i.z_i + 2 sum_(i<j) k_i k_j x_i.z_j
    mod 4, for the rows b_i = (x_i, z_i) of the basis."""
    d, n = lags[0].d, lags[0].ambient // 2
    if any((L.d, L.ambient) != (d, 2 * n) for L in lags):
        raise ValueError("mismatched ambient spaces")
    basis = np.array([L.basis for L in lags])
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


def label_cosets(labels):
    """(index, coset) of stabilizer `labels` of one (d, n): their
    `lagrangian_index`, and coset[l, x], the index of the label
    (L_l, x + L_l) for the point x (by its `point_codes` code), -1 if it is
    not given."""
    d, n = labels[0].d, labels[0].n
    lags, li, reps, _ = index = lagrangian_index(labels)
    small = np.min_scalar_type(-2 * d)  # signed, holds every rep + point <= 2(d - 1)
    points = lagrangian_tables(lags).points.astype(small)
    coset = np.full((len(lags), d ** (2 * n)), -1, dtype=np.int64)
    coset[li[:, None], point_codes((reps.astype(small)[:, None] + points[li]) % d, d)] = (
        np.arange(len(labels))[:, None])
    return index, coset


def label_permutations(labels, maps):
    """The permutation of `labels` by each map (matrix, a[, eta]) of phase
    space, x -> matrix . x + a, every image one of the labels.

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
    rep, and t_L is J f for f the values at the pivots of S L
    (`label_from_functional`), for every Lagrangian at once.  A map raises
    ValueError, naming its index, when the image of a Lagrangian is not
    exactly one labelled Lagrangian (M singular or not a similitude), when
    an image coset has no label, or when the images are not a bijection of
    the labels."""
    d, n = labels[0].d, labels[0].n
    (lags, which, reps, _), coset = label_cosets(labels)
    tables = lagrangian_tables(lags)
    keys = {key.tobytes(): l for l, key in enumerate(np.packbits(tables.member, axis=1))}
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
        if (image < 0).any():
            raise ValueError(f"map {k}: the image of a Lagrangian is not exactly one "
                             "labelled Lagrangian")
        f = np.zeros((len(lags), 2 * n), dtype=np.int64)
        if eta:
            pre = source[rows, basis_codes[image]]  # the points of L_l onto the basis rows
            f[rows, tables.pivots[image]] = (tables.signs[rows, tables.codes[rows, pre]]
                                             + eta[0](tables.points[rows, pre]))
        perm = coset[image[which], point_codes((reps @ m.T + a + jvec(f)[which]) % d, d)]
        if (perm < 0).any():
            raise ValueError(f"map {k}: an image coset has no label")
        if (np.bincount(perm, minlength=perm.size) != 1).any():
            raise ValueError(f"map {k}: the images are not a bijection of the labels")
        perms.append(tuple(perm.tolist()))
    return perms


def label_from_functional(L: LagrangianSubspace, values) -> StabilizerLabel:
    """Label whose representative a satisfies [a, b_i] = values[i] on the
    basis of L: a = J f, f the values at the pivots, as [J f, b] = f . b and
    the echelon row b_i is 1 at its own pivot and 0 at the others."""
    if len(values) != L.dim:
        raise ValueError("one value per basis row required")
    f = np.zeros(L.ambient, dtype=np.int64)
    f[list(L.pivots)] = values
    return StabilizerLabel.make(L, tuple(jvec(f).tolist()))
