"""Exact matrices over cyclotomic fields: Weyl operators T(a), phase-space
point operators A(a), stabilizer projectors and their Gram data."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import numpy as np

from .cyclotomic import (
    CycNumber,
    _exact,
    _field,
    _int64,
    conductor_for,
    galois_exponent,
    root_of_unity,
)
from .errors import BudgetExceeded, InconsistentSigns, OddOnly
from .phase_space import (
    LagrangianSubspace,
    StabilizerLabel,
    Subspace,
    all_vectors,
    enumerate_lagrangians,
    enumerate_stabilizer_labels,
    subspace_intersection,
    symplectic_form,
)
from .zmod import require_prime


class OpMatrix:
    """Dense square matrix over Q[zeta_m].

    The entries are stored as one object array of Python ints, coef[i, j, k]
    the coefficient of zeta_m^k in entry (i, j), over one positive common
    denominator den, in lowest terms (gcd of den and every coefficient is 1),
    so equal matrices have equal storage.  The array is read-only.

    Every product (`@`, `trace_product`, `scale` by a CycNumber) is one
    `_Field.contract` with the field's multiplication tensor, and every
    Galois map (`conj`, `dagger`, `entrywise_galois`) one
    `_Field.galois_map`: both compute in int64 when a bound proves the
    result exact and on the Python ints otherwise, and return Python ints,
    so the storage does not depend on the path taken.
    """

    __slots__ = ("m", "coef", "den")

    def __init__(self, m, rows):
        rows = [list(r) for r in rows]
        dim = len(rows)
        if any(len(r) != dim for r in rows):
            raise ValueError("matrix must be square")
        if not all(isinstance(x, CycNumber) and x.m == m for r in rows for x in r):
            raise ValueError(f"entries must be CycNumbers of conductor {m}")
        den = lcm(*(x.den for r in rows for x in r))
        coef = np.array([[[c * (den // x.den) for c in x.num] for x in r] for r in rows],
                        dtype=object).reshape(dim, dim, _field(m).deg)
        self._set(m, coef, den)

    def _set(self, m, coef, den):
        g = gcd(den, *coef.flat)
        self.m = m
        self.coef = coef // g if g > 1 else coef
        self.coef.flags.writeable = False
        self.den = den // g

    @classmethod
    def _make(cls, m, coef, den):
        """The matrix coef / den (den > 0), brought to lowest terms."""
        out = object.__new__(cls)
        out._set(m, coef, den)
        return out

    @classmethod
    def identity(cls, m, dim):
        coef = np.zeros((dim, dim, _field(m).deg), dtype=object)
        coef[range(dim), range(dim), 0] = 1
        return cls._make(m, coef, 1)

    @classmethod
    def zero(cls, m, dim):
        return cls._make(m, np.zeros((dim, dim, _field(m).deg), dtype=object), 1)

    @classmethod
    def from_rational(cls, m, rows):
        return cls(m, [[CycNumber.from_fraction(m, x) for x in r] for r in rows])

    @property
    def dim(self):
        return self.coef.shape[0]

    @property
    def rows(self):
        """The entries as CycNumbers, built on demand."""
        return tuple(tuple(CycNumber(self.m, list(x), self.den) for x in r) for r in self.coef)

    def _check(self, other):
        if self.m != other.m or self.dim != other.dim:
            raise ValueError("dimension or conductor mismatch")

    def __add__(self, other):
        self._check(other)
        den = lcm(self.den, other.den)
        return OpMatrix._make(
            self.m, self.coef * (den // self.den) + other.coef * (den // other.den), den)

    def __sub__(self, other):
        return self + (-other)

    def __matmul__(self, other):
        self._check(other)
        out = _field(self.m).contract(self.coef, other.coef, ([1], [0]))
        return OpMatrix._make(self.m, out, self.den * other.den)

    def scale(self, c):
        if isinstance(c, (int, Fraction)):
            c = Fraction(c)
            return OpMatrix._make(self.m, self.coef * c.numerator, self.den * c.denominator)
        if not isinstance(c, CycNumber) or c.m != self.m:
            raise ValueError(f"scale must be rational or a CycNumber of conductor {self.m}")
        times_c = _field(self.m).contract(self.coef, np.array(c.num, dtype=object), ([], []))
        return OpMatrix._make(self.m, times_c, self.den * c.den)

    def __neg__(self):
        return self.scale(-1)

    def transpose(self):
        return OpMatrix._make(self.m, self.coef.transpose(1, 0, 2), self.den)

    def _galois(self, t):
        return OpMatrix._make(self.m, _field(self.m).galois_map(self.coef, t), self.den)

    def conj(self):
        return self._galois(self.m - 1)

    def dagger(self):
        return self.conj().transpose()

    def trace(self):
        return CycNumber(self.m, list(self.coef.trace()), self.den)

    def entrywise_galois(self, gal):
        return self._galois(galois_exponent(gal, self.m))

    def is_hermitian(self):
        return self == self.dagger()

    def __eq__(self, other):
        return (
            isinstance(other, OpMatrix)
            and self.m == other.m
            and self.den == other.den
            and self.coef.shape == other.coef.shape
            and bool((self.coef == other.coef).all())
        )

    def __hash__(self):
        return hash((self.m, self.den, self.coef.shape, tuple(self.coef.flat)))

    def __repr__(self):
        return f"OpMatrix(m={self.m}, dim={self.dim})"

    def to_json(self):
        return {
            "conductor": self.m,
            "dim": self.dim,
            "entries": [[x.to_json()["coeffs"] for x in r] for r in self.rows],
        }


def trace_product(a: OpMatrix, b: OpMatrix) -> CycNumber:
    """tr(A B) = sum_{i,j} A[i,j] B[j,i], without forming A B."""
    a._check(b)
    out = _field(a.m).contract(a.coef, b.coef, ([0, 1], [1, 0]))
    return CycNumber(a.m, list(out), a.den * b.den)


def hs_inner(a: OpMatrix, b: OpMatrix) -> CycNumber:
    """Hilbert-Schmidt inner product (A|B) = tr A† B."""
    return trace_product(a.dagger(), b)


# ---------------------------------------------------------------------------
# Monomial operators: one nonzero root-of-unity entry per column.  T(a) and
# A(a) are of this shape, which keeps exhaustive law checks cheap.

@dataclass(frozen=True)
class Mono:
    """Matrix with entries M[perm[q], q] = zeta^expo[q], zeta = omega_d (i for d=2)."""

    d: int
    n: int
    perm: tuple
    expo: tuple

    @property
    def r(self):
        return 4 if self.d == 2 else self.d

    def __matmul__(self, other):
        r = self.r
        perm = tuple(self.perm[p] for p in other.perm)
        expo = tuple((other.expo[q] + self.expo[other.perm[q]]) % r for q in range(len(self.perm)))
        return Mono(self.d, self.n, perm, expo)

    def dagger(self):
        size = len(self.perm)
        inv = [0] * size
        for q, p in enumerate(self.perm):
            inv[p] = q
        r = self.r
        expo = tuple((-self.expo[inv[q]]) % r for q in range(size))
        return Mono(self.d, self.n, tuple(inv), expo)

    def phase_shift(self, k):
        """Multiply by zeta^k globally."""
        r = self.r
        return Mono(self.d, self.n, self.perm, tuple((e + k) % r for e in self.expo))

    def _phase(self, e):
        m = conductor_for(self.d)
        return root_of_unity(m, (m // self.r) * e)

    def trace(self) -> CycNumber:
        m = conductor_for(self.d)
        acc = CycNumber.zero(m)
        for q, p in enumerate(self.perm):
            if p == q:
                acc = acc + self._phase(self.expo[q])
        return acc

    def trace_product(self, other) -> CycNumber:
        """tr(self @ other) without building matrices."""
        m = conductor_for(self.d)
        acc = CycNumber.zero(m)
        for q in range(len(self.perm)):
            if self.perm[other.perm[q]] == q:
                acc = acc + self._phase((other.expo[q] + self.expo[other.perm[q]]) % self.r)
        return acc

    def to_matrix(self) -> OpMatrix:
        return mono_sum([self], 1)


def _digits(q, d, n):
    out = []
    for _ in range(n):
        out.append(q % d)
        q //= d
    return tuple(reversed(out))


def _index(digits, d):
    q = 0
    for x in digits:
        q = q * d + x
    return q


def weyl_mono(d, n, a) -> Mono:
    """T(a) as a monomial operator; a = (a_X, a_Z) concatenated.  `Mono` is
    frozen, so one instance per (d, n, a) is cached and shared."""
    return _weyl_mono(d, n, tuple(map(int, a)))


@lru_cache(maxsize=8192)
def _weyl_mono(d, n, a) -> Mono:
    require_prime(d)
    ax, az = a[:n], a[n:]
    dim = d ** n
    perm = []
    expo = []
    half = (d + 1) // 2
    dot = sum(x * z for x, z in zip(ax, az))
    for q in range(dim):
        digs = _digits(q, d, n)
        out = tuple((x + y) % d for x, y in zip(digs, ax))
        perm.append(_index(out, d))
        ph = sum(z * o for z, o in zip(az, out))
        if d == 2:
            expo.append((-dot + 2 * ph) % 4)
        else:
            expo.append((half * (-dot) + ph) % d)
    return Mono(d, n, tuple(perm), tuple(expo))


def weyl(d, n, a) -> OpMatrix:
    """The Weyl-Heisenberg operator T(a) as a dense exact matrix."""
    return weyl_mono(d, n, a).to_matrix()


def mono_sum(monos, scale) -> OpMatrix:
    """scale * (sum of the monomial operators) as a dense matrix: the power
    expansion of each entry zeta^expo[q] is added into the coefficient tensor
    at (perm[q], q)."""
    monos = list(monos)
    r, dim, m = monos[0].r, len(monos[0].perm), conductor_for(monos[0].d)
    f = _field(m)
    perms = np.array([mono.perm for mono in monos]).ravel()
    expos = np.array([mono.expo for mono in monos]).ravel()
    coef = np.zeros((dim, dim, f.deg), dtype=object)
    np.add.at(coef, (perms, np.tile(np.arange(dim), len(monos))), f.pows[(m // r) * expos])
    scale = Fraction(scale)
    return OpMatrix._make(m, coef * scale.numerator, scale.denominator)


def mono_traces(monos, stack):
    """All tr(B_x Q_y) for monomial operators B_x and the matrices Q_y, given
    as a coefficient stack (`coefficient_stack`): an object array [x, y, k]
    of Python ints, power-basis coefficients over the stack's denominator.

    tr(B Q) = sum_c zeta^expo[c] Q[c, perm[c]]: one entry of Q per column of
    B, so an output coefficient sums dim * deg^2 products with the field's
    multiplication tensor (dim^2 * deg^2 for dense B), in the guarded kernel
    `cyclotomic._exact`.
    """
    mono = monos[0]
    m = conductor_for(mono.d)
    f = _field(m)
    dim = len(mono.perm)
    perms, expos = (np.array([getattr(b, a) for b in monos]) for a in ("perm", "expo"))
    small = _int64(stack)  # gathering int64 entries saves converting the larger copy
    gathered = (stack if small is None else small[0])[:, np.arange(dim), perms]
    # gathered[y, x, c] = Q_y[c, perm_x[c]]
    roots = f.pows[(m // mono.r) * expos]  # [x, c] = zeta^expo_x[c]
    path = ["einsum_path", (1, 2), (0, 1)]  # the roots with mul first
    return _exact(lambda g, r, mul: np.einsum("yxcb,xca,abk->xyk", g, r, mul, optimize=path),
                  dim * f.deg ** 2, (gathered, roots), f._mul)


def rational_part(out):
    """out[..., 0], for traces in power-basis coefficients that must be
    rational."""
    if np.any(out[..., 1:]):
        raise ValueError("trace has irrational part")
    return out[..., 0]


def lowest_terms(ints, scale):
    """ints / scale in lowest terms, as (ints, scale)."""
    g = gcd(scale, int(np.gcd.reduce(ints, axis=None)))
    return ints // g, scale // g


def phase_point(d, n, a) -> OpMatrix:
    """A(a) = d^-n sum_b omega^([a,b]) T(b): for odd d the dense form of the
    monomial `phase_point_mono`, for d = 2 the defining sum.  Cached per
    point, like `weyl_mono`."""
    return _phase_point(d, n, tuple(int(x) % d for x in a))


@lru_cache(maxsize=None)
def _phase_point(d, n, a) -> OpMatrix:
    if d != 2:
        return phase_point_mono(d, n, a).to_matrix()
    # omega = i^2 when d = 2
    terms = [weyl_mono(d, n, b).phase_shift(2 * symplectic_form(a, b, d))
             for b in all_vectors(d, 2 * n)]
    return mono_sum(terms, Fraction(1, d ** n))


@lru_cache(maxsize=None)
def phase_point_mono(d, n, a) -> Mono:
    """A(a) = T(a)^dagger A(0) T(a) as a monomial operator, A(0) the parity
    |x> -> |-x> (cross-checked against the defining sum in tests)."""
    if d == 2:
        raise OddOnly("qubit A(a) is not monomial; use phase_point")
    dim = d ** n
    parity = Mono(d, n, tuple(_index([-x % d for x in _digits(q, d, n)], d) for q in range(dim)),
                  (0,) * dim)
    t = weyl_mono(d, n, a)
    return t.dagger() @ parity @ t


@lru_cache(maxsize=8192)
def stab_projector(label: StabilizerLabel) -> OpMatrix:
    """Pi_L^g = d^-n sum_{b in L} omega^(g(b)) T(b) for odd d."""
    d, n = label.d, label.n
    if d == 2:
        raise OddOnly("use stab_projector_qubit for d = 2")
    terms = [weyl_mono(d, n, b).phase_shift(label.functional(b)) for b in label.L.points()]
    return mono_sum(terms, Fraction(1, d ** n))


def stab_projector_wigner(label: StabilizerLabel) -> OpMatrix:
    """The same projector from the phase-space side: d^-n sum_{b in L+a} A(b)."""
    d, n = label.d, label.n
    if d == 2:
        raise OddOnly("phase-space form requires odd d")
    m = conductor_for(d)
    dim = d ** n
    acc = OpMatrix.zero(m, dim)
    for x in label.coset().points():
        acc = acc + phase_point(d, n, x)
    return acc.scale(Fraction(1, dim))


def stab_projector_qubit(L: Subspace, signs) -> OpMatrix:
    """Qubit stabilizer projector 2^-n sum eps(b) T(b) from basis signs in {+1,-1}.

    The group {eps(b)T(b)} is generated by closure, so consistency is automatic
    for an isotropic basis; invalid input raises InconsistentSigns.
    """
    d = L.d
    if d != 2:
        raise ValueError("qubit path requires d = 2")
    n = L.ambient // 2
    if L.dim != n or len(signs) != n:
        raise InconsistentSigns("need a Lagrangian basis and one sign per row")
    if any(symplectic_form(u, v, 2) for u in L.basis for v in L.basis):
        raise InconsistentSigns("basis is not isotropic")
    if any(s not in (1, -1) for s in signs):
        raise InconsistentSigns("signs must be +1 or -1")
    dim = 2 ** n
    group = {(0,) * (2 * n): Mono(2, n, tuple(range(dim)), (0,) * dim)}
    for row, s in zip(L.basis, signs):
        gen = weyl_mono(2, n, row)
        if s == -1:
            gen = gen.phase_shift(2)
        for vec, mono in list(group.items()):
            new_vec = tuple((x + y) % 2 for x, y in zip(vec, row))
            if new_vec not in group:
                group[new_vec] = mono @ gen
    if len(group) != dim:
        raise InconsistentSigns("sign data does not close into a group")
    return mono_sum(group.values(), Fraction(1, dim))


@dataclass(frozen=True)
class QubitStabState:
    """A qubit stabilizer state named by (Lagrangian, basis sign tuple)."""

    L: LagrangianSubspace
    signs: tuple

    def sort_key(self):
        return (self.L.basis, self.signs)


@lru_cache(maxsize=None)
def enumerate_qubit_states(n):
    """All valid (L, signs) pairs for d = 2, sorted: 6 for n=1, 60 for n=2."""
    out = []
    for L in enumerate_lagrangians(2, n):
        for signs in itertools.product((1, -1), repeat=n):
            out.append(QubitStabState(L, signs))
    out.sort(key=QubitStabState.sort_key)
    return tuple(out)


@lru_cache(maxsize=1024)
def _pair_table(lags):
    """For Lagrangians lags of one (d, n), per pair (L_i, L_j): dim(L_i ∩ L_j)
    as dims[i, j], and J b_t = (b_Z, -b_X) for the canonical basis b_t of
    L_i ∩ L_j as jb[i, j, t], padded with zero rows to n, so that
    [a, b_t] = a . J b_t.  Both arrays are read-only: the table is cached.
    Lagrangians of different (d, n) raise ValueError (`subspace_intersection`)."""
    d, n = lags[0].d, lags[0].ambient // 2
    dims = np.zeros((len(lags),) * 2, dtype=np.uint8)
    jb = np.zeros((len(lags),) * 2 + (n, 2 * n), dtype=np.min_scalar_type(d - 1))
    for i, a in enumerate(lags):
        for j in range(i, len(lags)):
            inter = subspace_intersection(a, lags[j])
            dims[i, j] = dims[j, i] = inter.dim
            for t, b in enumerate(inter.basis):
                jb[i, j, t] = jb[j, i, t] = b[n:] + tuple((-x) % d for x in b[:n])
    dims.flags.writeable = jb.flags.writeable = False
    return dims, jb


def closed_form_gram(labels) -> GramMatrix:
    """The Gram of the odd-d stabilizer labels: tr(Pi_x Pi_y) =
    d^(dim(L∩M) - n) if the functionals [x, .] and [y, .] agree on L∩M,
    else 0.

    The intersections depend only on the pair of Lagrangians (`_pair_table`).
    forms[x, j, t] = [rep_x, b_t(L_x ∩ L_j)] mod d, and by bilinearity entry
    (x, y) is nonzero iff forms[x, L_y] == forms[y, L_x].  Each form sums 2n
    products of residues below d, so it is computed exactly in the smallest
    unsigned dtype that holds 2n (d - 1)^2.  Entry (x, y) is code 0 (value 0)
    or 1 + dim(L_x ∩ L_y), and the n + 2 values increase with the code.
    """
    labels = tuple(labels)
    d, n = labels[0].d, labels[0].n
    if d == 2:
        raise OddOnly("qubit Gram entries come from brute force")
    lags = tuple(dict.fromkeys(lab.L for lab in labels))
    dims, jb = _pair_table(lags)
    where = {L: i for i, L in enumerate(lags)}
    li = np.array([where[lab.L] for lab in labels])
    reps = np.array([lab.rep for lab in labels], dtype=jb.dtype)
    acc = np.min_scalar_type(2 * n * (d - 1) ** 2)
    forms = np.einsum("xa,xjta->xjt", reps, jb[li], dtype=acc) % d
    pair = forms[:, li]  # pair[x, y] = [rep_x, basis of L_x ∩ L_y]
    agree = (pair == pair.transpose(1, 0, 2)).all(axis=2)
    codes = np.where(agree, dims[li][:, li] + 1, 0)
    legend = (Fraction(0), *(Fraction(d) ** (k - n) for k in range(n + 1)))
    return GramMatrix.from_keys(labels, codes, legend.__getitem__)


def gram_closed_form(x: StabilizerLabel, y: StabilizerLabel) -> Fraction:
    """tr(Pi_x Pi_y) = d^(dim(L∩M) - n) * [g and h agree on L∩M], d odd:
    `closed_form_gram` of the pair."""
    return closed_form_gram((x, y)).values[0][1]


_TABLE_SPAN = 16  # widest key span `GramMatrix.from_keys` ranks through a table


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Exact pairwise overlaps tr(q_i q_j) of a state family as colour codes:
    entry (i, j) is legend[codes[i, j]].  The legend is the sorted tuple of
    the distinct values that occur, so every code is used; codes is a
    read-only array in the smallest unsigned dtype that holds them."""

    labels: tuple
    codes: np.ndarray
    legend: tuple  # of Fraction, strictly increasing

    @classmethod
    def from_keys(cls, labels, keys, value):
        """The Gram with entries value(keys[i, j]), for an integer matrix
        keys (numpy integers or Python ints) and a map value that strictly
        increases with the key: each entry's code is the rank of its key
        among the distinct keys.

        Keys within a span of `_TABLE_SPAN` (the closed form's n + 2 codes,
        the brute-force Gram's few values) are shifted to start at 0 (as
        uint8 if they are Python ints), found by one comparison pass per
        possible key and ranked through a table indexed by key, with no copy
        of keys wider than the codes; wider spans are ranked by np.unique."""
        low, high = (int(keys.min()), int(keys.max())) if keys.size else (0, -1)
        if keys.size and high - low < _TABLE_SPAN:
            index = keys - low if low else keys
            if index.dtype == object:
                index = index.astype(np.uint8)
            present = np.array([(index == k).any() for k in range(high - low + 1)])
            distinct = [low + k for k in np.flatnonzero(present).tolist()]
            dtype = np.min_scalar_type(len(distinct) - 1)
            codes = (np.cumsum(present) - 1).astype(dtype)[index]
        else:
            distinct = np.unique(keys).tolist()
            codes = np.searchsorted(distinct, keys).astype(np.min_scalar_type(len(distinct) - 1))
        codes.flags.writeable = False
        return cls(tuple(labels), codes, tuple(map(value, distinct)))

    @property
    def size(self):
        return len(self.labels)

    @property
    def values(self):
        """The entries as a tuple of tuples of Fractions, built on each call."""
        return tuple(map(tuple, np.array(self.legend, dtype=object)[self.codes].tolist()))

    def value_multiset(self):
        counts = np.bincount(self.codes.ravel(), minlength=len(self.legend))
        return dict(zip(self.legend, counts.tolist()))

    def to_csv(self):
        names = [f"{v.numerator}/{v.denominator}" for v in self.legend]
        return "".join(",".join(map(names.__getitem__, row)) + "\n" for row in self.codes.tolist())


def build_gram(states, projectors=None, budget=100_000_000) -> GramMatrix:
    """Gram matrix of a state family.

    Odd-d stabilizer labels use the closed form; anything else (qubit states,
    rebit projectors) uses the pairwise traces `trace_pairs` of the supplied
    projector matrices.
    """
    states = tuple(states)
    size = len(states)
    if size * size > budget:
        raise BudgetExceeded(f"{size}^2 Gram entries exceed budget")
    if states and isinstance(states[0], StabilizerLabel) and projectors is None:
        return closed_form_gram(states)
    if projectors is None:
        raise ValueError("non-label states need explicit projector matrices")
    ints, scale = trace_pairs(projectors, projectors)
    return GramMatrix.from_keys(states, ints, lambda v: Fraction(v, scale))


# ---------------------------------------------------------------------------
# Cached state families

@dataclass(frozen=True)
class StateFamily:
    """A finite family of stabilizer states: labels, Gram data, and the exact
    projectors, which an odd-d family builds on first access."""

    d: int
    n: int
    labels: tuple
    gram: GramMatrix

    @property
    def size(self):
        return len(self.labels)

    @property
    def projectors(self):
        return _projectors(self.d, self.n)


@lru_cache(maxsize=None)
def _projectors(d, n):
    """The stabilizer projectors of (d, n), in the order of their labels."""
    if d == 2:
        return tuple(stab_projector_qubit(s.L, s.signs) for s in enumerate_qubit_states(n))
    return tuple(map(stab_projector, enumerate_stabilizer_labels(d, n)))


def coefficient_stack(mats):
    """The coefficient tensors of mats over one common denominator, as
    (stack, den): mats[x] = stack[x] / den, stack an object array of Python
    ints with the matrix index first."""
    den = lcm(*(x.den for x in mats))
    return np.stack([x.coef * (den // x.den) for x in mats]), den


def trace_pairs(left, right):
    """All tr(L_x R_y) as (ints, scale): tr(L_x R_y) = ints[x, y] / scale,
    with ints an object array of Python ints and scale a positive int, in
    lowest terms.

    The sibling of `mono_traces` for dense L_x: one contraction of the two
    coefficient stacks with the field's multiplication tensor, in the
    guarded kernel `cyclotomic._exact`.  A coefficient of tr(L_x R_y) sums
    dim^2 entry products, each expanded through the deg^2 coefficient pairs.
    The op raises if any trace has a nonzero component outside the rational
    line, and keeps only the rational one, so only that is turned into
    Python ints.
    """
    f = _field(left[0].m)
    (lhs, lden), (rhs, rden) = coefficient_stack(left), coefficient_stack(right)
    # L with mul first, then R: numpy's own path choice is the 7-index loop
    path = ["einsum_path", (0, 2), (0, 1)]
    ints = _exact(lambda x, y, mul: rational_part(np.einsum("xija,yjib,abc->xyc", x, y, mul,
                                                            optimize=path)),
                  left[0].dim ** 2 * f.deg ** 2, (lhs, rhs), f._mul)
    return lowest_terms(ints, lden * rden)


@lru_cache(maxsize=None)
def stabilizer_states(d, n) -> StateFamily:
    """The full stabilizer-state family for (d, n) and its Gram; the exact
    projectors of an odd-d family are built when first read."""
    require_prime(d)
    if d == 2:
        # the brute-force Gram reads the projectors, so they are built here
        labels = enumerate_qubit_states(n)
        gram = build_gram(labels, projectors=_projectors(d, n))
    else:
        labels = enumerate_stabilizer_labels(d, n)
        gram = build_gram(labels)
    return StateFamily(d=d, n=n, labels=labels, gram=gram)
