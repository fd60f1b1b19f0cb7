"""Exact matrices over cyclotomic fields, the Weyl operators T(a) and
phase-space point operators A(a) as monomials, and the Gram data of
stabilizer labels.

No certified path builds or multiplies a dense `OpMatrix`: the tests'
dense oracles do, and the traced benchmark wraps `OpMatrix.__matmul__` by
name, which is why the class stays in the library."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import numpy as np

from .cyclotomic import (
    CycNumber,
    _field,
    conductor_for,
    galois_exponent,
)
from .errors import BudgetExceeded, OddOnly
from .phase_space import (
    StabilizerLabel,
    enumerate_stabilizer_labels,
    jvec,
    lagrangian_index,
    sign_bits,
)
from .zmod import null_space, require_prime


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

    def galois(self, gal) -> Mono:
        """The entrywise Galois map C_alpha (`GaloisMap`, odd d), omega ->
        omega^alpha: every exponent times alpha, as zeta = omega."""
        if gal.d != self.d:
            raise ValueError("Galois map of another d")
        return Mono(self.d, self.n, self.perm, tuple(gal.alpha * e % self.d for e in self.expo))

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


def rational_part(out):
    """out[..., 0], for traces in power-basis coefficients that must be
    rational."""
    if np.any(out[..., 1:]):
        raise ValueError("trace has irrational part")
    return out[..., 0]


@lru_cache(maxsize=None)
def phase_point_mono(d, n, a) -> Mono:
    """A(a) = T(a)^dagger A(0) T(a) as a monomial operator, A(0) the parity
    |x> -> |-x> (cross-checked against the defining sum in tests)."""
    if d == 2:
        raise OddOnly("qubit A(a) is not monomial")
    dim = d ** n
    parity = Mono(d, n, tuple(_index([-x % d for x in _digits(q, d, n)], d) for q in range(dim)),
                  (0,) * dim)
    t = weyl_mono(d, n, a)
    return t.dagger() @ parity @ t


@lru_cache(maxsize=1024)
def _pair_table(lags):
    """For Lagrangians lags of one (d, n) (else ValueError), per pair
    (L_i, L_j): dim(L_i ∩ L_j) as dims[i, j], J b_t = (b_Z, -b_X) for a basis
    b_t of L_i ∩ L_j (one for both orders) as jb[i, j, t], padded with zero
    rows to n, so that [a, b_t] = a . J b_t, and c_(L_i)(b_t) as signs[i, j, t]
    (`sign_bits`); read-only, as the table is cached.  L_j is its own
    symplectic complement, so k . basis(L_i) lies in L_j iff
    pairing[i][j] k = 0, pairing[i][j][s][r] = [b_r(L_i), b_s(L_j)]."""
    d, n = lags[0].d, lags[0].ambient // 2
    if any((L.d, L.ambient) != (d, 2 * n) for L in lags):
        raise ValueError("mismatched ambient spaces")
    dims = np.zeros((len(lags),) * 2, dtype=np.uint8)
    jb = np.zeros((len(lags),) * 2 + (n, 2 * n), dtype=np.min_scalar_type(d - 1))
    signs = np.zeros((len(lags),) * 2 + (n,), dtype=np.uint8)
    bits = [sign_bits(L) for L in lags]
    basis = np.array([L.basis for L in lags])  # (lags, n, 2n)
    pairing = (np.einsum("irk,jsk->ijsr", basis, jvec(basis)) % d).tolist()
    for i in range(len(lags)):
        for j in range(i, len(lags)):
            kernel = null_space(pairing[i][j], n, d)
            dims[i, j] = dims[j, i] = len(kernel)
            for t, k in enumerate(kernel):
                b = tuple((np.dot(k, basis[i]) % d).tolist())
                jb[i, j, t] = jb[j, i, t] = jvec(np.array(b)) % d
                if d == 2:  # c_L is 0 at odd d
                    signs[i, j, t], signs[j, i, t] = bits[i][b], bits[j][b]
    dims.flags.writeable = jb.flags.writeable = signs.flags.writeable = False
    return dims, jb, signs


def character_keys(lags, li, reps):
    """keys[..., x, j] = sum_t chi_x(b_t) d^t over the basis b_t of L_x ∩ L_j
    (`_pair_table`, one basis for both orders of the pair) for the labels x
    with Lagrangian lags[li[x]] and representative reps[..., x, :], any
    leading axes shared: chi_x = [rep_x, .] + c_(L_x) as one integer below
    d^n per Lagrangian.  Labels x and y overlap iff keys[x, L_y] ==
    keys[y, L_x], as each chi is a character.  Each form sums 2n products of
    residues below d and a sign bit, exactly in the smallest unsigned dtype
    that holds 2n (d - 1)^2 + 1."""
    d, n = lags[0].d, lags[0].ambient // 2
    _, jb, signs = _pair_table(lags)
    acc = np.min_scalar_type(2 * n * (d - 1) ** 2 + 1)
    forms = (np.einsum("...xa,xjta->...xjt", reps.astype(jb.dtype), jb[li], dtype=acc)
             + signs[li]) % d
    key = np.min_scalar_type(d ** n - 1)
    return (forms * d ** np.arange(n, dtype=key)).sum(axis=-1, dtype=key)


def closed_form_gram(labels) -> GramMatrix:
    """The Gram of stabilizer labels: tr(Pi_x Pi_y) = d^(dim(L∩M) - n) if
    the characters chi_x and chi_y (`StabilizerLabel`) agree on L∩M, else 0.

    The intersections depend only on the pair of Lagrangians (`_pair_table`),
    and the characters on them are one integer per label and Lagrangian
    (`character_keys`), so agreement is one (N, N) comparison.  Entry (x, y)
    is code 0 (value 0) or 1 + dim(L_x ∩ L_y); the n + 2 values increase
    with it.
    """
    labels = tuple(labels)
    d, n = labels[0].d, labels[0].n
    lags, li = lagrangian_index(labels)
    keys = character_keys(lags, li, np.array([lab.rep for lab in labels]))
    # both sides gathered by rows: comparing C-order arrays, not one with its
    # transpose, is the bulk of the saving at N = 3 900
    agree = keys.take(li, axis=1) == keys.T[li]
    codes = np.where(agree, _pair_table(lags)[0][li].take(li, axis=1) + np.uint8(1), np.uint8(0))
    legend = (Fraction(0), *(Fraction(d) ** (k - n) for k in range(n + 1)))
    return GramMatrix.from_keys(labels, codes, legend.__getitem__)


def gram_closed_form(x: StabilizerLabel, y: StabilizerLabel) -> Fraction:
    """tr(Pi_x Pi_y) = d^(dim(L∩M) - n) * [chi_x and chi_y agree on L∩M]:
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


MAX_ENTRIES = 100_000_000  # cap on the entries of a Gram and of a gathered trace table


def build_gram(states) -> GramMatrix:
    """The Gram of a family of stabilizer labels, by the closed form
    (`closed_form_gram`); a family of more than MAX_ENTRIES entries is
    refused (BudgetExceeded)."""
    states = tuple(states)
    size = len(states)
    if size * size > MAX_ENTRIES:
        raise BudgetExceeded(f"{size}^2 Gram entries exceed budget")
    if not states or not isinstance(states[0], StabilizerLabel):
        raise ValueError("the Gram is built from stabilizer labels")
    return closed_form_gram(states)


# ---------------------------------------------------------------------------
# Cached state families

@dataclass(frozen=True)
class StateFamily:
    """A finite family of stabilizer states: labels and Gram data."""

    d: int
    n: int
    labels: tuple
    gram: GramMatrix

    @property
    def size(self):
        return len(self.labels)


@lru_cache(maxsize=None)
def stabilizer_labels(d, n) -> tuple:
    """The labels of `stabilizer_states`, with no Gram: sorted, and at d = 2
    by Lagrangian, then by the signs (-1)^[rep, b_i] of its basis stabilizers."""
    require_prime(d)
    labels = enumerate_stabilizer_labels(d, n)
    if d == 2:
        labels = tuple(sorted(labels, key=lambda x: (x.L.basis,
                                                     [-x.functional(b) for b in x.L.basis])))
    return labels


@lru_cache(maxsize=None)
def stabilizer_states(d, n) -> StateFamily:
    """The full stabilizer-state family for (d, n) and its Gram."""
    labels = stabilizer_labels(d, n)
    return StateFamily(d=d, n=n, labels=labels, gram=build_gram(labels))
