"""The Weyl operators T(a) and phase-space point operators A(a) as batched
monomial tables, the Gram data of stabilizer labels, `OperatorSet`, the one
type of a set of states, and the dense matrix `OpMatrix`.

No certified path builds or multiplies a dense `OpMatrix`: the tests'
dense oracles do (their traces and inner products are in
`tests/dense_oracles.py`), and the traced benchmark wraps
`OpMatrix.__matmul__` by name, which is why the class stays in the
library."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from numbers import Integral

import numpy as np

from .cyclotomic import CycNumber, _field, conductor_for, galois_exponent
from .errors import BudgetExceeded, OddOnly
from .phase_space import (
    MAX_ENTRIES,
    StabilizerLabel,
    code_points,
    enumerate_stabilizer_labels,
    jvec,
    lagrangian_index,
    lagrangian_tables,
    point_codes,
)
from .zmod import null_space, require_prime


class OpMatrix:
    """Dense square matrix over Q[zeta_m].

    The entries are stored as one object array of Python ints, coef[i, j, k]
    the coefficient of zeta_m^k in entry (i, j), over one positive common
    denominator den, in lowest terms (gcd of den and every coefficient is 1),
    so equal matrices have equal storage.  The array is read-only.

    Every product (`@`, `scale` by a CycNumber) is one
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


# ---------------------------------------------------------------------------
# Monomial operators: one nonzero root-of-unity entry per column.  T(a) and
# the odd-d A(a) are of this shape, so a batch of them is two integer tables.

def weyl_table(d, n, codes):
    """T(a) for the points a with the (B,) `point_codes` codes, as int64 arrays
    (perm, expo) of shape (B, d^n): T(a)|q> = zeta^expo[i, q] |perm[i, q]>,
    basis states in `code_points` order, zeta = omega_d (i at d = 2, expo
    mod 4).  T(a) |q> = omega^(-half a_X.a_Z + (q + a_X).a_Z) |q + a_X>, half
    = (d + 1)/2; at d = 2, T(a) = i^(-a_X.a_Z) Z^(a_Z) X^(a_X)."""
    require_prime(d)
    a = code_points(codes, d, 2 * n)
    ax, az = a[:, None, :n], a[:, None, n:]
    out = (code_points(np.arange(d ** n), d, n) + ax) % d  # (B, d^n, n)
    dot, ph = (ax * az).sum(-1), (out * az).sum(-1)
    expo = (2 * ph - dot) % 4 if d == 2 else ((d + 1) // 2 * -dot + ph) % d
    return point_codes(out, d), expo


def phase_point_table(d, n, codes):
    """A(a) = T(a)^dagger A(0) T(a), A(0) the parity |q> -> |-q>, for the
    points a with the `point_codes` codes, as (perm, expo) in the form of
    `weyl_table` (odd d; d = 2 is OddOnly, as the qubit A(a) is not
    monomial): A(a)|q> = omega^(2 (q + a_X).a_Z) |-q - 2 a_X>."""
    if d == 2:
        raise OddOnly("qubit A(a) is not monomial")
    require_prime(d)
    a = code_points(codes, d, 2 * n)
    ax, az = a[:, None, :n], a[:, None, n:]
    q = code_points(np.arange(d ** n), d, n)
    return point_codes((-q - 2 * ax) % d, d), 2 * ((q + ax) * az).sum(-1) % d


def rational_part(out):
    """out[..., 0], for traces in power-basis coefficients that must be
    rational."""
    if np.any(out[..., 1:]):
        raise ValueError("trace has irrational part")
    return out[..., 0]


@lru_cache(maxsize=1024)
def _pair_table(lags):
    """For Lagrangians lags of one (d, n) (else ValueError), per pair
    (L_i, L_j): dim(L_i ∩ L_j) as dims[i, j], J b_t = (b_Z, -b_X) for a basis
    b_t of L_i ∩ L_j (one for both orders) as jb[i, j, t], padded with zero
    rows to n, so that [a, b_t] = a . J b_t, and c_(L_i)(b_t) as signs[i, j, t]
    (the signs of `lagrangian_tables`, 0 at the zero rows); read-only, as
    the table is cached.  L_j is its own symplectic complement, so
    k . basis(L_i) lies in L_j iff pairing[i, j] k = 0,
    pairing[i, j, s, r] = [b_r(L_i), b_s(L_j)]: the kernels of the pairings
    of every pair i <= j are one batched `zmod.null_space`, written to both
    orders, and the signs of each order read at its own first Lagrangian."""
    tables = lagrangian_tables(lags)
    d, n = lags[0].d, lags[0].ambient // 2
    # a pairing sums 2n products of residues below d, exactly in this dtype
    basis = tables.basis.astype(np.min_scalar_type(-2 * n * (d - 1) ** 2))
    i, j = np.triu_indices(len(lags))
    left = basis[i]
    kernel = null_space(jvec(basis)[j] @ left.swapaxes(1, 2), d)
    b = kernel @ left % d  # zero rows stay zero
    dims = np.zeros((len(lags),) * 2, dtype=np.uint8)
    jb = np.zeros((len(lags),) * 2 + (n, 2 * n), dtype=np.min_scalar_type(d - 1))
    codes = np.zeros((len(lags),) * 2 + (n,), dtype=np.min_scalar_type(d ** (2 * n) - 1))
    dims[i, j] = dims[j, i] = kernel.any(-1).sum(-1)
    jb[i, j] = jb[j, i] = jvec(b) % d
    codes[i, j] = codes[j, i] = point_codes(b, d)
    signs = tables.signs[np.arange(len(lags))[:, None, None], codes]
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
    lags, li, reps, _ = lagrangian_index(labels)
    keys = character_keys(lags, li, reps)
    # both sides gathered by rows: comparing C-order arrays, not one with its
    # transpose, is the bulk of the saving at N = 3 900
    agree = keys.take(li, axis=1) == keys.T[li]
    codes = np.where(agree, _pair_table(lags)[0][li].take(li, axis=1) + np.uint8(1), np.uint8(0))
    legend = (Fraction(0), *(Fraction(d) ** (k - n) for k in range(n + 1)))
    return GramMatrix.from_keys(labels, codes, legend.__getitem__)


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
# Operator sets: the one set type, and the cached stabilizer family

class OperatorSet:
    """A finite set of Hermitian trace-1 operators with uniform weights,
    given by its labels, one per element: a `StabilizerLabel` of (d, n) for
    a stabilizer state, or a point a, 2n residues mod d, for A(a); anything
    else raises ValueError.  Equal and hashed by identity, so the functions
    cached on a set never hash its labels; the family constructors are
    cached, one set each, shared by the Gram and the moment readers."""

    def __init__(self, name, d, n, labels):
        labels = tuple(labels)
        if not labels:
            raise ValueError("an operator set needs at least one label")
        stab = isinstance(labels[0], StabilizerLabel)
        kind = "stabilizer label" if stab else "point of 2n residues mod d"
        for x in labels:
            if isinstance(x, StabilizerLabel) != stab or not (
                    (x.d, x.n) == (d, n) if stab else len(x) == 2 * n
                    and all(isinstance(v, Integral) and 0 <= v < d for v in x)):
                raise ValueError(f"{x!r} is not a {kind} at (d, n) = ({d}, {n})")
        self.name, self.d, self.n, self.labels = name, d, n, labels
        self.dim, self.conductor, self.size = d ** n, conductor_for(d), len(labels)

    @cached_property
    def gram(self) -> GramMatrix:
        """The set's Gram, by `build_gram` on first read (ValueError for
        phase points)."""
        return build_gram(self.labels)


@lru_cache(maxsize=None)
def stabilizer_set(d, n) -> OperatorSet:
    """The stabilizer states of (d, n) as a set, with no Gram: the labels
    sorted, and at d = 2 by Lagrangian, then by the signs (-1)^f_i of its
    basis stabilizers b_i, +1 first: f_i = rep . J b_i mod 2 for every label
    in one batched product, ordered by one lexsort (last key first)."""
    require_prime(d)
    labels = enumerate_stabilizer_labels(d, n)
    if d == 2:
        lags, li, reps, _ = lagrangian_index(labels)
        f = np.einsum("xa,xia->xi", reps, jvec(lagrangian_tables(lags).basis)[li]) % 2
        labels = tuple(map(labels.__getitem__, np.lexsort((*-f.T[::-1], li)).tolist()))
    return OperatorSet(f"stabilizer({d},{n})", d, n, labels)


def stabilizer_states(d, n) -> OperatorSet:
    """`stabilizer_set(d, n)` with its Gram built."""
    states = stabilizer_set(d, n)
    states.gram  # built on this first read, and kept on the set
    return states
