"""The Weyl operators T(a) and phase-space point operators A(a) as batched
monomial tables, the Gram data of stabilizer labels, `OperatorSet`, the one
type of a set of states, its elements given by integer arrays, and the dense
matrix `OpMatrix`.

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
from .errors import BudgetExceeded, Mismatch, OddOnly
from .phase_space import (
    MAX_ENTRIES,
    Lagrangians,
    code_points,
    enumerate_stabilizer_labels,
    jvec,
    lagrangian_tables,
    point_codes,
)
from .zmod import require_prime


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


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Exact pairwise overlaps tr(q_i q_j) of a state family as colour codes:
    entry (i, j) is legend[codes[i, j]].  The legend is the sorted tuple of
    the distinct values that occur, so every code is used; codes is a
    read-only array in the smallest unsigned dtype that holds them."""

    codes: np.ndarray
    legend: tuple  # of Fraction, strictly increasing

    @classmethod
    def from_keys(cls, keys, value):
        """The Gram with entries value(keys[i, j]), for an integer matrix
        keys (numpy integers or Python ints) and a map value that strictly
        increases with the key: each entry's code is the rank of its key
        among the distinct keys (np.unique), in the smallest unsigned dtype
        that holds the ranks."""
        distinct = np.unique(keys).tolist()
        codes = np.searchsorted(distinct, keys).astype(np.min_scalar_type(len(distinct) - 1))
        codes.flags.writeable = False
        return cls(codes, tuple(map(value, distinct)))

    @property
    def size(self):
        return len(self.codes)

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


def supports(q):
    """The support of each element of an `OperatorSet` in the Hermitian
    basis B_a (A(a) at odd d, the Pauli T(a) at d = 2): (points, values),
    each of shape (N, k), the `point_codes` codes of the points a where
    T[a, x] = tr(B_a q_x) is nonzero and T there, so that a scatter of them
    is the trace table (`moments.trace_table`).

    A stabilizer state x: at odd d, the d^n points of rep_x + L_x, each with
    1 (Pi_x is d^-n times the sum of the A(a) over its coset, so this is its
    discrete Wigner function); at d = 2, the points b of L_x, with
    (-1)^([rep_x, b] + c_L(b)), c_L the signs of
    `phase_space.lagrangian_tables`.  A phase point A(x): the point x with
    d^n at odd d, as tr(A(a) A(x)) = d^n [a = x]; every point a with
    (-1)^[a, x] at d = 2.  The values, +-1 and d^n <= 64
    (`phase_space.MAX_POINTS`), are int8."""
    d, n = q.d, q.n
    value = np.min_scalar_type(-d ** n)
    small = np.min_scalar_type(-2 * n * (d - 1) ** 2)  # holds a form before mod d
    if q.lags is None:
        if d > 2:
            return point_codes(q.points, d)[:, None], np.full((q.size, 1), d ** n, dtype=value)
        every = code_points(np.arange(4 ** n), 2, 2 * n).astype(small)
        forms = q.points.astype(small) @ jvec(every).T
        return np.broadcast_to(np.arange(4 ** n), forms.shape), (1 - 2 * (forms % 2)).astype(value)
    tables = lagrangian_tables(q.lags)
    points, reps = tables.points.astype(small)[q.index], q.reps.astype(small)
    if d > 2:
        return point_codes((reps[:, None] + points) % d, d), np.ones(points.shape[:2], dtype=value)
    codes = tables.codes[q.index]
    forms = np.einsum("xa,xpa->xp", reps, jvec(points)) + tables.signs[q.index[:, None], codes]
    return codes, (1 - 2 * (forms % 2)).astype(value)


def _support_sums(q):
    """sums[x, y] = sum_a T[a, x] T[a, y] over the trace table T of the
    set q, read from its `supports`: the incidences grouped by point with
    one stable argsort, each point adding v v^T of its values v over its
    elements.  A group is added a slice of rows at a time, its flat pair
    indices no more than the support's entries.  Each column holds d^n
    values +-1, so |sums| <= d^n, and sums is in the smallest dtype that
    holds d^n."""
    points, values = supports(q)
    order = np.argsort(points, axis=None, kind="stable")
    at = points.ravel()[order]
    # the bounds of each point's run of incidences
    bounds = [0, *(np.flatnonzero(at[1:] != at[:-1]) + 1).tolist(), at.size]
    elements, values = order // points.shape[1], values.ravel()[order]
    sums = np.zeros((q.size,) * 2, dtype=np.min_scalar_type(-q.dim))
    flat = sums.reshape(-1)  # a view: one flat index per pair is faster than two
    for start, end in zip(bounds, bounds[1:]):
        x, v = elements[start:end], values[start:end]
        step = max(1, points.size // (end - start))
        for r in range(0, end - start, step):
            flat[(x[r:r + step, None] * q.size + x).ravel()] += (v[r:r + step, None] * v).ravel()
    return sums


def build_gram(q) -> GramMatrix:
    """The Gram of an `OperatorSet` of stabilizer states from their
    `supports`: tr(Pi_x Pi_y) = d^-n sum_a T[a, x] T[a, y] over the trace
    table T, as tr(B_a B_b) = d^n [a = b] (`_support_sums`).  A sum is 0
    or d^k, k = dim(L_x ∩ L_y); the codes rank the sums that occur, the
    legend their values sum / d^n, and any other sum raises Mismatch,
    naming the pair.  A set of more than MAX_ENTRIES entries is refused
    (BudgetExceeded)."""
    if not isinstance(q, OperatorSet) or q.lags is None:
        raise ValueError("the Gram is built from a set of stabilizer states")
    if q.size * q.size > MAX_ENTRIES:
        raise BudgetExceeded(f"{q.size}^2 Gram entries exceed budget")
    sums = _support_sums(q)
    # the sums that occur, 0 and powers of d, coded by rank through a lookup
    # that codes any other sum past them (a negative sum indexes it from its
    # end, past d^n)
    occur = [c for c in (0, *(q.d ** k for k in range(q.n + 1))) if (sums == c).any()]
    lookup = np.full(2 * q.dim + 1, len(occur), dtype=np.uint8)
    lookup[occur] = range(len(occur))
    codes = lookup[sums]
    if codes.max() == len(occur):
        x, y = np.argwhere(codes == len(occur))[0].tolist()
        raise Mismatch(f"states {x} and {y}: their supports give the sum {sums[x, y]}, "
                       f"not 0 or a power of {q.d}")
    codes.flags.writeable = False
    return GramMatrix(codes, tuple(Fraction(c, q.dim) for c in occur))


# ---------------------------------------------------------------------------
# Operator sets: the one set type, and the cached stabilizer family

def _residue_rows(rows, d, n, what):
    """rows, one per element, as a read-only int64 array (size, 2n); the
    first element that is not 2n integers in 0..d-1 raises ValueError,
    named by its index.  An array of residues is taken as it is; the
    elements are read one by one only to name a bad one."""
    try:
        array = np.asarray(rows)
        ok = (array.ndim == 2 and array.shape[1] == 2 * n and array.dtype.kind in "iu"
              and not ((array < 0) | (array >= d)).any())
    except ValueError:  # ragged rows
        ok = False
    if not ok:
        for x, row in enumerate(rows):
            if np.ndim(row) != 1 or len(row) != 2 * n or not all(
                    isinstance(v, Integral) and 0 <= v < d for v in row):
                raise ValueError(f"element {x}, {row!r}, is not a {what} of 2n residues mod d "
                                 f"at (d, n) = ({d}, {n})")
    array = np.array(rows, dtype=np.int64)
    array.flags.writeable = False
    return array


class OperatorSet:
    """A finite set of Hermitian trace-1 operators with uniform weights,
    given by integer arrays, one row per element.  A stabilizer state x is
    the label (lags[index[x]], reps[x]) of the `phase_space.Lagrangians`
    lags of (d, n): the Lagrangian's index and the canonical representative
    of the coset, 2n residues mod d that are 0 at the Lagrangian's pivots.
    With `points` alone, element x is the phase point A(points[x]), 2n
    residues mod d.  Anything else raises ValueError, naming the first bad
    element where there is one; the arrays are kept as read-only int64
    copies.  Equal and hashed by identity, so the functions cached on a set
    never hash its arrays; the family constructors are cached, one set
    each, shared by the Gram and the moment readers."""

    def __init__(self, name, d, n, *, lags=None, index=None, reps=None, points=None):
        stab = lags is not None
        if (index is None, reps is None, points is None) != (not stab, not stab, stab):
            raise ValueError("an operator set is given by lags, index and reps, or by points")
        rows = reps if stab else points
        if not len(rows):
            raise ValueError("an operator set needs at least one element")
        rows = _residue_rows(rows, d, n, "rep" if stab else "point")
        if stab:
            if not isinstance(lags, Lagrangians) or (lags.d, lags.n) != (d, n):
                raise ValueError(f"the Lagrangians are not a list of (d, n) = ({d}, {n})")
            index = np.asarray(index)
            if index.shape != rows.shape[:1] or index.dtype.kind not in "iu":
                raise ValueError(f"{len(rows)} reps need {len(rows)} integer indices, "
                                 f"not {index.shape} of {index.dtype}")
            index = index.astype(np.int64)
            outside = (index < 0) | (index >= len(lags))
            pivots = (lags.basis != 0).argmax(-1)[np.where(outside, 0, index)]
            for bad, why in ((outside, f"its Lagrangian is not one of the {len(lags)}"),
                             (np.take_along_axis(rows, pivots, 1).any(1),
                              "its rep is not 0 at the pivots of its Lagrangian")):
                if bad.any():
                    x = int(bad.argmax())
                    raise ValueError(f"element {x}, ({index[x]}, {rows[x].tolist()}): {why}")
            index.flags.writeable = False
        self.name, self.d, self.n = name, d, n
        self.lags, self.index = lags, index
        self.reps, self.points = (rows, None) if stab else (None, rows)
        self.dim, self.conductor, self.size = d ** n, conductor_for(d), len(rows)

    @cached_property
    def gram(self) -> GramMatrix:
        """The set's Gram, by `build_gram` on first read (ValueError for
        phase points)."""
        return build_gram(self)

    @cached_property
    def blocks(self):
        """blocks[l], the elements of the Lagrangian lags[l] in order, as
        lists of ints (stabilizer states only)."""
        blocks = [[] for _ in range(len(self.lags))]
        for x, l in enumerate(self.index.tolist()):
            blocks[l].append(x)
        return blocks


@lru_cache(maxsize=None)
def stabilizer_set(d, n) -> OperatorSet:
    """The stabilizer states of (d, n) as a set, with no Gram: the labels of
    `enumerate_stabilizer_labels`, sorted, and at d = 2 by Lagrangian, then
    by the signs (-1)^f_i of its basis stabilizers b_i, +1 first: f_i = rep
    . J b_i mod 2 for every label in one batched product, ordered by one
    lexsort (last key first)."""
    require_prime(d)
    lags, index, reps = enumerate_stabilizer_labels(d, n)
    if d == 2:
        f = np.einsum("xa,xia->xi", reps, jvec(lags.basis)[index]) % 2
        order = np.lexsort((*-f.T[::-1], index))
        index, reps = index[order], reps[order]
    return OperatorSet(f"stabilizer({d},{n})", d, n, lags=lags, index=index, reps=reps)


def stabilizer_states(d, n) -> OperatorSet:
    """`stabilizer_set(d, n)` with its Gram built."""
    states = stabilizer_set(d, n)
    states.gram  # built on this first read, and kept on the set
    return states
