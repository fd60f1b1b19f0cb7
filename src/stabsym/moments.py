"""Moment forms F_k of finite operator sets and the design/condition predicates
that control which symmetry notions coincide.

Every predicate reads one object, the trace table T of a set (`trace_table`:
T[a, j] = tr(B_a q_j), d^(2n) integer rows in `point_codes` order, one column
per element), and its pair sums S2 = T T^T (`_pair_sums`, one per set).  The
Hermitian basis B_a, the A(a) at odd d and the Paulis T(a) at d = 2, is in
closed form and orthogonal, tr(B_a B_b) = d^n [a = b] (`_basis`,
`_triples`), so no check builds a cyclotomic matrix.  A set is its arrays,
and T is read from them: a stabilizer state's column is its discrete Wigner
function at odd d and its signed Pauli incidence at d = 2.  The real
predicates read the real-Pauli rows (a_X.a_Z even, a basis of Sym) of T and
their block of S2.

On dir(Q), with C = T[:, picked] - T[:, [0]] the coordinates of a basis of
differences q_i - q_0 (`_dir_basis`), F_2 is C^T S2 C, HS is C^T C and F_3
the trilinear form of the rows of D = C^T T, so no array has two axes of
length |Q|.  The three third-moment checks (`is_complex_3design`,
`is_real_6design` and the F_3 clause of `check_lin_jor_condition`) share
one scan over the triples i <= j <= k (`_triple_chunks`): the trilinear
form of a table's rows (`_trilinear`) and the Jordan side tr(X_i X_j X_k) +
tr(X_i X_k X_j) of X_i = sum_a W[i, a] B_a, W the basis rows or C^T
(`_jordan`: a gather of triple-trace exponents), in full power-basis
coefficients (it can be irrational: Q[sqrt 5] at d = 5).  The scan takes
the i-slabs in chunks of 1, 1, 2, 4, ... slabs, capped at _TRIPLE_CHUNK
triples, and a check stops at the first chunk holding a failure.  Every
integer is computed in `cyclotomic._exact`, int64 when it fits; "equal"
and "proportional" are integer cross-multiplications over common
denominators.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import numpy as np

from .clifford import real_clifford_orbit, rebit_count, transpose_action
from .cyclotomic import CycNumber, _exact, _field, conductor_for
from .errors import BudgetExceeded, StabsymError, Unsupported
from .operators import OperatorSet, rational_part, stabilizer_set
from .phase_space import (
    MAX_ENTRIES,
    code_points,
    jvec,
    label_cosets,
    lagrangian_count,
    lagrangian_tables,
    point_codes,
)


def check_table_budget(d, n, size):
    """Refuse (BudgetExceeded) a set of `size` operators at (d, n) when a
    Hermitian trace table gathered from dense elements would take more than
    MAX_ENTRIES entries (size d^(3n) deg).  None is gathered: the count is
    the size cap of a set, and bounds the echelon pick of `_dir_basis` (up
    to |Q| rows of d^(2n) Python ints), the largest cost left at (5,2)."""
    entries = size * d ** (3 * n) * _field(conductor_for(d)).deg
    if entries > MAX_ENTRIES:
        raise BudgetExceeded(f"the trace table of {size} operators at (d, n) = ({d}, {n}) "
                             f"gathers {entries} entries, over the budget of {MAX_ENTRIES}")


def stabilizer_operator_set(d, n) -> OperatorSet:
    """`operators.stabilizer_set(d, n)`, refused by its count
    d^n prod_k (d^k + 1) before any label is listed."""
    check_table_budget(d, n, d ** n * lagrangian_count(d, n))
    return stabilizer_set(d, n)


def rebit_operator_set(n) -> OperatorSet:
    """`clifford.real_clifford_orbit(n)`, refused by its count
    `clifford.rebit_count(n)` before any label is listed."""
    check_table_budget(2, n, rebit_count(n))
    return real_clifford_orbit(n)


@lru_cache(maxsize=None)
def phase_point_operator_set(d, n) -> OperatorSet:
    check_table_budget(d, n, d ** (2 * n))
    return OperatorSet(f"phase_points({d},{n})", d, n,
                       points=code_points(np.arange(d ** (2 * n)), d, 2 * n))


# ---------------------------------------------------------------------------
# Spanning bases and exact trace tables

@lru_cache(maxsize=None)
def _phase_forms(d, n):
    """[a, b] mod d for every pair of phase-space points, rows and columns in
    `point_codes` order, as a read-only int64 array."""
    p = code_points(np.arange(d ** (2 * n)), d, 2 * n)
    forms = (_exact(lambda x, y: x @ y.T, 2 * n, (p, jvec(p))) % d).astype(np.int64)
    forms.flags.writeable = False
    return forms


@lru_cache(maxsize=None)
def _pauli_products(n):
    """beta(a, b) mod 4 with T(a) T(b) = i^beta T(a + b), for every pair of
    d = 2 points in `point_codes` order, as a read-only int64 array:
    T(a) = i^(-a_X.a_Z) Z^(a_Z) X^(a_X) (`operators.weyl_table`) and
    X^(a_X) Z^(b_Z) = (-1)^(a_X.b_Z) Z^(b_Z) X^(a_X)."""
    p = code_points(np.arange(4 ** n), 2, 2 * n)
    x, z, c = p[:, :n], p[:, n:], p[:, None] ^ p  # c[a, b] = a + b
    own = (x * z).sum(axis=1)
    beta = (2 * x @ z.T - own[:, None] - own + (c[..., :n] * c[..., n:]).sum(axis=-1)) % 4
    beta.flags.writeable = False
    return beta


def _triples(d, n, a, b, c):
    """tr(B_a B_b B_c) = values[e] for the basis points a, b, c (index
    arrays in `point_codes` order that broadcast together), as (e,
    values), values = `_triple_values(d, n)`.  At odd d,
    tr(A(a) A(b) A(c)) = omega^(2([a, b] + [b, c] + [c, a])), as
    [b - a, c - a] is that sum.  At d = 2, tr(T(a) T(b) T(c)) =
    2^n i^beta(a, b) [a + b + c = 0] from `_pauli_products` and
    tr(T(x) T(y)) = 2^n [x = y]; the point index of a + b is a ^ b."""
    if d == 2:
        e = np.where(c == a ^ b, _pauli_products(n)[a, b], 4)
    else:
        w = _phase_forms(d, n)
        e = 2 * (w[a, b] + w[b, c] + w[c, a]) % d
    return e, _triple_values(d, n)


@lru_cache(maxsize=None)
def _triple_values(d, n):
    """The values of tr(B_a B_b B_c) (`_triples`) as a read-only int64
    array: values[v] = norm zeta_r^v in power-basis integers over the
    conductor of d for v < r, and values[r] = 0; r = d and norm 1 at odd d,
    r = 4 and norm 2^n at d = 2."""
    r, norm = (4, 2 ** n) if d == 2 else (d, 1)
    m = conductor_for(d)
    f = _field(m)
    values = np.vstack([norm * f.pows[(m // r) * np.arange(r)], np.zeros((1, f.deg), int)])
    values = values.astype(np.int64)
    values.flags.writeable = False
    return values


@lru_cache(maxsize=None)
def _jordan_index(d, n):
    """The gather behind `_jordan`, as a read-only (r, P, P) array over the
    P = d^(2n) points: with tr(B_a B_b B_c) = norm zeta_r^e(a, b, c)
    (`_triples`), the count H_v[b, c] = sum_a x[a] [e(a, b, c) = v] of a
    row x is G(x).ravel()[index[v, b, c]] for the (P, r) table G(x) of
    `_jordan_counts`.  At odd d, e(a, b, c) = 2[a, b - c] + 2[b, c] mod d,
    so index[v, b, c] = (b - c) r + (v - 2[b, c] mod d); at d = 2 only
    a = b + c contributes, with e = beta(b + c, b), so index[v, b, c] =
    (b ^ c) r + (v - beta(b ^ c, b) mod 4).  A gather over P^2 cells, not a
    count over P^3."""
    p = code_points(np.arange(d ** (2 * n)), d, 2 * n)
    if d == 2:
        r, u = 4, p[:, None] ^ p
        u = point_codes(u, 2)
        e = _pauli_products(n)[u, np.arange(len(p))[:, None]]
    else:
        r, u = d, point_codes((p[:, None] - p) % d, d)
        e = 2 * _phase_forms(d, n) % d
    index = u * r + (np.arange(r)[:, None, None] - e) % r
    index.flags.writeable = False
    return index


def _jordan_counts(d, n, x):
    """The (P, r) table G(x) of `_jordan_index` for one row x over the P
    points: at odd d, G[u, s] = sum_a x[a] [2[a, u] = s mod d] over the
    support of x; at d = 2, G[u, 0] = x[u] and 0 elsewhere.  Computed on
    x's own dtype, within the caller's `_exact` bound."""
    if d == 2:
        out = np.zeros((len(x), 4), dtype=x.dtype)
        out[:, 0] = x
        return out
    support = np.flatnonzero(x)
    hits = (2 * _phase_forms(d, n)[support] % d)[:, :, None] == np.arange(d)
    return np.tensordot(x[support], hits, 1)


_Basis = namedtuple("_Basis", "labels points single")


@lru_cache(maxsize=None)
def _basis(d, n, real=False) -> _Basis:
    """The Hermitian basis B_a in closed form: labels, their indices `points`
    in `point_codes` order and tr B_a = single[a] as int64 (A(a): 1;
    T(a): 2^n [a = 0]); tr(B_a B_b) = d^n [a = b], the scalar `dim` of a
    set.  With `real` (d = 2 only) the real Paulis, those with transpose
    sign 0 (`clifford.transpose_action`, a_X.a_Z even): 2^(n-1) (2^n + 1)
    of them, an orthogonal basis of Sym."""
    if real and d != 2:
        raise Unsupported("the real basis is defined at d = 2")
    p = code_points(np.arange(d ** (2 * n)), d, 2 * n)
    points = np.flatnonzero(transpose_action(n)[2](p) == 0) if real else np.arange(len(p))
    single = 2 ** n * (points == 0) if d == 2 else np.ones(len(points), dtype=int)
    return _Basis(tuple(map(tuple, p[points].tolist())), points, single.astype(np.int64))


@lru_cache(maxsize=None)
def trace_table(q: OperatorSet):
    """The trace table T[a, j] = tr(B_a q_j) of a set, read from its arrays:
    a read-only int64 array, rows in `point_codes` order, one column per
    element.  For a point x: tr(A(a) A(x)) = d^n [a = x] at odd d,
    tr(T(b) A(x)) = (-1)^[x, b] at d = 2.  For a stabilizer label x
    (`operators.OperatorSet`): at d = 2, tr(T(b) Pi_x) = (-1)^([rep_x, b] +
    c_L(b)) [b in L_x], with member and c_L from `lagrangian_tables`; at odd
    d, tr(A(a) Pi_x) = [a in rep_x + L_x] (Pi_x = d^-n times the sum of the
    A(a) over its coset, so this is its discrete Wigner function), read from
    the coset table of `label_cosets`.  The array is C-ordered."""
    d, n = q.d, q.n
    if q.lags is None:
        cells = point_codes(q.points, d)
        if d == 2:
            table = 1 - 2 * _phase_forms(2, n)[:, cells]
        else:
            table = d ** n * (np.arange(d ** (2 * n))[:, None] == cells)
    elif d == 2:
        tables = lagrangian_tables(q.lags)
        signed = tables.member.astype(np.int8) - 2 * tables.signs.astype(np.int8)
        reps = point_codes(q.reps, 2)
        table = signed[q.index].T * (1 - 2 * _phase_forms(2, n)[:, reps].astype(np.int8))
    else:
        coset = label_cosets(q.lags, q.index, q.reps)
        table = (coset[q.index] == np.arange(q.size)[:, None]).T
    # C order: the stabilizer tables are built transposed, and numpy's int64
    # matmul, which has no BLAS path, is slower on an F-ordered operand
    table = np.ascontiguousarray(table, dtype=np.int64)
    table.flags.writeable = False
    return table


class _Echelon:
    """Incremental fraction-free row echelon over Q, the one rational
    elimination behind every rank and solve step of this module.

    Rows are Python-int lists, so the integer growth of fraction-free
    elimination (Bareiss, Math. Comp. 22, 1968) cannot overflow.  A row is
    reduced against each stored row r with pivot p as r[p]*row - row[p]*r,
    which zeroes its entry p; a row that stays nonzero is divided by the gcd
    of its entries, signed so its pivot (first nonzero entry) is positive,
    and stored.  Sorted by pivot, the stored rows are a row echelon form of
    the rows inserted so far.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    def reduce(self, row):
        row = [int(x) for x in row]
        for r, p in zip(self.rows, self.pivots):
            f = row[p]
            if f:
                a = r[p]
                row = [a * x - f * y for x, y in zip(row, r)]
        return row

    def insert(self, row):
        """Reduce row; if independent, add it and return True."""
        row = self.reduce(row)
        p = next((i for i, x in enumerate(row) if x), None)
        if p is None:
            return False
        g = gcd(*row)
        if row[p] < 0:
            g = -g
        self.rows.append([x // g for x in row])
        self.pivots.append(p)
        return True

    @property
    def rank(self):
        return len(self.rows)


def span_dimension(q: OperatorSet) -> int:
    """dim span(Q).

    Every element has trace 1 and the differences q_i - q_0 are traceless, so
    q_0 lies outside their span: dim span(Q) = dim dir(Q) + 1.
    """
    return len(_dir_basis(q)[0]) + 1


# ---------------------------------------------------------------------------
# Design predicates

@dataclass(frozen=True)
class DesignReport:
    predicate: str
    passed: bool
    constants: dict = field(default_factory=dict)
    witness: tuple | None = None

    def to_json(self):
        return {
            "predicate": self.predicate,
            "pass": self.passed,
            "constants": {k: str(v) for k, v in self.constants.items()},
            "witness": None if self.witness is None else [str(w) for w in self.witness],
        }


@lru_cache(maxsize=None)
def _pair_sums(q: OperatorSet):
    """S2 = T T^T, S2[a, b] = sum_q t_a t_b over the trace table, as a
    read-only array, int64 when it fits (`_exact`); cached, as the
    2-design, real-design and Lin ⊂ Wig checks share it."""
    table = trace_table(q)
    s2 = _exact(lambda x, y: x @ y.T, q.size, (table, table))
    s2.flags.writeable = False
    return s2


def _times(x, y):
    """x * y entrywise, with numpy broadcasting, int64 when it fits
    (`_exact`)."""
    return _exact(np.multiply, 1, (np.asarray(x), np.asarray(y)))


_TRIPLE_CHUNK = 2 ** 16  # triples (i, j, k) per chunk of a scan: bounds its arrays


def _triple_chunks(d, n, rows, w):
    """The triples i <= j <= k over len(rows) indices, in order (i, then j,
    then k), as chunks (keys, lhs, jordan): keys[e] = (i, j, k), lhs the
    trilinear form of the rows (`_trilinear`) and jordan the symmetrized
    triple trace of X_i = sum_a W[i, a] B_a (`_jordan`, w its points or W).

    The i-slabs come in chunks of as many slabs as came before, at least
    one (1, 1, 2, 4, ...), capped at _TRIPLE_CHUNK triples unless one slab
    holds more: a check that fails in slab 0 does the work of that slab
    alone, and a passing one makes O(log r) kernel calls.  Within a chunk
    each slab i contracts only its tail j, k >= i."""
    r, i0 = len(rows), 0

    def triples(i):  # in slab i
        return (r - i) * (r - i + 1) // 2

    while i0 < r:
        i1, total = i0 + 1, triples(i0)
        while i1 < min(r, 2 * i0) and total + triples(i1) <= _TRIPLE_CHUNK:
            total += triples(i1)
            i1 += 1
        j, k = np.triu_indices(r - i0)
        # slab i's pairs j, k >= i are the suffix of the first slab's from j = i
        slabs = [(i, j[st:] - (i - i0), k[st:] - (i - i0))
                 for i, st in zip(range(i0, i1), np.searchsorted(j, np.arange(i1 - i0)))]
        yield _slab_keys(slabs), _trilinear(rows, slabs), _jordan(d, n, w, slabs)
        i0 = i1


def _slab_keys(slabs):
    """The triples (i, i + jj, i + kk) of the slabs (i, jj, kk), in turn, as
    an (entries, 3) array."""
    return np.concatenate([np.stack([np.full(len(jj), i), i + jj, i + kk], 1)
                           for i, jj, kk in slabs])


def _trilinear(rows, slabs):
    """sum_t rows[i][t] rows[i + jj][t] rows[i + kk][t] for every slab (i,
    jj, kk) in turn, int64 when it fits (`_exact`).  A slab's (jj, kk) are
    every pair jj <= kk of its tail in row-major order (`_triple_chunks`),
    so each row jj of x_i * tail meets only the tail from jj on.  (If the
    rows from i0 on are all 0, so is the first product.)"""
    i0, i1 = slabs[0][0], slabs[-1][0] + 1

    def op(x, tail, same):
        out = []
        for i, _, _ in slabs:
            prod = x[i - i0] * tail[i - i0:]
            out.extend(p @ same[i - i0 + jj:].T for jj, p in enumerate(prod))
        return np.concatenate(out)

    return _exact(op, rows.shape[1], (rows[i0:i1], rows[i0:], rows[i0:]))


def _jordan(d, n, w, slabs):
    """tr(X_i X_j X_k) + tr(X_i X_k X_j), j = i + jj and k = i + kk, for
    every slab (i, jj, kk) in turn, as power-basis integers (int64 when
    they fit, `_exact`) for X_x = sum_a W[x, a] B_a: w is either the
    points of a basis (W its rows of the identity, X_x = B_w[x]) or the
    integer matrix W over all d^(2n) points.

    For points, each entry is two values of `_triples`.  For a matrix,
    with tr(B_a B_b B_c) = values[e(a, b, c)], tr(X_i X_j X_k) is
    sum_v values[v] (tail H_v tail^T)[j, k], tail = W[i:] and H_v[b, c] =
    sum_a W[i, a] [e(a, b, c) = v] the gather of `_jordan_index`: no
    matrix, and swapping b and c transposes H_v."""
    i0, i1 = slabs[0][0], slabs[-1][0] + 1
    if w.ndim == 1:
        i, j, k = w[_slab_keys(slabs).T]
        ijk, values = _triples(d, n, i, j, k)
        ikj = _triples(d, n, i, k, j)[0]
        return _exact(lambda v: v[ijk] + v[ikj], 2, (values,))
    index, values = _jordan_index(d, n), _triple_values(d, n)[:-1]

    def op(x, tail, same, v):
        out = []
        for i, jj, kk in slabs:
            h = _jordan_counts(d, n, x[i - i0]).ravel()[index]
            a = np.tensordot(tail[i - i0:] @ h @ same[i - i0:].T, v, ([0], [0]))
            out.append(a[jj, kk] + a[kk, jj])
        return np.concatenate(out)

    support = 1 if d == 2 else int(np.count_nonzero(w[i0:i1], axis=1).max())
    return _exact(op, 2 * w.shape[1] ** 2 * support, (w[i0:i1], w[i0:], w[i0:], values))


def _trace_terms(b: _Basis, dim, keys):
    """For each triple (i, j, k) of keys: tr_i tr_j tr_k and the cross terms
    tr_i tr(B_j B_k) + tr_j tr(B_i B_k) + tr_k tr(B_i B_j), with
    tr(B_a B_b) = dim [a = b], int64 when they fit (`_exact`)."""
    t = b.single[keys]
    i, j, k = keys.T
    pair = dim * np.stack([j == k, i == k, i == j], 1)
    return (_exact(lambda x, y, z: x * y * z, 1, tuple(t.T)),
            _exact(lambda x, y: (x * y).sum(axis=1), 3, (t, pair)))


def is_complex_2design(q: OperatorSet) -> DesignReport:
    """Exact comparison of F_2 with (tr A tr B + tr AB) / (D(D+1)) on a basis;
    the witness is the pair i <= j with the largest gap, the first one among
    equal gaps."""
    b = _basis(q.d, q.n)
    dd = q.dim
    s2 = _pair_sums(q)
    iu = np.triu_indices(len(b.single))
    # F_2 = s2 / |Q| against (tr_i tr_j + tr(B_i B_j)) / (D(D+1))
    i, j = iu
    ones = np.ones(len(i), dtype=np.int64)
    form = _exact(lambda x, y: (x * y).sum(axis=0), 2,
                  (np.stack([b.single[i], dd * (i == j)]), np.stack([b.single[j], ones])))
    sides = np.stack([_times(s2[iu], dd * (dd + 1)), _times(form, q.size)])
    gap = _exact(lambda x: abs(x[0] - x[1]), 2, (sides,))
    e = int(np.argmax(gap))
    if not gap[e]:
        return DesignReport("complex_2design", True)
    i, j = i[e], j[e]
    return DesignReport("complex_2design", False, witness=(
        b.labels[i], b.labels[j], Fraction(int(s2[i, j]), q.size),
        Fraction(int(form[e]), dd * (dd + 1))))


def is_complex_3design(q: OperatorSet) -> DesignReport:
    """Exact comparison of F_3 with the 6-term symmetric form; the witness is
    the first failing triple i <= j <= k.

    The correct normalization of the 6-term sum is 1/(D(D+1)(D+2)), anchored by
    F_3(1,1,1) = 1 for trace-1 states.
    """
    b = _basis(q.d, q.n)
    dd = q.dim
    for keys, lhs, jordan in _triple_chunks(q.d, q.n, trace_table(q), b.points):
        # F_3 = lhs / |Q| against (terms + jordan) / (D(D+1)(D+2)): the
        # irrational part of jordan must vanish, and the rational parts agree
        terms = _exact(lambda x: x.sum(axis=0), 3,
                       (np.stack([jordan[:, 0], *_trace_terms(b, dd, keys)]),))
        bad = jordan[:, 1:].any(axis=1) | (
            _times(terms, q.size) != _times(lhs, dd * (dd + 1) * (dd + 2)))
        if bad.any():
            return DesignReport("complex_3design", False,
                                witness=tuple(b.labels[x] for x in keys[int(bad.argmax())]))
    return DesignReport("complex_3design", True)


def _solve_linear_positive(equations, unknowns):
    """Exact positive solution of a rational system [A | b]; None if impossible.

    The system may be rank-deficient (the trace invariants satisfy algebraic
    relations in low dimension).  With one free unknown, a positive point is
    searched for along the null vector; a larger nullspace does not occur for
    these invariants and raises StabsymError.
    """
    ech = _Echelon(unknowns + 1)
    for eq in equations:
        eq = [Fraction(x) for x in eq]
        scale = lcm(*(x.denominator for x in eq))
        ech.insert([x.numerator * (scale // x.denominator) for x in eq])
    if unknowns in ech.pivots:
        return None  # a row 0 = b with b != 0
    free = [c for c in range(unknowns) if c not in ech.pivots]
    if len(free) > 1:
        raise StabsymError(f"nullity {len(free)} > 1: no rule picks a positive point")

    def back_substitute(null):
        # the particular point has its free unknown at 0; the null vector
        # solves [A | 0] with its free unknown at 1
        x = [Fraction(int(null and c in free)) for c in range(unknowns)]
        for r, p in sorted(zip(ech.rows, ech.pivots), key=lambda rp: -rp[1]):
            s = (0 if null else r[-1]) - sum(r[c] * x[c] for c in range(p + 1, unknowns))
            x[p] = Fraction(s, r[p])
        return x

    particular = back_substitute(False)
    if not free:
        return particular if all(x > 0 for x in particular) else None
    null = back_substitute(True)
    pairs = list(zip(particular, null))
    if any(nv == 0 and pv <= 0 for pv, nv in pairs):
        return None
    # the open interval lo < t < hi on which particular + t*null > 0
    lo = max((-pv / nv for pv, nv in pairs if nv > 0), default=None)
    hi = min((-pv / nv for pv, nv in pairs if nv < 0), default=None)
    if lo is not None and hi is not None:
        if lo >= hi:
            return None
        t = (lo + hi) / 2
    elif lo is not None:
        t = lo + 1
    elif hi is not None:
        t = hi - 1
    else:
        t = Fraction(0)
    return [pv + t * nv for pv, nv in zip(particular, null)]


def is_real_4design(q: OperatorSet) -> DesignReport:
    """F_2 = K_hs (A|B) + K_tr (A|1)(B|1) with exactly solved positive
    constants, on the real Paulis (d = 2; Unsupported at odd d).

    Solving both constants exactly doubles as the consistency proof and pins
    the ratio between the two invariants instead of assuming it.  Only the
    distinct equations are eliminated, as in `is_real_6design`."""
    b = _basis(q.d, q.n, real=True)
    s2 = _pair_sums(q)[np.ix_(b.points, b.points)]
    iu = np.triu_indices(len(s2))
    # over |Q|; (B_i|B_j) = tr(B_i B_j) = D [i = j] on the real symmetric basis
    i, j = iu
    equations = np.stack([_times(q.dim * q.size, i == j),
                          _times(_times(b.single[i], b.single[j]), q.size), s2[iu]], 1)
    sol = _solve_linear_positive(dict.fromkeys(map(tuple, equations.tolist())), 2)
    if sol is None:
        return DesignReport("real_4design", False,
                            witness=("no consistent positive constants",))
    k_hs, k_tr = sol
    return DesignReport("real_4design", True, constants={"K_hs": k_hs, "K_tr": k_tr})


def is_real_6design(q: OperatorSet) -> DesignReport:
    """F_3 = K1 trA trB trC + K2 (three cross terms) + K3 (Tr(ABC)+Tr(ACB)),
    on the real Paulis (d = 2; Unsupported at odd d).

    Only the distinct equations are eliminated: the pivots, the particular
    point and the null vector of `_solve_linear_positive` depend on the row
    space alone."""
    b = _basis(q.d, q.n, real=True)
    equations = {}
    for keys, lhs, jordan in _triple_chunks(q.d, q.n, trace_table(q)[b.points], b.points):
        rows = np.stack([*(_times(x, q.size) for x in _trace_terms(b, q.dim, keys)),
                         _times(rational_part(jordan), q.size), lhs], 1)
        equations.update(dict.fromkeys(map(tuple, rows.tolist())))
    sol = _solve_linear_positive(equations, 3)
    if sol is None:
        return DesignReport("real_6design", False,
                            witness=("no consistent positive constants",))
    k1, k2, k3 = sol
    return DesignReport("real_6design", True, constants={"K1": k1, "K2": k2, "K3": k3})


# ---------------------------------------------------------------------------
# Condition checks behind Lin ⊂ Wig and Lin ⊂ Jor

@lru_cache(maxsize=None)
def _dir_basis(q: OperatorSet):
    """(picked, C): the indices i of a basis q_i - q_0 of dir(Q), picked
    greedily in order by one echelon over their trace-table coordinates, and
    those coordinates C = T[:, picked] - T[:, [0]] (`_exact`, read-only).
    Every difference is traceless, so its coordinates lie in a hyperplane
    (the A(a) sum to d^n 1; T(0) = 1 for qubits): the pick stops at rank
    d^(2n) - 1."""
    table = trace_table(q)
    ech = _Echelon(len(table))
    picked = []
    cols = table.T.tolist()
    for i in range(1, q.size):
        if ech.insert([x - y for x, y in zip(cols[i], cols[0])]):
            picked.append(i)
            if ech.rank == ech.ncols - 1:
                break
    idx = np.asarray(picked, dtype=np.intp)
    coords = _exact(lambda t: t[:, idx] - t[:, :1], 2, (table,))
    coords.flags.writeable = False
    return tuple(picked), coords


def _proportional_scan(blocks):
    """Where lhs / rhs stops being one constant, over blocks taken in order.

    A block is (keys, lhs, rhs): entry e is named by keys[e], lhs[e] is an
    integer and rhs[e] a vector of power-basis integers, each over one
    denominator common to all blocks.  The constant is lhs / rhs at the
    reference, the first entry with rhs != 0; an entry fails when
    lhs * rhs_ref != lhs_ref * rhs (before the reference: when lhs != 0).
    Returns (ref, bad), each (key, lhs, rhs) or None, ref None when bad
    comes first; no block after the one holding bad is read.
    """
    ref = None
    for keys, lhs, rhs in blocks:
        start = None
        if ref is None:
            nonzero = (rhs != 0).any(axis=1)
            if nonzero.any():
                start = int(nonzero.argmax())
                ref = keys[start], lhs[start], rhs[start]
        bad = (lhs != 0 if ref is None
               else (_times(lhs[:, None], ref[2]) != _times(ref[1], rhs)).any(axis=1))
        if bad.any():
            e = int(bad.argmax())
            return (None if start is not None and e < start else ref), (keys[e], lhs[e], rhs[e])
    return ref, None


def check_lin_wig_condition(q: OperatorSet):
    """F_2 proportional to HS on dir(Q); mu_1 orthogonal to dir(Q) in both forms."""
    picked, c = _dir_basis(q)
    s2 = _pair_sums(q)
    size, nb, dd = q.size, len(c), q.dim  # nb = d^(2n) basis rows
    idx = np.asarray(picked, dtype=np.intp)
    iu = np.triu_indices(len(idx))
    # by Parseval over the basis (tr(B_a B_b) = d^n [a = b]), over dir(Q), for
    # i <= j: F_2 = (C^T S2 C)[i, j] / (|Q| d^(2n)) and
    # (q_i - q_0 | q_j - q_0) = (C^T C)[i, j] / d^n
    f2 = _exact(lambda x, s, y: x.T @ s @ y, nb * nb, (c, s2, c))[iu]
    hs = _exact(lambda x, y: x.T @ y, nb, (c, c))[iu]
    ref, bad = _proportional_scan([(np.stack([idx[iu[0]], idx[iu[1]]], 1), f2, hs[:, None])])

    def values(entry):
        (i, j), f2_v, hs_v = entry
        return int(i), int(j), Fraction(int(f2_v), size * dd ** 2), Fraction(int(hs_v[0]), dd)

    clauses = {"f2_proportional_on_dir": bad is None}
    # mu_1 = sum_q q / |Q| has coordinates u / |Q|, u the table's row sums
    u = _exact(lambda t: t.sum(axis=1), size, (trace_table(q),))
    clauses["mu1_orthogonal_hs"] = not _exact(lambda x, y: x.T @ y, nb, (c, u)).any()
    clauses["mu1_orthogonal_f2"] = not _exact(lambda x, s, y: x.T @ s @ y, nb * nb,
                                              (c, s2, u)).any()
    return {
        "condition": "lin_subset_wig",
        "pass": all(clauses.values()),
        "clauses": clauses,
        "constant": None if ref is None else str(values(ref)[2] / values(ref)[3]),
        "dir_dimension": len(picked),
        "witness": None if bad is None else [str(w) for w in values(bad)],
    }


def check_lin_jor_condition(q: OperatorSet, wig=None):
    """The Lin ⊂ Wig condition (the report `wig`, computed when not given)
    plus mu_1 ∝ 1, a full span, and the F_3 clause, a `_triple_chunks` scan
    whose Jordan side is that of the trace-table differences C^T."""
    base = check_lin_wig_condition(q) if wig is None else wig
    picked, c = _dir_basis(q)
    size, dd = q.size, q.dim
    clauses = dict(base["clauses"])
    b = _basis(q.d, q.n)
    table = trace_table(q)
    # mu_1 ∝ 1 iff its basis traces, the table's row sums over |Q|, are
    # proportional to those of 1 (the basis spans)
    sums = _exact(lambda t: t.sum(axis=1), size, (table,))
    k = int(np.flatnonzero(b.single)[0])  # tr B_k != 0
    clauses["mu1_proportional_identity"] = bool(
        (_times(sums, b.single[k]) == _times(b.single, sums[k])).all())
    span_dim = span_dimension(q)
    clauses["span_full"] = span_dim in (dd ** 2, dd * (dd + 1) // 2)  # Herm or Sym

    idx = np.asarray(picked, dtype=np.intp)
    # D = C^T T: tr((q_i - q_0) q) over d^n for every q in Q
    diffs = _exact(lambda x, t: x.T @ t, len(c), (c, table))
    m = q.conductor
    # q_i - q_0 = d^-n sum_a C[a, i] B_a, so F_3 = sum_t D_i D_j D_k /
    # (|Q| d^(3n)) against the Jordan side of C^T over d^(3n); the
    # symmetrized trace is real but may be irrational
    ref, bad = _proportional_scan((idx[keys], lhs, rhs)
                                  for keys, lhs, rhs in _triple_chunks(q.d, q.n, diffs, c.T))

    def values(entry):
        keys, lhs, rhs = entry
        return *map(int, keys), Fraction(int(lhs), size * dd ** 3), CycNumber(m, list(rhs), dd ** 3)

    clauses["f3_proportional_on_dir"] = bad is None
    const_str = None
    if ref is not None:
        const = CycNumber.from_fraction(m, values(ref)[3]) / values(ref)[4]
        const_str = str(const.as_fraction()) if const.is_rational() else repr(const)
    return {
        "condition": "lin_subset_jor",
        "pass": all(clauses.values()),
        "clauses": clauses,
        "f3_constant": const_str,
        "span_dimension": span_dim,
        "witness": None if bad is None else [str(w) for w in values(bad)],
    }


# ---------------------------------------------------------------------------
# The paper's verdicts per operator set

def verify_design(which, d, n):
    """Every predicate for the set `which` ("stab", "rebit" or "phase-points")
    against the paper's verdict: {"checks", "expected", "all_as_expected"}.

    Odd-d stabilizers are complex 2-designs with Lin ⊂ Wig only; qubit
    stabilizers are also 3-designs with Lin ⊂ Jor; rebits are real 4- and
    6-designs (not complex 2-designs) with both; the phase-point operators
    satisfy Lin ⊂ Wig only.
    """
    checks = {}
    if which == "stab":
        q = stabilizer_operator_set(d, n)
        expected = {"complex_2design": True, "complex_3design": d == 2,
                    "lin_subset_wig": True, "lin_subset_jor": d == 2}
        checks["complex_2design"] = is_complex_2design(q).to_json()
        checks["complex_3design"] = is_complex_3design(q).to_json()
    elif which == "rebit":
        if d != 2:
            raise Unsupported("the rebit states are d = 2")
        q = rebit_operator_set(n)
        expected = {"complex_2design": False, "real_4design": True, "real_6design": True,
                    "lin_subset_wig": True, "lin_subset_jor": True}
        checks["complex_2design"] = is_complex_2design(q).to_json()
        checks["real_4design"] = is_real_4design(q).to_json()
        checks["real_6design"] = is_real_6design(q).to_json()
    elif which == "phase-points":
        q = phase_point_operator_set(d, n)
        expected = {"lin_subset_wig": True, "lin_subset_jor": False}
    else:
        raise Unsupported(f"no operator set {which!r}")
    checks["lin_subset_wig"] = wig = check_lin_wig_condition(q)
    checks["lin_subset_jor"] = check_lin_jor_condition(q, wig)
    return {
        "checks": checks,
        "expected": expected,
        "all_as_expected": all(checks[k]["pass"] == v for k, v in expected.items()),
    }
