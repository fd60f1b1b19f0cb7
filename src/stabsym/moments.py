"""Moment forms F_k of finite operator sets and the design/condition predicates
that control which symmetry notions coincide.

The predicates compare whole integer tables read from one table, the
Hermitian trace table T (d^(2n) rows, one column per element), and its pair
sums S2 = T T^T.  On dir(Q), with C = T[:, picked] - T[:, [0]] the
coordinates of a basis of differences q_i - q_0 (`_dir_basis`), F_2 is
C^T S2 C, HS is C^T C and F_3 the trilinear form of the rows of D = C^T T,
so no array has two axes of length |Q|.  The Jordan side tr(M_i M_j M_k) +
tr(M_i M_k M_j) is taken one i-slab at a time, in full power-basis
coefficients (it can be irrational: Q[sqrt 5] at d = 5), and a scan stops at
the first slab holding a failure.  "Equal" and "proportional" are integer
cross-multiplications over common denominators, in `cyclotomic._exact`.

No check builds a cyclotomic matrix.  The Hermitian basis B_a, the A(a) at
odd d and the Paulis T(a) at d = 2, is in closed form (`_basis`,
`_triples`).  A set is its labels, and its table is read from them
(`_incidence`): a stabilizer state's column is its discrete Wigner function
at odd d and its signed Pauli incidence at d = 2.  The real predicates take
the real Paulis (a_X.a_Z even) as their basis of Sym, and the Jordan side is
a count of triple-trace exponents weighted by the table (`_phase_space_slab`).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from numbers import Integral

import numpy as np

from .clifford import real_clifford_closure
from .cyclotomic import CycNumber, _exact, _field, _int64, conductor_for
from .errors import BudgetExceeded, StabsymError, Unsupported
from .operators import MAX_ENTRIES, rational_part, stabilizer_labels
from .phase_space import (
    StabilizerLabel,
    all_vectors,
    jvec,
    lagrangian_count,
    lagrangian_index,
    reduce_reps,
    sign_bits,
)


class OperatorSet:
    """A finite set of Hermitian trace-1 operators with uniform weights,
    given by its labels, one per element: a `StabilizerLabel` of (d, n) for
    a stabilizer state, or a point a, 2n residues mod d, for A(a); anything
    else raises ValueError.  Equal and hashed by identity, so the functions
    cached on a set never hash its labels; the constructors below are
    cached, one set each."""

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


@lru_cache(maxsize=None)
def stabilizer_operator_set(d, n) -> OperatorSet:
    """The stabilizer states of (d, n) as labels, in `stabilizer_states`
    order, refused by their count d^n prod_k (d^k + 1) before any is listed."""
    check_table_budget(d, n, d ** n * lagrangian_count(d, n))
    return OperatorSet(name=f"stabilizer({d},{n})", d=d, n=n, labels=stabilizer_labels(d, n))


@lru_cache(maxsize=None)
def rebit_operator_set(n) -> OperatorSet:
    labels, _ = real_clifford_closure(n)
    check_table_budget(2, n, len(labels))
    return OperatorSet(name=f"rebit({n})", d=2, n=n, labels=labels)


@lru_cache(maxsize=None)
def phase_point_operator_set(d, n) -> OperatorSet:
    check_table_budget(d, n, d ** (2 * n))
    return OperatorSet(name=f"phase_points({d},{n})", d=d, n=n,
                       labels=tuple(sorted(all_vectors(d, 2 * n))))


# ---------------------------------------------------------------------------
# Spanning bases and exact trace tables

def _points(d, n):
    """The d^(2n) phase-space points as rows of an int64 array, in sorted
    order: row a is the point whose base-d digits are a.  This is the order
    of the Hermitian basis B_a (`_basis`) and of every trace-table row."""
    return np.indices((d,) * (2 * n)).reshape(2 * n, -1).T


@lru_cache(maxsize=None)
def _phase_forms(d, n):
    """[a, b] mod d for every pair of phase-space points, rows and columns in
    `_points` order, as a read-only int64 array."""
    p = _points(d, n)
    forms = (_exact(lambda x, y: x @ y.T, 2 * n, (p, jvec(p))) % d).astype(np.int64)
    forms.flags.writeable = False
    return forms


@lru_cache(maxsize=None)
def _pauli_products(n):
    """beta(a, b) mod 4 with T(a) T(b) = i^beta T(a + b), for every pair of
    d = 2 points in `_points` order, as a read-only int64 array:
    T(a) = i^(-a_X.a_Z) Z^(a_Z) X^(a_X) (`operators.weyl_mono`) and
    X^(a_X) Z^(b_Z) = (-1)^(a_X.b_Z) Z^(b_Z) X^(a_X)."""
    p = _points(2, n)
    x, z, c = p[:, :n], p[:, n:], p[:, None] ^ p  # c[a, b] = a + b
    own = (x * z).sum(axis=1)
    beta = (2 * x @ z.T - own[:, None] - own + (c[..., :n] * c[..., n:]).sum(axis=-1)) % 4
    beta.flags.writeable = False
    return beta


def _triples(d, n, a, b, c):
    """tr(B_a B_b B_c) = values[e] for the basis points a, b, c (index
    arrays in `_points` order that broadcast together), as (e,
    values): values[v] = norm zeta_r^v in power-basis integers over the
    conductor of d for v < r, and values[r] = 0.  At odd d,
    tr(A(a) A(b) A(c)) = omega^(2([a, b] + [b, c] + [c, a])), as
    [b - a, c - a] is that sum (r = d, norm 1).  At d = 2,
    tr(T(a) T(b) T(c)) = 2^n i^beta(a, b) [a + b + c = 0] (r = 4, norm 2^n)
    from `_pauli_products` and tr(T(x) T(y)) = 2^n [x = y]; the point index
    of a + b is a ^ b."""
    if d == 2:
        e, r, norm = np.where(c == a ^ b, _pauli_products(n)[a, b], 4), 4, 2 ** n
    else:
        w = _phase_forms(d, n)
        e, r, norm = 2 * (w[a, b] + w[b, c] + w[c, a]) % d, d, 1
    m = conductor_for(d)
    f = _field(m)
    return e, np.vstack([norm * f.pows[(m // r) * np.arange(r)], np.zeros((1, f.deg), int)])


_Basis = namedtuple("_Basis", "labels points single pair")


@lru_cache(maxsize=None)
def _basis(d, n, real=False) -> _Basis:
    """The Hermitian basis B_a in closed form: labels, their indices `points`
    in `_points` order, tr B_a = single[a] and tr(B_a B_b) =
    pair[a, b] as Python ints (A(a): 1, d^n [a = b]; T(a): 2^n [a = 0],
    2^n [a = b]).  With `real` (d = 2 only) the real Paulis, a_X.a_Z even:
    2^(n-1) (2^n + 1) of them, an orthogonal basis of Sym."""
    if real and d != 2:
        raise Unsupported("the real basis is defined at d = 2")
    p = _points(d, n)
    points = np.flatnonzero((p[:, :n] * p[:, n:]).sum(axis=1) % 2 == 0) if real \
        else np.arange(len(p))
    single = 2 ** n * (points == 0) if d == 2 else np.ones(len(points), dtype=int)
    return _Basis(tuple(map(tuple, p[points].tolist())), points, single.astype(object),
                  np.diag(np.full(len(points), d ** n, dtype=object)))


def _incidence(q: OperatorSet):
    """The Hermitian trace table of a set, over scale 1, rows in
    `_points` order.  For a point x: tr(A(a) A(x)) = d^n [a = x] at
    odd d, tr(T(b) A(x)) = (-1)^[x, b] at d = 2.  For a stabilizer label x
    (`StabilizerLabel`): at d = 2, tr(T(b) Pi_x) = (-1)^([rep_x, b] +
    c_L(b)) [b in L_x], with c_L from `sign_bits`; at odd d,
    tr(A(a) Pi_x) = [a in rep_x + L_x] (Pi_x = d^-n times the sum of the
    A(a) over its coset, so this is its discrete Wigner function).  A point
    lies in rep + L iff its canonical representative modulo L is rep: every
    point is reduced once per Lagrangian."""
    d, n = q.d, q.n
    shape = (d,) * (2 * n)
    if not isinstance(q.labels[0], StabilizerLabel):
        cells = np.ravel_multi_index(np.array(q.labels).T, shape)
        if d == 2:
            return 1 - 2 * _phase_forms(2, n)[:, cells]
        return d ** n * (np.arange(d ** (2 * n))[:, None] == cells)
    lags, li = lagrangian_index(q.labels)
    reps = np.ravel_multi_index(np.array([lab.rep for lab in q.labels]).T, shape)
    if d == 2:
        signs = np.zeros((len(lags), 4 ** n), dtype=np.int8)  # (-1)^c_L(b) [b in L]
        for k, L in enumerate(lags):
            cells, bits = zip(*sign_bits(L).items())
            signs[k, np.ravel_multi_index(np.array(cells).T, shape)] = 1 - 2 * np.array(bits)
        return signs[li].T * (1 - 2 * _phase_forms(2, n)[:, reps].astype(np.int8))
    points = _points(d, n)
    canon = reduce_reps(np.broadcast_to(points, (len(lags),) + points.shape),
                        np.array([L.basis for L in lags])[:, None],
                        np.array([L.pivots for L in lags])[:, None], d)
    key = np.min_scalar_type(d ** (2 * n) - 1)
    cells = np.ravel_multi_index(np.moveaxis(canon, -1, 0), shape).astype(key)  # [L, a]
    return (cells[li] == reps.astype(key)[:, None]).T.astype(np.uint8)


@lru_cache(maxsize=None)
def trace_table(q: OperatorSet, kind="hermitian"):
    """Exact table tr(B_i q_j) = rows[i][j] / scale for the Hermitian basis
    or, kind "symmetric", its real-Paulis rows (`_basis`, d = 2), as (rows,
    scale): rows of Python ints and one positive scale, read from the labels
    (`_incidence`), so the scale is 1."""
    ints = _incidence(q)
    if kind == "symmetric":
        ints = ints[_basis(q.d, q.n, real=True).points]
    return tuple(map(tuple, ints.tolist())), 1


def _compact(x):
    """x as int64 when every entry fits (`_int64`), else as it is, so that
    `_exact` converts it cheaply on each call."""
    small = _int64(x)
    return x if small is None else small[0]


def _table(q: OperatorSet, kind="hermitian"):
    """`trace_table(q, kind)` as an array (`_compact`) and its scale."""
    ints, scale = trace_table(q, kind)
    return _compact(np.array(ints, dtype=object)), scale


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
def _pair_sums(q: OperatorSet, kind="hermitian"):
    """S2 = T T^T, S2[i][j] = sum_q t_i t_j over the trace table `kind`, as a
    read-only array of Python ints, plus the table's scale; cached, as the
    2-design and Lin ⊂ Wig checks share it."""
    rows, scale = _table(q, kind)
    s2 = _exact(lambda x, y: x @ y.T, q.size, (rows, rows))
    s2.flags.writeable = False
    return s2, scale


def _times(x, y):
    """x * y entrywise, with numpy broadcasting, as Python ints."""
    return _exact(np.multiply, 1, (np.asarray(x), np.asarray(y)))


def _trilinear(rows, i):
    """sum_t rows[i][t] rows[j][t] rows[k][t] for j, k >= i, as Python ints.
    (If the rows from i on are all 0, so is the first product.)"""
    tail = rows[i:]
    return _exact(lambda x, y, z: (x * y) @ z.T, rows.shape[1], (tail, rows[i], tail))


def _phase_space_slab(d, n, diffs, i):
    """tr(M_i M_j M_k) + tr(M_i M_k M_j) for j, k >= i, as power-basis
    numerators over (d^n scale)^3, for M_x = d^-n sum_a diffs[x, a] B_a /
    scale, diffs int64 or Python ints (differences of Hermitian trace-table
    columns over their scale; tr(B_a B_b) = d^n [a = b]).

    With tr(B_a B_b B_c) = norm zeta_r^e(a, b, c) (`_triples`),
    tr(M_i M_j M_k) is sum_v norm zeta_r^v (tail H_v tail^T)[j, k] over
    (d^n scale)^3, tail = diffs[i:] and H_v[b, c] = sum_a diffs[i, a]
    [e(a, b, c) = v]: counts over the support of diffs[i] and one integer
    contraction, no matrix.  Swapping b and c transposes H_v."""
    tail = diffs[i:]
    support = np.flatnonzero(diffs[i])
    points = np.arange(diffs.shape[1])
    e, values = _triples(d, n, support[:, None, None], points[:, None], points)
    counts = np.stack([_exact(lambda x, hit: np.tensordot(x, hit, 1), len(support),
                              (diffs[i, support], e == v)) for v in range(len(values) - 1)])
    counts = counts + counts.transpose(0, 2, 1)
    return _exact(lambda x, h, y, w: np.tensordot(x @ h @ y.T, w, ([0], [0])),
                  len(counts) * len(points) ** 2, (tail, counts, tail, values[:-1]))


def _triple_traces(b: _Basis, d, n, i):
    """tr(B_i B_j B_k) at [j, k] for j, k >= i of the basis b, as power-basis
    integers (`_triples`)."""
    e, values = _triples(d, n, b.points[i], b.points[i:, None], b.points[i:])
    return values[e]


def _trace_terms(b: _Basis, i):
    """For j, k >= i: tr_i tr_j tr_k and the cross terms
    tr_i tr(B_j B_k) + tr_j tr(B_i B_k) + tr_k tr(B_i B_j)."""
    t, row = b.single[i:], b.pair[i, i:]
    cross = b.single[i] * b.pair[i:, i:] + np.outer(t, row) + np.outer(row, t)
    return b.single[i] * np.outer(t, t), cross


def is_complex_2design(q: OperatorSet) -> DesignReport:
    """Exact comparison of F_2 with (tr A tr B + tr AB) / (D(D+1)) on a basis;
    the witness is the pair i <= j with the largest gap, the first one among
    equal gaps."""
    b = _basis(q.d, q.n)
    dd = q.dim
    s2, scale = _pair_sums(q)
    iu = np.triu_indices(len(b.single))
    # F_2 = s2 / (|Q| scale^2) against (t_i t_j + p_ij) / (D(D+1))
    form = np.outer(b.single, b.single)[iu] + b.pair[iu]
    gap = abs(_times(s2[iu], dd * (dd + 1)) - _times(form, q.size * scale ** 2))
    e = int(np.argmax(gap))
    if not gap[e]:
        return DesignReport("complex_2design", True)
    i, j = iu[0][e], iu[1][e]
    return DesignReport("complex_2design", False, witness=(
        b.labels[i], b.labels[j], Fraction(int(s2[i, j]), q.size * scale ** 2),
        Fraction(form[e], dd * (dd + 1))))


def is_complex_3design(q: OperatorSet) -> DesignReport:
    """Exact comparison of F_3 with the 6-term symmetric form; the witness is
    the first failing triple i <= j <= k.

    The correct normalization of the 6-term sum is 1/(D(D+1)(D+2)), anchored by
    F_3(1,1,1) = 1 for trace-1 states.
    """
    b = _basis(q.d, q.n)
    dd = q.dim
    rows, scale = _table(q)
    lden = q.size * scale ** 3
    for i in range(len(rows)):
        iu = np.triu_indices(len(rows) - i)
        t = _triple_traces(b, q.d, q.n, i)
        # F_3 = lhs / lden against (terms + jordan) / (D(D+1)(D+2))
        c1, c2 = _trace_terms(b, i)
        diff = _times((t + t.transpose(1, 0, 2))[iu], lden)
        diff[:, 0] += _times((c1 + c2)[iu], lden)
        diff[:, 0] -= _times(_trilinear(rows, i)[iu], dd * (dd + 1) * (dd + 2))
        bad = diff.any(axis=1)
        if bad.any():
            e = int(bad.argmax())
            witness = (b.labels[i], b.labels[i + iu[0][e]], b.labels[i + iu[1][e]])
            return DesignReport("complex_3design", False, witness=witness)
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
    the ratio between the two invariants instead of assuming it.
    """
    b = _basis(q.d, q.n, real=True)
    s2, scale = _pair_sums(q, "symmetric")
    iu = np.triu_indices(len(s2))
    # over |Q| scale^2; (B_i|B_j) = tr(B_i B_j) on the real symmetric basis
    lden = q.size * scale ** 2
    equations = zip(b.pair[iu] * lden, np.outer(b.single, b.single)[iu] * lden, s2[iu])
    sol = _solve_linear_positive(equations, 2)
    if sol is None:
        return DesignReport("real_4design", False,
                            witness=("no consistent positive constants",))
    k_hs, k_tr = sol
    return DesignReport("real_4design", True, constants={"K_hs": k_hs, "K_tr": k_tr})


def is_real_6design(q: OperatorSet) -> DesignReport:
    """F_3 = K1 trA trB trC + K2 (three cross terms) + K3 (Tr(ABC)+Tr(ACB)),
    on the real Paulis (d = 2; Unsupported at odd d)."""
    b = _basis(q.d, q.n, real=True)
    rows, scale = _table(q, "symmetric")
    lden = q.size * scale ** 3
    equations = []
    for i in range(len(rows)):
        iu = np.triu_indices(len(rows) - i)
        c1, c2 = _trace_terms(b, i)
        t = _triple_traces(b, q.d, q.n, i)
        jordan = rational_part(t + t.transpose(1, 0, 2))[iu]
        equations += zip(c1[iu] * lden, c2[iu] * lden, jordan * lden, _trilinear(rows, i)[iu])
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
    those coordinates C = T[:, picked] - T[:, [0]] (`_compact`, read-only),
    with T the Hermitian table.  Every difference is traceless, so its
    coordinates lie in a hyperplane (the A(a) sum to d^n 1; T(0) = 1 for
    qubits): the pick stops at rank d^(2n) - 1."""
    ints, _ = trace_table(q, "hermitian")
    ech = _Echelon(len(ints))
    picked = []
    cols = list(zip(*ints))
    for i in range(1, q.size):
        if ech.insert([x - y for x, y in zip(cols[i], cols[0])]):
            picked.append(i)
            if ech.rank == ech.ncols - 1:
                break
    table = np.array(ints, dtype=object)
    coords = _compact(table[:, np.asarray(picked, dtype=np.intp)] - table[:, :1])
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
    s2, scale = _pair_sums(q)
    size, nb = q.size, len(c)  # nb = d^(2n) basis rows
    gscale = scale * scale * q.dim
    idx = np.asarray(picked, dtype=np.intp)
    iu = np.triu_indices(len(idx))
    # by Parseval over the basis (tr(B_a B_b) = d^n [a = b]), over dir(Q), for
    # i <= j: F_2 = (C^T S2 C)[i, j] / (|Q| gscale^2) and
    # (q_i - q_0 | q_j - q_0) = (C^T C)[i, j] / gscale
    f2 = _exact(lambda x, s, y: x.T @ s @ y, nb * nb, (c, s2, c))[iu]
    hs = _exact(lambda x, y: x.T @ y, nb, (c, c))[iu]
    ref, bad = _proportional_scan([(np.stack([idx[iu[0]], idx[iu[1]]], 1), f2, hs[:, None])])

    def values(entry):
        (i, j), f2_v, hs_v = entry
        return int(i), int(j), Fraction(f2_v, size * gscale ** 2), Fraction(int(hs_v[0]), gscale)

    clauses = {"f2_proportional_on_dir": bad is None}
    # mu_1 = sum_q q / |Q| has coordinates u / (|Q| scale), u the table's row sums
    table, _ = _table(q)
    u = _exact(lambda t: t.sum(axis=1), size, (table,))
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
    plus mu_1 ∝ 1, a full span, and the F_3 clause, whose Jordan side is
    `_phase_space_slab` of the trace-table differences."""
    base = check_lin_wig_condition(q) if wig is None else wig
    picked, c = _dir_basis(q)
    size = q.size
    clauses = dict(base["clauses"])
    b = _basis(q.d, q.n)
    table, scale = _table(q)
    gscale = scale * scale * q.dim
    # mu_1 ∝ 1 iff its basis traces, the table's row sums over |Q| scale, are
    # proportional to those of 1 (the basis spans)
    sums = _exact(lambda t: t.sum(axis=1), size, (table,))
    k = int(np.flatnonzero(b.single)[0])  # tr B_k != 0
    clauses["mu1_proportional_identity"] = bool(
        (_times(sums, b.single[k]) == _times(b.single, sums[k])).all())
    span_dim = span_dimension(q)
    clauses["span_full"] = span_dim in (q.dim ** 2, q.dim * (q.dim + 1) // 2)  # Herm or Sym

    idx = np.asarray(picked, dtype=np.intp)
    # D = C^T T: tr((q_i - q_0) q) over gscale for every q in Q
    diffs = _compact(_exact(lambda x, t: x.T @ t, len(c), (c, table)))
    m = q.conductor
    # q_i - q_0 = d^-n sum_a C[a, i] B_a / scale
    jden = (q.dim * scale) ** 3

    def slabs():
        # F_3 = sum_t D_i D_j D_k / (|Q| gscale^3) against the Jordan side over
        # jden; the symmetrized trace is real but may be irrational
        for a in range(len(idx)):
            iu = np.triu_indices(len(idx) - a)
            keys = np.stack([np.full(len(iu[0]), idx[a]), idx[a + iu[0]], idx[a + iu[1]]], 1)
            yield keys, _trilinear(diffs, a)[iu], _phase_space_slab(q.d, q.n, c.T, a)[iu]

    ref, bad = _proportional_scan(slabs())

    def values(entry):
        keys, lhs, rhs = entry
        return *map(int, keys), Fraction(lhs, size * gscale ** 3), CycNumber(m, list(rhs), jden)

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
