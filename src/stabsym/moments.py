"""Moment forms F_k of finite operator sets and the design/condition predicates
that control which symmetry notions coincide.

The predicates compare whole integer tables.  The moment side is a bi- or
trilinear form in the rows of the trace table, or on dir(Q) in the
Gram-difference rows D_i = G[i] - G[0] (sum_t D_i D_j D_k is the eight-term
F_3 of the q_i - q_0).  The Jordan side tr(M_i M_j M_k) + tr(M_i M_k M_j) is
taken one i-slab at a time, the products M_i M_j and then one contraction
against the stack, in full power-basis coefficients (it can be irrational:
Q[sqrt 5] at d = 5), and a scan stops at the first slab holding a failure.
"Equal" and "proportional" are integer cross-multiplications over common
denominators, in `cyclotomic._exact` (int64 where `fits_int64` proves it
exact, Python ints otherwise); no N^3 array is built.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm

import numpy as np

from .clifford import real_clifford_orbit
from .cyclotomic import CycNumber, _exact, _field
from .errors import StabsymError, Unsupported
from .operators import (
    OpMatrix,
    coefficient_stack,
    lowest_terms,
    mono_traces,
    phase_point,
    phase_point_mono,
    rational_part,
    stabilizer_states,
    trace_pairs,
    trace_product,
    weyl_mono,
)
from .phase_space import all_vectors


@dataclass(frozen=True, eq=False)
class OperatorSet:
    """A finite set of Hermitian trace-1 operators with uniform weights.
    Equal and hashed by identity, so the functions cached on a set never
    hash its elements; the constructors below are cached, one set each."""

    name: str
    d: int
    n: int
    elements: tuple

    @property
    def dim(self):
        return self.elements[0].dim

    @property
    def size(self):
        return len(self.elements)

    @property
    def conductor(self):
        return self.elements[0].m


@lru_cache(maxsize=None)
def stabilizer_operator_set(d, n) -> OperatorSet:
    fam = stabilizer_states(d, n)
    return OperatorSet(name=f"stabilizer({d},{n})", d=d, n=n, elements=fam.projectors)


@lru_cache(maxsize=None)
def rebit_operator_set(n) -> OperatorSet:
    orbit = real_clifford_orbit(n)
    return OperatorSet(name=f"rebit({n})", d=2, n=n, elements=orbit.projectors)


@lru_cache(maxsize=None)
def phase_point_operator_set(d, n) -> OperatorSet:
    return OperatorSet(name=f"phase_points({d},{n})", d=d, n=n,
                       elements=tuple(phase_point(d, n, a) for a in sorted(all_vectors(d, 2 * n))))


# ---------------------------------------------------------------------------
# Spanning bases and exact trace tables

@lru_cache(maxsize=None)
def hermitian_basis(d, n):
    """An orthogonal Hermitian basis: A(a) for odd d, the Pauli T(a) for d=2."""
    labels = sorted(all_vectors(d, 2 * n))
    if d == 2:
        return tuple((a, weyl_mono(d, n, a)) for a in labels)
    return tuple((a, phase_point_mono(d, n, a)) for a in labels)


@lru_cache(maxsize=None)
def symmetric_basis(m, dim):
    """Rational basis of Sym: E_ii and E_ij + E_ji."""
    pairs = [(i, i) for i in range(dim)] + list(combinations(range(dim), 2))
    return tuple(OpMatrix.from_rational(m, [[int((r, c) in ((i, j), (j, i))) for c in range(dim)]
                                            for r in range(dim)]) for i, j in pairs)


_Basis = namedtuple("_Basis", "labels monos mats stack den single pair c")


def _traces(b: _Basis, mats):
    """All tr(B_x Q_y) for the basis b, as (ints, scale) in lowest terms; a
    monomial basis gathers one entry of Q_y per column of B_x."""
    if b.monos is None:
        return trace_pairs(b.mats, mats)
    stack, den = coefficient_stack(mats)
    return lowest_terms(rational_part(mono_traces(b.monos, stack)), den)


@lru_cache(maxsize=None)
def _basis(kind, d, n, m) -> _Basis:
    """The basis `kind` with its exact traces: B_x = mats[x] = stack[x] / den,
    tr B_x = single[x] / c and tr(B_x B_y) = pair[x, y] / c, Python ints over
    one positive c; labels and monomial forms for the Hermitian basis only."""
    if kind == "hermitian":
        labels, monos = zip(*hermitian_basis(d, n))
        mats = tuple(mono.to_matrix() for mono in monos)
    else:
        labels = monos = None
        mats = symmetric_basis(m, d ** n)
    b = _Basis(labels, monos, mats, *coefficient_stack(mats), None, None, None)
    (single, c1), (pair, c2) = (_traces(b, x) for x in ([OpMatrix.identity(m, d ** n)], mats))
    c = lcm(c1, c2)
    return b._replace(single=single[:, 0] * (c // c1), pair=pair * (c // c2), c=c)


@lru_cache(maxsize=None)
def trace_table(q: OperatorSet, kind="hermitian"):
    """Exact table tr(B_i q_j) = rows[i][j] / scale for the chosen spanning
    basis, as (rows, scale): rows of Python ints, so that products of
    entries stay exact, and one positive scale, in lowest terms."""
    ints, scale = _traces(_basis(kind, q.d, q.n, q.conductor), q.elements)
    return tuple(map(tuple, ints.tolist())), scale


# ---------------------------------------------------------------------------
# Moment forms

def moment_form(q: OperatorSet, k, args):
    """F_k^Q(A_1..A_k) = (1/|Q|) sum_q prod_i tr(A_i q), exact."""
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    if len(args) != k:
        raise ValueError("need exactly k arguments")
    acc = CycNumber.zero(q.conductor)
    for el in q.elements:
        term = CycNumber.one(q.conductor)
        for a in args:
            term = term * trace_product(a, el)
        acc = acc + term
    return acc * Fraction(1, q.size)


def first_moment(q: OperatorSet) -> OpMatrix:
    """mu_1 = (1/|Q|) sum q."""
    acc = OpMatrix.zero(q.conductor, q.dim)
    for el in q.elements:
        acc = acc + el
    return acc.scale(Fraction(1, q.size))


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
    return len(_gram_data(q)[2]) + 1


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


def _pair_sums(q: OperatorSet, kind="hermitian"):
    """S2[i][j] = sum_q t_i t_j over the trace table `kind`, as Python ints,
    plus the table's scale."""
    ints, scale = trace_table(q, kind)
    rows = np.array(ints, dtype=object)
    return _exact(lambda x, y: x @ y.T, q.size, (rows, rows)), scale


def _times(x, y):
    """x * y entrywise, with numpy broadcasting, as Python ints."""
    return _exact(np.multiply, 1, (np.asarray(x), np.asarray(y)))


def _trilinear(rows, i):
    """sum_t rows[i][t] rows[j][t] rows[k][t] for j, k >= i, as Python ints.
    (If the rows from i on are all 0, so is the first product.)"""
    tail = rows[i:]
    return _exact(lambda x, y, z: (x * y) @ z.T, rows.shape[1], (tail, rows[i], tail))


def _jordan_slab(field_, stack, i):
    """tr(M_i M_j M_k) + tr(M_i M_k M_j) for j, k >= i, as power-basis
    numerators over den^3, for the matrices M_x = stack[x] / den."""
    tail = stack[i:]
    prod = field_.contract(stack[i], tail, ([1], [1]))  # (M_i M_j)[r, s] at [r, j, s]
    t = field_.contract(prod, tail, ([0, 2], [2, 1]))  # tr(M_i M_j M_k) at [j, k]
    return t + t.transpose(1, 0, 2)


def _trace_terms(b: _Basis, i):
    """For j, k >= i over c^3: tr_i tr_j tr_k and c times the cross terms
    tr_i tr(B_j B_k) + tr_j tr(B_i B_k) + tr_k tr(B_i B_j)."""
    t, row = b.single[i:], b.pair[i, i:]
    cross = b.single[i] * b.pair[i:, i:] + np.outer(t, row) + np.outer(row, t)
    return b.single[i] * np.outer(t, t), b.c * cross


def is_complex_2design(q: OperatorSet) -> DesignReport:
    """Exact comparison of F_2 with (tr A tr B + tr AB) / (D(D+1)) on a basis;
    the witness is the pair i <= j with the largest gap, the first one among
    equal gaps."""
    b = _basis("hermitian", q.d, q.n, q.conductor)
    dd = q.dim
    s2, scale = _pair_sums(q)
    iu = np.triu_indices(len(b.single))
    # F_2 = s2 / (|Q| scale^2) against (t_i t_j + c p_ij) / (c^2 D(D+1))
    form = np.outer(b.single, b.single)[iu] + b.c * b.pair[iu]
    gap = abs(_times(s2[iu], b.c ** 2 * dd * (dd + 1)) - _times(form, q.size * scale ** 2))
    e = int(np.argmax(gap))
    if not gap[e]:
        return DesignReport("complex_2design", True)
    i, j = iu[0][e], iu[1][e]
    return DesignReport("complex_2design", False, witness=(
        b.labels[i], b.labels[j], Fraction(int(s2[i, j]), q.size * scale ** 2),
        Fraction(form[e], b.c ** 2 * dd * (dd + 1))))


def is_complex_3design(q: OperatorSet) -> DesignReport:
    """Exact comparison of F_3 with the 6-term symmetric form; the witness is
    the first failing triple i <= j <= k.

    The correct normalization of the 6-term sum is 1/(D(D+1)(D+2)), anchored by
    F_3(1,1,1) = 1 for trace-1 states.
    """
    b = _basis("hermitian", q.d, q.n, q.conductor)
    dd = q.dim
    ints, scale = trace_table(q, "hermitian")
    rows = np.array(ints, dtype=object)
    lden, c3 = q.size * scale ** 3, b.c ** 3
    for i in range(len(rows)):
        iu = np.triu_indices(len(rows) - i)
        # tr(B_i B_j B_k) at [j, k] over den: B_i B_j is monomial like the basis
        t = mono_traces([b.monos[i] @ mono for mono in b.monos[i:]], b.stack[i:])
        # F_3 = lhs / lden against (terms / c^3 + jordan / den) / (D(D+1)(D+2))
        c1, c2 = _trace_terms(b, i)
        diff = _times((t + t.transpose(1, 0, 2))[iu], c3 * lden)
        diff[:, 0] += _times((c1 + c2)[iu], b.den * lden)
        diff[:, 0] -= _times(_trilinear(rows, i)[iu], c3 * b.den * dd * (dd + 1) * (dd + 2))
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
    """F_2 = K_hs (A|B) + K_tr (A|1)(B|1) with exactly solved positive constants.

    Solving both constants exactly doubles as the consistency proof and pins
    the ratio between the two invariants instead of assuming it.
    """
    b = _basis("symmetric", q.d, q.n, q.conductor)
    s2, scale = _pair_sums(q, "symmetric")
    iu = np.triu_indices(len(s2))
    lhs = s2[iu]
    # over c^2 |Q| scale^2; (B_i|B_j) = tr(B_i B_j) on the real symmetric basis
    lden = q.size * scale ** 2
    equations = zip(b.pair[iu] * (b.c * lden), np.outer(b.single, b.single)[iu] * lden,
                    lhs * b.c ** 2)
    sol = _solve_linear_positive(equations, 2)
    if sol is None:
        return DesignReport("real_4design", False,
                            witness=("no consistent positive constants",))
    k_hs, k_tr = sol
    return DesignReport("real_4design", True, constants={"K_hs": k_hs, "K_tr": k_tr})


def is_real_6design(q: OperatorSet) -> DesignReport:
    """F_3 = K1 trA trB trC + K2 (three cross terms) + K3 (Tr(ABC)+Tr(ACB))."""
    b = _basis("symmetric", q.d, q.n, q.conductor)
    ints, scale = trace_table(q, "symmetric")
    rows = np.array(ints, dtype=object)
    lden, c3, den3 = q.size * scale ** 3, b.c ** 3, b.den ** 3
    w = lcm(lden, c3, den3)
    equations = []
    for i in range(len(rows)):
        iu = np.triu_indices(len(rows) - i)
        c1, c2 = _trace_terms(b, i)
        jordan = _jordan_slab(_field(q.conductor), b.stack, i)[iu]
        if jordan[:, 1:].any():
            raise ValueError("irrational symmetrized trace on the rational basis")
        equations += zip(c1[iu] * (w // c3), c2[iu] * (w // c3), jordan[:, 0] * (w // den3),
                         _trilinear(rows, i)[iu] * (w // lden))
    sol = _solve_linear_positive(equations, 3)
    if sol is None:
        return DesignReport("real_6design", False,
                            witness=("no consistent positive constants",))
    k1, k2, k3 = sol
    return DesignReport("real_6design", True, constants={"K1": k1, "K2": k2, "K3": k3})


# ---------------------------------------------------------------------------
# Condition checks behind Lin ⊂ Wig and Lin ⊂ Jor

@lru_cache(maxsize=None)
def _gram_data(q: OperatorSet):
    """(Gram as an object array of Python ints, scale, dir-basis indices):
    g_ij = G[i,j] / scale.

    The Gram comes from Parseval over the orthogonal Hermitian basis, whose
    orthonormality is itself verified in the operator tests.
    """
    ints, scale = trace_table(q, "hermitian")
    t = np.array(ints, dtype=object)
    gram = _exact(lambda x, y: x.T @ y, len(ints), (t, t))  # tr(q_i q_j) * scale^2 * dim
    gscale = scale * scale * q.dim
    # independent differences q_i - q_0 via coordinate echelon
    ech = _Echelon(len(ints))
    picked = []
    cols = list(zip(*ints))
    # every difference is traceless, so its coordinates lie in a hyperplane
    # (the A(a) sum to d^n 1; T(0) = 1 for qubits): rank <= ncols - 1
    for i in range(1, q.size):
        if ech.insert([x - y for x, y in zip(cols[i], cols[0])]):
            picked.append(i)
            if ech.rank == ech.ncols - 1:
                break
    return gram, gscale, tuple(picked)


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
    gram, gscale, picked = _gram_data(q)
    size = q.size
    idx = np.asarray(picked, dtype=np.intp)
    diffs = gram[idx] - gram[0]
    iu = np.triu_indices(len(idx))
    # over dir(Q), for i <= j: F_2 = sum_t D_i D_j / (|Q| gscale^2) and
    # (q_i - q_0 | q_j - q_0) = (D_i[j] - D_i[0]) / gscale
    f2 = _exact(lambda x, y: x @ y.T, size, (diffs, diffs))[iu]
    hs = (diffs[:, idx] - diffs[:, :1])[iu]
    ref, bad = _proportional_scan([(np.stack([idx[iu[0]], idx[iu[1]]], 1), f2, hs[:, None])])

    def values(entry):
        (i, j), f2_v, hs_v = entry
        return int(i), int(j), Fraction(f2_v, size * gscale ** 2), Fraction(int(hs_v[0]), gscale)

    clauses = {"f2_proportional_on_dir": bad is None}
    col_sums = _exact(lambda g: g.sum(axis=0), size, (gram,))
    clauses["mu1_orthogonal_hs"] = bool((col_sums[idx] == col_sums[0]).all())
    clauses["mu1_orthogonal_f2"] = not _exact(np.dot, size, (diffs, col_sums)).any()
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
    plus mu_1 ∝ 1, a full span, and the F_3 clause."""
    base = check_lin_wig_condition(q) if wig is None else wig
    gram, gscale, picked = _gram_data(q)
    size = q.size
    clauses = dict(base["clauses"])
    mu = first_moment(q)
    target = OpMatrix.identity(q.conductor, q.dim).scale(mu.trace().as_fraction() / q.dim)
    clauses["mu1_proportional_identity"] = mu == target
    span_dim = span_dimension(q)
    clauses["span_full"] = span_dim in (q.dim ** 2, q.dim * (q.dim + 1) // 2)  # Herm or Sym

    idx = np.asarray(picked, dtype=np.intp)
    diffs = gram[idx] - gram[0]
    stack, den = coefficient_stack(q.elements)
    mats = stack[idx] - stack[0]  # q_i - q_0 over den
    m = q.conductor

    def slabs():
        # F_3 = sum_t D_i D_j D_k / (|Q| gscale^3) against the Jordan side over
        # den^3; the symmetrized trace is real but may be irrational
        for a in range(len(idx)):
            iu = np.triu_indices(len(idx) - a)
            keys = np.stack([np.full(len(iu[0]), idx[a]), idx[a + iu[0]], idx[a + iu[1]]], 1)
            yield keys, _trilinear(diffs, a)[iu], _jordan_slab(_field(m), mats, a)[iu]

    ref, bad = _proportional_scan(slabs())

    def values(entry):
        keys, lhs, rhs = entry
        return *map(int, keys), Fraction(lhs, size * gscale ** 3), CycNumber(m, list(rhs), den ** 3)

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
