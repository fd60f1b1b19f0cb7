"""Moment forms F_k of finite operator sets and the design/condition predicates
that control which symmetry notions coincide."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm

from .clifford import real_clifford_orbit
from .cyclotomic import CycNumber
from .errors import StabsymError, Unsupported, guard_int64
from .operators import (
    OpMatrix,
    hs_inner,
    phase_point_all,
    phase_point_mono,
    stabilizer_states,
    trace_pairs,
    trace_product,
    weyl_mono,
)
from .phase_space import all_vectors


@dataclass(frozen=True)
class OperatorSet:
    """A finite set of Hermitian trace-1 operators with uniform weights."""

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
    ops = phase_point_all(d, n)
    keys = sorted(ops)
    return OperatorSet(name=f"phase_points({d},{n})", d=d, n=n,
                       elements=tuple(ops[k] for k in keys))


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


@lru_cache(maxsize=None)
def trace_table(q: OperatorSet, kind="hermitian"):
    """Exact table tr(B_i q_j) = rows[i][j] / scale for the chosen spanning
    basis, as (rows, scale): rows of Python ints, so that products of
    entries stay exact, and one positive scale, in lowest terms."""
    if kind == "hermitian":
        basis = [mono.to_matrix() for _, mono in hermitian_basis(q.d, q.n)]
    else:
        basis = symmetric_basis(q.conductor, q.dim)
    ints, scale = trace_pairs(basis, q.elements)
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


def _max_abs(rows):
    return max(abs(x) for row in rows for x in row)


def _pair_sums(q: OperatorSet):
    """S2[i][j] = sum_q t_i t_j as integers plus the overall scale."""
    import numpy as np

    ints, scale = trace_table(q, "hermitian")
    guard_int64(q.size, _max_abs(ints), 2)
    arr = np.array(ints, dtype=np.int64)
    return arr @ arr.T, scale


def is_complex_2design(q: OperatorSet) -> DesignReport:
    """Exact comparison of F_2 with (tr A tr B + tr AB) / (D(D+1)) on a basis."""
    basis = hermitian_basis(q.d, q.n)
    monos = [m for _, m in basis]
    dd = q.dim
    s2, scale = _pair_sums(q)
    denom = q.size * scale * scale
    worst = None
    for i in range(len(monos)):
        for j in range(i, len(monos)):
            lhs = Fraction(int(s2[i, j]), denom)
            tr_i = monos[i].trace().as_fraction()
            tr_j = monos[j].trace().as_fraction()
            tr_ij = monos[i].trace_product(monos[j]).as_fraction()
            rhs = Fraction(tr_i * tr_j + tr_ij, dd * (dd + 1))
            if lhs != rhs:
                gap = abs(lhs - rhs)
                if worst is None or gap > worst[0]:
                    worst = (gap, basis[i][0], basis[j][0], lhs, rhs)
    if worst is None:
        return DesignReport("complex_2design", True)
    return DesignReport("complex_2design", False, witness=worst[1:])


def is_complex_3design(q: OperatorSet, stop_at_first=True) -> DesignReport:
    """Exact comparison of F_3 with the 6-term symmetric form.

    The correct normalization of the 6-term sum is 1/(D(D+1)(D+2)), anchored by
    F_3(1,1,1) = 1 for trace-1 states.
    """
    basis = hermitian_basis(q.d, q.n)
    monos = [m for _, m in basis]
    dd = q.dim
    ints, scale = trace_table(q, "hermitian")
    denom = Fraction(1, q.size * scale ** 3)
    m = q.conductor
    witness = None
    nb = len(monos)
    tr_single = [monos[i].trace().as_fraction() for i in range(nb)]
    tr_pair = [[monos[i].trace_product(monos[j]).as_fraction() for j in range(nb)] for i in range(nb)]
    for i in range(nb):
        for j in range(i, nb):
            prod_ij = monos[i] @ monos[j]
            for k in range(j, nb):
                s = 0
                row_i, row_j, row_k = ints[i], ints[j], ints[k]
                for t in range(q.size):
                    s += row_i[t] * row_j[t] * row_k[t]
                lhs = CycNumber.from_fraction(m, s * denom)
                sym = prod_ij.trace_product(monos[k]) + (monos[i] @ monos[k]).trace_product(monos[j])
                rhs = (
                    CycNumber.from_fraction(m, tr_single[i] * tr_single[j] * tr_single[k])
                    + CycNumber.from_fraction(m, tr_single[i] * tr_pair[j][k])
                    + CycNumber.from_fraction(m, tr_single[j] * tr_pair[i][k])
                    + CycNumber.from_fraction(m, tr_single[k] * tr_pair[i][j])
                    + sym
                ) * Fraction(1, dd * (dd + 1) * (dd + 2))
                if lhs != rhs:
                    witness = (basis[i][0], basis[j][0], basis[k][0])
                    if stop_at_first:
                        return DesignReport("complex_3design", False, witness=witness)
    if witness is None:
        return DesignReport("complex_3design", True)
    return DesignReport("complex_3design", False, witness=witness)


def _solve_linear_positive(equations, unknowns):
    """Exact positive solution of a rational system [A | b]; None if impossible.

    The system may be rank-deficient (the trace invariants satisfy algebraic
    relations in low dimension).  With one free unknown, a positive point is
    searched for along the null vector; a larger nullspace does not occur for
    these invariants and raises StabsymError.
    """
    ech = _Echelon(unknowns + 1)
    for eq in equations:
        scale = lcm(*(Fraction(x).denominator for x in eq))
        ech.insert([int(Fraction(x) * scale) for x in eq])
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
    lo, hi = None, None  # open interval for t with particular + t*null > 0
    for pv, nv in zip(particular, null):
        if nv == 0:
            if pv <= 0:
                return None
        elif nv > 0:
            bound = -pv / nv
            lo = bound if lo is None or bound > lo else lo
        else:
            bound = -pv / nv
            hi = bound if hi is None or bound < hi else hi
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


def _symmetrized_trace(mats):
    """(i, j, k) -> tr(M_i M_j M_k) + tr(M_i M_k M_j), each pair product
    M_i M_j formed once."""
    product = lru_cache(maxsize=None)(lambda i, j: mats[i] @ mats[j])
    return lambda i, j, k: (trace_product(product(i, j), mats[k])
                            + trace_product(product(i, k), mats[j]))


def is_real_4design(q: OperatorSet) -> DesignReport:
    """F_2 = K_hs (A|B) + K_tr (A|1)(B|1) with exactly solved positive constants.

    Solving both constants exactly doubles as the consistency proof and pins
    the ratio between the two invariants instead of assuming it.
    """
    basis = list(symmetric_basis(q.conductor, q.dim))
    table, scale = trace_table(q, "symmetric")
    nb = len(basis)
    tr_single = [b.trace().as_fraction() for b in basis]
    hs = [[hs_inner(basis[i], basis[j]).as_fraction() for j in range(nb)] for i in range(nb)]
    equations = []
    for i in range(nb):
        for j in range(i, nb):
            lhs = Fraction(sum(a * b for a, b in zip(table[i], table[j])), q.size * scale ** 2)
            equations.append((hs[i][j], tr_single[i] * tr_single[j], lhs))
    sol = _solve_linear_positive(equations, 2)
    if sol is None:
        return DesignReport("real_4design", False,
                            witness=("no consistent positive constants",))
    k_hs, k_tr = sol
    return DesignReport("real_4design", True, constants={"K_hs": k_hs, "K_tr": k_tr})


def is_real_6design(q: OperatorSet) -> DesignReport:
    """F_3 = K1 trA trB trC + K2 (three cross terms) + K3 (Tr(ABC)+Tr(ACB))."""
    basis = list(symmetric_basis(q.conductor, q.dim))
    table, scale = trace_table(q, "symmetric")
    nb = len(basis)
    tr_single = [b.trace().as_fraction() for b in basis]
    hs = [[hs_inner(basis[i], basis[j]).as_fraction() for j in range(nb)] for i in range(nb)]
    sym_trace = _symmetrized_trace(basis)
    equations = []
    for i in range(nb):
        for j in range(i, nb):
            for k in range(j, nb):
                lhs = Fraction(sum(a * b * c for a, b, c in zip(table[i], table[j], table[k])),
                               q.size * scale ** 3)
                c1 = tr_single[i] * tr_single[j] * tr_single[k]
                c2 = tr_single[i] * hs[j][k] + tr_single[j] * hs[i][k] + tr_single[k] * hs[i][j]
                equations.append((c1, c2, sym_trace(i, j, k).as_fraction(), lhs))
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
    """(numpy int Gram, scale, dir-basis indices): g_ij = G[i,j] / scale.

    The Gram comes from Parseval over the orthogonal Hermitian basis, whose
    orthonormality is itself verified in the operator tests.
    """
    import numpy as np

    ints, scale = trace_table(q, "hermitian")
    guard_int64(len(ints), _max_abs(ints), 2)
    t = np.array(ints, dtype=np.int64)
    gram = (t.T @ t)  # tr(q_i q_j) * scale^2 * dim
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


def check_lin_wig_condition(q: OperatorSet):
    """F_2 proportional to HS on dir(Q); mu_1 orthogonal to dir(Q) in both forms."""
    gram, gscale, picked = _gram_data(q)
    size = q.size
    mg = int(abs(gram).max())
    guard_int64(size, mg, 2)
    f2sums = gram @ gram.T  # sum_t G[i,t] G[j,t]

    def g(i, j):
        return Fraction(int(gram[i, j]), gscale)

    def du(i, j):
        return g(i, j) - g(i, 0) - g(0, j) + g(0, 0)

    def f2_states(i, j):
        return Fraction(int(f2sums[i, j]), size * gscale * gscale)

    def f2_diff(i, j):
        return f2_states(i, j) - f2_states(i, 0) - f2_states(0, j) + f2_states(0, 0)

    clauses = {}
    const = None
    witness = None
    for ii, i in enumerate(picked):
        for j in picked[ii:]:
            hs_v = du(i, j)
            f2_v = f2_diff(i, j)
            if hs_v == 0:
                if f2_v != 0:
                    witness = (i, j, f2_v, hs_v)
                    break
            else:
                c = f2_v / hs_v
                if const is None:
                    const = c
                elif c != const:
                    witness = (i, j, f2_v, hs_v)
                    break
        if witness:
            break
    clauses["f2_proportional_on_dir"] = witness is None
    # column sums are at most size*mg, differences of Gram rows at most 2*mg
    guard_int64(size, 2 * size * mg, 2)
    col_sums = gram.sum(axis=0)
    clauses["mu1_orthogonal_hs"] = all(
        int(col_sums[i]) == int(col_sums[0]) for i in picked
    )
    f2_ok = True
    for i in picked:
        val = int((col_sums * (gram[i] - gram[0])).sum())
        if val != 0:
            f2_ok = False
            break
    clauses["mu1_orthogonal_f2"] = f2_ok
    passed = all(clauses.values())
    return {
        "condition": "lin_subset_wig",
        "pass": passed,
        "clauses": clauses,
        "constant": None if const is None else str(const),
        "dir_dimension": len(picked),
        "witness": None if witness is None else [str(w) for w in witness],
    }


def check_lin_jor_condition(q: OperatorSet):
    """The Lin ⊂ Wig condition plus mu_1 ∝ 1, a full span, and the F_3 clause."""
    base = check_lin_wig_condition(q)
    gram, gscale, picked = _gram_data(q)
    size = q.size
    clauses = dict(base["clauses"])
    mu = first_moment(q)
    target = OpMatrix.identity(q.conductor, q.dim).scale(
        mu.trace().as_fraction() / q.dim
    )
    clauses["mu1_proportional_identity"] = mu == target
    span_dim = span_dimension(q)
    full_herm = q.dim ** 2
    full_sym = q.dim * (q.dim + 1) // 2
    clauses["span_full"] = span_dim in (full_herm, full_sym)

    guard_int64(size, int(abs(gram).max()), 3)

    def f3_states(i, j, k):
        v = int((gram[i] * gram[j] * gram[k]).sum())
        return Fraction(v, size * gscale ** 3)

    def f3_diff(i, j, k):
        total = Fraction(0)
        for a, sa in ((i, 1), (0, -1)):
            for b, sb in ((j, 1), (0, -1)):
                for c, sc in ((k, 1), (0, -1)):
                    total += sa * sb * sc * f3_states(a, b, c)
        return total

    sym_trace = _symmetrized_trace({i: q.elements[i] - q.elements[0] for i in picked})
    m = q.conductor
    const = None
    witness = None
    for ii, i in enumerate(picked):
        for jj in range(ii, len(picked)):
            j = picked[jj]
            for k in picked[jj:]:
                lhs = f3_diff(i, j, k)
                # the symmetrized trace is real but may be irrational (e.g. in
                # Q[sqrt 5]); compare in the cyclotomic field throughout
                rhs = sym_trace(i, j, k)
                if rhs.is_zero():
                    if lhs != 0:
                        witness = (i, j, k, lhs, rhs)
                        break
                else:
                    c = CycNumber.from_fraction(m, lhs) * rhs.inverse()
                    if const is None:
                        const = c
                    elif c != const:
                        witness = (i, j, k, lhs, rhs)
                        break
            if witness:
                break
        if witness:
            break
    clauses["f3_proportional_on_dir"] = witness is None
    passed = all(clauses.values())
    if const is None:
        const_str = None
    elif const.is_rational():
        const_str = str(const.as_fraction())
    else:
        const_str = repr(const)
    return {
        "condition": "lin_subset_jor",
        "pass": passed,
        "clauses": clauses,
        "f3_constant": const_str,
        "span_dimension": span_dim,
        "witness": None if witness is None else [str(w) for w in witness],
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
        expected = {
            "complex_2design": True,
            "complex_3design": d == 2,
            "lin_subset_wig": True,
            "lin_subset_jor": d == 2,
        }
        checks["complex_2design"] = is_complex_2design(q).to_json()
        checks["complex_3design"] = is_complex_3design(q, stop_at_first=(d != 2)).to_json()
    elif which == "rebit":
        if d != 2:
            raise Unsupported("the rebit states are d = 2")
        q = rebit_operator_set(n)
        expected = {
            "complex_2design": False,
            "real_4design": True,
            "real_6design": True,
            "lin_subset_wig": True,
            "lin_subset_jor": True,
        }
        checks["complex_2design"] = is_complex_2design(q).to_json()
        checks["real_4design"] = is_real_4design(q).to_json()
        checks["real_6design"] = is_real_6design(q).to_json()
    elif which == "phase-points":
        q = phase_point_operator_set(d, n)
        expected = {"lin_subset_wig": True, "lin_subset_jor": False}
    else:
        raise Unsupported(f"no operator set {which!r}")
    checks["lin_subset_wig"] = check_lin_wig_condition(q)
    checks["lin_subset_jor"] = check_lin_jor_condition(q)
    return {
        "checks": checks,
        "expected": expected,
        "all_as_expected": all(checks[k]["pass"] == v for k, v in expected.items()),
    }
