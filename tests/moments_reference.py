"""Per-entry reference versions of the moment predicates in `stabsym.moments`.

Each predicate here visits one basis pair or triple at a time with
`Fraction`s and `CycNumber`s, exactly as the library did before its table
kernels; the oracle tests in test_moments.py compare full reports against
these.  They share the library's trace table, its pick of a basis of dir(Q)
and its solver, which have oracles of their own; so the mu_1 ∝ 1
clause reads the table's row sums here too, and `dense_oracles.first_moment`
is its dense oracle.  The Lin conditions read the N x N Gram T^T T of the
table (`_gram`), which the library never forms, and the Jordan side the dense
elements (`dense_oracles.set_elements`).  The real predicates take their own
basis of Sym, `dense_oracles.symmetric_basis`, and its table of dense traces
against the elements (`dense_oracles.trace_pairs`), where the library reads
the real-Pauli rows of its one table.
"""

from fractions import Fraction
from functools import lru_cache

from stabsym.cyclotomic import CycNumber
from stabsym.moments import (
    DesignReport,
    _dir_basis,
    _pair_sums,
    _solve_linear_positive,
    span_dimension,
    trace_table,
)
from stabsym.operators import hs_inner, trace_product

from dense_oracles import (
    hermitian_basis,
    mono_trace,
    mono_trace_product,
    set_elements,
    symmetric_basis,
    trace_pairs,
)


def _symmetrized_trace(mats):
    """(i, j, k) -> tr(M_i M_j M_k) + tr(M_i M_k M_j), each pair product
    M_i M_j formed once."""
    product = lru_cache(maxsize=None)(lambda i, j: mats[i] @ mats[j])
    return lambda i, j, k: (trace_product(product(i, j), mats[k])
                            + trace_product(product(i, k), mats[j]))


def _symmetric_table(q):
    """The basis `symmetric_basis` and its traces against the elements of q,
    as (basis, rows, scale)."""
    basis = symmetric_basis(q.conductor, q.dim)
    ints, scale = trace_pairs(basis, set_elements(q))
    return basis, ints.tolist(), scale


def is_complex_2design(q):
    basis = hermitian_basis(q.d, q.n)
    monos = [m for _, m in basis]
    dd = q.dim
    s2 = _pair_sums(q)
    denom = q.size
    worst = None
    for i in range(len(monos)):
        for j in range(i, len(monos)):
            lhs = Fraction(int(s2[i, j]), denom)
            tr_i = mono_trace(monos[i]).as_fraction()
            tr_j = mono_trace(monos[j]).as_fraction()
            tr_ij = mono_trace_product(monos[i], monos[j]).as_fraction()
            rhs = Fraction(tr_i * tr_j + tr_ij, dd * (dd + 1))
            if lhs != rhs:
                gap = abs(lhs - rhs)
                if worst is None or gap > worst[0]:
                    worst = (gap, basis[i][0], basis[j][0], lhs, rhs)
    if worst is None:
        return DesignReport("complex_2design", True)
    return DesignReport("complex_2design", False, witness=worst[1:])


def is_complex_3design(q):
    """The first failing triple i <= j <= k, in loop order."""
    basis = hermitian_basis(q.d, q.n)
    monos = [m for _, m in basis]
    dd = q.dim
    ints = trace_table(q).tolist()
    denom = Fraction(1, q.size)
    m = q.conductor
    nb = len(monos)
    tr_single = [mono_trace(monos[i]).as_fraction() for i in range(nb)]
    tr_pair = [[mono_trace_product(monos[i], monos[j]).as_fraction() for j in range(nb)]
               for i in range(nb)]
    for i in range(nb):
        for j in range(i, nb):
            prod_ij = monos[i] @ monos[j]
            for k in range(j, nb):
                s = sum(a * b * c for a, b, c in zip(ints[i], ints[j], ints[k]))
                lhs = CycNumber.from_fraction(m, s * denom)
                sym = (mono_trace_product(prod_ij, monos[k])
                       + mono_trace_product(monos[i] @ monos[k], monos[j]))
                rhs = (
                    CycNumber.from_fraction(m, tr_single[i] * tr_single[j] * tr_single[k])
                    + CycNumber.from_fraction(m, tr_single[i] * tr_pair[j][k])
                    + CycNumber.from_fraction(m, tr_single[j] * tr_pair[i][k])
                    + CycNumber.from_fraction(m, tr_single[k] * tr_pair[i][j])
                    + sym
                ) * Fraction(1, dd * (dd + 1) * (dd + 2))
                if lhs != rhs:
                    return DesignReport("complex_3design", False,
                                        witness=(basis[i][0], basis[j][0], basis[k][0]))
    return DesignReport("complex_3design", True)


def is_real_4design(q):
    basis, table, scale = _symmetric_table(q)
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


def is_real_6design(q):
    basis, table, scale = _symmetric_table(q)
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


def _gram(q):
    """(G, gscale, picked): the Gram G = T^T T of the trace table T as
    Python ints, tr(q_i q_j) = G[i, j] / gscale with gscale = d^n by
    Parseval over the basis, and the library's basis q_i - q_0 of dir(Q)."""
    t = trace_table(q).astype(object)
    return t.T @ t, q.dim, _dir_basis(q)[0]


def check_lin_wig_condition(q):
    gram, gscale, picked = _gram(q)
    size = q.size
    f2sums = gram @ gram.T

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
    col_sums = gram.sum(axis=0)
    clauses["mu1_orthogonal_hs"] = all(int(col_sums[i]) == int(col_sums[0]) for i in picked)
    clauses["mu1_orthogonal_f2"] = all(
        int((col_sums * (gram[i] - gram[0])).sum()) == 0 for i in picked)
    return {
        "condition": "lin_subset_wig",
        "pass": all(clauses.values()),
        "clauses": clauses,
        "constant": None if const is None else str(const),
        "dir_dimension": len(picked),
        "witness": None if witness is None else [str(w) for w in witness],
    }


def check_lin_jor_condition(q):
    base = check_lin_wig_condition(q)
    gram, gscale, picked = _gram(q)
    size = q.size
    clauses = dict(base["clauses"])
    # mu_1 ∝ 1 iff its basis traces tr(B_a mu_1), the table's row sums over
    # |Q|, are one constant times tr B_a
    traces = [mono_trace(mono).as_fraction() for _, mono in hermitian_basis(q.d, q.n)]
    mu = [Fraction(sum(row), size) for row in trace_table(q).tolist()]
    ratio = next(x / t for x, t in zip(mu, traces) if t)
    clauses["mu1_proportional_identity"] = all(x == ratio * t for x, t in zip(mu, traces))
    span_dim = span_dimension(q)
    clauses["span_full"] = span_dim in (q.dim ** 2, q.dim * (q.dim + 1) // 2)

    def f3_states(i, j, k):
        return Fraction(int((gram[i] * gram[j] * gram[k]).sum()), size * gscale ** 3)

    def f3_diff(i, j, k):
        total = Fraction(0)
        for a, sa in ((i, 1), (0, -1)):
            for b, sb in ((j, 1), (0, -1)):
                for c, sc in ((k, 1), (0, -1)):
                    total += sa * sb * sc * f3_states(a, b, c)
        return total

    elements = set_elements(q)
    sym_trace = _symmetrized_trace({i: elements[i] - elements[0] for i in picked})
    m = q.conductor
    const = None
    witness = None
    for ii, i in enumerate(picked):
        for jj in range(ii, len(picked)):
            j = picked[jj]
            for k in picked[jj:]:
                lhs = f3_diff(i, j, k)
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
    if const is None:
        const_str = None
    elif const.is_rational():
        const_str = str(const.as_fraction())
    else:
        const_str = repr(const)
    return {
        "condition": "lin_subset_jor",
        "pass": all(clauses.values()),
        "clauses": clauses,
        "f3_constant": const_str,
        "span_dimension": span_dim,
        "witness": None if witness is None else [str(w) for w in witness],
    }
