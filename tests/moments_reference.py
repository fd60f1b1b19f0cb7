"""Per-entry reference versions of the moment predicates in `stabsym.moments`.

Each predicate here visits one basis pair or triple at a time with
`Fraction`s and `CycNumber`s, exactly as the library did before its table
kernels; the oracle tests in test_moments.py compare full reports against
these.  They share the library's trace tables, Gram data and solver, which
have oracles of their own.
"""

from fractions import Fraction
from functools import lru_cache

from stabsym.cyclotomic import CycNumber
from stabsym.moments import (
    DesignReport,
    _gram_data,
    _pair_sums,
    _solve_linear_positive,
    first_moment,
    hermitian_basis,
    span_dimension,
    symmetric_basis,
    trace_table,
)
from stabsym.operators import OpMatrix, hs_inner, trace_product


def _symmetrized_trace(mats):
    """(i, j, k) -> tr(M_i M_j M_k) + tr(M_i M_k M_j), each pair product
    M_i M_j formed once."""
    product = lru_cache(maxsize=None)(lambda i, j: mats[i] @ mats[j])
    return lambda i, j, k: (trace_product(product(i, j), mats[k])
                            + trace_product(product(i, k), mats[j]))


def is_complex_2design(q):
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


def is_complex_3design(q):
    """The first failing triple i <= j <= k, in loop order."""
    basis = hermitian_basis(q.d, q.n)
    monos = [m for _, m in basis]
    dd = q.dim
    ints, scale = trace_table(q, "hermitian")
    denom = Fraction(1, q.size * scale ** 3)
    m = q.conductor
    nb = len(monos)
    tr_single = [monos[i].trace().as_fraction() for i in range(nb)]
    tr_pair = [[monos[i].trace_product(monos[j]).as_fraction() for j in range(nb)] for i in range(nb)]
    for i in range(nb):
        for j in range(i, nb):
            prod_ij = monos[i] @ monos[j]
            for k in range(j, nb):
                s = sum(a * b * c for a, b, c in zip(ints[i], ints[j], ints[k]))
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
                    return DesignReport("complex_3design", False,
                                        witness=(basis[i][0], basis[j][0], basis[k][0]))
    return DesignReport("complex_3design", True)


def is_real_4design(q):
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


def is_real_6design(q):
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


def check_lin_wig_condition(q):
    gram, gscale, picked = _gram_data(q)
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
    gram, gscale, picked = _gram_data(q)
    size = q.size
    clauses = dict(base["clauses"])
    mu = first_moment(q)
    target = OpMatrix.identity(q.conductor, q.dim).scale(mu.trace().as_fraction() / q.dim)
    clauses["mu1_proportional_identity"] = mu == target
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

    sym_trace = _symmetrized_trace({i: q.elements[i] - q.elements[0] for i in picked})
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
