"""Single-qudit geometry: the shifted stabilizer polytope, a direct sum of
d + 1 regular simplices (one per basis), and its d^(d+1) facets
X_g = (1/d) 1 + sum_i pi_(g_i), one shifted vertex g_i per basis block.  The
direct sum makes every facet quantity a sum or a minimum over the blocks, so
no function here lists the facets.

No function here builds a matrix: the overlaps are the closed-form Gram's
codes, and an operator is given by its discrete Wigner function (Gross,
J. Math. Phys. 47, 122107 (2006)), summed over each coset through the coset
table of the set's labels (`phase_space.label_cosets`)."""

from __future__ import annotations

import itertools
import math
import numbers
from fractions import Fraction
from functools import reduce

import numpy as np

from .errors import Mismatch, OddOnly
from .operators import stabilizer_set, stabilizer_states
from .phase_space import label_cosets


def direct_sum_check(d):
    """Verify the three-value overlap table of the shifted vertices
    pi = Pi - (1/d) 1 (so different lines are orthogonal), and that each
    line's shifted vertices sum to zero: the pi are Hermitian, so
    ||sum_(x in B) pi_x||^2 is the sum of the table over the block B.

    The table is read from the codes of the closed-form Gram of
    `stabilizer_states(d, 1)`: tr(Pi_x Pi_y) takes the legend (0, 1/d, 1),
    so its codes must be 2 on the diagonal, 0 within a line and 1 across
    lines, and d tr(pi_x pi_y) is -1, 0 or d - 1 by code."""
    if d == 2:
        raise OddOnly("direct-sum geometry is stated for odd d")
    states = stabilizer_states(d, 1)
    gram, line, blocks = states.gram, states.index, states.blocks
    if gram.legend != (0, Fraction(1, d), 1):
        raise Mismatch(f"overlap values {gram.legend} are not (0, 1/d, 1)", witness=gram.legend)
    expected = (line[:, None] != line).astype(gram.codes.dtype)
    np.fill_diagonal(expected, 2)
    bad = np.argwhere(gram.codes != expected)
    if bad.size:
        i, j = map(int, bad[0])  # row-major order
        raise Mismatch(f"overlap table violated at {(i, j)}",
                       witness=(i, j, gram.legend[gram.codes[i, j]] - Fraction(1, d)))
    shifted = np.array([-1, 0, d - 1])
    for block in blocks:
        if np.bincount(gram.codes[np.ix_(block, block)].ravel(), minlength=3) @ shifted:
            raise Mismatch("per-line vertex sum does not vanish", witness=block)
    return {"d": d, "pass": True, "overlap_table": True, "line_sums_vanish": True,
            "blocks": len(blocks)}


def polytope_membership(w, d):
    """Exact membership of a trace-1 Hermitian operator A in the stabilizer
    polytope, given by its Wigner function w[x] = tr(A(x) A) at the d^2
    points x in `phase_space.point_codes` order: A lies inside iff
    tr(X_g A) >= 0 for every facet X_g.

    The A(x) sum to d 1, so tr A = d^-1 sum_x w[x], and
    t_y = tr(Pi_y A) = d^-1 sum_(x in rep_y + L_y) w[x].  With s = tr(A)/d,
    tr(X_g A) = s + sum_i (t_(g_i) - s), one term per basis block, so the
    least facet value takes each block's least term.  Returns (inside,
    characters): characters is None if A lies inside, else the vertex
    indices g of the first violated facet in `itertools.product(*blocks)`
    order, for the blocks of `stabilizer_set(d, 1)`.  A w of the wrong length,
    with an entry that is not rational, or of trace other than 1 raises
    ValueError."""
    if d == 2:
        raise OddOnly("direct-sum geometry is stated for odd d")
    w = tuple(w)
    if len(w) != d * d:
        raise ValueError(f"a Wigner function at d = {d} has {d * d} entries, not {len(w)}")
    if not all(isinstance(v, numbers.Rational) for v in w):
        raise ValueError("Wigner function values must be rational")
    w = tuple(map(Fraction, w))
    if sum(w) != d:
        raise ValueError(f"trace {sum(w) / d} is not 1")
    den = math.lcm(*(v.denominator for v in w))
    ints = np.array([int(v * den) for v in w], dtype=object)
    states = stabilizer_set(d, 1)
    # coset[l, x]: the label y with x in rep_y + L_l
    coset = label_cosets(states.lags, states.index, states.reps)
    sums = np.zeros(states.size, dtype=object)  # den * d * t_y
    np.add.at(sums, coset, np.broadcast_to(ints, coset.shape))
    # den * d * tr(X_g A) = den + sum_i terms[i][g_i], as s = 1/d
    terms = [[sums[y] - den for y in block] for block in states.blocks]
    # rest[i]: the least sum of the terms of blocks i, i + 1, ...
    rest = list(itertools.accumulate(map(min, reversed(terms)), initial=0))[::-1]
    if den + rest[0] >= 0:
        return True, None
    # block by block, the first vertex that still leaves the sum negative
    # when every later block takes its least term
    characters, acc = [], den
    for block, row, later in zip(states.blocks, terms, rest[1:]):
        k = next(k for k, t in enumerate(row) if acc + t + later < 0)
        characters.append(block[k])
        acc += row[k]
    return False, tuple(characters)


def wigner_negative_state(d):
    """The Wigner function of rho = (1 - A(0))/(d - 1), a trace-1 Hermitian
    operator with a negative Wigner value: tr A(x) = 1 and
    tr(A(x) A(0)) = d [x = 0] give w[x] = (1 - d [x = 0])/(d - 1), with the
    points in `phase_space.point_codes` order (0 first)."""
    return tuple(Fraction(1 - d * (x == 0), d - 1) for x in range(d * d))


def facet_report(d):
    """The n = 1 facet verdict: every facet supports the polytope and touches
    (d - 1)(d + 1) vertices, the direct sum holds, and the Wigner-negative
    state lies outside with a violated facet as witness.

    `direct_sum_check` certifies that shifted vertices of different lines
    are orthogonal, so tr(X_g Pi_y) = tr(Pi_(g_j) Pi_y) for y in block j: the
    (zeros, minimum) pairs of the facets are the sums and minima of one Gram
    row per block.  Two facets take different rows in some block, so they
    are distinct."""
    direct_sum = direct_sum_check(d)
    states = stabilizer_states(d, 1)
    gram, blocks = states.gram, states.blocks
    per_block = []
    for block in blocks:
        rows = [[gram.legend[c] for c in row] for row in gram.codes[np.ix_(block, block)].tolist()]
        per_block.append({(row.count(0), min(row)) for row in rows})
    facets = reduce(lambda acc, pairs: {(z + bz, min(m, bm)) for z, m in acc for bz, bm in pairs},
                    per_block)
    if any(minimum < 0 for _, minimum in facets):
        raise Mismatch("facet fails the supporting-hyperplane property")
    supporting = all(minimum == 0 for _, minimum in facets)
    per_facet = {zeros for zeros, _ in facets}
    inside, violated = polytope_membership(wigner_negative_state(d), d)
    return {
        "facet_count": math.prod(map(len, blocks)),
        "supporting": supporting,
        "vertices_per_facet": sorted(per_facet),
        "direct_sum": direct_sum,
        "wigner_negative_state_inside": inside,
        "violated_facet_characters": None if violated is None else list(violated),
        "pass": supporting and not inside and per_facet == {(d - 1) * (d + 1)},
    }
