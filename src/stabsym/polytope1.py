"""Single-qudit geometry: the shifted stabilizer polytope, a direct sum of
d + 1 regular simplices (one per basis), and its d^(d+1) facets
X_g = (1/d) 1 + sum_i pi_(g_i), one shifted vertex g_i per basis block.  The
direct sum makes every facet quantity a sum or a minimum over the blocks, so
no function here lists the facets."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .cyclotomic import conductor_for
from .errors import BudgetExceeded, Mismatch, OddOnly
from .operators import OpMatrix, phase_point, stabilizer_states, trace_pairs
from .phase_space import basis_blocks, lagrangian_index
from .zmod import require_prime

# The largest d whose facet report is held to a golden.  The report takes
# ~0.6 s at d = 11 and ~0.8 s at d = 13 (2-core x86-64, Python 3.11), most
# of it the dense traces tr(Pi_y A) of `polytope_membership`.
MAX_FACET_D = 11


@lru_cache(maxsize=None)
def _overlap_table(d):
    """tr(pi_x pi_y) = tr(Pi_x Pi_y) - 1/d for every pair of shifted vertices
    pi = Pi - (1/d) 1, as (ints, scale) in lowest terms: the codes and
    legend of the closed-form Gram of `stabilizer_states(d, 1)`."""
    gram = stabilizer_states(d, 1).gram
    shifted = [v - Fraction(1, d) for v in gram.legend]
    scale = math.lcm(*(v.denominator for v in shifted))
    ints = np.array([v.numerator * (scale // v.denominator) for v in shifted], dtype=object)
    return ints[gram.codes], scale


def direct_sum_check(d):
    """Verify the three-value overlap table of the shifted vertices (so
    different lines are orthogonal), and that each line's shifted vertices
    sum to zero: the pi are Hermitian, so ||sum_(x in B) pi_x||^2 is the sum
    of the table over the block B."""
    require_prime(d)
    if d == 2:
        raise OddOnly("direct-sum geometry is stated for odd d")
    labels = stabilizer_states(d, 1).labels
    blocks = basis_blocks(labels)
    line = lagrangian_index(labels)[1]
    # d times the expected overlaps: d - 1 on the diagonal, -1 within a
    # line, 0 across lines
    expected = np.where(line[:, None] == line, -1, 0)
    np.fill_diagonal(expected, d - 1)
    ints, scale = _overlap_table(d)
    bad = np.argwhere(ints * d != expected * scale)
    if bad.size:
        i, j = map(int, bad[0])  # row-major order
        raise Mismatch(f"overlap table violated at {(i, j)}",
                       witness=(i, j, Fraction(ints[i, j], scale)))
    for block in blocks:
        if ints[np.ix_(block, block)].sum():
            raise Mismatch("per-line vertex sum does not vanish", witness=block)
    return {"d": d, "pass": True, "overlap_table": True, "line_sums_vanish": True,
            "blocks": len(blocks)}


def polytope_membership(a: OpMatrix, d):
    """Exact membership of a trace-1 Hermitian matrix A in the stabilizer
    polytope: A lies inside iff tr(X_g A) >= 0 for every facet X_g.

    With t_y = tr(Pi_y A) and s = tr(A)/d, tr(X_g A) = s + sum_i (t_(g_i) - s),
    one term per basis block, so the least facet value takes each block's
    least term.  Returns (inside, characters): characters is None if A lies
    inside, else the vertex indices g of the first violated facet in
    `itertools.product(*basis_blocks)` order.  The traces must be rational.
    """
    fam = stabilizer_states(d, 1)
    ints, scale = trace_pairs(fam.projectors, [a])
    s = a.trace().as_fraction() / d
    blocks = basis_blocks(fam.labels)
    terms = [[Fraction(ints[y, 0], scale) - s for y in block] for block in blocks]
    # rest[i]: the least sum of the terms of blocks i, i + 1, ...
    rest = list(itertools.accumulate(map(min, reversed(terms)), initial=0))[::-1]
    if s + rest[0] >= 0:
        return True, None
    # block by block, the first vertex that still leaves the sum negative
    # when every later block takes its least term
    characters, acc = [], s
    for block, row, later in zip(blocks, terms, rest[1:]):
        k = next(k for k, t in enumerate(row) if acc + t + later < 0)
        characters.append(block[k])
        acc += row[k]
    return False, tuple(characters)


def wigner_negative_state(d) -> OpMatrix:
    """A trace-1 Hermitian matrix with a negative Wigner value: (1 - A(0))/2-type."""
    eye = OpMatrix.identity(conductor_for(d), d)
    return (eye - phase_point(d, 1, (0, 0))).scale(Fraction(1, d - 1))


def facet_report(d):
    """The n = 1 facet verdict: every facet supports the polytope and touches
    (d - 1)(d + 1) vertices, the direct sum holds, and the Wigner-negative
    state lies outside with a violated facet as witness.

    `direct_sum_check` certifies that shifted vertices of different lines
    are orthogonal, so tr(X_g Pi_y) = tr(Pi_(g_j) Pi_y) for y in block j: the
    (zeros, minimum) pairs of the facets are the sums and minima of one Gram
    row per block.  Two facets take different rows in some block, so they
    are distinct."""
    require_prime(d)
    if d > MAX_FACET_D:
        raise BudgetExceeded(f"the facet report is implemented for odd d <= {MAX_FACET_D}")
    direct_sum = direct_sum_check(d)
    gram = stabilizer_states(d, 1).gram
    blocks = basis_blocks(gram.labels)
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
