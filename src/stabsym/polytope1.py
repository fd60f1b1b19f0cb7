"""Single-qudit geometry: the shifted stabilizer polytope, its direct-sum
decomposition into regular simplices, and the explicit facet family."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import BudgetExceeded, Mismatch, OddOnly
from .operators import OpMatrix, hs_inner, stabilizer_states
from .phase_space import basis_blocks
from .zmod import require_prime


@dataclass(frozen=True)
class ShiftedVertex:
    """pi = Pi - (1/d) 1: the traceless part of a stabilizer vertex."""

    label: object
    matrix: OpMatrix


@dataclass(frozen=True)
class FacetOperator:
    """X = (1/d) 1 + sum_i pi_{L_i}^{g_i}, one character per line."""

    characters: tuple  # one state index per block
    matrix: OpMatrix

    def to_json(self):
        return {"characters": list(self.characters), "matrix": self.matrix.to_json()}


def shifted_vertices(d):
    fam = stabilizer_states(d, 1)
    third = Fraction(1, d)
    eye = OpMatrix.identity(fam.projectors[0].m, d)
    return [
        ShiftedVertex(label=lab, matrix=p - eye.scale(third))
        for lab, p in zip(fam.labels, fam.projectors)
    ]


def direct_sum_check(d):
    """Verify the three-value overlap table, per-line zero sums, and
    cross-line orthogonality of the shifted polytope."""
    require_prime(d)
    if d == 2:
        raise OddOnly("direct-sum geometry is stated for odd d")
    fam = stabilizer_states(d, 1)
    verts = shifted_vertices(d)
    report = {"d": d, "pass": True}
    expected_diag = Fraction(d - 1, d)
    expected_same = Fraction(-1, d)
    for i, x in enumerate(verts):
        for j, y in enumerate(verts):
            v = hs_inner(x.matrix, y.matrix).as_fraction()
            li, lj = fam.labels[i].L, fam.labels[j].L
            if i == j:
                expected = expected_diag
            elif li == lj:
                expected = expected_same
            else:
                expected = Fraction(0)
            if v != expected:
                raise Mismatch(f"overlap table violated at {(i, j)}", witness=(i, j, v))
    report["overlap_table"] = True
    m = verts[0].matrix.m
    blocks = basis_blocks(fam.labels)
    for block in blocks:
        acc = OpMatrix.zero(m, d)
        for i in block:
            acc = acc + verts[i].matrix
        if acc != OpMatrix.zero(m, d):
            raise Mismatch("per-line vertex sum does not vanish", witness=block)
    report["line_sums_vanish"] = True
    report["blocks"] = len(blocks)
    return report


@lru_cache(maxsize=None)
def facet_family(d):
    """All d^(d+1) facet operators of the single-qudit stabilizer polytope."""
    require_prime(d)
    if d == 2:
        raise OddOnly("the facet family is stated for odd d")
    if d > 5:
        raise BudgetExceeded("facet family implemented for odd d <= 5")
    fam = stabilizer_states(d, 1)
    verts = shifted_vertices(d)
    blocks = basis_blocks(fam.labels)
    m = verts[0].matrix.m
    base = OpMatrix.identity(m, d).scale(Fraction(1, d))
    facets = []
    for choice in itertools.product(*blocks):
        acc = base
        for i in choice:
            acc = acc + verts[i].matrix
        facets.append(FacetOperator(characters=choice, matrix=acc))
    assert len({f.matrix for f in facets}) == len(facets), "duplicate facet"
    return tuple(facets)


def polytope_membership(a: OpMatrix, d):
    """Exact membership of a trace-1 Hermitian matrix in the stabilizer polytope.

    Returns (inside, violated_facet_or_None); inner products must be rational.
    """
    facets = facet_family(d)
    for facet in facets:
        # tr(A X) = (X|A), as every facet operator X is Hermitian
        val = hs_inner(facet.matrix, a).as_fraction()
        if val < 0:
            return False, facet
    return True, None


def facet_incidence_counts(d):
    """For each facet, the number of vertices with tr(X Pi) = 0 and the minimum."""
    fam = stabilizer_states(d, 1)
    out = []
    for facet in facet_family(d):
        vals = [hs_inner(facet.matrix, p).as_fraction() for p in fam.projectors]
        if min(vals) < 0:
            raise Mismatch("facet fails the supporting-hyperplane property")
        out.append((vals.count(Fraction(0)), min(vals)))
    return out


def wigner_negative_state(d) -> OpMatrix:
    """A trace-1 Hermitian matrix with a negative Wigner value: (1 - A(0))/2-type."""
    from .operators import phase_point

    m = stabilizer_states(d, 1).projectors[0].m
    eye = OpMatrix.identity(m, d)
    return (eye - phase_point(d, 1, (0, 0))).scale(Fraction(1, d - 1))


def facet_report(d):
    """The n = 1 facet verdict: every facet supports the polytope and touches
    (d - 1)(d + 1) vertices, the direct sum holds, and the Wigner-negative
    state lies outside with a violated facet as witness."""
    facets = facet_family(d)
    counts = facet_incidence_counts(d)
    supporting = all(minimum == 0 for _, minimum in counts)
    per_facet = {zeros for zeros, _ in counts}
    inside, violated = polytope_membership(wigner_negative_state(d), d)
    return {
        "facet_count": len(facets),
        "supporting": supporting,
        "vertices_per_facet": sorted(per_facet),
        "direct_sum": direct_sum_check(d),
        "wigner_negative_state_inside": inside,
        "violated_facet_characters": None if violated is None else list(violated.characters),
        "pass": supporting and not inside and per_facet == {(d - 1) * (d + 1)},
    }
