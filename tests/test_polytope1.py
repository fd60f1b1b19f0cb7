import random
from fractions import Fraction

import pytest

from stabsym.errors import BudgetExceeded
from stabsym.operators import OpMatrix, hs_inner, stabilizer_states
from stabsym.polytope1 import (
    direct_sum_check,
    facet_family,
    facet_incidence_counts,
    polytope_membership,
    shifted_vertices,
    wigner_negative_state,
)
from stabsym.phase_space import basis_blocks


def test_shifted_vertices_traceless_hermitian():
    for v in shifted_vertices(3):
        assert v.matrix.trace().is_zero()
        assert v.matrix.is_hermitian()


def test_direct_sum_check_d3():
    report = direct_sum_check(3)
    assert report["overlap_table"] and report["line_sums_vanish"]
    assert report["blocks"] == 4


def test_direct_sum_check_d5():
    report = direct_sum_check(5)
    assert report["overlap_table"] and report["line_sums_vanish"]
    assert report["blocks"] == 6


def test_shifted_overlap_diagonal_value():
    verts = shifted_vertices(3)
    assert hs_inner(verts[0].matrix, verts[0].matrix).as_fraction() == Fraction(2, 3)


def test_facet_count_d3():
    assert len(facet_family(3)) == 81


def test_facets_budget():
    with pytest.raises(BudgetExceeded):
        facet_family(7)


def test_facets_support_with_eight_incident_vertices():
    counts = facet_incidence_counts(3)
    for zeros, minimum in counts:
        assert minimum == 0
        assert zeros == 8  # (d-1)(d+1)


def test_facet_trace_by_hs_inner_matches_dense_trace():
    # the facet operators are Hermitian, so tr(X P) = (X|P) for every pair
    fam = stabilizer_states(3, 1)
    rho = wigner_negative_state(3)
    for facet in facet_family(3):
        assert facet.matrix.is_hermitian()
        for p in (*fam.projectors, rho):
            assert hs_inner(facet.matrix, p) == (facet.matrix @ p).trace()


def test_self_duality_of_simplex_blocks():
    # within a line's span, facet normals of the simplex are its own vertices:
    # tr(pi_g pi_h) = -1/d for g != h and (d-1)/d on the diagonal realizes
    # the self-dual inequality tr(pi_g X) >= -1/d with equality off-diagonal
    d = 3
    verts = shifted_vertices(d)
    blocks = basis_blocks(stabilizer_states(d, 1).labels)
    for block in blocks:
        for i in block:
            for j in block:
                v = hs_inner(verts[i].matrix, verts[j].matrix).as_fraction()
                assert v == (Fraction(d - 1, d) if i == j else Fraction(-1, d))


def test_membership_center_inside():
    m = stabilizer_states(3, 1).projectors[0].m
    center = OpMatrix.identity(m, 3).scale(Fraction(1, 3))
    inside, facet = polytope_membership(center, 3)
    assert inside and facet is None
    # the center is strictly inside: all inner products positive
    for f in facet_family(3):
        assert (center @ f.matrix).trace().as_fraction() > 0


def test_membership_vertices_on_boundary():
    fam = stabilizer_states(3, 1)
    for p in fam.projectors:
        inside, _ = polytope_membership(p, 3)
        assert inside


def test_random_convex_combinations_inside():
    rng = random.Random(12)
    fam = stabilizer_states(3, 1)
    for _ in range(10):
        weights = [Fraction(rng.randrange(0, 5)) for _ in fam.projectors]
        total = sum(weights)
        if total == 0:
            continue
        weights = [w / total for w in weights]
        acc = OpMatrix.zero(fam.projectors[0].m, 3)
        for w, p in zip(weights, fam.projectors):
            acc = acc + p.scale(w)
        inside, _ = polytope_membership(acc, 3)
        assert inside


def test_wigner_negative_state_rejected():
    from stabsym.cyclotomic import CycNumber

    rho = wigner_negative_state(3)
    assert rho.trace() == CycNumber.one(rho.m)
    assert rho.is_hermitian()
    inside, facet = polytope_membership(rho, 3)
    assert not inside
    assert facet is not None
    assert (rho @ facet.matrix).trace().as_fraction() < 0
