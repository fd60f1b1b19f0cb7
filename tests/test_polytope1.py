import random
from fractions import Fraction

import pytest

from stabsym import polytope1
from stabsym.errors import BudgetExceeded, Mismatch
from stabsym.operators import OpMatrix, hs_inner, stabilizer_states
from stabsym.polytope1 import (
    MAX_FACET_D,
    direct_sum_check,
    facet_report,
    polytope_membership,
    wigner_negative_state,
)
from stabsym.phase_space import basis_blocks

from dense_oracles import (
    dense_facet_family,
    dense_incidence_counts,
    dense_line_sums_vanish,
    dense_membership,
    dense_overlap_table,
    is_hermitian,
    shifted_vertices,
)


def test_shifted_vertices_traceless_hermitian():
    for v in shifted_vertices(3):
        assert v.matrix.trace().is_zero()
        assert is_hermitian(v.matrix)


def test_direct_sum_check_d3():
    report = direct_sum_check(3)
    assert report["overlap_table"] and report["line_sums_vanish"]
    assert report["blocks"] == 4
    assert dense_line_sums_vanish(3)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_overlap_table_equals_the_dense_shifted_vertex_traces(d):
    # the table read from the closed-form Gram against tr(pi_x pi_y) of the
    # dense shifted vertices, in the same (ints, scale) lowest terms
    ints, scale = polytope1._overlap_table(d)
    dense, dense_scale = dense_overlap_table(d)
    assert scale == dense_scale == d
    assert ints.tolist() == dense.tolist()


def test_direct_sum_check_d5():
    report = direct_sum_check(5)
    assert report["overlap_table"] and report["line_sums_vanish"]
    assert report["blocks"] == 6
    assert dense_line_sums_vanish(5)


def test_direct_sum_check_witness_is_first_failing_pair(monkeypatch):
    # the overlap table read through a corrupted copy: two wrong entries,
    # the first in row-major order is the witness
    ints, scale = polytope1._overlap_table(3)
    bad = ints.copy()
    bad[7, 2] += 1
    bad[2, 9] += 1
    monkeypatch.setattr(polytope1, "_overlap_table", lambda d: (bad, scale))
    with pytest.raises(Mismatch, match=r"overlap table violated at \(2, 9\)") as exc:
        direct_sum_check(3)
    assert exc.value.witness == (2, 9, Fraction(bad[2, 9], scale))


def test_shifted_overlap_diagonal_value():
    verts = shifted_vertices(3)
    assert hs_inner(verts[0].matrix, verts[0].matrix).as_fraction() == Fraction(2, 3)


def test_facet_count_d3():
    assert len(dense_facet_family(3)) == 81
    assert facet_report(3)["facet_count"] == 81


def test_facets_budget():
    assert MAX_FACET_D == 11
    with pytest.raises(BudgetExceeded, match="odd d <= 11"):
        facet_report(13)


def test_facets_support_with_eight_incident_vertices():
    counts = dense_incidence_counts(3)
    for zeros, minimum in counts:
        assert minimum == 0
        assert zeros == 8  # (d-1)(d+1)
    report = facet_report(3)
    assert report["supporting"] and report["vertices_per_facet"] == [8]


def test_facet_trace_by_hs_inner_matches_dense_trace():
    # the facet operators are Hermitian, so tr(X P) = (X|P) for every pair
    fam = stabilizer_states(3, 1)
    rho = wigner_negative_state(3)
    for facet in dense_facet_family(3):
        assert is_hermitian(facet.matrix)
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
    for f in dense_facet_family(3):
        assert (center @ f.matrix).trace().as_fraction() > 0


def test_membership_vertices_on_boundary():
    fam = stabilizer_states(3, 1)
    for p in fam.projectors:
        inside, _ = polytope_membership(p, 3)
        assert inside


def _combination(weights, mats):
    acc = OpMatrix.zero(mats[0].m, mats[0].dim)
    for w, p in zip(weights, mats):
        acc = acc + p.scale(w)
    return acc


def test_random_convex_combinations_inside():
    rng = random.Random(12)
    fam = stabilizer_states(3, 1)
    for _ in range(10):
        weights = [Fraction(rng.randrange(0, 5)) for _ in fam.projectors]
        total = sum(weights)
        if total == 0:
            continue
        weights = [w / total for w in weights]
        inside, _ = polytope_membership(_combination(weights, fam.projectors), 3)
        assert inside


def test_membership_matches_dense_oracle():
    # trace-1 affine combinations of the vertices and the Wigner-negative
    # state, some weights negative: membership and the first violated facet
    # agree with one hs_inner per facet
    rng = random.Random(5)
    mats = [*stabilizer_states(3, 1).projectors, wigner_negative_state(3)]
    verdicts = []
    for _ in range(60):
        weights = [Fraction(rng.randrange(-2, 6)) for _ in mats]
        total = sum(weights)
        if total == 0:
            continue
        a = _combination([w / total for w in weights], mats)
        inside, facet = dense_membership(a, 3)
        assert polytope_membership(a, 3) == (inside, None if inside else facet.characters)
        verdicts.append(inside)
    assert 10 <= verdicts.count(True) and 10 <= verdicts.count(False)


def test_wigner_negative_state_rejected():
    from stabsym.cyclotomic import CycNumber

    rho = wigner_negative_state(3)
    assert rho.trace() == CycNumber.one(rho.m)
    assert is_hermitian(rho)
    inside, characters = polytope_membership(rho, 3)
    assert not inside
    assert characters is not None
    facet = next(f for f in dense_facet_family(3) if f.characters == characters)
    assert (rho @ facet.matrix).trace().as_fraction() < 0
