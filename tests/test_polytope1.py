import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from stabsym import cyclotomic, operators, polytope1
from stabsym.cyclotomic import CycNumber, conductor_for
from stabsym.errors import BudgetExceeded, Mismatch
from stabsym.operators import OpMatrix, stabilizer_states
from stabsym.polytope1 import (
    direct_sum_check,
    facet_report,
    polytope_membership,
    wigner_negative_state,
)

from dense_oracles import (
    dense_facet_family,
    dense_incidence_counts,
    dense_line_sums_vanish,
    dense_membership,
    dense_overlap_table,
    dense_wigner,
    family_projectors,
    hermitian_basis,
    hs_inner,
    is_hermitian,
    phase_point,
    set_labels,
    shifted_vertices,
    stab_projector,
    subset,
    trace_product,
    wigner_negative_matrix,
)

GOLDENS = Path(__file__).parent / "goldens"


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
    # d tr(pi_x pi_y) = d tr(Pi_x Pi_y) - 1 from the closed-form Gram's
    # codes and legend, against the dense shifted vertices' traces
    gram = stabilizer_states(d, 1).gram
    table = [[d * gram.legend[c] - 1 for c in row] for row in gram.codes.tolist()]
    dense, dense_scale = dense_overlap_table(d)
    assert dense_scale == d
    assert dense.tolist() == table


def test_direct_sum_check_d5():
    report = direct_sum_check(5)
    assert report["overlap_table"] and report["line_sums_vanish"]
    assert report["blocks"] == 6
    assert dense_line_sums_vanish(5)


def test_direct_sum_check_witness_is_first_failing_pair(monkeypatch):
    # the Gram read through a corrupted copy of its codes: two wrong entries,
    # the first in row-major order is the witness
    fam = stabilizer_states(3, 1)
    bad = fam.gram.codes.copy()
    bad[7, 2] += 1
    bad[2, 9] += 1
    corrupted = subset(fam)
    corrupted.gram = dataclasses.replace(fam.gram, codes=bad)
    monkeypatch.setattr(polytope1, "stabilizer_states", lambda d, n: corrupted)
    with pytest.raises(Mismatch, match=r"overlap table violated at \(2, 9\)") as exc:
        direct_sum_check(3)
    assert exc.value.witness == (2, 9, fam.gram.legend[bad[2, 9]] - Fraction(1, 3))


def test_shifted_overlap_diagonal_value():
    verts = shifted_vertices(3)
    assert hs_inner(verts[0].matrix, verts[0].matrix).as_fraction() == Fraction(2, 3)


def test_facet_count_d3():
    assert len(dense_facet_family(3)) == 81
    assert facet_report(3)["facet_count"] == 81


def test_facets_budget():
    # bounded by the phase-space cap alone: 67^2 > 4096
    with pytest.raises(BudgetExceeded, match=r"d\^\(2n\) = 4489 exceeds cap 4096"):
        facet_report(67)


def _violated_facet_value(d, characters):
    # tr(X_g rho) = sum_i tr(Pi_(g_i) rho) - 1 for X_g = sum_i Pi_(g_i) - 1,
    # from the d + 1 chosen dense projectors and the dense rho
    labels = set_labels(stabilizer_states(d, 1))
    rho = wigner_negative_matrix(d)
    return sum(trace_product(stab_projector(labels[g]), rho).as_fraction()
               for g in characters) - 1


@pytest.mark.parametrize("d", [13, 17, 23])
def test_facet_report_beyond_the_former_cap(d):
    report = facet_report(d)
    assert report["facet_count"] == d ** (d + 1)
    assert report["vertices_per_facet"] == [(d - 1) * (d + 1)]
    assert report["supporting"] and report["pass"]
    assert report["wigner_negative_state_inside"] is False
    characters = report["violated_facet_characters"]
    blocks = stabilizer_states(d, 1).blocks
    assert [next(b for b, block in enumerate(blocks) if g in block) for g in characters] \
        == list(range(d + 1))
    assert _violated_facet_value(d, characters) < 0


def test_facets_support_with_eight_incident_vertices():
    counts = dense_incidence_counts(3)
    for zeros, minimum in counts:
        assert minimum == 0
        assert zeros == 8  # (d-1)(d+1)
    report = facet_report(3)
    assert report["supporting"] and report["vertices_per_facet"] == [8]


@pytest.mark.parametrize("d", [3, 11])
def test_facet_report_builds_without_dense_kernels(monkeypatch, d):
    # no projector, phase point or dense product: the Gram's codes and the
    # Wigner function give the whole report
    def dense(*args, **kwargs):
        raise AssertionError("dense kernel called")

    monkeypatch.setattr(OpMatrix, "_set", dense)  # behind every OpMatrix built
    monkeypatch.setattr(cyclotomic._Field, "contract", dense)
    monkeypatch.setattr(OpMatrix, "__matmul__", dense)
    # a fresh set, whose Gram is built when the report reads it
    monkeypatch.setattr(polytope1, "stabilizer_states", operators.stabilizer_set.__wrapped__)
    expected = json.loads((GOLDENS / f"facets_d{d}_n1.json").read_text())
    assert {"command": "facets", "d": d, "n": 1, **facet_report(d)} == expected


def test_facet_trace_by_hs_inner_matches_dense_trace():
    # the facet operators are Hermitian, so tr(X P) = (X|P) for every pair
    projs = family_projectors(stabilizer_states(3, 1))
    rho = wigner_negative_matrix(3)
    for facet in dense_facet_family(3):
        assert is_hermitian(facet.matrix)
        for p in (*projs, rho):
            assert hs_inner(facet.matrix, p) == (facet.matrix @ p).trace()


def test_self_duality_of_simplex_blocks():
    # within a line's span, facet normals of the simplex are its own vertices:
    # tr(pi_g pi_h) = -1/d for g != h and (d-1)/d on the diagonal realizes
    # the self-dual inequality tr(pi_g X) >= -1/d with equality off-diagonal
    d = 3
    verts = shifted_vertices(d)
    blocks = stabilizer_states(d, 1).blocks
    for block in blocks:
        for i in block:
            for j in block:
                v = hs_inner(verts[i].matrix, verts[j].matrix).as_fraction()
                assert v == (Fraction(d - 1, d) if i == j else Fraction(-1, d))


@pytest.mark.parametrize("d", [3, 5, 7])
def test_wigner_negative_state_is_the_dense_wigner_function(d):
    rho = wigner_negative_matrix(d)
    assert rho.trace() == CycNumber.one(rho.m) and is_hermitian(rho)
    w = wigner_negative_state(d)
    assert w == dense_wigner(rho, d)
    assert w == tuple(hs_inner(phase_point(d, 1, x), rho).as_fraction()
                      for x, _ in hermitian_basis(d, 1))


def test_membership_center_inside():
    center = OpMatrix.identity(conductor_for(3), 3).scale(Fraction(1, 3))
    inside, facet = polytope_membership(dense_wigner(center, 3), 3)
    assert inside and facet is None
    # the center is strictly inside: all inner products positive
    for f in dense_facet_family(3):
        assert (center @ f.matrix).trace().as_fraction() > 0


def test_membership_vertices_on_boundary():
    for p in family_projectors(stabilizer_states(3, 1)):
        inside, _ = polytope_membership(dense_wigner(p, 3), 3)
        assert inside


def _combination(weights, mats):
    acc = OpMatrix.zero(mats[0].m, mats[0].dim)
    for w, p in zip(weights, mats):
        acc = acc + p.scale(w)
    return acc


def test_random_convex_combinations_inside():
    rng = random.Random(12)
    projs = family_projectors(stabilizer_states(3, 1))
    for _ in range(10):
        weights = [Fraction(rng.randrange(0, 5)) for _ in projs]
        total = sum(weights)
        if total == 0:
            continue
        weights = [w / total for w in weights]
        inside, _ = polytope_membership(dense_wigner(_combination(weights, projs), 3), 3)
        assert inside


def test_membership_matches_dense_oracle():
    # trace-1 affine combinations of the vertices and the Wigner-negative
    # state, some weights negative: membership and the first violated facet
    # agree with one hs_inner per facet
    rng = random.Random(5)
    mats = [*family_projectors(stabilizer_states(3, 1)), wigner_negative_matrix(3)]
    verdicts = []
    for _ in range(60):
        weights = [Fraction(rng.randrange(-2, 6)) for _ in mats]
        total = sum(weights)
        if total == 0:
            continue
        a = _combination([w / total for w in weights], mats)
        inside, facet = dense_membership(a, 3)
        assert polytope_membership(dense_wigner(a, 3), 3) == \
            (inside, None if inside else facet.characters)
        verdicts.append(inside)
    assert 10 <= verdicts.count(True) and 10 <= verdicts.count(False)


def test_wigner_negative_state_rejected():
    inside, characters = polytope_membership(wigner_negative_state(3), 3)
    assert not inside
    assert characters is not None
    rho = wigner_negative_matrix(3)
    facet = next(f for f in dense_facet_family(3) if f.characters == characters)
    assert (rho @ facet.matrix).trace().as_fraction() < 0


@pytest.mark.parametrize("w,message", [
    ((Fraction(1, 3),) * 8, "has 9 entries, not 8"),
    ((1,) * 8 + (0.0,), "values must be rational"),
    ((1,) * 8 + (CycNumber.zero(conductor_for(3)),), "values must be rational"),
    ((1,) * 9, "trace 3 is not 1"),
], ids=["length", "float", "cyclotomic", "trace"])
def test_membership_rejects_what_is_not_a_trace_one_wigner_function(w, message):
    with pytest.raises(ValueError, match=message):
        polytope_membership(w, 3)
