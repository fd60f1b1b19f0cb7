"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is exact (zero tolerance); runtime caps are enforced by the
stated budgets of the underlying searches.
"""

import random
import time
from fractions import Fraction

import numpy as np

from stabsym.clifford import WREATH_TABLE, k_alpha, real_clifford_orbit, verify_clifford_laws
from stabsym.cyclotomic import CycNumber, conductor_for, omega
from stabsym.moments import (
    check_lin_jor_condition,
    check_lin_wig_condition,
    is_complex_2design,
    is_complex_3design,
    is_real_4design,
    is_real_6design,
    phase_point_operator_set,
    rebit_operator_set,
    stabilizer_operator_set,
)
from stabsym.operators import stabilizer_states
from stabsym.permgroup import schreier_sims
from stabsym.phase_space import (
    all_vectors,
    enumerate_lagrangians,
    enumerate_stabilizer_labels,
    wreath_decompose,
)
from stabsym.polytope1 import facet_report
from stabsym.symmetry import (
    gram_automorphisms,
    predicted_group,
    verify_sf_sum,
    verify_theorem1,
)

from dense_oracles import (
    brute_force_lagrangians,
    bruteforce_gram,
    family_projectors,
    hs_inner,
    mono_trace_product,
    phase_point_mono,
    set_labels,
    symplectic_form,
    tau,
    transform_label,
    vec_add,
    weyl,
    weyl_mono,
)


def report(criterion, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_enumeration_counts():
    t0 = time.monotonic()
    expected = {(2, 1): (3, 6), (3, 1): (4, 12), (5, 1): (6, 30),
                (2, 2): (15, 60), (3, 2): (40, 360)}
    for (d, n), (nlag, nstates) in expected.items():
        lags = enumerate_lagrangians(d, n)
        _, index, reps = enumerate_stabilizer_labels(d, n)
        assert len(lags) == nlag == len(brute_force_lagrangians(d, n))
        assert len(index) == len(reps) == nstates
    elapsed = time.monotonic() - t0
    report(1, elapsed < 10, f"counts match brute force in {elapsed:.1f}s")


def test_criterion_2_operator_identities():
    t0 = time.monotonic()
    # composition and commutation: exhaustive at (3,1)
    d, n = 3, 1
    t, w = tau(d), omega(d)
    dense = {a: weyl(d, n, a) for a in all_vectors(d, 2)}
    for a in all_vectors(d, 2):
        for b in all_vectors(d, 2):
            s = symplectic_form(a, b, d)
            assert dense[a] @ dense[b] == dense[vec_add(a, b, d)].scale(t ** ((-s) % d))
            assert dense[a] @ dense[b] == (dense[b] @ dense[a]).scale(w ** ((-s) % d))
    # >= 500 seeded samples at (3,2) and (5,1)
    for d, n in ((3, 2), (5, 1)):
        rng = random.Random(500 + d)
        t, w = tau(d), omega(d)
        for _ in range(500):
            a = tuple(rng.randrange(d) for _ in range(2 * n))
            b = tuple(rng.randrange(d) for _ in range(2 * n))
            s = symplectic_form(a, b, d)
            ta, tb = weyl_mono(d, n, a), weyl_mono(d, n, b)
            ab = weyl_mono(d, n, vec_add(a, b, d))
            half = (d + 1) // 2  # tau = omega^half, so tau^(-s) shifts by half*(-s)
            assert ta @ tb == ab.phase_shift((half * (-s)) % d)
            assert ta @ tb == (tb @ ta).phase_shift((-s) % d)
    # orthonormality of T and A bases, exhaustive at (3,1) and (5,1),
    # fast monomial path cross-validated against dense traces on samples
    for d in (3, 5):
        dim = Fraction(d)
        m = conductor_for(d)
        points = list(all_vectors(d, 2))
        tmonos = {a: weyl_mono(d, 1, a) for a in points}
        amonos = {a: phase_point_mono(d, 1, a) for a in points}
        for a in points:
            for b in points:
                expected = CycNumber.from_fraction(m, dim if a == b else 0)
                assert mono_trace_product(tmonos[a].dagger(), tmonos[b]) == expected
                assert mono_trace_product(amonos[a].dagger(), amonos[b]) == expected
        rng = random.Random(d)
        for _ in range(40):
            a, b = rng.choice(points), rng.choice(points)
            assert mono_trace_product(tmonos[a].dagger(), tmonos[b]) == hs_inner(
                weyl(d, 1, a), weyl(d, 1, b))
    elapsed = time.monotonic() - t0
    report(2, elapsed < 60, f"exact operator identities in {elapsed:.1f}s")


def test_criterion_3_gram_formula_all_pairs_32():
    t0 = time.monotonic()
    fam = stabilizer_states(3, 2)
    brute = bruteforce_gram(family_projectors(fam))
    assert brute.size == fam.size == 360
    assert brute.values == fam.gram.values
    elapsed = time.monotonic() - t0
    report(3, elapsed < 600, f"closed form equals brute force on 360^2 pairs in {elapsed:.1f}s")


def test_criterion_4_theorem1_case1_wreath():
    t0 = time.monotonic()
    import math

    for d in (2, 3, 5):
        fam = stabilizer_states(d, 1)
        group = gram_automorphisms(fam.gram)
        assert group.order() == math.factorial(d) ** (d + 1) * math.factorial(d + 1)
        for g in group.generators:
            wreath_decompose(g, fam.blocks)  # raises if g scatters a basis block
        assert verify_theorem1(d, 1, "wreath")["match"]
    elapsed = time.monotonic() - t0
    report(4, elapsed < 300, f"wreath orders 48/31104/(5!)^6*6! certified in {elapsed:.1f}s")


def test_criterion_5_theorem1_case2_two_qubits():
    t0 = time.monotonic()
    result = verify_theorem1(2, 2, "extended_clifford")
    assert result["computed_order"] == 23040
    assert result["predicted_in_computed"] and result["computed_in_predicted"]
    elapsed = time.monotonic() - t0
    report(5, elapsed < 600, f"(2,2) group = extended Clifford, order 23040, in {elapsed:.1f}s")


def test_criterion_6_theorem1_case3_agsp_32():
    t0 = time.monotonic()
    d, n = 3, 2
    fam = stabilizer_states(d, n)
    labels = set_labels(fam)
    index = {lab: i for i, lab in enumerate(labels)}
    from stabsym.clifford import sp_generators

    zero = (0,) * (2 * n)
    eye = np.eye(2 * n, dtype=np.int64)
    sp_perms = [
        tuple(index[transform_label(lab, s, zero)] for lab in labels)
        for s in sp_generators(d, n)
    ]
    translation_perms = [
        tuple(index[transform_label(lab, eye, tuple(1 if i == k else 0 for i in range(2 * n)))]
              for lab in labels)
        for k in range(2 * n)
    ]
    k2_perm = tuple(index[transform_label(lab, k_alpha(d, n, 2), zero)] for lab in labels)
    # the library maps each Lagrangian once per generator; same permutations
    assert predicted_group(d, n, "agsp").generators == [*sp_perms, k2_perm, *translation_perms]
    # each factor certified independently by the engine
    sp_part = schreier_sims(sp_perms, degree=fam.size)
    assert sp_part.order() == 51840
    trans_part = schreier_sims(translation_perms, degree=fam.size)
    assert trans_part.order() == 81
    affine_sp = schreier_sims(sp_perms + translation_perms, degree=fam.size)
    assert affine_sp.order() == 81 * 51840
    assert not affine_sp.contains(k2_perm)  # the similitude factor is genuinely new
    result = verify_theorem1(d, n, "agsp")
    assert result["computed_order"] == 8398080 == 81 * 51840 * 2
    assert result["predicted_in_computed"] and result["computed_in_predicted"]
    elapsed = time.monotonic() - t0
    report(6, elapsed < 1800, f"(3,2) group = AGSp, order 8398080 = 81*51840*2, in {elapsed:.1f}s")


def test_criterion_7_theorem1_case4_rebits():
    t0 = time.monotonic()
    result = verify_theorem1(2, 2, "real_clifford")
    assert result["match"]
    orbit = real_clifford_orbit(2)
    assert result["computed_order"] == predicted_group(2, 2, "real_clifford").order()
    assert orbit.size == 24
    elapsed = time.monotonic() - t0
    report(7, elapsed < 600,
           f"rebit n=2 Gram group = real Clifford action ({result['computed_order']}) in {elapsed:.1f}s")


def test_criterion_8_design_predicates():
    t0 = time.monotonic()
    for d, n in ((3, 1), (3, 2), (5, 1)):
        q = stabilizer_operator_set(d, n)
        assert is_complex_2design(q).passed
        r3 = is_complex_3design(q)
        assert not r3.passed and r3.witness is not None
    for n in (1, 2):
        assert is_complex_3design(stabilizer_operator_set(2, n)).passed
    for n in (1, 2):
        q = rebit_operator_set(n)
        r4, r6 = is_real_4design(q), is_real_6design(q)
        assert r4.passed and all(v > 0 for v in r4.constants.values())
        assert r6.passed and all(v > 0 for v in r6.constants.values())
    elapsed = time.monotonic() - t0
    report(8, elapsed < 300, f"design predicates exact in {elapsed:.1f}s")


def test_criterion_9_condition_checkers():
    t0 = time.monotonic()
    # odd-prime stabilizers: Lin in Wig only
    for d, n in ((3, 1), (5, 1), (3, 2)):
        q = stabilizer_operator_set(d, n)
        assert check_lin_wig_condition(q)["pass"]
        assert not check_lin_jor_condition(q)["pass"]
    # qubit stabilizers and rebits: both
    for q in (stabilizer_operator_set(2, 1), stabilizer_operator_set(2, 2),
              rebit_operator_set(1), rebit_operator_set(2)):
        assert check_lin_wig_condition(q)["pass"]
        assert check_lin_jor_condition(q)["pass"]
    # phase-space point operators at (3,1): first only
    q = phase_point_operator_set(3, 1)
    assert check_lin_wig_condition(q)["pass"]
    assert not check_lin_jor_condition(q)["pass"]
    elapsed = time.monotonic() - t0
    report(9, True, f"condition checkers clause-exact in {elapsed:.1f}s")


def test_criterion_10_clifford_laws():
    t0 = time.monotonic()
    # all Weyl pairs; 100 seeded samples each of the metaplectic and the
    # extended-Clifford composition laws; the Galois action on every A(x) and
    # transposition as K_{-1}, exhaustively
    laws = ("weyl_composition_law", "metaplectic_multiplicative",
            "ext_clifford_composition_law", "galois_action_on_phase_points",
            "transpose_is_k_minus_one")
    for d in (3, 5):
        result = verify_clifford_laws(d, 1, seed=1000 + d, samples=100)
        assert sorted(result["checks"]) == sorted(laws)
        assert all(result["checks"][law]["pass"] for law in laws) and result["pass"]
        assert result["checks"]["weyl_composition_law"]["pairs"] == d ** 4
    # the single-qubit generator table, row for row
    result = verify_clifford_laws(2, 1, seed=1002, samples=100)
    assert result["checks"]["wreath_table"] == {"pass": True, "rows": WREATH_TABLE}
    assert result["pass"]
    elapsed = time.monotonic() - t0
    report(10, elapsed < 300, f"Clifford laws exact in {elapsed:.1f}s")


def test_criterion_11_n1_geometry():
    t0 = time.monotonic()
    result = facet_report(3)
    assert result["direct_sum"]["pass"]
    assert result["facet_count"] == 81
    assert result["supporting"]  # every facet's minimum over the vertices is 0
    assert result["vertices_per_facet"] == [8]
    assert not result["wigner_negative_state_inside"]
    assert result["violated_facet_characters"] is not None
    assert result["pass"]
    elapsed = time.monotonic() - t0
    report(11, elapsed < 60, f"n=1 geometry exact in {elapsed:.1f}s")


def test_criterion_12_sf_sum_rule():
    t0 = time.monotonic()
    # every b at (3,1) and at (3,2); one C for every b
    assert verify_sf_sum(3, 1, seed=777, samples=50) == {"tested_b": 9, "C": "1", "pass": True}
    assert verify_sf_sum(3, 2, seed=777, samples=50) == {"tested_b": 81, "C": "4", "pass": True}
    elapsed = time.monotonic() - t0
    report(12, True, f"C = 1 at (3,1), C = 4 at (3,2), independent of b, in {elapsed:.1f}s")
