import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

import stabsym
from stabsym import clifford, cyclotomic
from stabsym.clifford import (
    WREATH_TABLE,
    ExtCliffordElement,
    PhaseStack,
    _weyl_law,
    is_symplectic,
    k_alpha,
    _metaplectic,
    metaplectic,
    nonzero_point_perms,
    primitive_root,
    products_equal,
    qubit_gate_action,
    real_clifford_closure,
    real_clifford_orbit,
    similitude_multiplier,
    sl2_elements,
    sp_generators,
    sp_order_formula,
    transpose_action,
    transvection,
    verify_clifford_laws,
    wreath_decompose_table,
)
from stabsym.cyclotomic import (
    CycNumber,
    GaloisMap,
    conductor_for,
    gauss_sum,
    omega,
    root_of_unity,
)
from stabsym.errors import BudgetExceeded, Mismatch, OddOnly, WordDecompositionFailure
from stabsym.moments import trace_table
from stabsym.operators import OpMatrix, stabilizer_set, stabilizer_states
from stabsym.phase_space import (
    MAX_ENTRIES,
    all_vectors,
    code_points,
    enumerate_lagrangians,
    enumerate_stabilizer_labels,
    label_permutations,
    point_codes,
)

import dense_oracles
from dense_oracles import (
    LagrangianSubspace,
    Mono,
    Similitude,
    StabilizerLabel,
    concat,
    dense,
    dense_metaplectic,
    dense_real_clifford_orbit,
    ext_apply,
    ext_compose,
    family_projectors,
    from_rational,
    label_objects,
    matrix_apply,
    matrix_point_perm,
    phase_point,
    phase_point_mono,
    qubit_gate,
    real_clifford_closure_reference,
    real_gates,
    set_labels,
    similitude_multiplier_loop,
    stab_projector,
    symplectic_form,
    tau,
    transform_labels,
    vec_add,
    weyl,
    weyl_law_pairwise,
    weyl_mono,
)
from stabsym.zmod import inv_mod, legendre


def _random_sl2(d, rng):
    return np.array(rng.choice(sl2_elements(d)))


def _section(d, s):
    """The dense expansion of the phase table U_S."""
    return dense(metaplectic(d, s))


@pytest.mark.parametrize("d,n,order", [(3, 1, 24), (2, 2, 720), (3, 2, 51840)])
def test_sp_orders(d, n, order):
    assert sp_order_formula(d, n) == order
    sp_generators(d, n)  # a Mismatch unless their chain reaches the formula


@pytest.mark.parametrize("d,n", [(3, 1), (5, 1), (2, 2), (3, 2)])
def test_sp_generators_generate_sp_by_sympy(d, n):
    # an independent chain: sympy's order of the certified generators on the
    # nonzero points is |Sp(2n, d)|, which the random chain reached
    perms = nonzero_point_perms(sp_generators(d, n), d, n)
    group = PermutationGroup([Permutation(list(p)) for p in perms])
    assert group.order() == sp_order_formula(d, n)


@pytest.mark.parametrize("d,n", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_point_perms_match_matrix_point_perm(d, n):
    # one integer product per generator, indexed by code - 1, gives the
    # permutation of the nonzero points that maps them one tuple at a time
    points = [v for v in all_vectors(d, 2 * n) if any(v)]
    gens = sp_generators(d, n)
    assert nonzero_point_perms(gens, d, n) == [matrix_point_perm(g, points, d) for g in gens]


@pytest.mark.parametrize("d,n", [(3, 1), (5, 1), (3, 2)])
def test_k_conjugation_matches_the_matrix_products(d, n):
    # K_beta S K_beta^-1 by block scaling, and K_beta a, as in the composition laws
    rng = random.Random(11)
    for _ in range(20):
        s = np.array([[rng.randrange(d) for _ in range(2 * n)] for _ in range(2 * n)])
        a = tuple(rng.randrange(d) for _ in range(2 * n))
        beta = rng.randrange(1, d)
        kb, kb_inv = k_alpha(d, n, beta), k_alpha(d, n, inv_mod(beta, d))
        assert np.array_equal(clifford._k_conjugate(s, beta, d), kb @ s @ kb_inv % d)
        assert tuple(x % d for x in clifford._k_apply(beta, a)) == matrix_apply(kb, a, d)


@pytest.fixture
def fresh_sp_generators():
    sp_generators.cache_clear()
    yield
    sp_generators.cache_clear()


def test_sp_generators_refuse_a_wrong_order(monkeypatch, fresh_sp_generators):
    monkeypatch.setattr(clifford, "sp_order_formula", lambda d, n: 25)
    with pytest.raises(Mismatch, match=r"order 24, not \|Sp\(2, 3\)\|") as exc:
        sp_generators(3, 1)
    assert exc.value.witness == 24


def test_sp_generators_refuse_a_non_symplectic_generator(monkeypatch, fresh_sp_generators):
    monkeypatch.setattr(clifford, "is_symplectic", lambda m, d: False)
    with pytest.raises(Mismatch, match="not symplectic"):
        sp_generators(3, 1)


def test_sp_generators_certify_under_python_O():
    # `python -O` strips asserts; the certificate must still refuse
    code = ("from stabsym import clifford\n"
            "clifford.sp_order_formula = lambda d, n: 25\n"
            "try:\n    clifford.sp_generators(3, 1)\n"
            "except clifford.Mismatch:\n    print('refused')\n")
    env = dict(os.environ, PYTHONPATH=str(Path(stabsym.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout == "refused\n"


def test_transvections_are_symplectic():
    for d, n in ((3, 2), (5, 1), (2, 2)):
        for v in list(all_vectors(d, 2 * n))[1:6]:
            assert similitude_multiplier(transvection(v, d), d) == 1


def test_k_alpha_is_similitude():
    for d in (3, 5, 7):
        for alpha in range(1, d):
            assert similitude_multiplier(k_alpha(d, 1, alpha), d) == alpha
    assert similitude_multiplier(k_alpha(5, 2, 3), 5) == 3


def test_similitude_factorization():
    d = 5
    rng = random.Random(0)
    for _ in range(10):
        s = _random_sl2(d, rng)
        alpha = rng.randrange(1, d)
        r = s @ k_alpha(d, 1, alpha) % d
        sim = Similitude.from_matrix(r, d)
        assert sim.alpha == alpha
        assert np.array_equal(sim.symplectic_part @ k_alpha(d, 1, alpha) % d, r)


def test_metaplectic_identity():
    for d in (3, 5):
        u = _section(d, np.eye(2, dtype=np.int64))
        assert u == OpMatrix.identity(conductor_for(d), d)


def test_metaplectic_fourier_d3():
    d = 3
    s = np.array([[0, -1], [1, 0]])
    u = _section(d, s)
    # U = (omega^{jk})/g with g the Gauss sum i*sqrt(3); verify action instead of phases
    for b in all_vectors(d, 2):
        assert u @ weyl(d, 1, b) @ u.dagger() == weyl(d, 1, matrix_apply(s, b, d))
    # matrix entries are omega^{jk} / (i sqrt 3) up to the canonical phase; check |entry|^2 = 1/3
    e = u.rows[0][0]
    assert (e.conj() * e) == CycNumber.from_fraction(conductor_for(3), Fraction(1, 3))


@pytest.mark.parametrize("d", [3, 5])
def test_metaplectic_conjugation_postcondition_all(d):
    rng = random.Random(d)
    table = sl2_elements(d)
    sample = table if d == 3 else rng.sample(table, 12)
    for rows in sample:
        u = _section(d, rows)
        assert u.dagger() @ u == OpMatrix.identity(conductor_for(d), d)
        for b in all_vectors(d, 2):
            assert u @ weyl(d, 1, b) @ u.dagger() == weyl(d, 1, matrix_apply(rows, b, d))


@pytest.mark.parametrize("d", [3, 5])
def test_metaplectic_multiplicative(d):
    rng = random.Random(41)
    for _ in range(50):
        s1, s2 = _random_sl2(d, rng), _random_sl2(d, rng)
        assert _section(d, s1) @ _section(d, s2) == _section(d, s1 @ s2 % d)


@pytest.mark.parametrize("d", [3, 5])
def test_metaplectic_galois_closure(d):
    rng = random.Random(17)
    for _ in range(20):
        s = _random_sl2(d, rng)
        for alpha in range(2, d):
            gal = GaloisMap(alpha, d)
            lhs = _section(d, s).entrywise_galois(gal)
            conj = k_alpha(d, 1, alpha) @ s @ k_alpha(d, 1, inv_mod(alpha, d)) % d
            assert lhs == _section(d, conj)
            assert dense(metaplectic(d, s).galois([alpha])) == lhs


def _fourier(d):
    """F = g_d^{-1} (omega^{jk})."""
    m = conductor_for(d)
    ginv = gauss_sum(d).inverse()
    return OpMatrix(m, [[root_of_unity(m, (m // d) * (j * k % d)) * ginv for k in range(d)]
                        for j in range(d)])


def _multiplier(d, g):
    """M_g = L(g) sum_q |gq><q|."""
    m = conductor_for(d)
    rows = [[CycNumber.zero(m)] * d for _ in range(d)]
    for q in range(d):
        rows[g * q % d][q] = CycNumber.from_fraction(m, legendre(g, d))
    return OpMatrix(m, rows)


def _shear(d):
    """D_1 = diag(tau^{q^2})."""
    m = conductor_for(d)
    rows = [[CycNumber.zero(m)] * d for _ in range(d)]
    for q in range(d):
        rows[q][q] = tau(d) ** (q * q % d)
    return OpMatrix(m, rows)


@pytest.mark.parametrize("d", [3, 5, 7, 11])
def test_metaplectic_pins_the_standard_generators(d):
    # the closed form at [[0,-1],[1,0]], diag(g, g^-1) and [[1,0],[1,1]] is
    # the hand-built Fourier, multiplier and shear matrix; the Fourier value
    # carries the sign L(-2), so F itself is in the section only for
    # d = 1, 3 mod 8 (here d = 3, 11)
    assert _section(d, [[0, -1], [1, 0]]) == _fourier(d).scale(legendre(-2, d))
    for g in range(1, d):
        assert _section(d, [[g, 0], [0, inv_mod(g, d)]]) == _multiplier(d, g)
    assert _section(d, [[1, 0], [1, 1]]) == _shear(d)


def test_metaplectic_multiplicative_on_all_pairs_d3():
    d = 3
    section = {rows: _section(d, rows) for rows in sl2_elements(d)}
    assert len(section) == sp_order_formula(d, 1)
    for r1, u1 in section.items():
        for r2, u2 in section.items():
            assert u1 @ u2 == section[tuple(map(tuple, (np.array(r1) @ r2 % d).tolist()))]


@pytest.mark.parametrize("d,pairs", [(7, 6), (11, 3)])
def test_metaplectic_laws_sampled_at_larger_d(d, pairs):
    # unitarity, the conjugation postcondition and multiplicativity on sampled
    # pairs, where all pairs would take minutes
    rng = random.Random(d)
    ident = OpMatrix.identity(conductor_for(d), d)
    assert len(sl2_elements(d)) == sp_order_formula(d, 1)
    for _ in range(pairs):
        s1, s2 = _random_sl2(d, rng), _random_sl2(d, rng)
        u1 = _section(d, s1)
        assert u1.dagger() @ u1 == ident
        for b in ((1, 0), (0, 1), (rng.randrange(d), rng.randrange(d))):
            assert u1 @ weyl(d, 1, b) @ u1.dagger() == weyl(d, 1, matrix_apply(s1, b, d))
        assert u1 @ _section(d, s2) == _section(d, s1 @ s2 % d)


def test_metaplectic_rejects_nonsymplectic():
    with pytest.raises(WordDecompositionFailure):
        metaplectic(3, [[1, 1], [1, 1]])
    with pytest.raises(WordDecompositionFailure):
        metaplectic(11, [[2, 0], [0, 2]])  # det 4: a similitude
    with pytest.raises(OddOnly):
        metaplectic(2, [[1, 0], [0, 1]])


def test_transpose_realizes_k_minus_one_d3():
    # C T(aX, aZ) C^{-1} = T(aX, -aZ); conjugation by the antiunitary C acts
    # on matrices as entrywise complex conjugation
    d = 3
    for a in all_vectors(d, 2):
        assert weyl(d, 1, a).conj() == weyl(d, 1, (a[0], (-a[1]) % d))


def test_ext_identity_action():
    d = 3
    e = ExtCliffordElement.identity(d)
    x = phase_point(d, 1, (1, 2))
    assert ext_apply(e, x) == x


def test_galois_action_on_phase_points_exhaustive_d5():
    d = 5
    for alpha in range(2, d):
        e = ExtCliffordElement(mu=0, a=(0, 0), S=np.eye(2, dtype=np.int64), alpha=alpha, d=d)
        ka = k_alpha(d, 1, alpha)
        for x in all_vectors(d, 2):
            assert ext_apply(e, phase_point(d, 1, x)) == phase_point(d, 1, matrix_apply(ka, x, d))


@pytest.mark.parametrize("d", [3, 5, 7])
def test_mono_galois_is_the_entrywise_galois_map(d):
    # verify_clifford_laws checks C_alpha on A(x) as the monomial map
    # expo -> alpha expo; the dense entrywise map is its oracle
    for alpha in range(1, d):
        gal = GaloisMap(alpha, d)
        for x in all_vectors(d, 2):
            mono = phase_point_mono(d, 1, x)
            assert mono.galois(gal).to_matrix() == mono.to_matrix().entrywise_galois(gal)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_mono_conjugation_is_the_dense_conjugate(d):
    # verify_clifford_laws reads the entrywise conjugate of T(a) as the
    # monomial Galois map alpha = d - 1; the dense conjugate is its oracle
    conj = GaloisMap(d - 1, d)
    for a in all_vectors(d, 2):
        assert weyl_mono(d, 1, a).galois(conj).to_matrix() == weyl(d, 1, a).conj()
    # negative control: T(1, 1) is not its own conjugate
    assert weyl_mono(d, 1, (1, 1)).galois(conj) != weyl_mono(d, 1, (1, 1))


@pytest.mark.parametrize("d", [3, 5, 7])
def test_metaplectic_cache_keys_on_s_mod_d(d):
    # one cached U_S per (d, S mod d), whatever form S takes
    rng = random.Random(d)
    for _ in range(10):
        rows = rng.choice(sl2_elements(d))
        lifted = [[x + d * rng.randrange(-3, 4) for x in row] for row in rows]
        forms = [np.array(rows), [list(r) for r in rows], rows, lifted, np.array(lifted)]
        first = metaplectic(d, forms[0])
        assert all(metaplectic(d, s) is first for s in forms)
        assert dense(first) == dense(_metaplectic.__wrapped__(d, rows))  # as if built afresh
        assert dense(first).dagger() @ dense(first) == OpMatrix.identity(conductor_for(d), d)
        (a, b), _ = rows
        assert (first.sign.tolist(), first.gauss.tolist()) == (
            [legendre(2 * b if b else a, d)], [int(b != 0)])
        assert len(first) == 1
        assert not (first.sign.flags.writeable or first.gauss.flags.writeable
                    or first.expo.flags.writeable)


def test_ext_matrix_is_phase_times_weyl_times_section():
    # ExtCliffordElement.matrix() folds the monomial omega^mu T(a) into the
    # rows of U_S; the dense product with omega^mu as a scalar is its oracle
    d = 5
    rng = random.Random(4)
    for _ in range(20):
        e = ExtCliffordElement(mu=rng.randrange(-d, 2 * d), a=(rng.randrange(d), rng.randrange(d)),
                               S=rng.choice(sl2_elements(d)), alpha=1, d=d)
        product = (weyl(d, 1, e.a) @ _section(d, e.S)).scale(omega(d) ** (e.mu % d))
        assert dense(e.matrix()) == product


def test_clifford_affine_action_on_phase_points():
    # with the T(a)T(b) = tau^{-[a,b]} T(a+b) convention, conjugation by T(a)
    # shifts phase-space points by -a, so T(-a) U_S realizes A(b) -> A(Sb + a)
    d = 5
    rng = random.Random(9)
    for _ in range(5):
        a = tuple(rng.randrange(d) for _ in range(2))
        s = _random_sl2(d, rng)
        u = weyl(d, 1, tuple((-x) % d for x in a)) @ _section(d, s)
        for x in list(all_vectors(d, 2))[:8]:
            got = u @ phase_point(d, 1, x) @ u.dagger()
            expected = phase_point(d, 1, vec_add(matrix_apply(s, x, d), a, d))
            assert got == expected


def test_ext_element_phase_space_action():
    # the quadruple (mu, a, S, alpha) acts on A(x) by x -> S K_alpha x - a
    d = 5
    rng = random.Random(29)
    for _ in range(5):
        e = _random_ext(d, rng)
        mat = np.array(e.S) @ k_alpha(d, 1, e.alpha)
        for x in list(all_vectors(d, 2))[:6]:
            got = ext_apply(e, phase_point(d, 1, x))
            target = tuple((m - ai) % d for m, ai in zip(matrix_apply(mat, x, d), e.a))
            assert got == phase_point(d, 1, target)


def _random_ext(d, rng):
    return ExtCliffordElement(
        mu=rng.randrange(d),
        a=tuple(rng.randrange(d) for _ in range(2)),
        S=_random_sl2(d, rng),
        alpha=rng.randrange(1, d),
        d=d,
    )


def test_ext_compose_identity():
    d = 5
    rng = random.Random(2)
    e = _random_ext(d, rng)
    assert ext_compose(ExtCliffordElement.identity(d), e) == e


def test_ext_element_reduces_every_field():
    # one element, one form: mu, a and alpha are reduced mod d as S is
    d = 5
    s = ((1, 0), (0, 1))
    e = ExtCliffordElement(mu=6, a=(7, -1), S=s, alpha=1, d=d)
    f = ExtCliffordElement(mu=1, a=(2, 4), S=s, alpha=1, d=d)
    assert (e.mu, e.a, e.alpha) == (1, (2, 4), 1)
    assert e == f and hash(e) == hash(f) and e.to_json() == f.to_json()
    assert ext_compose(ExtCliffordElement.identity(d), e) == e
    assert ExtCliffordElement(mu=0, a=(0, 0), S=s, alpha=7, d=d).alpha == 2


@pytest.mark.parametrize("a,alpha", [((0, 0), 0), ((0, 0), 5), ((0, 0, 0), 1), ((0,), 1),
                                     ((0.5, 0), 1)])
def test_ext_element_refuses_a_zero_alpha_or_a_bad_a(a, alpha):
    with pytest.raises(ValueError, match="alpha must be a unit|a must be 2 residues"):
        ExtCliffordElement(mu=0, a=a, S=((1, 0), (0, 1)), alpha=alpha, d=5)


@pytest.mark.parametrize("d", [3, 5])
def test_ext_compose_matches_matrix_product(d):
    rng = random.Random(100 + d)
    for _ in range(60):
        g = _random_ext(d, rng)
        h = _random_ext(d, rng)
        hg = ext_compose(h, g)
        lhs = dense(h.matrix()) @ dense(g.matrix()).entrywise_galois(h.galois())
        assert lhs == dense(hg.matrix())
        assert hg.alpha == (h.alpha * g.alpha) % d


def test_ext_compose_action_oracle_d3():
    d = 3
    rng = random.Random(5)
    for _ in range(25):
        g, h = _random_ext(d, rng), _random_ext(d, rng)
        hg = ext_compose(h, g)
        for x in list(all_vectors(d, 2))[:5]:
            sequential = ext_apply(h, ext_apply(g, phase_point(d, 1, x)))
            assert ext_apply(hg, phase_point(d, 1, x)) == sequential


def test_ext_compose_associative():
    d = 5
    rng = random.Random(8)
    for _ in range(50):
        a, b, c = (_random_ext(d, rng) for _ in range(3))
        assert ext_compose(ext_compose(a, b), c) == ext_compose(a, ext_compose(b, c))


def test_galois_conjugation_of_metaplectic_generators():
    # C_beta U_S C_beta^{-1} = U_{K_beta S K_beta^{-1}} as matrices
    d = 5
    rng = random.Random(4)
    for _ in range(10):
        s = _random_sl2(d, rng)
        for beta in range(2, d):
            gal = GaloisMap(beta, d)
            conj_s = k_alpha(d, 1, beta) @ s @ k_alpha(d, 1, inv_mod(beta, d)) % d
            assert _section(d, s).entrywise_galois(gal) == _section(d, conj_s)


def test_ext_compose_acts_on_points_as_the_composed_maps():
    # the (a, S, alpha) of hg acts on phase space as x -> S K_alpha x + a of
    # h applied after that of g, at every point of Z_d^2
    d = 5
    rng = random.Random(21)

    def act(e, x):
        return vec_add(matrix_apply(np.array(e.S) @ k_alpha(d, 1, e.alpha), x, d), e.a, d)

    for _ in range(100):
        g, h = _random_ext(d, rng), _random_ext(d, rng)
        hg = ext_compose(h, g)
        assert all(act(hg, x) == act(h, act(g, x)) for x in all_vectors(d, 2))


def test_qubit_gates_unitary_and_hadamard():
    h = qubit_gate(1, "H", 0)
    assert h @ h == OpMatrix.identity(8, 2)
    s = qubit_gate(1, "S", 0)
    assert s @ s == qubit_gate(1, "Z", 0)
    cz = qubit_gate(2, "CZ", 0, 1)
    assert cz @ cz == OpMatrix.identity(8, 4)
    # H X H = Z
    x, z = qubit_gate(1, "X", 0), qubit_gate(1, "Z", 0)
    assert h @ x @ h.dagger() == z


def test_real_orbit_n1():
    orbit = real_clifford_orbit(1)
    assert orbit.size == 4
    half = Fraction(1, 2)
    plus = from_rational(8, [[half, half], [half, half]])
    assert plus in family_projectors(orbit)


def test_real_orbit_closure():
    for n in (1, 2):
        orbit = real_clifford_orbit(n)
        projs = family_projectors(orbit)
        members = set(projs)
        for gate in real_gates(n):
            g = qubit_gate(n, *gate)
            for p in projs:
                assert g @ p @ g.dagger() in members
            labels = set_labels(orbit)
            assert set(transform_labels(labels, *qubit_gate_action(n, *gate))) == set(labels)


def test_real_orbit_n2_matches_rational_filter():
    # independent enumeration: qubit stabilizer projectors with all-rational entries
    orbit = real_clifford_orbit(2)
    rational = []
    for lab in set_labels(stabilizer_states(2, 2)):
        p = stab_projector(lab)
        if all(x.is_rational() for row in p.rows for x in row):
            rational.append(p)
    assert orbit.size == len(rational)
    assert set(family_projectors(orbit)) == set(rational)
    # the real states are those whose Lagrangian holds no odd number of Y factors
    real = {lab for lab in set_labels(stabilizer_states(2, 2))
            if all(sum(b[k] * b[2 + k] for k in range(2)) % 2 == 0 for b in lab.L.points())}
    assert set(set_labels(orbit)) == real


@pytest.mark.parametrize("n", [1, 2, 3])
def test_real_orbit_is_the_dense_breadth_first_orbit(n):
    # the same states in the same order: 4, 24 and 240 of them
    orbit = real_clifford_orbit(n)
    assert orbit.size == (4, 24, 240)[n - 1]
    assert family_projectors(orbit) == dense_real_clifford_orbit(n)


def rebit_count(n):
    """2^n prod_(k=1..n) (2^(k-1) + 1), the number of n-rebit stabilizer states."""
    return 2 ** n * math.prod(2 ** (k - 1) + 1 for k in range(1, n + 1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_real_closure_equals_the_closure_over_all_qubit_labels(n):
    # the real-Lagrangian test keeps the labels and generators of the orbit
    # walked through every qubit label
    family, gens = real_clifford_closure(n)
    assert (label_objects(*family), gens) == real_clifford_closure_reference(n)
    # its Lagrangians are the real ones, transposition fixing each basis row
    real = ~transpose_action(n)[2](enumerate_lagrangians(2, n).basis).any(-1)
    assert np.array_equal(family[0].basis, enumerate_lagrangians(2, n).basis[real])


@pytest.mark.parametrize("n", [1, 2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_rebit_count_and_first_label(n):
    # 4, 24, 240 and 4 320 rebits; the walk starts at |0...0>, the Z
    # Lagrangian with rep 0
    family, gens = real_clifford_closure(n)
    labels = label_objects(*family)
    assert len(labels) == len(set(labels)) == rebit_count(n) == clifford.rebit_count(n)
    assert all(sorted(g) == list(range(len(labels))) for g in gens)
    z_basis = LagrangianSubspace.from_rows(np.eye(2 * n, dtype=np.int64)[n:], 2)
    assert labels[0] == StabilizerLabel(z_basis, (0,) * (2 * n))


@pytest.mark.parametrize("n", [5, 6])
def test_rebit_closure_is_refused_by_its_count_before_listing(monkeypatch, n):
    # 146 880 rebits at n = 5: their Gram would pass MAX_ENTRIES, so no
    # label is listed; n = 4 (4 320^2 entries) runs, in the slow tier
    def enumerate_(*args):
        raise AssertionError("enumerated")

    monkeypatch.setattr(clifford, "enumerate_stabilizer_labels", enumerate_)
    assert clifford.rebit_count(n) == rebit_count(n)
    assert rebit_count(4) ** 2 <= MAX_ENTRIES < rebit_count(n) ** 2
    with pytest.raises(BudgetExceeded):
        real_clifford_closure(n)


@pytest.mark.parametrize("n", [2, 3])
def test_rebits_are_the_labels_with_no_trace_on_odd_y_paulis(n):
    # both ways: T(b) with odd b_X.b_Z is imaginary, so a real state has no
    # trace on it, and a state whose Lagrangian holds such a b has trace +-1
    fam = stabilizer_set(2, n)
    points = code_points(np.arange(4 ** n), 2, 2 * n)
    odd = (points[:, :n] * points[:, n:]).sum(-1) % 2 == 1
    silent = {lab for lab, zero in zip(set_labels(fam), ~trace_table(fam)[odd].any(0)) if zero}
    rebits = set(label_objects(*real_clifford_closure(n)[0]))
    assert silent == rebits


@pytest.mark.parametrize("n", [1, 2, 3])
def test_only_the_rebit_labels_are_permuted(monkeypatch, n):
    sizes = []

    def recording(lags, index, reps, maps):
        sizes.append(len(index))
        return label_permutations(lags, index, reps, maps)

    monkeypatch.setattr(clifford, "label_permutations", recording)
    clifford.real_clifford_closure.__wrapped__(n)
    assert sizes == [rebit_count(n)]


@pytest.mark.parametrize("n", [1, 2])
def test_label_maps_match_dense_conjugation_on_every_pauli(n):
    # U T(b) U^dagger = (-1)^eta(b) T(S b) on all 4^n Paulis, and
    # T(b)^T = (-1)^eta(b) T(b), eta taking all the points as one array
    points = list(all_vectors(2, 2 * n))
    gates = [(g, i) for g in ("H", "S", "Y", "Z") for i in range(n)]
    gates += [("CZ", 0, 1)] if n == 2 else []
    for gate in gates:
        s, a, eta = qubit_gate_action(n, *gate)
        assert a == (0,) * (2 * n)
        u = qubit_gate(n, *gate)
        for b, flip in zip(points, eta(np.array(points)).tolist()):
            image = weyl(2, n, matrix_apply(s, b, 2))
            assert u @ weyl(2, n, b) @ u.dagger() == (-image if flip else image), (gate, b)
    s, a, eta = transpose_action(n)
    for b, flip in zip(points, eta(np.array(points)).tolist()):
        assert weyl(2, n, b).transpose() == (-weyl(2, n, b) if flip else weyl(2, n, b))


def test_wreath_table_of_standard_generators():
    table = wreath_decompose_table()
    eye = {"X": "X", "Y": "Y", "Z": "Z"}
    assert table["complex_conjugation"] == {
        "outer": eye, "inner": {"X": "e", "Y": "t", "Z": "e"}}
    assert table["conjugation_by_Y"] == {
        "outer": eye, "inner": {"X": "t", "Y": "e", "Z": "t"}}
    assert table["conjugation_by_Z"] == {
        "outer": eye, "inner": {"X": "t", "Y": "t", "Z": "e"}}
    assert table["conjugation_by_H"] == {
        "outer": {"X": "Z", "Y": "Y", "Z": "X"}, "inner": {"X": "e", "Y": "t", "Z": "e"}}
    assert table["conjugation_by_S"] == {
        "outer": {"X": "Y", "Y": "X", "Z": "Z"}, "inner": {"X": "e", "Y": "t", "Z": "e"}}
    assert table == WREATH_TABLE


# ---------------------------------------------------------------------------
# Phase tables and the array checks, against dense and pairwise oracles

GOLDENS = Path(__file__).parent / "goldens"


@pytest.mark.parametrize("d", [3, 5, 7])
def test_phase_table_expands_to_the_dense_closed_form(d):
    for rows in sl2_elements(d):
        assert dense(metaplectic(d, rows)) == dense_metaplectic(d, rows)


def _section_triples(d, s1, s2):
    """(U_S1, U_S2, U_S1S2), where the law holds, and (U_S1, U_S2, U_S2S1),
    where it fails unless U_S1 and U_S2 commute; as rows of SL(2, d)."""
    a, b = np.array(s1), np.array(s2)
    return [(s1, s2, tuple(map(tuple, (p % d).tolist()))) for p in (a @ b, b @ a)]


def _agrees_on_sections(d, triple):
    (verdict,) = products_equal(*(metaplectic(d, rows) for rows in triple))
    x, y, z = (dense_metaplectic(d, rows) for rows in triple)
    assert verdict == (x @ y == z)
    return verdict


def _ext_triples(g, h):
    """(h, C_beta(g), hg) and (h, C_beta(g), gh) as stacks of one phase
    table, beta = h.alpha: the composition law and a wrong product."""
    y = g.matrix().galois([h.alpha])
    return [(h.matrix(), y, ext_compose(h, g).matrix()),
            (h.matrix(), y, ext_compose(g, h).matrix())]


def _agrees_on_ext(g, h, triple):
    x, y, z = triple
    dense_y = dense(g.matrix()).entrywise_galois(h.galois())
    assert dense(y) == dense_y
    (verdict,) = products_equal(x, y, z)
    assert verdict == (dense(x) @ dense_y == dense(z))
    return verdict


def test_products_equal_is_dense_equality_on_all_sl2_pairs_d3():
    d = 3
    verdicts = [_agrees_on_sections(d, t) for s1 in sl2_elements(d) for s2 in sl2_elements(d)
                for t in _section_triples(d, s1, s2)]
    assert len(verdicts) == 2 * 24 ** 2
    assert all(verdicts[::2]) and not all(verdicts[1::2])


@pytest.mark.parametrize("d", [5, 7])
def test_products_equal_is_dense_equality_on_sampled_pairs(d):
    rng = random.Random(d)
    sections = [_agrees_on_sections(d, t) for _ in range(200)
                for t in _section_triples(d, rng.choice(sl2_elements(d)),
                                          rng.choice(sl2_elements(d)))]
    assert all(sections[::2]) and not all(sections[1::2])
    laws = []
    for _ in range(200):
        g, h = _random_ext(d, rng), _random_ext(d, rng)
        laws += [_agrees_on_ext(g, h, t) for t in _ext_triples(g, h)]
    assert all(laws[::2]) and not all(laws[1::2])


def _moved(t, r, q):
    """The stack of one table t with expo[r, q] moved by 1 mod d (a zero
    entry, -1, becomes 1)."""
    expo = t.expo.copy()
    expo[0, r, q] = (expo[0, r, q] + 1) % t.d
    return PhaseStack(t.d, t.sign, t.gauss, expo)


def _flipped(t):
    return PhaseStack(t.d, -t.sign, t.gauss, t.expo)


def _stacks(triples):
    """The x, y and z of a list of triples of one-table stacks as three stacks."""
    return tuple(concat([t[k] for t in triples]) for k in range(3))


@pytest.mark.parametrize("d", [3, 5, 7])
def test_products_equal_rejects_a_moved_exponent_and_a_flipped_sign(d):
    rng = random.Random(50 + d)
    triples = [tuple(metaplectic(d, rows) for rows in _section_triples(
        d, rng.choice(sl2_elements(d)), rng.choice(sl2_elements(d)))[0]) for _ in range(11)]
    triples += [_ext_triples(_random_ext(d, rng), _random_ext(d, rng))[0] for _ in range(11)]
    for triple in triples:
        assert products_equal(*triple).all()
        for k in range(3):
            r, q = rng.randrange(d), rng.randrange(d)
            for bad in (_moved(triple[k], r, q), _flipped(triple[k])):
                args = triple[:k] + (bad,) + triple[k + 1:]
                assert not products_equal(*args).any()
                assert not dense(args[0]) @ dense(args[1]) == dense(args[2])
    # in a batch of 64 true triples, one moved exponent or one flipped scale
    # at any one position makes that triple, and so the batch, false
    triples += [_ext_triples(_random_ext(d, rng), _random_ext(d, rng))[0] for _ in range(42)]
    stacks = _stacks(triples)
    assert products_equal(*stacks).all()
    for i, triple in enumerate(triples):
        k, r, q = rng.randrange(3), rng.randrange(d), rng.randrange(d)
        for bad in (_moved(triple[k], r, q), _flipped(triple[k])):
            column = [t[k] for t in triples]
            column[i] = bad
            verdicts = products_equal(*stacks[:k], concat(column), *stacks[k + 1:])
            assert not verdicts.all()
            assert np.flatnonzero(~verdicts).tolist() == [i]


def _mixed_batch(d, rng, size):
    """size triples of one-table stacks in random order: section and extended
    Clifford triples, each law with its wrong product beside it."""
    triples = []
    while len(triples) < size:
        rows = _section_triples(d, rng.choice(sl2_elements(d)), rng.choice(sl2_elements(d)))
        triples += [tuple(metaplectic(d, s) for s in t) for t in rows]
        triples += _ext_triples(_random_ext(d, rng), _random_ext(d, rng))
    rng.shuffle(triples)
    return triples[:size]


@pytest.mark.parametrize("d", [3, 5, 7])
def test_batched_verdicts_are_dense_equality_per_triple(d):
    triples = _mixed_batch(d, random.Random(90 + d), 64)
    stacks = _stacks(triples)
    verdicts = products_equal(*stacks)
    assert verdicts.shape == (64,) and verdicts.dtype == bool
    assert verdicts.tolist() == [dense(x) @ dense(y) == dense(z) for x, y, z in triples]
    assert verdicts.any() and not verdicts.all()
    # the batch mixes several triples of Gauss-sum powers and of signs
    gauss, signs = (set(zip(*(getattr(t, name).tolist() for t in stacks)))
                    for name in ("gauss", "sign"))
    assert len(gauss) >= 4 and len(signs) >= 4


def test_products_equal_refuses_stacks_of_different_lengths():
    x = metaplectic(5, ((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="different lengths"):
        products_equal(x, x, concat([x, x]))


def _element_arrays(d, rng, size):
    """(mu, a, S, alpha) arrays of `size` random elements, with mu, a, S
    and alpha unreduced (S lifted by multiples of d)."""
    s = np.array([rng.choice(sl2_elements(d)) for _ in range(size)])
    return (np.array([rng.randrange(-2 * d, 3 * d) for _ in range(size)]),
            np.array([[rng.randrange(-2 * d, 3 * d) for _ in range(2)] for _ in range(size)]),
            s + d * np.array([[[rng.randrange(-2, 3) for _ in range(2)] for _ in range(2)]
                              for _ in range(size)]),
            np.array([rng.randrange(1, d) + d * rng.randrange(-2, 3) for _ in range(size)]))


def _element(d, arrays, i):
    mu, a, s, alpha = (x[i] for x in arrays)
    return ExtCliffordElement(mu=int(mu), a=tuple(a.tolist()), S=s, alpha=int(alpha), d=d)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_array_laws_are_the_dataclass_laws(d):
    # each row of the array composition, linear part and Galois image is
    # ext_compose, matrix() and matrix().galois() of the dataclass elements,
    # the last two stacks of one
    rng = random.Random(110 + d)
    g, h = _element_arrays(d, rng, 40), _element_arrays(d, rng, 40)
    hg = clifford._compose(d, h, g)
    parts = clifford._linear_parts(d, g[0], g[1], clifford._sections(d, g[2]))
    images = parts.galois(h[3])
    for i in range(40):
        ge, he = _element(d, g, i), _element(d, h, i)
        want = ext_compose(he, ge)
        got = (hg[0][i], tuple(hg[1][i].tolist()), tuple(map(tuple, hg[2][i].tolist())), hg[3][i])
        assert got == (want.mu, want.a, want.S, want.alpha)
        for stack, oracle in ((parts, ge.matrix()), (images, ge.matrix().galois([he.alpha]))):
            assert (stack.sign[i], stack.gauss[i]) == (oracle.sign[0], oracle.gauss[0])
            assert np.array_equal(stack.expo[i], oracle.expo[0])
            assert dense(stack, i) == dense(oracle)


class _RecordingRandom(random.Random):
    """random.Random that logs each randrange and choice call with its arguments."""

    def __init__(self, seed):
        self.log = []
        super().__init__(seed)

    def randrange(self, *args):
        self.log.append(("randrange", args))
        return super().randrange(*args)

    def choice(self, seq):
        self.log.append(("choice", seq))
        return super().choice(seq)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_verify_clifford_draws_the_samples_in_order(monkeypatch, d):
    # every section pair (s1, s2) first, then every extended pair (g, h), each
    # element as mu, a_0, a_1, S, alpha: the draws the laws were checked on
    # one sample at a time, across more than one chunk of samples
    made = []
    monkeypatch.setattr(clifford, "random", types.SimpleNamespace(
        Random=lambda seed: made.append(_RecordingRandom(seed)) or made[-1]))
    samples = clifford._CHUNK + 44
    assert verify_clifford_laws(d, 1, 7, samples)["pass"]
    ref, sl2 = _RecordingRandom(7), sl2_elements(d)
    for _ in range(samples):
        ref.choice(sl2), ref.choice(sl2)
    for _ in range(2 * samples):
        ref.randrange(d), ref.randrange(d), ref.randrange(d), ref.choice(sl2), ref.randrange(1, d)
    (rng,) = made
    assert rng.log == ref.log and rng.getstate() == ref.getstate()


def test_verify_clifford_memory_is_bounded_by_its_chunk():
    # the sampled laws are drawn and checked a fixed chunk of samples at a
    # time, so the peak does not grow with samples: unchunked, 800 samples
    # at d = 7 peak at ~16 MB under tracemalloc, chunked at ~3 MB
    tracemalloc.start()
    try:
        report = verify_clifford_laws(7, 1, 7, 800)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["pass"] and peak < 5 * 2 ** 20


@pytest.mark.parametrize("d", [3, 5, 7])
def test_products_equal_rejects_the_wrong_galois_map(d):
    rng = random.Random(70 + d)
    rejected = 0
    for _ in range(30):
        g, h = _random_ext(d, rng), _random_ext(d, rng)
        x, y, z = _ext_triples(g, h)[0]
        for beta in range(1, d):
            if beta == h.alpha % d:
                continue
            wrong = g.matrix().galois([beta])
            (verdict,) = products_equal(x, wrong, z)
            assert verdict == (dense(x) @ dense(wrong) == dense(z))
            if dense(wrong) != dense(y):  # the wrong map moves g's matrix
                assert not verdict
                rejected += 1
    assert rejected > 0


def _perturbed_weyl(d, n, v, bad):
    t = weyl_mono(d, n, v)
    return lambda d_, n_, a: bad(t) if tuple(a) == v else weyl_mono(d_, n_, a)


def _table_of(mono):
    """A monomial table like `operators.weyl_table`, (perm, expo) for a batch
    of point codes, read from the per-point `Mono`s mono(d, n, a)."""
    def table(d, n, codes):
        monos = [mono(d, n, tuple(a)) for a in code_points(np.asarray(codes), d, 2 * n).tolist()]
        return np.array([t.perm for t in monos]), np.array([t.expo for t in monos])
    return table


_WEYL_FAULTS = {
    "exponent": lambda t: Mono(t.d, t.n, t.perm, ((t.expo[0] + 1) % t.r,) + t.expo[1:]),
    "permutation": lambda t: Mono(t.d, t.n, (t.perm[1], t.perm[0]) + t.perm[2:], t.expo),
    "global_phase": lambda t: t.phase_shift(1),
}


@pytest.mark.parametrize("fault", sorted(_WEYL_FAULTS))
@pytest.mark.parametrize("d,n,sampled", [(2, 1, False), (2, 2, False), (3, 1, False),
                                         (5, 1, False), (3, 2, False), (5, 2, True)])
def test_weyl_law_array_check_is_the_pairwise_law(monkeypatch, fault, d, n, sampled):
    rng = random.Random(d * n)
    vectors = list(all_vectors(d, 2 * n))
    pairs = ([(rng.choice(vectors), rng.choice(vectors)) for _ in range(100)] if sampled
             else [(a, b) for a in vectors for b in vectors])
    v = (1,) + (0,) * (2 * n - 1)
    pairs.append((v, (0,) * (2 * n - 1) + (1,)))  # T(v) against a non-commuting T(b)
    assert _weyl_law(d, n, pairs) and weyl_law_pairwise(d, n, pairs)
    bad = _perturbed_weyl(d, n, v, _WEYL_FAULTS[fault])
    monkeypatch.setattr(clifford, "weyl_table", _table_of(bad))
    assert not _weyl_law(d, n, pairs)
    assert not weyl_law_pairwise(d, n, pairs, mono=bad)


@pytest.mark.parametrize("d", [3, 5])
def test_weyl_law_array_check_reads_the_commutation_clause(monkeypatch, d):
    # one pair (v, w): T(v) becomes a monomial M that does not commute with
    # T(w) up to omega^-[v, w], and T(v + w) becomes tau^[v, w] M T(w), so
    # the composition clause holds and only the commutation clause fails
    v, w = (1, 0), (0, 1)
    m = _WEYL_FAULTS["permutation"](weyl_mono(d, 1, v))
    s = symplectic_form(v, w, d)
    fake = {v: m, vec_add(v, w, d): (m @ weyl_mono(d, 1, w)).phase_shift((d + 1) // 2 * s)}
    bad = lambda d_, n_, a: fake.get(tuple(a)) or weyl_mono(d_, n_, a)
    assert _weyl_law(d, 1, [(v, w)])
    monkeypatch.setattr(clifford, "weyl_table", _table_of(bad))
    assert not weyl_law_pairwise(d, 1, [(v, w)], mono=bad)
    assert not _weyl_law(d, 1, [(v, w)])


def test_weyl_law_of_no_pairs_holds():
    assert _weyl_law(5, 2, [])
    assert verify_clifford_laws(5, 2, 0, 0)["checks"]["weyl_composition_law"] == {
        "pass": True, "pairs": 0}


@pytest.mark.parametrize("d", [3, 5])
def test_similitude_multiplier_is_the_pairwise_loop_on_every_2x2(d):
    for r in itertools.product(range(d), repeat=4):
        m = np.array([r[:2], r[2:]])
        assert similitude_multiplier(m, d) == similitude_multiplier_loop(m, d), r


def _similitude_word(word, alpha):
    gens = sp_generators(3, 2)
    out = np.eye(4, dtype=np.int64)
    for i in word:
        out = out @ gens[i % len(gens)] % 3
    return out @ k_alpha(3, 2, alpha) % 3


_MATRICES_4X4_MOD_3 = st.one_of(
    st.lists(st.integers(0, 2), min_size=16, max_size=16).map(
        lambda e: np.array(e).reshape(4, 4)),
    st.builds(_similitude_word, st.lists(st.integers(0, 20), max_size=6), st.integers(1, 2)),
)


@settings(max_examples=150, deadline=None)
@given(_MATRICES_4X4_MOD_3)
def test_similitude_multiplier_is_the_pairwise_loop_on_4x4_mod_3(m):
    assert similitude_multiplier(m, 3) == similitude_multiplier_loop(m, 3)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_verify_clifford_builds_without_dense_kernels(monkeypatch, d):
    # a fresh section, and no dense matrix is built, multiplied or contracted
    def dense_kernel(*args, **kwargs):
        raise AssertionError("dense kernel called")

    monkeypatch.setattr(OpMatrix, "__matmul__", dense_kernel)
    monkeypatch.setattr(OpMatrix, "_set", dense_kernel)
    monkeypatch.setattr(cyclotomic._Field, "contract", dense_kernel)
    clifford._metaplectic.cache_clear()
    expected = json.loads((GOLDENS / f"verify-clifford_d{d}_n1_seed-7.json").read_text())
    report = verify_clifford_laws(d, 1, 7, 100)
    assert {"command": "verify-clifford", "d": d, "n": 1, "seed": 7, "samples": 100,
            **report} == expected


def _agsp_matrices(d, n):
    """The matrices of the maps behind `predicted_generators(d, n, "agsp")`."""
    return [*sp_generators(d, n), k_alpha(d, n, primitive_root(d)), np.eye(2 * n, dtype=np.int64)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_unreduced_matrices_give_the_same_answers(data):
    # a Z_d matrix is reduced by whatever reads it: M and M + d X, X with
    # negative entries, give the same multiplier, permutations, section and
    # extended Clifford element
    d, n = data.draw(st.sampled_from([(3, 1), (5, 1), (3, 2)]))
    m = data.draw(st.sampled_from(_agsp_matrices(d, n)))
    x = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=4 * n * n,
                                    max_size=4 * n * n))).reshape(2 * n, 2 * n)
    assume((x < 0).any())
    lifted = m + d * x
    assert similitude_multiplier(lifted, d) == similitude_multiplier(m, d)
    assert nonzero_point_perms([lifted], d, n) == nonzero_point_perms([m], d, n)
    labels, shift = enumerate_stabilizer_labels(d, n), tuple(range(1, 2 * n + 1))
    assert (label_permutations(*labels, [(lifted, shift)])
            == label_permutations(*labels, [(m, shift)]))
    if n == 1 and is_symplectic(m, d):
        assert products_equal(metaplectic(d, lifted), metaplectic(d, np.eye(2, dtype=np.int64)),
                              metaplectic(d, m)).all()
        e, f = (ExtCliffordElement(mu=1, a=(2, 1), S=s, alpha=2, d=d) for s in (lifted, m))
        assert e == f and hash(e) == hash(f)


def test_sp_generators_are_read_only():
    with pytest.raises(ValueError, match="read-only"):
        sp_generators(3, 2)[0][0, 0] = 2


@pytest.mark.parametrize("d", [3, 5, 7])
@pytest.mark.parametrize("check,name", [("galois_action_on_phase_points", "phase_point_mono"),
                                        ("transpose_is_k_minus_one", "weyl_mono")])
def test_one_corrupted_exponent_flips_each_galois_check(monkeypatch, d, check, name):
    # each check is one array check over the d^2 points' monomial table
    # (name is its `Mono` reference): one exponent of one of them moved by 1
    # fails it.  A wrong A(x) leaves the T(a) check alone; the A(x) are
    # checked as T(x)^dagger A(0) T(x), so a wrong T(a) fails both
    other = ({"galois_action_on_phase_points", "transpose_is_k_minus_one"} - {check}).pop()
    checks = verify_clifford_laws(d, 1, 0, 1)["checks"]
    assert checks[check]["pass"] and checks[other]["pass"]
    make, v = getattr(dense_oracles, name), (1, 1)
    bad = _WEYL_FAULTS["exponent"](make(d, 1, v))
    monkeypatch.setattr(clifford, name.replace("mono", "table"),
                        _table_of(lambda d_, n_, a: bad if a == v else make(d_, n_, a)))
    checks = verify_clifford_laws(d, 1, 0, 1)["checks"]
    assert not checks[check]["pass"]
    assert checks[other]["pass"] == (name == "phase_point_mono")


@pytest.mark.parametrize("d", [3, 5, 7])
def test_a_wrong_phase_point_family_fails_the_galois_check(monkeypatch, d):
    # A(a)|q> = omega^(2 (q - a_X).a_Z) |-q - 2 a_X> is monomial with
    # exponents linear in a_Z, so C_alpha maps it as K_alpha does; it is not
    # T(a)^dagger A(0) T(a), and the check ties the A(a) to the T(a)
    def faulty(d_, n_, codes):
        a = code_points(codes, d_, 2 * n_)
        ax, az = a[:, None, :n_], a[:, None, n_:]
        q = code_points(np.arange(d_ ** n_), d_, n_)
        return point_codes((-q - 2 * ax) % d_, d_), 2 * ((q - ax) * az).sum(-1) % d_

    assert clifford._galois_acts_as_k(faulty, d, range(2, d))
    monkeypatch.setattr(clifford, "phase_point_table", faulty)
    report = verify_clifford_laws(d, 1, 0, 1)
    assert not report["checks"]["galois_action_on_phase_points"]["pass"]
    assert report["checks"]["transpose_is_k_minus_one"]["pass"] and not report["pass"]


def test_verify_clifford_builds_no_cycnumber(monkeypatch):
    # the Clifford laws are integer counts against integer rows: no cyclotomic
    # number is built, not even a section's scale
    made = []
    init = CycNumber.__init__
    monkeypatch.setattr(CycNumber, "__init__",
                        lambda self, *args, **kwargs: made.append(1) or init(self, *args, **kwargs))
    assert CycNumber(4, (1, 0)) is not None and made == [1]  # the counter counts
    made.clear()
    clifford._metaplectic.cache_clear()
    clifford._gauss_rows.cache_clear()
    assert verify_clifford_laws(7, 1, 7, 200)["pass"]
    assert made == []


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
def test_gauss_rows_are_d_times_a_gauss_sum_power_times_omega(d):
    # row (m, e) of the table is d g_d^m omega^e in the powers of omega, for
    # every m, the row m = -1 included (no true triple reaches it), and the
    # row e = -1 is zero
    rows = clifford._gauss_rows(d)
    assert rows.shape == (4, d + 1, d) and rows.dtype == np.int64 and not rows.flags.writeable
    assert not rows[:, -1].any()
    g, m = gauss_sum(d), conductor_for(d)
    powers = {0: CycNumber.one(m), 1: g, 2: g * g, -1: g.inverse()}
    w = [root_of_unity(m, (m // d) * k) for k in range(d)]
    for power, value in powers.items():
        for e in range(d):
            expanded = sum((int(c) * wk for c, wk in zip(rows[power, e], w)), CycNumber.zero(m))
            assert expanded == value * w[e] * d, (power, e)


@st.composite
def _table(draw, d):
    """The exponents of one d x d phase table: uniform in [-1, d), full and
    quadratic, omega^(A q^2 + B r q + C r^2 + D), monomial, omega^(A q^2 +
    D) |a q><q|, or zero."""
    r, q = np.arange(d)[:, None], np.arange(d)
    kind = draw(st.sampled_from(("uniform", "quadratic", "monomial", "zero")))
    if kind == "uniform":
        return np.array(draw(st.lists(st.integers(-1, d - 1), min_size=d * d,
                                      max_size=d * d))).reshape(d, d)
    c = draw(st.lists(st.integers(0, d - 1), min_size=4, max_size=4))
    if kind == "quadratic":
        return (c[0] * q * q + c[1] * r * q + c[2] * r * r + c[3]) % d
    if kind == "monomial":
        return np.where(r == draw(st.integers(1, d - 1)) * q % d, (c[0] * q * q + c[3]) % d, -1)
    return np.full((d, d), -1)


def _one(d, sign, gauss, expo):
    return PhaseStack(d, np.array([sign]), np.array([gauss]), np.array([expo]))


def _solved(d, product, sign, gauss):
    """The exponents of the table sign g_d^-gauss omega^e equal to the dense
    matrix product entry by entry, or None if one entry is no such value."""
    m = conductor_for(d)
    scale = gauss_sum(d).inverse() ** gauss * sign
    values = {scale * root_of_unity(m, (m // d) * e): e for e in range(d)}
    values[CycNumber.zero(m)] = -1
    expo = [[values.get(x) for x in row] for row in product.rows]
    return None if None in sum(expo, []) else np.array(expo)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_products_equal_is_dense_equality_on_random_tables(data):
    # one batch with a triple for each of the 8 (gauss_x, gauss_y, gauss_z),
    # m = -1 included; z equals x y where some table sign_z g_d^-gauss_z
    # omega^e does (unless one entry is then moved), else it is drawn
    d = data.draw(st.sampled_from([3, 5]))
    triples = []
    for gauss in itertools.product((0, 1), repeat=3):
        signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=3, max_size=3))
        x, y = (_one(d, signs[k], gauss[k], data.draw(_table(d))) for k in range(2))
        product = dense(x) @ dense(y)
        z = _solved(d, product, signs[2], gauss[2])
        if z is None:
            z = data.draw(_table(d))
        elif data.draw(st.booleans()):
            r, q = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
            z[r, q] = (z[r, q] + 1) % d
        triples.append((x, y, _one(d, signs[2], gauss[2], z)))
    verdicts = products_equal(*_stacks(triples))
    assert verdicts.tolist() == [dense(x) @ dense(y) == dense(z) for x, y, z in triples]


def test_galois_refuses_a_non_unit_alpha():
    # C_alpha is a field map for alpha a unit mod d only: alpha = 0 mod d is
    # refused, not given the Legendre symbol 0 as its sign
    u = concat([metaplectic(5, ((0, 4), (1, 0))), metaplectic(5, ((2, 0), (0, 3)))])
    for alpha in ([0, 1], [1, 5], [10, -5]):
        with pytest.raises(ValueError, match="alpha must be a unit mod 5"):
            u.galois(alpha)
    # L(2) = L(3) = -1 flips the sign of the first table (gauss 1), not the second (gauss 0)
    assert u.galois([2, 3]).sign.tolist() == [-u.sign[0], u.sign[1]]


@pytest.mark.parametrize("field,value", [("mu", 1.5), ("alpha", 2.7), ("alpha", 2.0)])
def test_ext_element_refuses_a_non_integer_mu_or_alpha(field, value):
    fields = {"mu": 1, "a": (0, 1), "S": ((1, 0), (0, 1)), "alpha": 2, "d": 5, field: value}
    with pytest.raises(ValueError, match="mu and alpha must be integers"):
        ExtCliffordElement(**fields)


@pytest.mark.parametrize("s", [((2.0, 0), (0, 3.0)), np.array([[2.5, 0], [0, 3]])])
def test_metaplectic_and_ext_element_refuse_a_non_integer_s(s):
    with pytest.raises(ValueError, match="S must be"):
        metaplectic(5, s)
    with pytest.raises(ValueError, match="S must be"):
        ExtCliffordElement(mu=0, a=(0, 0), S=s, alpha=1, d=5)
