import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import stabsym
from stabsym import clifford, cyclotomic, operators
from stabsym.clifford import (
    WREATH_TABLE,
    AffineSimilitude,
    ExtCliffordElement,
    PhaseTable,
    _weyl_law,
    agsp_compose,
    ext_compose,
    k_alpha,
    matrix_point_perm,
    _metaplectic,
    metaplectic,
    products_equal,
    qubit_gate_action,
    real_clifford_orbit,
    similitude_multiplier,
    sl2_elements,
    sp_generators,
    sp_order,
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
    tau,
)
from stabsym.errors import Mismatch, OddOnly, WordDecompositionFailure
from stabsym.operators import (
    Mono,
    OpMatrix,
    phase_point_mono,
    stabilizer_states,
    weyl,
    weyl_mono,
)
from stabsym.phase_space import all_vectors, symplectic_form, transform_labels, vec_add

from dense_oracles import (
    Similitude,
    dense,
    dense_metaplectic,
    dense_real_clifford_orbit,
    ext_apply,
    family_projectors,
    forget,
    phase_point,
    qubit_gate,
    real_gates,
    similitude_multiplier_loop,
    stab_projector,
    weyl_law_pairwise,
)
from stabsym.zmod import ZModMatrix, inv_mod, legendre


def _random_sl2(d, rng):
    return ZModMatrix(rng.choice(sl2_elements(d)), d)


def _section(d, s):
    """The dense expansion of the phase table U_S."""
    return dense(metaplectic(d, s))


@pytest.mark.parametrize("d,n,order", [(3, 1, 24), (2, 2, 720), (3, 2, 51840)])
def test_sp_orders(d, n, order):
    assert sp_order_formula(d, n) == order
    assert sp_order(d, n) == order


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
    monkeypatch.setattr(clifford, "is_symplectic", lambda m: False)
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
            assert similitude_multiplier(transvection(v, d)) == 1


def test_k_alpha_is_similitude():
    for d in (3, 5, 7):
        for alpha in range(1, d):
            assert similitude_multiplier(k_alpha(d, 1, alpha)) == alpha
    assert similitude_multiplier(k_alpha(5, 2, 3)) == 3


def test_similitude_factorization():
    d = 5
    rng = random.Random(0)
    for _ in range(10):
        s = _random_sl2(d, rng)
        alpha = rng.randrange(1, d)
        r = s @ k_alpha(d, 1, alpha)
        sim = Similitude.from_matrix(r)
        assert sim.alpha == alpha
        assert sim.symplectic_part @ k_alpha(d, 1, alpha) == r


def test_metaplectic_identity():
    for d in (3, 5):
        u = _section(d, ZModMatrix.identity(2, d))
        assert u == OpMatrix.identity(conductor_for(d), d)


def test_metaplectic_fourier_d3():
    d = 3
    s = ZModMatrix([[0, -1], [1, 0]], d)
    u = _section(d, s)
    # U = (omega^{jk})/g with g the Gauss sum i*sqrt(3); verify action instead of phases
    for b in all_vectors(d, 2):
        assert u @ weyl(d, 1, b) @ u.dagger() == weyl(d, 1, s.apply(b))
    # matrix entries are omega^{jk} / (i sqrt 3) up to the canonical phase; check |entry|^2 = 1/3
    e = u.rows[0][0]
    assert (e.conj() * e) == CycNumber.from_fraction(conductor_for(3), Fraction(1, 3))


@pytest.mark.parametrize("d", [3, 5])
def test_metaplectic_conjugation_postcondition_all(d):
    rng = random.Random(d)
    table = sl2_elements(d)
    sample = table if d == 3 else rng.sample(table, 12)
    for rows in sample:
        s = ZModMatrix(rows, d)
        u = _section(d, s)
        assert u.dagger() @ u == OpMatrix.identity(conductor_for(d), d)
        for b in all_vectors(d, 2):
            assert u @ weyl(d, 1, b) @ u.dagger() == weyl(d, 1, s.apply(b))


@pytest.mark.parametrize("d", [3, 5])
def test_metaplectic_multiplicative(d):
    rng = random.Random(41)
    for _ in range(50):
        s1, s2 = _random_sl2(d, rng), _random_sl2(d, rng)
        assert _section(d, s1) @ _section(d, s2) == _section(d, s1 @ s2)


@pytest.mark.parametrize("d", [3, 5])
def test_metaplectic_galois_closure(d):
    rng = random.Random(17)
    for _ in range(20):
        s = _random_sl2(d, rng)
        for alpha in range(2, d):
            gal = GaloisMap(alpha, d)
            lhs = _section(d, s).entrywise_galois(gal)
            conj = k_alpha(d, 1, alpha) @ s @ k_alpha(d, 1, inv_mod(alpha, d))
            assert lhs == _section(d, conj)
            assert dense(metaplectic(d, s).galois(gal)) == lhs


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
    assert _section(d, ZModMatrix([[0, -1], [1, 0]], d)) == _fourier(d).scale(legendre(-2, d))
    for g in range(1, d):
        assert _section(d, ZModMatrix([[g, 0], [0, inv_mod(g, d)]], d)) == _multiplier(d, g)
    assert _section(d, ZModMatrix([[1, 0], [1, 1]], d)) == _shear(d)


def test_metaplectic_multiplicative_on_all_pairs_d3():
    d = 3
    section = {rows: _section(d, rows) for rows in sl2_elements(d)}
    assert len(section) == sp_order_formula(d, 1)
    for r1, u1 in section.items():
        for r2, u2 in section.items():
            assert u1 @ u2 == section[(ZModMatrix(r1, d) @ ZModMatrix(r2, d)).rows]


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
            assert u1 @ weyl(d, 1, b) @ u1.dagger() == weyl(d, 1, s1.apply(b))
        assert u1 @ _section(d, s2) == _section(d, s1 @ s2)


def test_metaplectic_rejects_nonsymplectic():
    with pytest.raises(WordDecompositionFailure):
        metaplectic(3, ZModMatrix([[1, 1], [1, 1]], 3))
    with pytest.raises(WordDecompositionFailure):
        metaplectic(11, ZModMatrix([[2, 0], [0, 2]], 11))  # det 4: a similitude
    with pytest.raises(OddOnly):
        metaplectic(2, ZModMatrix.identity(2, 2))


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
        e = ExtCliffordElement(mu=0, a=(0, 0), S=ZModMatrix.identity(2, d), alpha=alpha)
        ka = k_alpha(d, 1, alpha)
        for x in all_vectors(d, 2):
            assert ext_apply(e, phase_point(d, 1, x)) == phase_point(d, 1, ka.apply(x))


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
        forms = [ZModMatrix(rows, d), [list(r) for r in rows], rows, lifted,
                 ZModMatrix(lifted, d)]
        first = metaplectic(d, forms[0])
        assert all(metaplectic(d, s) is first for s in forms)
        assert dense(first) == dense(_metaplectic.__wrapped__(d, rows))  # as if built afresh
        assert dense(first).dagger() @ dense(first) == OpMatrix.identity(first.scale.m, d)
        assert not first.expo.flags.writeable


def test_ext_matrix_is_phase_times_weyl_times_section():
    # ExtCliffordElement.matrix() folds the monomial omega^mu T(a) into the
    # rows of U_S; the dense product with omega^mu as a scalar is its oracle
    d = 5
    rng = random.Random(4)
    for _ in range(20):
        e = ExtCliffordElement(mu=rng.randrange(-d, 2 * d), a=(rng.randrange(d), rng.randrange(d)),
                               S=ZModMatrix(rng.choice(sl2_elements(d)), d), alpha=1)
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
            expected = phase_point(d, 1, vec_add(s.apply(x), a, d))
            assert got == expected


def test_ext_element_phase_space_action():
    # the quadruple (mu, a, S, alpha) acts on A(x) by x -> S K_alpha x - a
    d = 5
    rng = random.Random(29)
    for _ in range(5):
        e = _random_ext(d, rng)
        mat = e.S @ k_alpha(d, 1, e.alpha)
        for x in list(all_vectors(d, 2))[:6]:
            got = ext_apply(e, phase_point(d, 1, x))
            target = tuple((m - ai) % d for m, ai in zip(mat.apply(x), e.a))
            assert got == phase_point(d, 1, target)


def _random_ext(d, rng):
    return ExtCliffordElement(
        mu=rng.randrange(d),
        a=tuple(rng.randrange(d) for _ in range(2)),
        S=_random_sl2(d, rng),
        alpha=rng.randrange(1, d),
    )


def test_ext_compose_identity():
    d = 5
    rng = random.Random(2)
    e = _random_ext(d, rng)
    assert ext_compose(ExtCliffordElement.identity(d), e) == e


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
            conj_s = k_alpha(d, 1, beta) @ s @ k_alpha(d, 1, inv_mod(beta, d))
            assert _section(d, s).entrywise_galois(gal) == _section(d, conj_s)


def test_apply_affine_similitude_api():
    d = 5
    ident = AffineSimilitude.identity(d, 1)
    assert ident.apply((3, 4)) == (3, 4)
    shift = AffineSimilitude(a=(1, 0), S=ZModMatrix.identity(2, d), alpha=1)
    assert shift.apply((3, 4)) == (4, 4)
    ka = AffineSimilitude(a=(0, 0), S=ZModMatrix.identity(2, d), alpha=2)
    assert ka.apply((1, 1)) == (1, 2)  # K_2 at d=5


def test_agsp_identity_and_pointwise():
    d = 5
    rng = random.Random(11)
    ident = AffineSimilitude.identity(d, 1)
    t = AffineSimilitude(
        a=(1, 2), S=_random_sl2(d, rng), alpha=3
    )
    assert agsp_compose(ident, t) == t
    s = AffineSimilitude(a=(0, 4), S=_random_sl2(d, rng), alpha=2)
    comp = agsp_compose(t, s)
    for x in all_vectors(d, 2):
        assert comp.apply(x) == t.apply(s.apply(x))


def test_agsp_compose_matches_ext_compose_forgetful():
    d = 5
    rng = random.Random(21)
    for _ in range(100):
        g, h = _random_ext(d, rng), _random_ext(d, rng)
        assert forget(ext_compose(h, g)) == agsp_compose(forget(h), forget(g))


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
    plus = OpMatrix.from_rational(8, [[half, half], [half, half]])
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
            assert set(transform_labels(orbit.labels, *qubit_gate_action(n, *gate))) == set(
                orbit.labels)


def test_real_orbit_n2_matches_rational_filter():
    # independent enumeration: qubit stabilizer projectors with all-rational entries
    orbit = real_clifford_orbit(2)
    rational = []
    for lab in stabilizer_states(2, 2).labels:
        p = stab_projector(lab)
        if all(x.is_rational() for row in p.rows for x in row):
            rational.append(p)
    assert orbit.size == len(rational)
    assert set(family_projectors(orbit)) == set(rational)
    # the real states are those whose Lagrangian holds no odd number of Y factors
    real = {lab for lab in stabilizer_states(2, 2).labels
            if all(sum(b[k] * b[2 + k] for k in range(2)) % 2 == 0 for b in lab.L.points())}
    assert set(orbit.labels) == real


@pytest.mark.parametrize("n", [1, 2, 3])
def test_real_orbit_is_the_dense_breadth_first_orbit(n):
    # the same states in the same order: 4, 24 and 240 of them
    orbit = real_clifford_orbit(n)
    assert orbit.size == (4, 24, 240)[n - 1]
    assert family_projectors(orbit) == dense_real_clifford_orbit(n)


@pytest.mark.parametrize("n", [1, 2])
def test_label_maps_match_dense_conjugation_on_every_pauli(n):
    # U T(b) U^dagger = (-1)^eta(b) T(S b) on all 4^n Paulis, and
    # T(b)^T = (-1)^eta(b) T(b)
    gates = [(g, i) for g in ("H", "S", "Y", "Z") for i in range(n)]
    gates += [("CZ", 0, 1)] if n == 2 else []
    for gate in gates:
        s, a, eta = qubit_gate_action(n, *gate)
        assert a == (0,) * (2 * n)
        u = qubit_gate(n, *gate)
        for b in all_vectors(2, 2 * n):
            image = weyl(2, n, s.apply(b))
            assert u @ weyl(2, n, b) @ u.dagger() == (-image if eta(b) else image), (gate, b)
    s, a, eta = transpose_action(n)
    for b in all_vectors(2, 2 * n):
        assert weyl(2, n, b).transpose() == (-weyl(2, n, b) if eta(b) else weyl(2, n, b))


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
    s1, s2 = ZModMatrix(s1, d), ZModMatrix(s2, d)
    return [(s1.rows, s2.rows, (s1 @ s2).rows), (s1.rows, s2.rows, (s2 @ s1).rows)]


def _agrees_on_sections(d, triple):
    verdict = products_equal(*(metaplectic(d, rows) for rows in triple))
    x, y, z = (dense_metaplectic(d, rows) for rows in triple)
    assert verdict == (x @ y == z)
    return verdict


def _ext_triples(g, h):
    """(h, C_beta(g), hg) and (h, C_beta(g), gh) as phase tables, beta =
    h.alpha: the composition law and a wrong product."""
    y = g.matrix().galois(h.galois())
    return [(h.matrix(), y, ext_compose(h, g).matrix()),
            (h.matrix(), y, ext_compose(g, h).matrix())]


def _agrees_on_ext(g, h, triple):
    x, y, z = triple
    dense_y = dense(g.matrix()).entrywise_galois(h.galois())
    assert dense(y) == dense_y
    verdict = products_equal(x, y, z)
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
    """t with expo[r, q] moved by 1 mod d (a zero entry, -1, becomes 1)."""
    expo = t.expo.copy()
    expo[r, q] = (expo[r, q] + 1) % t.d
    return PhaseTable(t.d, t.scale, expo)


def _flipped(t):
    return PhaseTable(t.d, -t.scale, t.expo)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_products_equal_rejects_a_moved_exponent_and_a_flipped_sign(d):
    rng = random.Random(50 + d)
    triples = [tuple(metaplectic(d, rows) for rows in _section_triples(
        d, rng.choice(sl2_elements(d)), rng.choice(sl2_elements(d)))[0]) for _ in range(11)]
    triples += [_ext_triples(_random_ext(d, rng), _random_ext(d, rng))[0] for _ in range(11)]
    for triple in triples:
        assert products_equal(*triple)
        for k in range(3):
            r, q = rng.randrange(d), rng.randrange(d)
            for bad in (_moved(triple[k], r, q), _flipped(triple[k])):
                args = triple[:k] + (bad,) + triple[k + 1:]
                assert not products_equal(*args)
                assert not dense(args[0]) @ dense(args[1]) == dense(args[2])


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
            wrong = g.matrix().galois(GaloisMap(beta, d))
            verdict = products_equal(x, wrong, z)
            assert verdict == (dense(x) @ dense(wrong) == dense(z))
            if dense(wrong) != dense(y):  # the wrong map moves g's matrix
                assert not verdict
                rejected += 1
    assert rejected > 0


def _perturbed_weyl(d, n, v, bad):
    t = weyl_mono(d, n, v)
    return lambda d_, n_, a: bad(t) if tuple(a) == v else weyl_mono(d_, n_, a)


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
    monkeypatch.setattr(clifford, "weyl_mono", bad)
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
    monkeypatch.setattr(clifford, "weyl_mono", bad)
    assert not weyl_law_pairwise(d, 1, [(v, w)], mono=bad)
    assert not _weyl_law(d, 1, [(v, w)])


def test_weyl_law_of_no_pairs_holds():
    assert _weyl_law(5, 2, [])
    assert verify_clifford_laws(5, 2, 0, 0)["checks"]["weyl_composition_law"] == {
        "pass": True, "pairs": 0}


@pytest.mark.parametrize("d", [3, 5])
def test_similitude_multiplier_is_the_pairwise_loop_on_every_2x2(d):
    for r in itertools.product(range(d), repeat=4):
        m = ZModMatrix([r[:2], r[2:]], d)
        assert similitude_multiplier(m) == similitude_multiplier_loop(m), r


def _similitude_word(word, alpha):
    gens = sp_generators(3, 2)
    out = ZModMatrix.identity(4, 3)
    for i in word:
        out = out @ gens[i % len(gens)]
    return out @ k_alpha(3, 2, alpha)


_MATRICES_4X4_MOD_3 = st.one_of(
    st.lists(st.integers(0, 2), min_size=16, max_size=16).map(
        lambda e: ZModMatrix([e[i:i + 4] for i in range(0, 16, 4)], 3)),
    st.builds(_similitude_word, st.lists(st.integers(0, 20), max_size=6), st.integers(1, 2)),
)


@settings(max_examples=150, deadline=None)
@given(_MATRICES_4X4_MOD_3)
def test_similitude_multiplier_is_the_pairwise_loop_on_4x4_mod_3(m):
    assert similitude_multiplier(m) == similitude_multiplier_loop(m)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_verify_clifford_builds_without_dense_kernels(monkeypatch, d):
    # a fresh section, and no dense matrix is built, multiplied or contracted
    def dense_kernel(*args, **kwargs):
        raise AssertionError("dense kernel called")

    monkeypatch.setattr(OpMatrix, "__matmul__", dense_kernel)
    monkeypatch.setattr(OpMatrix, "_set", dense_kernel)
    monkeypatch.setattr(cyclotomic._Field, "contract", dense_kernel)
    monkeypatch.setattr(operators, "mono_sum", dense_kernel)
    clifford._metaplectic.cache_clear()
    expected = json.loads((GOLDENS / f"verify-clifford_d{d}_n1_seed-7.json").read_text())
    report = verify_clifford_laws(d, 1, 7, 100)
    assert {"command": "verify-clifford", "d": d, "n": 1, "seed": 7, "samples": 100,
            **report} == expected
