import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabsym import cyclotomic, moments, operators, symmetry
from stabsym.cyclotomic import CycNumber, conductor_for, omega, root_of_unity
from stabsym.clifford import real_clifford_orbit
from stabsym.errors import BudgetExceeded, OddOnly
from stabsym.operators import (
    GramMatrix,
    OperatorSet,
    OpMatrix,
    build_gram,
    closed_form_gram,
    phase_point_table,
    stabilizer_set,
    stabilizer_states,
    weyl_table,
)
from stabsym.phase_space import (
    all_vectors,
    enumerate_lagrangians,
    code_points,
    lagrangian_tables,
    point_codes,
)
from stabsym.moments import rebit_operator_set, stabilizer_operator_set
from stabsym.symmetry import rebit_gram

from dense_oracles import (
    InconsistentSigns,
    LagrangianSubspace,
    StabilizerLabel,
    bruteforce_gram,
    dense_real_clifford_orbit,
    enumerated_labels,
    family_projectors,
    from_rational,
    hs_inner,
    is_hermitian,
    mono_sum,
    mono_trace_product,
    label_from_functional,
    label_set,
    lagrangian_objects,
    pair_table_loop,
    phase_point,
    phase_point_mono,
    sign_bits,
    stab_projector,
    stab_projector_qubit,
    stab_projector_wigner,
    set_labels,
    symplectic_form,
    tau,
    trace_pairs,
    trace_product,
    vec_add,
    weyl,
    weyl_mono,
)


def _rand_vec(rng, d, n):
    return tuple(rng.randrange(d) for _ in range(2 * n))


def test_weyl_zero_is_identity():
    for d, n in ((3, 1), (2, 2), (5, 1)):
        assert weyl(d, n, (0,) * (2 * n)) == OpMatrix.identity(conductor_for(d), d ** n)


def test_weyl_shift_matrix_d3():
    x = weyl(3, 1, (1, 0))
    m = conductor_for(3)
    one, zero = CycNumber.one(m), CycNumber.zero(m)
    assert x.rows == ((zero, zero, one), (one, zero, zero), (zero, one, zero))


def test_weyl_t11_is_y_for_qubit():
    t = weyl(2, 1, (1, 1))
    i = root_of_unity(8, 2)
    assert t.rows[0][1] == -i and t.rows[1][0] == i
    assert is_hermitian(t)


def test_composition_law_exhaustive_d3_n1():
    d, n = 3, 1
    t = tau(d)
    cache = {a: weyl(d, n, a) for a in all_vectors(d, 2)}
    for a in all_vectors(d, 2):
        for b in all_vectors(d, 2):
            lhs = cache[a] @ cache[b]
            rhs = cache[vec_add(a, b, d)].scale(t ** ((-symplectic_form(a, b, d)) % d))
            assert lhs == rhs


@pytest.mark.parametrize("d,n,samples", [(3, 2, 120), (5, 1, 120)])
def test_composition_and_commutation_sampled(d, n, samples):
    rng = random.Random(77)
    t, w = tau(d), omega(d)
    for _ in range(samples):
        a, b = _rand_vec(rng, d, n), _rand_vec(rng, d, n)
        ta, tb = weyl(d, n, a), weyl(d, n, b)
        s = symplectic_form(a, b, d)
        assert ta @ tb == weyl(d, n, vec_add(a, b, d)).scale(t ** ((-s) % d))
        assert ta @ tb == (tb @ ta).scale(w ** ((-s) % d))


def test_weyl_unitary():
    rng = random.Random(5)
    for d, n in ((3, 1), (5, 1), (2, 2)):
        for _ in range(10):
            a = _rand_vec(rng, d, n)
            t = weyl(d, n, a)
            assert t.dagger() @ t == OpMatrix.identity(t.m, t.dim)


def test_weyl_orthonormality_d3():
    d, n = 3, 1
    dim = Fraction(d ** n)
    for a in all_vectors(d, 2):
        for b in all_vectors(d, 2):
            v = hs_inner(weyl(d, n, a), weyl(d, n, b))
            assert v == CycNumber.from_fraction(conductor_for(d), dim if a == b else 0)


def test_mono_agrees_with_dense_product():
    rng = random.Random(31)
    for d, n in ((3, 2), (5, 1)):
        for _ in range(30):
            a, b = _rand_vec(rng, d, n), _rand_vec(rng, d, n)
            ma, mb = weyl_mono(d, n, a), weyl_mono(d, n, b)
            assert (ma @ mb).to_matrix() == ma.to_matrix() @ mb.to_matrix()
            assert ma.dagger().to_matrix() == ma.to_matrix().dagger()
            assert mono_trace_product(ma, mb) == (ma.to_matrix() @ mb.to_matrix()).trace()


def test_phase_point_a0_is_parity_d3():
    a0 = phase_point(3, 1, (0, 0))
    m = conductor_for(3)
    one, zero = CycNumber.one(m), CycNumber.zero(m)
    assert a0.rows == ((one, zero, zero), (zero, zero, one), (zero, one, zero))


def test_phase_point_hermitian_trace_one():
    for d, n in ((3, 1), (5, 1)):
        for a in list(all_vectors(d, 2 * n))[:10]:
            op = phase_point(d, n, a)
            assert is_hermitian(op)
            assert op.trace() == CycNumber.one(op.m)


def test_phase_point_orthonormality_d3_n1():
    d, n = 3, 1
    for a in all_vectors(d, 2):
        for b in all_vectors(d, 2):
            v = hs_inner(phase_point(d, n, a), phase_point(d, n, b))
            assert v == CycNumber.from_fraction(conductor_for(d), 3 if a == b else 0)


def test_phase_point_sum_is_identity_d3_n1():
    d, n = 3, 1
    acc = OpMatrix.zero(conductor_for(d), 3)
    for a in all_vectors(d, 2):
        acc = acc + phase_point(d, n, a)
    assert acc == OpMatrix.identity(conductor_for(d), 3).scale(3)


def test_phase_point_equals_the_defining_sum():
    # A(a) = d^-n sum_b omega^[a,b] T(b), each term a dense matrix
    rng = random.Random(3)
    for d, n, count in ((2, 1, 4), (3, 1, 9), (5, 1, 3), (3, 2, 3)):
        m = conductor_for(d)
        for a in rng.sample(list(all_vectors(d, 2 * n)), count):
            acc = OpMatrix.zero(m, d ** n)
            for b in all_vectors(d, 2 * n):
                omega_ab = root_of_unity(m, (m // d) * symplectic_form(a, b, d))
                acc = acc + weyl(d, n, b).scale(omega_ab)
            assert phase_point(d, n, a) == acc.scale(Fraction(1, d ** n))


def test_phase_point_mono_matches_dense():
    # every odd-d A(a) against its defining sum, added up as monomials (each
    # dense term is checked above)
    for d, n in ((3, 1), (5, 1), (7, 1), (3, 2)):
        weyls = {b: weyl_mono(d, n, b) for b in all_vectors(d, 2 * n)}
        for a in all_vectors(d, 2 * n):
            terms = [t.phase_shift(symplectic_form(a, b, d)) for b, t in weyls.items()]
            assert phase_point_mono(d, n, a).to_matrix() == mono_sum(terms, Fraction(1, d ** n))


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)])
def test_monomial_tables_are_the_mono_reference_row_by_row(d, n):
    # row i of each batched table is the per-point Mono of the point with
    # code i, at every point; the codes come in a shuffled order and with
    # repeats, so a row is read from its code and not from its position
    codes = np.random.default_rng(d * n).permutation(np.tile(np.arange(d ** (2 * n)), 2))
    tables = {weyl_mono: weyl_table} if d == 2 else {weyl_mono: weyl_table,
                                                     phase_point_mono: phase_point_table}
    for mono, table in tables.items():
        perm, expo = table(d, n, codes)
        assert perm.dtype == expo.dtype == np.int64
        assert perm.shape == expo.shape == (len(codes), d ** n)
        for i, a in enumerate(code_points(codes, d, 2 * n).tolist()):
            ref = mono(d, n, tuple(a))
            assert (tuple(perm[i].tolist()), tuple(expo[i].tolist())) == (ref.perm, ref.expo)
    if d == 2:
        with pytest.raises(OddOnly):
            phase_point_table(d, n, codes)


def test_stab_projector_z_eigenprojector():
    # L = span{(0,1)} stabilized by Z; g = 0 picks out |0><0|
    d = 3
    L = LagrangianSubspace.from_rows([(0, 1)], d)
    lab_labels = [l for l in enumerated_labels(d, 1) if l.L == L]
    zero_lab = [l for l in lab_labels if all(l.functional(b) == 0 for b in L.points())][0]
    pi = stab_projector(zero_lab)
    m = conductor_for(d)
    expected = OpMatrix.zero(m, 3)
    rows = [list(r) for r in expected.rows]
    rows[0][0] = CycNumber.one(m)
    assert pi == OpMatrix(m, rows)


def test_stab_projector_properties_d3_n1():
    projs = family_projectors(stabilizer_states(3, 1))
    assert len(projs) == 12
    for pi in projs:
        assert pi.trace() == CycNumber.one(pi.m)
        assert is_hermitian(pi)
        assert pi @ pi == pi


def test_projector_forms_agree_d3_n1_exhaustive():
    for lab in enumerated_labels(3, 1):
        assert stab_projector(lab) == stab_projector_wigner(lab)


def test_projector_forms_agree_d3_n2_all():
    for lab in enumerated_labels(3, 2):
        assert stab_projector(lab) == stab_projector_wigner(lab)


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_sign_bits_are_the_phases_of_basis_products(d, n):
    # prod_i T(b_i)^(k_i) = (-1)^c_L(b) T(b) for b = sum k_i b_i, with the
    # monomials' own products; at odd d the product is T(b) exactly.  The
    # table of every Lagrangian at once lists L's points in `points` order,
    # holds the per-point oracle's signs on L and is 0 off L
    lags = enumerate_lagrangians(d, n)
    tables = lagrangian_tables(lags)
    for l, L in enumerate(lagrangian_objects(lags)):
        assert tables.points[l].tolist() == [list(b) for b in L.points()]
        assert tables.codes[l].tolist() == point_codes(tables.points[l], d).tolist()
        assert np.flatnonzero(tables.member[l]).tolist() == sorted(tables.codes[l].tolist())
        assert not tables.signs[l, ~tables.member[l]].any()
        signs = dict(zip(L.points(), tables.signs[l, tables.codes[l]].tolist()))
        assert signs == sign_bits(L)
        for b, c in signs.items():
            prod = weyl_mono(d, n, (0,) * (2 * n))
            for row, p in zip(L.basis, L.pivots):
                for _ in range(b[p]):
                    prod = prod @ weyl_mono(d, n, row)
            assert c in ((0, 1) if d == 2 else (0,))
            assert prod == weyl_mono(d, n, b).phase_shift(2 * c)


def test_stab_projector_covers_qubits():
    # the label (L, rep) with [rep, b_i] = 1 where the sign of b_i is -1 is
    # the qubit state with those basis stabilizer signs
    for n in (1, 2):
        for L in lagrangian_objects(enumerate_lagrangians(2, n)):
            for signs in itertools.product((1, -1), repeat=n):
                label = label_from_functional(L, [(1 - s) // 2 for s in signs])
                assert stab_projector(label) == stab_projector_qubit(L, signs)


def test_qubit_projector_z_state():
    L = LagrangianSubspace.from_rows([(0, 1)], 2)
    pi = stab_projector_qubit(L, (1,))
    m = conductor_for(2)
    rows = [[CycNumber.one(m), CycNumber.zero(m)], [CycNumber.zero(m), CycNumber.zero(m)]]
    assert pi == OpMatrix(m, rows)


def test_qubit_state_counts_and_validity():
    for n, count in ((1, 6), (2, 60)):
        states = set_labels(stabilizer_states(2, n))
        assert len(states) == count
        projs = [stab_projector(s) for s in states]
        assert len(set(projs)) == count
        for pi in projs[: 12 if n == 2 else 6]:
            assert pi.trace() == CycNumber.one(pi.m)
            assert pi @ pi == pi
            assert is_hermitian(pi)


def test_qubit_inconsistent_signs():
    L = LagrangianSubspace.from_rows([(0, 1)], 2)
    with pytest.raises(InconsistentSigns):
        stab_projector_qubit(L, (0,))
    with pytest.raises(InconsistentSigns):
        stab_projector_qubit(L, (1, 1))


def test_hs_inner_identity():
    for d, n in ((3, 1), (5, 1)):
        one = OpMatrix.identity(conductor_for(d), d ** n)
        assert hs_inner(one, one) == CycNumber.from_fraction(conductor_for(d), d ** n)


def test_hs_inner_cross_basis_d5():
    fam = stabilizer_states(5, 1)
    # states from different Lagrangians overlap in 1/5
    labels = set_labels(fam)
    x = 0
    y = next(i for i, l in enumerate(labels) if l.L != labels[x].L)
    projs = family_projectors(fam)
    v = hs_inner(projs[x], projs[y])
    assert v == CycNumber.from_fraction(conductor_for(5), Fraction(1, 5))


def _pair_value(x, y):
    """tr(Pi_x Pi_y) by `closed_form_gram` on the pair."""
    q = label_set((x, y))
    return closed_form_gram(q.lags, q.index, q.reps).values[0][1]


def test_gram_closed_form_basics():
    labels = enumerated_labels(3, 1)
    for lab in labels:
        assert _pair_value(lab, lab) == 1
    same_l = [l for l in labels if l.L == labels[0].L]
    assert _pair_value(same_l[0], same_l[1]) == 0
    # labels of another (d, n) make no set, so no Gram
    with pytest.raises(ValueError, match=r"not a list of \(d, n\) = \(3, 1\)"):
        OperatorSet("x", 3, 1, lags=enumerate_lagrangians(5, 1), index=[0], reps=[[0, 0]])


def test_gram_closed_form_vs_bruteforce_d3_n1_all_pairs():
    fam = stabilizer_states(3, 1)
    projs = family_projectors(fam)
    for i, x in enumerate(set_labels(fam)):
        for j, y in enumerate(set_labels(fam)):
            brute = hs_inner(projs[i], projs[j]).as_fraction()
            assert _pair_value(x, y) == brute


def _gram_entry_loop(labels):
    # the closed form entry by entry, straight from its definition, with
    # L ∩ M the points the two Lagrangians share
    inters = {}
    out = []
    for x in labels:
        d, n = x.d, x.n
        row = []
        for y in labels:
            if (x.L, y.L) not in inters:
                inters[x.L, y.L] = set(x.L.points()) & set(y.L.points())
            inter = inters[x.L, y.L]
            diff = tuple((u - v) % d for u, v in zip(x.rep, y.rep))
            if any(symplectic_form(diff, b, d) for b in inter):
                row.append(Fraction(0))
            else:
                row.append(Fraction(len(inter), d ** n))
        out.append(tuple(row))
    return tuple(out)


@pytest.mark.parametrize("d", [13, 17])
def test_closed_form_gram_equals_the_entry_loop(d):
    # a form [rep, b] of a canonical label sums n products below d^2; at
    # d = 17 one reaches 16 * 16 = 256, beyond uint8
    q = stabilizer_set(d, 1)
    assert build_gram(q).values == _gram_entry_loop(set_labels(q))


@pytest.mark.parametrize("d,n", [
    (2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3),
    pytest.param(5, 2, marks=pytest.mark.slow), pytest.param(7, 2, marks=pytest.mark.slow),
])
def test_pair_table_equals_the_per_pair_loop(d, n):
    # one batched elimination over the i <= j pairs, mirrored, against one
    # list elimination per pair: every entry and every dtype
    lags = enumerate_lagrangians(d, n)
    for got, want in zip(operators._pair_table(lags), pair_table_loop(lags)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert (got == want).all()
        assert not got.flags.writeable


@pytest.mark.parametrize("d,n", [(2, 3), (5, 2)])
def test_pair_table_in_one_row_blocks_equals_the_per_pair_loop(monkeypatch, d, n):
    # a budget below one pair's bytes makes every block one first
    # Lagrangian: each block's pairs written to both orders, no pair left
    # out or taken from the wrong order's elimination
    monkeypatch.setattr(operators, "BLOCK_BYTES", 1)
    lags = enumerate_lagrangians(d, n)
    assert len(list(operators.pair_blocks(len(lags), 1))) == len(lags)
    for got, want in zip(operators._pair_table.__wrapped__(lags), pair_table_loop(lags)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert (got == want).all()
        assert not got.flags.writeable


@pytest.mark.slow
def test_pair_table_d2_n4_peak_rss_is_under_350_mb():
    # opt-in (`-m slow`): the (2,4) table of 2 295 Lagrangians holds ~195 MB
    # of output and is built one block of first Lagrangians at a time (~222
    # MB peak; ~690 MB as one batched elimination over all 2.6 M pairs)
    code = ("import resource\n"
            "from stabsym import operators, phase_space\n"
            "operators._pair_table(phase_space.enumerate_lagrangians(2, 4))\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(operators.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert int(out.stdout) / 1024 < 350  # ru_maxrss is in KiB on Linux


@st.composite
def label_pairs(draw):
    d, n = draw(st.sampled_from([(5, 1), (3, 2), (2, 2), (2, 3)]))
    lags = lagrangian_objects(enumerate_lagrangians(d, n))
    first = draw(st.sampled_from(lags))
    # one pair in three shares its Lagrangian, where distinct labels are orthogonal
    second = first if draw(st.integers(0, 2)) == 0 else draw(st.sampled_from(lags))
    reps = st.lists(st.integers(-50, 50), min_size=2 * n, max_size=2 * n)
    return StabilizerLabel.make(first, draw(reps)), StabilizerLabel.make(second, draw(reps))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(label_pairs())
def test_gram_closed_form_equals_the_hilbert_schmidt_inner(pair):
    x, y = pair
    brute = hs_inner(stab_projector(x), stab_projector(y)).as_fraction()
    assert _pair_value(x, y) == brute
    if x.L == y.L:
        assert brute == (1 if x == y else 0)


def test_gram_value_multisets():
    g21 = stabilizer_states(2, 1).gram
    ms = g21.value_multiset()
    assert ms == {Fraction(1): 6, Fraction(0): 6, Fraction(1, 2): 24}
    g31 = stabilizer_states(3, 1).gram
    ms = g31.value_multiset()
    assert ms == {Fraction(1): 12, Fraction(0): 24, Fraction(1, 3): 108}


def test_gram_d3_n2_value_set():
    gram = stabilizer_states(3, 2).gram
    values = set(gram.value_multiset())
    assert values == {Fraction(1), Fraction(0), Fraction(1, 3), Fraction(1, 9)}


def test_gram_bruteforce_tensor_matches_closed_form_sample():
    # (2,3) is the `slow` golden replay of `gram --d 2 --n 3`
    for d, n in ((2, 1), (2, 2), (3, 1), (5, 1), (7, 1), (3, 2)):
        fam = stabilizer_states(d, n)
        brute = bruteforce_gram(family_projectors(fam))
        assert brute.values == fam.gram.values
        # equal values over sorted legends of the values that occur: equal codes
        assert brute.legend == fam.gram.legend
        assert np.array_equal(brute.codes, fam.gram.codes)
    # the brute force itself against the Hilbert-Schmidt loop, for qubits and rebits
    for projs in map(family_projectors, (stabilizer_states(2, 2), real_clifford_orbit(1))):
        loop = tuple(tuple(hs_inner(a, b).as_fraction() for b in projs) for a in projs)
        assert bruteforce_gram(projs).values == loop


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rebit_closed_form_gram_equals_brute_force(n):
    # the dense breadth-first orbit: the same states in the same order
    dense = dense_real_clifford_orbit(n)
    brute = bruteforce_gram(dense)
    gram = rebit_gram(n)
    assert brute.values == gram.values
    assert brute.legend == gram.legend and np.array_equal(brute.codes, gram.codes)


def _gram_families():
    lags = lagrangian_objects(enumerate_lagrangians(3, 2))
    return {
        **{f"stab{d}{n}": stabilizer_states(d, n).gram
           for d, n in ((3, 1), (3, 2), (5, 1), (2, 1), (2, 2))},
        "rebit2": rebit_gram(2),
        # an S_f family: its states are pairwise non-orthogonal, so no 0
        "sf32": build_gram(label_set([StabilizerLabel.make(L, (1, 0, 2, 0)) for L in lags])),
    }


@pytest.mark.parametrize("name", ["stab31", "stab32", "stab51", "stab21", "stab22", "rebit2",
                                  "sf32"])
def test_gram_codes_index_a_sorted_legend(name):
    gram = _gram_families()[name]
    legend = gram.legend
    assert all(isinstance(v, Fraction) for v in legend)
    assert all(a < b for a, b in zip(legend, legend[1:]))
    assert (name == "sf32") == (0 not in legend)
    assert gram.codes.shape == (gram.size, gram.size)
    assert gram.codes.dtype == np.min_scalar_type(len(legend) - 1)
    assert set(np.unique(gram.codes).tolist()) == set(range(len(legend)))
    assert not gram.codes.flags.writeable
    with pytest.raises(ValueError):
        gram.codes[0, 0] = 0
    values = gram.values
    assert all(values[i][j] == legend[gram.codes[i, j]]
               for i in range(gram.size) for j in range(gram.size))
    assert gram.value_multiset() == {
        v: sum(row.count(v) for row in values) for v in legend}


def rank_by_sorted_set(keys):
    """Codes and distinct keys by sorting the set of Python ints."""
    distinct = sorted(set(keys.ravel().tolist()))
    return np.searchsorted(distinct, keys).astype(np.min_scalar_type(len(distinct) - 1)), distinct


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((np.uint8, np.uint16, np.int64, object)), st.integers(0, 40),
       st.sampled_from((1, 3, 15, 16, 17, 300)), st.integers(1, 9), st.data())
def test_from_keys_ranks_like_the_sorted_set(dtype, low, span, size, data):
    # spans below and above the table's width, gaps, and a nonzero lowest key;
    # Python-int keys (object) beyond int64, as `trace_pairs` may return them
    if np.dtype(dtype).kind == "u":
        values = st.integers(low, min(low + span - 1, np.iinfo(dtype).max))
    else:
        low += 2 ** 64 if dtype is object else 0
        values = st.integers(low - span, low + span - 1)
    keys = np.array(data.draw(st.lists(values, min_size=size * size, max_size=size * size)),
                    dtype=dtype).reshape(size, size)
    gram = GramMatrix.from_keys(keys, Fraction)
    codes, distinct = rank_by_sorted_set(keys)
    assert gram.codes.dtype == codes.dtype and gram.codes.tolist() == codes.tolist()
    assert gram.legend == tuple(map(Fraction, distinct))
    assert all(type(v) is Fraction and type(v.numerator) is int for v in gram.legend)


def test_mono_sum_equals_the_dense_sum():
    # the reference adds the dense matrices one by one, then scales; random
    # phases and repeated terms exercise cancelling roots of unity
    rng = random.Random(5)
    for d, n in ((2, 1), (2, 2), (3, 1), (5, 1), (3, 2)):
        r = 4 if d == 2 else d
        for _ in range(4):
            monos = [weyl_mono(d, n, tuple(rng.randrange(d) for _ in range(2 * n)))
                     .phase_shift(rng.randrange(r)) for _ in range(rng.randrange(1, 12))]
            acc = OpMatrix.zero(conductor_for(d), d ** n)
            for mono in monos:
                acc = acc + mono.to_matrix()
            assert mono_sum(monos, Fraction(1, d ** n)) == acc.scale(Fraction(1, d ** n))


def test_gram_bruteforce_beyond_int64_is_exact(monkeypatch):
    # the scale 2^29 turns the entry 1 into 2^29: dim^2 * 2^58 = 2^60 products
    # fit int64, but each expands through the 4 * 4 coefficient pairs of the
    # multiplication tensor mod Phi_12 (entries +-1): 4 * 16 * 2^58 >= 2^63,
    # so the traces are summed on the Python ints
    p = from_rational(12, [[1, 0], [0, Fraction(1, 2 ** 29)]])
    ints, scale = trace_pairs([p], [p])
    assert (ints.tolist(), scale) == ([[2 ** 58 + 1]], 2 ** 58)
    assert Fraction(ints[0, 0], scale) == trace_product(p, p).as_fraction()
    monkeypatch.setattr(cyclotomic, "fits_int64", lambda *args: False)
    ints, scale = trace_pairs([p], [p])
    assert (ints.tolist(), scale) == ([[2 ** 58 + 1]], 2 ** 58)


def test_shifted_vertices_sum_to_zero_per_functional():
    # sum over characters of (Pi - 1/d) vanishes for each Lagrangian
    d, n = 3, 1
    fam = stabilizer_states(d, n)
    by_l = {}
    for lab, pi in zip(set_labels(fam), family_projectors(fam)):
        by_l.setdefault(lab.L, []).append(pi)
    third = Fraction(1, 3)
    for group in by_l.values():
        acc = OpMatrix.zero(group[0].m, 3)
        for pi in group:
            acc = acc + pi - OpMatrix.identity(pi.m, 3).scale(third)
        assert acc == OpMatrix.zero(group[0].m, 3)


def test_build_gram_takes_labels_under_the_entry_cap(monkeypatch):
    fam = stabilizer_states(2, 1)
    for other in (family_projectors(fam), moments.phase_point_operator_set(3, 1)):
        with pytest.raises(ValueError, match="set of stabilizer states"):
            build_gram(other)
    monkeypatch.setattr(operators, "MAX_ENTRIES", 35)
    with pytest.raises(BudgetExceeded, match=r"6\^2 Gram entries exceed budget"):
        build_gram(fam)


@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3)])
def test_each_stabilizer_family_is_one_set(d, n):
    # the Theorem 1 search and the moment checks read one cached object
    assert stabilizer_states(d, n) is stabilizer_operator_set(d, n) is stabilizer_set(d, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_each_rebit_family_is_one_set(n):
    assert real_clifford_orbit(n) is rebit_operator_set(n)
    assert rebit_gram(n) is real_clifford_orbit(n).gram


def test_a_set_builds_its_gram_on_first_read_only(monkeypatch):
    # fresh caches behind the constructors, and every Gram build counted
    built = []

    def counted(q):
        built.append(q.size)
        return build_gram(q)

    monkeypatch.setattr(operators, "build_gram", counted)
    stab = lru_cache(operators.stabilizer_set.__wrapped__)
    rebits = lru_cache(real_clifford_orbit.__wrapped__)
    for module in (operators, moments):
        monkeypatch.setattr(module, "stabilizer_set", stab)
    for module in (moments, symmetry):
        monkeypatch.setattr(module, "real_clifford_orbit", rebits)
    sets = [stabilizer_operator_set(3, 1), stabilizer_operator_set(2, 2), rebit_operator_set(2)]
    assert built == []  # the moment checks' sets carry no Gram
    assert stabilizer_states(3, 1) is sets[0] and built == [12]
    assert stabilizer_states(2, 2) is sets[1] and built == [12, 60]
    assert rebit_gram(2) is sets[2].gram and built == [12, 60, 24]
    grams = [stabilizer_states(3, 1).gram, stabilizer_states(2, 2).gram, rebit_gram(2)]
    assert [q.gram for q in sets] == grams and built == [12, 60, 24]


def _sign_order_reference(labels):
    """The d = 2 order of `stabilizer_set` by one Python key per label: the
    Lagrangian's basis, then the negated functionals [rep, b_i] on it."""
    return tuple(sorted(labels, key=lambda x: (x.L.basis, [-x.functional(b) for b in x.L.basis])))


@pytest.mark.parametrize("n", [1, 2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_qubit_states_are_ordered_by_their_basis_signs(n):
    expected = _sign_order_reference(enumerated_labels(2, n))
    assert set_labels(stabilizer_set(2, n)) == expected


def test_gram_csv_format():
    gram = stabilizer_states(2, 1).gram
    text = gram.to_csv()
    assert text.splitlines()[0].split(",")[0] == "1/1"
