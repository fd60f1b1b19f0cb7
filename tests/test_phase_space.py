import json
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabsym.clifford import qubit_gate_action
from stabsym.errors import BudgetExceeded
from stabsym.operators import stabilizer_set
from stabsym.phase_space import (
    all_vectors,
    enumerate_lagrangians,
    enumerate_stabilizer_labels,
    label_permutations,
    lagrangian_count,
    lagrangian_tables,
)

from dense_oracles import (
    LagrangianSubspace,
    StabilizerLabel,
    Subspace,
    brute_force_lagrangians,
    enumerate_subspaces,
    enumerated_labels,
    functional_label_by_search,
    label_from_functional,
    label_objects,
    lagrangian_objects,
    matrix_apply,
    real_gates,
    set_labels,
    subset,
    symplectic_form,
    transform_label,
    transform_labels,
    vec_add,
)



def test_symplectic_canonical_pair():
    assert symplectic_form((1, 0), (0, 1), 3) == 1


def test_symplectic_antisymmetry():
    for d in (2, 3, 5):
        for a in all_vectors(d, 2):
            assert symplectic_form(a, a, d) == 0


def test_symplectic_matches_componentwise_oracle():
    rng = random.Random(3)
    d, n = 5, 2
    for _ in range(100):
        a = tuple(rng.randrange(d) for _ in range(4))
        b = tuple(rng.randrange(d) for _ in range(4))
        oracle = (sum(a[i] * b[n + i] for i in range(n)) - sum(b[i] * a[n + i] for i in range(n))) % d
        assert symplectic_form(a, b, d) == oracle


@pytest.mark.parametrize("d,n,count", [(2, 1, 3), (3, 1, 4), (5, 1, 6), (2, 2, 15), (3, 2, 40)])
def test_lagrangian_counts_vs_bruteforce(d, n, count):
    lags = enumerate_lagrangians(d, n)
    assert len(lags) == count
    expected = 1
    for k in range(1, n + 1):
        expected *= d ** k + 1
    assert len(lags) == expected
    assert {L.basis for L in lagrangian_objects(lags)} == brute_force_lagrangians(d, n)


def test_lagrangians_sorted_and_unique():
    bases = [L.basis for L in lagrangian_objects(enumerate_lagrangians(3, 2))]
    assert bases == sorted(bases)
    assert len(set(bases)) == len(bases)


def test_lagrangians_maximal():
    d, n = 3, 2
    for L in lagrangian_objects(enumerate_lagrangians(d, n)):
        pts = set(L.points())
        for v in all_vectors(d, 2 * n):
            if v in pts:
                continue
            assert any(symplectic_form(v, u, d) for u in L.basis)


@pytest.mark.parametrize("d,n,count", [(2, 1, 6), (3, 1, 12), (5, 1, 30), (2, 2, 60), (3, 2, 360)])
def test_stabilizer_label_counts(d, n, count):
    lags, index, reps = enumerate_stabilizer_labels(d, n)
    assert len(index) == len(reps) == count
    assert len(index) == d ** n * len(lags)
    assert lags is enumerate_lagrangians(d, n)


def _coset_points(L, rep):
    return [vec_add(rep, b, L.d) for b in L.points()]


def test_cosets_partition_phase_space():
    d, n = 3, 2
    labels = enumerated_labels(d, n)
    for block in stabilizer_set(d, n).blocks[:5]:
        seen = set()
        for x in block:
            pts = set(_coset_points(labels[x].L, labels[x].rep))
            assert not (pts & seen)
            seen |= pts
        assert len(seen) == d ** (2 * n)


def test_budget_exceeded():
    from stabsym.clifford import sp_generators

    # every site reads the one cap MAX_POINTS = 4096 < 5^6
    with pytest.raises(BudgetExceeded, match=r"d\^\(2n\) = 15625 exceeds cap 4096"):
        enumerate_lagrangians(5, 3)
    with pytest.raises(BudgetExceeded, match=r"d\^\(2n\) = 15625 exceeds cap 4096"):
        enumerate_stabilizer_labels(5, 3)
    with pytest.raises(BudgetExceeded, match="phase space too large for certification"):
        sp_generators(5, 3)


def test_subspace_enumeration_count_gaussian():
    # number of 2-dim subspaces of Z_3^4 is the Gaussian binomial [4 2]_3 = 130
    subspaces = enumerate_subspaces(3, 4, 2)
    assert subspaces.shape == (130, 2, 4)
    assert len({basis.tobytes() for basis in subspaces}) == 130


_SIZES = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3), (5, 2), (7, 2),
          pytest.param(3, 3, marks=pytest.mark.slow), pytest.param(2, 4, marks=pytest.mark.slow)]


@pytest.mark.parametrize("d,n", _SIZES)
def test_enumerated_lagrangians_are_canonical_isotropic_and_sorted(d, n):
    lags = enumerate_lagrangians(d, n)
    assert len(lags) == lagrangian_count(d, n)
    assert lags.basis.dtype == np.int64 and not lags.basis.flags.writeable
    bases = [L.basis for L in lagrangian_objects(lags)]
    assert bases == sorted(set(bases))  # distinct and sorted
    for L in lagrangian_objects(lags):
        assert Subspace.from_rows(L.basis, d).basis == L.basis
        assert not any(symplectic_form(u, v, d) for u in L.basis for v in L.basis)
        assert all(type(x) is int for row in L.basis for x in row)


@pytest.mark.parametrize("d,n", _SIZES)
def test_enumerated_labels_are_canonical_and_sorted(d, n):
    lags, index, reps = enumerate_stabilizer_labels(d, n)
    assert lags is enumerate_lagrangians(d, n)
    assert not index.flags.writeable and not reps.flags.writeable
    assert np.bincount(index).tolist() == [d ** n] * len(lags)
    labels = label_objects(lags, index, reps)
    keys = [(lab.L.basis, lab.rep) for lab in labels]
    assert keys == sorted(set(keys))
    for lab in labels:
        assert lab.L.reduce(lab.rep) == lab.rep
        assert all(type(x) is int for x in lab.rep)


def test_constructors_take_integer_arrays():
    # a Z_d matrix is an integer array: it gives the subspace, Lagrangian
    # and label that the same rows or rep as tuples give, holding ints
    rows = [(1, 0, 2, 1), (0, 1, 1, 0)]
    for cls in (Subspace, LagrangianSubspace):
        for array in (np.array(rows), np.array(rows, dtype=np.uint8)):
            sub = cls.from_rows(array, 3)
            assert sub == cls.from_rows(rows, 3) and repr(sub) == repr(cls.from_rows(rows, 3))
            assert all(type(x) is int for row in sub.basis for x in row)
    assert Subspace.from_rows(np.zeros((0, 4), dtype=int), 3, ambient=4) == \
        Subspace.from_rows([], 3, ambient=4)
    L = LagrangianSubspace.from_rows(rows, 3)
    for rep in (np.array([4, 5, 0, 7]), np.array([4, 5, 0, 7], dtype=np.uint8)):
        lab = StabilizerLabel.make(L, rep)
        assert lab == StabilizerLabel.make(L, (4, 5, 0, 7))
        assert repr(lab) == repr(StabilizerLabel.make(L, [4, 5, 0, 7]))
        assert all(type(x) is int for x in lab.rep)
        assert json.loads(json.dumps(list(lab.rep))) == list(lab.rep)
    line = LagrangianSubspace.from_rows([(1, 2)], 3)
    assert repr(StabilizerLabel.make(line, np.array([4, 5]))) == \
        repr(StabilizerLabel.make(line, (4, 5)))


def test_canonical_rep_is_lex_smallest():
    d, n = 3, 2
    rng = random.Random(8)
    for L in lagrangian_objects(enumerate_lagrangians(d, n))[:10]:
        v = tuple(rng.randrange(d) for _ in range(4))
        assert StabilizerLabel.make(L, v).rep == min(_coset_points(L, v))


def test_label_from_functional_zero():
    d = 3
    L = lagrangian_objects(enumerate_lagrangians(d, 1))[0]
    lab = label_from_functional(L, [0])
    assert lab.rep == L.reduce((0, 0))
    assert L.contains(lab.rep) or lab.rep == (0, 0)


def test_label_from_functional_simple():
    d = 3
    L = LagrangianSubspace.from_rows([(1, 0)], d)
    lab = label_from_functional(L, [1])
    assert symplectic_form(lab.rep, (1, 0), d) == 1


def test_label_from_functional_roundtrip():
    d, n = 3, 2
    rng = random.Random(14)
    lags = lagrangian_objects(enumerate_lagrangians(d, n))
    for _ in range(100):
        L = rng.choice(lags)
        values = [rng.randrange(d) for _ in range(n)]
        lab = label_from_functional(L, values)
        for b, v in zip(L.basis, values):
            assert symplectic_form(lab.rep, b, d) == v


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (2, 3), (5, 1)])
@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_label_from_functional_matches_the_solver(d, n, data):
    # a = J f with f the values at the pivots, against a search of all points
    lags = lagrangian_objects(enumerate_lagrangians(d, n))
    values = data.draw(st.lists(st.integers(-d, 2 * d - 1), min_size=n * len(lags),
                                max_size=n * len(lags)))
    for k, L in enumerate(lags):
        part = values[n * k:n * (k + 1)]
        assert label_from_functional(L, part) == functional_label_by_search(L, part)


def test_transform_label_bijection_and_lagrangian_images():
    # a similitude-like map must permute phase space and send cosets to cosets
    d, n = 3, 2
    R = np.array([[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])  # shear-type
    a = (1, 2, 0, 1)
    images = {vec_add(matrix_apply(R, x, d), a, d) for x in all_vectors(d, 4)}
    assert len(images) == d ** 4
    labels = enumerated_labels(d, n)
    mapped = {transform_label(lab, R, a) for lab in labels}
    assert len(mapped) == len(labels)
    for lab in list(labels)[:20]:
        out = transform_label(lab, R, a)
        assert set(_coset_points(out.L, out.rep)) == {
            vec_add(matrix_apply(R, x, d), a, d) for x in _coset_points(lab.L, lab.rep)}


def test_similitude_action_bijective_and_coset_preserving_32():
    # a genuine similitude (multiplier -1) composed with a translation:
    # bijection on all 81 points and Lagrangian cosets map to Lagrangian cosets
    from stabsym.clifford import k_alpha, sp_generators

    d, n = 3, 2
    matrix, a = sp_generators(d, n)[3] @ k_alpha(d, n, 2) % d, (2, 0, 1, 1)

    def apply(x):
        return vec_add(matrix_apply(matrix, x, d), a, d)

    images = {apply(x) for x in all_vectors(d, 2 * n)}
    assert len(images) == d ** (2 * n)
    for lab in enumerated_labels(d, n):
        out = transform_label(lab, matrix, a)
        assert set(_coset_points(out.L, out.rep)) == {
            apply(x) for x in _coset_points(lab.L, lab.rep)}


def test_transform_labels_maps_like_transform_label():
    # each Lagrangian is mapped once; every image label must still be the one
    # transform_label builds alone, for shears, similitudes and translations
    from stabsym.clifford import k_alpha, sp_generators

    for d, n in ((3, 1), (5, 1), (3, 2)):
        labels = enumerated_labels(d, n)
        shift = tuple(range(1, 2 * n + 1))
        for r in (*sp_generators(d, n), k_alpha(d, n, 2)):
            assert transform_labels(labels, r, shift) == [
                transform_label(lab, r, shift) for lab in labels
            ]


@pytest.mark.parametrize("d,n", [(3, 1), (5, 1), (3, 2)])
def test_label_permutations_match_transform_label(d, n):
    # the index tables give the permutation of the label objects that
    # transform_label builds one by one
    from stabsym.clifford import k_alpha, sp_generators

    labels = enumerated_labels(d, n)
    index = {lab: k for k, lab in enumerate(labels)}
    shift = tuple(range(1, 2 * n + 1))
    maps = [(r, shift) for r in (*sp_generators(d, n), k_alpha(d, n, 2))]
    assert label_permutations(*enumerate_stabilizer_labels(d, n), maps) == [
        tuple(index[transform_label(lab, r, shift)] for lab in labels) for r, _ in maps]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_label_permutations_match_transform_labels_on_qubit_gates(n):
    # every qubit gate and transposition, signs t_L included
    from stabsym.clifford import qubit_gate_action, transpose_action

    labels = enumerated_labels(2, n)
    index = {lab: k for k, lab in enumerate(labels)}
    gates = [(g, i) for i in range(n) for g in ("H", "S", "Y", "Z")]
    gates += [("CZ", i, j) for i in range(n) for j in range(n) if i != j]
    maps = [qubit_gate_action(n, *g) for g in gates] + [transpose_action(n)]
    assert label_permutations(*enumerate_stabilizer_labels(2, n), maps) == [
        tuple(index[lab] for lab in transform_labels(labels, *m)) for m in maps]


@pytest.mark.slow
def test_label_permutations_match_transform_labels_at_four_qubits():
    # opt-in (`-m slow`): Z_0, H_0 and CZ_01 on the 36 720 labels at (2,4)
    labels = enumerated_labels(2, 4)
    index = {lab: k for k, lab in enumerate(labels)}
    maps = [qubit_gate_action(4, *g) for g in (("Z", 0), ("H", 0), ("CZ", 0, 1))]
    assert label_permutations(*enumerate_stabilizer_labels(2, 4), maps) == [
        tuple(index[lab] for lab in transform_labels(labels, *m)) for m in maps]


def _bad_map_error(labels, matrix, shift=(0, 0, 0, 0)):
    eye = np.eye(4, dtype=np.int64)
    with pytest.raises(ValueError) as info:
        label_permutations(*labels, [(eye, (0, 0, 0, 0)), (matrix, shift)])
    assert str(info.value).startswith("map 1: ")
    return str(info.value)


def test_label_permutations_refuse_a_singular_or_non_similitude_map():
    labels = enumerate_stabilizer_labels(3, 2)
    singular = np.diag([1, 1, 1, 0])
    stretch = np.diag([1, 1, 1, 2])
    for m in (singular, stretch):
        assert "not exactly one labelled Lagrangian" in _bad_map_error(labels, m)


def test_label_permutations_refuse_images_outside_the_labels():
    from stabsym.clifford import sp_generators

    lags, index, reps = enumerate_stabilizer_labels(3, 2)
    kept = index != index[0]  # all but one Lagrangian's block
    with pytest.raises(ValueError, match="^map 0: .*not exactly one labelled Lagrangian"):
        label_permutations(lags, index[kept], reps[kept],
                           [(r, (0, 0, 0, 0)) for r in sp_generators(3, 2)])
    eye = np.eye(4, dtype=np.int64)
    assert "coset has no label" in _bad_map_error((lags, index[1:], reps[1:]), eye, (1, 0, 0, 0))
    with pytest.raises(ValueError, match="^map 0: .*not a bijection"):  # a label given twice
        label_permutations(lags, np.r_[index, index[:1]], np.r_[reps, reps[:1]],
                           [(eye, (0, 0, 0, 0))])


def test_label_permutations_on_the_rebit_labels_give_the_closure_generators():
    # a labelled subset: Z, H and CZ permute the rebit labels of the closure
    # as its own generators do
    from stabsym.clifford import real_clifford_closure

    labels, gens = real_clifford_closure(2)
    maps = [qubit_gate_action(2, *g) for g in real_gates(2)]
    assert label_permutations(*labels, maps) == list(gens)


def test_label_permutations_refuse_the_s_gate_on_the_rebit_labels():
    # S takes |+> to |+i>, whose Lagrangian holds Y and is not a rebit one
    from stabsym.clifford import real_clifford_closure

    labels, _ = real_clifford_closure(2)
    with pytest.raises(ValueError, match="^map 1: .*not exactly one labelled Lagrangian"):
        label_permutations(*labels, [qubit_gate_action(2, "Z", 0), qubit_gate_action(2, "S", 0)])


def test_label_permutations_refuse_singular_or_non_similitude_maps_with_eta():
    # at d = 2 with eta, the map is refused before any pre-image is read
    from stabsym.clifford import similitude_multiplier, transpose_action

    labels = enumerate_stabilizer_labels(2, 2)
    eye, zero, eta = transpose_action(2)
    singular = np.diag([1, 1, 1, 0])
    shear = np.array([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert similitude_multiplier(shear, 2) is None
    for m in (singular, shear):
        with pytest.raises(ValueError, match="^map 1: .*not exactly one labelled Lagrangian"):
            label_permutations(*labels, [(eye, zero, eta), (m, zero, eta)])


@pytest.mark.slow
def test_real_clifford_gate_permutations_match_transform_label_at_four_qubits():
    # opt-in (`-m slow`): the 14 gates Z_i, H_i, CZ_ij on the 36 720 labels at
    # (2,4), each checked on 64 seeded labels against the per-label oracle
    labels = enumerated_labels(2, 4)
    index = {lab: k for k, lab in enumerate(labels)}
    maps = [qubit_gate_action(4, *g) for g in real_gates(4)]
    start = time.perf_counter()
    perms = label_permutations(*enumerate_stabilizer_labels(2, 4), maps)
    assert time.perf_counter() - start < 10
    rng = random.Random(29)
    for perm, m in zip(perms, maps):
        for x in rng.sample(range(len(labels)), 64):
            assert perm[x] == index[transform_label(labels[x], *m)]


@pytest.mark.parametrize("d,n", [(3, 2), (2, 3)])
def test_from_rows_keeps_the_canonical_basis(d, n):
    # enumerate_lagrangians takes its canonical rows as they are, with no
    # second row reduction; reducing them must give them back
    for L in lagrangian_objects(enumerate_lagrangians(d, n)):
        assert Subspace.from_rows(L.basis, d).basis == L.basis
        # equal, so hashed alike and the same dict key, also from rows that
        # need reducing
        for rows in (L.basis, (np.array(L.basis[::-1]) * (d - 1)) % d):
            M = LagrangianSubspace.from_rows(rows, d)
            assert M == L and hash(M) == hash(L) and {L: 0}[M] == 0


@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
def test_lagrangian_index_matches_a_grouping_by_basis(d, n):
    # a set's Lagrangian index and blocks are a grouping of its label
    # objects by basis tuple, on the set in order and on a shuffled half;
    # the reps are the objects' reps, as int64
    q = stabilizer_set(d, n)
    where = {L.basis: k for k, L in enumerate(lagrangian_objects(q.lags))}
    halves = random.Random(n).sample(range(q.size), q.size // 2)
    for part in (q, subset(q, halves)):
        labels = set_labels(part)
        assert part.index.tolist() == [where[lab.L.basis] for lab in labels]
        assert part.reps.dtype == np.int64
        assert part.reps.tolist() == [list(lab.rep) for lab in labels]
        assert part.blocks == [[x for x, lab in enumerate(labels) if where[lab.L.basis] == k]
                               for k in range(len(where))]


def _canonical_labels(d, n):
    """The stabilizer labels of (d, n) from objects alone: the brute-force
    Lagrangians, each with the reduced reps of every point, sorted by
    (basis, rep)."""
    lags = [LagrangianSubspace(basis, d, 2 * n) for basis in sorted(brute_force_lagrangians(d, n))]
    return sorted({StabilizerLabel.make(L, v) for L in lags for v in all_vectors(d, 2 * n)},
                  key=lambda lab: (lab.L.basis, lab.rep))


@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3)])
def test_family_arrays_equal_the_label_objects(d, n):
    # the enumeration's arrays, in order, against the labels built one
    # object at a time (the rebits': `test_real_closure_equals_...`)
    lags, index, reps = enumerate_stabilizer_labels(d, n)
    labels = _canonical_labels(d, n)
    assert lags.basis.tolist() == [list(map(list, L.basis))
                                   for L in dict.fromkeys(lab.L for lab in labels)]
    assert [(lags.basis[l].tolist(), rep) for l, rep in zip(index.tolist(), reps.tolist())] == [
        (list(map(list, lab.L.basis)), list(lab.rep)) for lab in labels]
    if d > 2:  # at d = 2 the set's order is `test_qubit_states_are_ordered_by_...`
        assert set_labels(stabilizer_set(d, n)) == tuple(labels)


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1), (5, 1), (3, 2), (5, 2)])
def test_lagrangian_tables_pivots_are_the_property(d, n):
    # read from the basis array: the first nonzero column of each row, not
    # its largest entry, which at odd d can be a 2 past the pivot's 1
    lags = enumerate_lagrangians(d, n)
    assert lagrangian_tables(lags).pivots.tolist() == [list(L.pivots)
                                                       for L in lagrangian_objects(lags)]
