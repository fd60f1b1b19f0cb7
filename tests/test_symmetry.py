import itertools
import math
import random
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from stabsym import operators, symmetry
from stabsym.clifford import qubit_gate_action, real_clifford_orbit, transpose_action
from stabsym.errors import Mismatch, NotBasisPreserving, SearchTimeout
from stabsym.operators import GramMatrix, stabilizer_set, stabilizer_states
from stabsym.permgroup import PermGroup, compose, schreier_sims
from stabsym.phase_space import (
    Lagrangians,
    all_vectors,
    enumerate_lagrangians,
    label_permutations,
    wreath_compose,
    wreath_decompose,
)
from stabsym.symmetry import (
    AutomorphismSearch,
    gram_automorphisms,
    predicted_generators,
    predicted_group,
    predicted_order_formula,
    rebit_gram,
    sf_checks,
    verify_theorem1,
)

from dense_oracles import (
    StabilizerLabel,
    assert_schreier_trees,
    conjugation,
    dense_real_clifford_orbit,
    dense_sf_machinery,
    extended_clifford_perms,
    family_projectors,
    lagrangian_objects,
    perm_from_matrix_action,
    qubit_gate,
    real_gates,
    weyl,
    wreath_recompose,
)


def test_colored_graph_from_gram():
    gram = stabilizer_states(2, 1).gram
    assert gram.size == 6
    assert gram.legend == (Fraction(0), Fraction(1, 2), Fraction(1))


@pytest.mark.parametrize(
    "d,n,expected",
    [(2, 1, 48), (3, 1, 31104), (2, 2, 23040)],
)
def test_gram_automorphism_orders(d, n, expected):
    group = gram_automorphisms(stabilizer_states(d, n).gram)
    assert group.order() == expected


def test_gram_automorphism_order_d5():
    group = gram_automorphisms(stabilizer_states(5, 1).gram)
    assert group.order() == 120 ** 6 * 720  # (d!)^(d+1) (d+1)!


def test_wreath_order_formula_small():
    import math

    for d in (2, 3):
        group = gram_automorphisms(stabilizer_states(d, 1).gram)
        assert group.order() == math.factorial(d) ** (d + 1) * math.factorial(d + 1)


def test_generators_preserve_gram():
    fam = stabilizer_states(3, 1)
    group = gram_automorphisms(fam.gram)
    values = fam.gram.values
    for g in group.generators:
        for i in range(fam.size):
            for j in range(fam.size):
                assert values[g[i]][g[j]] == values[i][j]


def test_basis_partition_preserved_n1():
    fam = stabilizer_states(3, 1)
    group = gram_automorphisms(fam.gram)
    blocks = fam.blocks
    for g in group.generators:
        wreath_decompose(g, blocks)  # raises if g scatters a basis block


def test_predicted_wreath_orders():
    assert predicted_group(3, 1, "wreath").order() == 31104
    assert predicted_group(2, 1, "wreath").order() == 48


def test_predicted_extended_clifford_orders():
    assert predicted_group(2, 1, "extended_clifford").order() == 48
    assert predicted_group(2, 2, "extended_clifford").order() == 23040


def test_predicted_agsp_order_31():
    # |AGSp(Z_3^2)| = 9 * 24 * 2
    assert predicted_group(3, 1, "agsp").order() == 432


def test_transpose_adds_factor_two_at_22():
    # the extended Clifford group is twice the Clifford conjugation group
    fam = stabilizer_states(2, 2)
    actions = [qubit_gate_action(2, g, i) for i in range(2) for g in ("H", "S")]
    actions.append(qubit_gate_action(2, "CZ", 0, 1))
    gens = label_permutations(fam.lags, fam.index, fam.reps, actions)
    unitary_part = schreier_sims(gens, degree=fam.size)
    assert unitary_part.order() == 11520
    transpose_perm = label_permutations(fam.lags, fam.index, fam.reps, [transpose_action(2)])[0]
    assert not unitary_part.contains(transpose_perm)


@pytest.mark.parametrize("n", [1, 2])
def test_label_generators_match_dense_conjugation(n):
    # the extended Clifford generators on the qubit states, and the real
    # Clifford generators on the rebits, read off the conjugated projectors
    fam = stabilizer_states(2, n)
    dense = extended_clifford_perms(n, family_projectors(fam))
    assert predicted_generators(2, n, "extended_clifford") == tuple(dense)
    rebits = dense_real_clifford_orbit(n)
    dense = [perm_from_matrix_action(rebits, conjugation(qubit_gate(n, *g))) for g in real_gates(n)]
    assert predicted_generators(2, n, "real_clifford") == tuple(dense)


def test_qubit_cases_build_without_dense_kernels(monkeypatch):
    # the d = 2 Gram is the closed form, not traces of projectors, and no
    # generator builds or conjugates a matrix
    def dense(*args):
        raise AssertionError("dense kernel called")

    monkeypatch.setattr(operators.OpMatrix, "_set", dense)  # behind every OpMatrix built
    monkeypatch.setattr(operators.OpMatrix, "__matmul__", dense)
    fam = stabilizer_set.__wrapped__(2, 2)
    assert fam.gram.values == stabilizer_states(2, 2).gram.values
    assert real_clifford_orbit.__wrapped__(2).gram.values == rebit_gram(2).values
    for variant in ("extended_clifford", "real_clifford"):
        assert predicted_generators.__wrapped__(2, 2, variant) == predicted_generators(2, 2, variant)


def test_verify_theorem1_case1():
    report = verify_theorem1(3, 1, "wreath")
    assert report["match"] and report["computed_order"] == 31104
    assert report["basis_partition_preserved"]


def test_verify_theorem1_case2_single_qubit():
    # single-qubit coincidence: the group is simultaneously the wreath product
    # and the extended-Clifford action
    assert verify_theorem1(2, 1, "wreath")["match"]
    assert verify_theorem1(2, 1, "extended_clifford")["match"]


def test_verify_theorem1_case4_rebits():
    report = verify_theorem1(2, 2, "real_clifford")
    assert report["match"]
    assert report["computed_order"] == predicted_group(2, 2, "real_clifford").order()


def test_rebit_gram_values():
    gram = rebit_gram(2)
    assert set(gram.value_multiset()) <= {Fraction(1), Fraction(0), Fraction(1, 2), Fraction(1, 4)}


def test_rebit_gram_is_cached():
    assert rebit_gram(2) is rebit_gram(2)


def test_seed_rejection():
    fam = stabilizer_states(2, 1)
    blocks = fam.blocks
    bad = list(range(6))  # swap one state across bases: breaks the Gram
    a, b = blocks[0][0], blocks[1][0]
    bad[a], bad[b] = bad[b], bad[a]
    with pytest.raises(Mismatch):
        AutomorphismSearch(fam.gram, seeds=[bad])


def test_theorem1_at_odd_d_reads_no_projectors(monkeypatch):
    # the labels and the Gram are all that Theorem 1 reads, at odd d and,
    # with the closed form, at d = 2 too; the patched builder is the one
    # behind every dense matrix, the Weyl and phase-point ones included
    def unread(*args):
        raise AssertionError("dense matrix built")

    monkeypatch.setattr(operators.OpMatrix, "_set", unread)
    fam = stabilizer_set.__wrapped__(3, 1)
    for variant in ("wreath", "agsp"):
        seeds = predicted_generators.__wrapped__(3, 1, variant)
        assert gram_automorphisms(fam.gram, seeds=seeds).order() == 31104
    with pytest.raises(AssertionError, match="dense matrix built"):
        weyl(3, 1, (1, 0))
    qubits = stabilizer_set.__wrapped__(2, 1)
    seeds = predicted_generators.__wrapped__(2, 1, "extended_clifford")
    assert gram_automorphisms(qubits.gram, seeds=seeds).order() == 48


@pytest.mark.parametrize("budget", [math.nan, math.inf, -1])
def test_search_rejects_a_budget_it_cannot_keep(budget):
    # a NaN or infinite deadline is never reached
    with pytest.raises(ValueError, match="finite number >= 0"):
        gram_automorphisms(stabilizer_states(2, 1).gram, time_budget=budget)


def test_search_timeout_raises():
    fam = stabilizer_states(3, 2)
    with pytest.raises(SearchTimeout) as info:
        gram_automorphisms(fam.gram, time_budget=0)  # spent before the first node
    exc = info.value
    assert exc.nodes >= 1 and exc.depth >= 0
    assert f"{exc.nodes} nodes visited" in str(exc) and f"depth {exc.depth}" in str(exc)
    if exc.partial is not None:
        assert f"partial order {exc.partial.order()}" in str(exc)


def test_seed_chain_timeout_reports_progress(monkeypatch):
    # the seeds' random chain is built under the search deadline: with a
    # chain clock past every deadline, the budget runs out while the chain is
    # built, after the first path, and the search reports how far it got
    import stabsym.permgroup

    fam = stabilizer_states(3, 1)
    seeds = predicted_generators(3, 1, "wreath")
    monkeypatch.setattr(stabsym.permgroup, "time", SimpleNamespace(monotonic=lambda: math.inf))
    with pytest.raises(SearchTimeout) as info:
        gram_automorphisms(fam.gram, time_budget=600, seeds=seeds)
    exc = info.value
    assert str(exc).startswith("automorphism search budget of 600 s exhausted")
    assert exc.nodes > exc.depth >= 1
    assert exc.partial is not None
    assert f"partial order {exc.partial.order()}" in str(exc)


def test_adjoin_timeout_reports_progress(monkeypatch):
    # an automorphism the search finds is adjoined under the search
    # deadline: with the chain built and its clock then past every deadline,
    # the first adjoin raises and the search reports how far it got
    import stabsym.permgroup

    build = PermGroup.random_chain.__func__
    monkeypatch.setattr(PermGroup, "random_chain", classmethod(
        lambda cls, gens, base, degree, deadline=None: build(cls, gens, base, degree)))
    monkeypatch.setattr(stabsym.permgroup, "time", SimpleNamespace(monotonic=lambda: math.inf))
    with pytest.raises(SearchTimeout) as info:
        gram_automorphisms(stabilizer_states(3, 1).gram, time_budget=600)
    exc = info.value
    assert str(exc).startswith("automorphism search budget of 600 s exhausted")
    assert exc.nodes > exc.depth >= 1
    assert exc.partial is not None and exc.partial.generators == []
    assert f"partial order {exc.partial.order()}" in str(exc)


# ---------------------------------------------------------------------------
# Independent oracles for refinement and search

def brute_force_order(colors):
    m = np.array(colors)
    perms = np.array(list(itertools.permutations(range(len(m)))))
    images = m[perms[:, :, None], perms[:, None, :]]
    return int(np.count_nonzero((images == m).all(axis=(1, 2))))


def gram_of(colors):
    return GramMatrix.from_keys(np.array(colors), Fraction)


@st.composite
def color_matrices(draw, max_n=7, max_colors=4):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_colors))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(st.integers(0, k - 1))
    return m


def naive_equitable(m, labels):
    """Coarsest equitable refinement by full rounds, as a set of cells."""
    n = len(m)
    while True:
        sig = [(labels[v], tuple(sorted((labels[u], m[v][u]) for u in range(n))))
               for v in range(n)]
        keys = sorted(set(sig))
        new = [keys.index(x) for x in sig]
        if len(keys) == len(set(labels)):
            return cells_of(new)
        labels = new


def cells_of(labels):
    cells = {}
    for v, c in enumerate(labels):
        cells.setdefault(int(c), set()).add(v)
    return {frozenset(c) for c in cells.values()}


def is_equitable(m, labels):
    m = np.asarray(m)
    for cell in cells_of(labels):
        rows = sorted(cell)
        for other in cells_of(labels):
            cols = sorted(other)
            for c in np.unique(m):
                counts = (m[np.ix_(rows, cols)] == c).sum(axis=1)
                if np.unique(counts).size > 1:
                    return False
    return True


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(color_matrices())
def test_search_order_matches_brute_force(colors):
    assert gram_automorphisms(gram_of(colors)).order() == brute_force_order(colors)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(color_matrices())
def test_search_order_is_unchanged_by_wide_codes(colors):
    # uint16 codes, as `GramMatrix.from_keys` stores more than 256 colours
    gram = gram_of(colors)
    wide = GramMatrix(gram.codes.astype(np.uint16), gram.legend)
    assert gram_automorphisms(wide).order() == gram_automorphisms(gram).order()


def test_wide_colours_cycle_beside_a_rigid_block():
    # a 40-cycle beside 300 vertices each with its own diagonal colour: 303
    # colours, so uint16 codes, and the dihedral group of order 80
    m = np.full((340, 340), 2)
    i = np.arange(40)
    m[i, i] = 0
    m[i, (i + 1) % 40] = m[(i + 1) % 40, i] = 1
    m[range(40, 340), range(40, 340)] = np.arange(3, 303)
    gram = gram_of(m)
    assert gram.codes.dtype == np.uint16
    assert gram_automorphisms(gram).order() == 80


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(color_matrices(), st.data())
def test_refine_is_coarsest_equitable(colors, data):
    n = len(colors)
    search = AutomorphismSearch(gram_of(colors))
    start = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    start = np.unique(start, return_inverse=True)[1].ravel()  # contiguous cell ids
    labels, _ = search.refine(start)
    assert sorted(np.unique(labels)) == list(range(int(labels.max()) + 1))
    assert is_equitable(search.m, labels)
    assert cells_of(labels) == naive_equitable(search.m.tolist(), start.tolist())
    # a child queues only its individualized singleton
    sizes = np.bincount(labels)
    movable = np.flatnonzero(sizes[labels] > 1)
    if movable.size == 0:
        return
    v = int(movable[data.draw(st.integers(0, movable.size - 1))])
    child, cell = search._individualize(labels, v)
    refined, _ = search.refine(child, cell)
    assert is_equitable(search.m, refined)
    assert cells_of(refined) == cells_of(search.refine(child)[0])


@pytest.mark.parametrize("d,n,variant", [(3, 1, "wreath"), (2, 2, "extended_clifford")])
def test_refine_commutes_with_automorphisms(d, n, variant):
    gram = stabilizer_states(d, n).gram
    search = AutomorphismSearch(gram)
    root, _ = search.refine(np.zeros(gram.size, dtype=np.int64))
    rng = random.Random(7)
    for g in predicted_group(d, n, variant).generators:
        g = np.array(g)
        assert np.array_equal(root[g], root)
        a = b = root
        while (cell := search._target_cell(a)) is not None:
            v = rng.choice(np.flatnonzero(a == cell).tolist())
            a, inv_a = search.refine(*search._individualize(a, v))
            b, inv_b = search.refine(*search._individualize(b, int(g[v])))
            # the labelling at the image node is the permuted labelling
            assert np.array_equal(b[g], a)
            assert inv_a == inv_b


def test_many_colors_certify_exactly():
    # 20 colors on 8 points: exact refinement puts no bound on the colors
    n = 8
    swap = [1, 0, 3, 2, 5, 4, 7, 6]
    classes = {}
    colors = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            key = min((i, j), (swap[i], swap[j]), (j, i), (swap[j], swap[i]))
            colors[i][j] = classes.setdefault(key, len(classes))
    assert len(classes) >= 8
    assert gram_automorphisms(gram_of(colors)).order() == brute_force_order(colors) >= 2


THEOREM1_CASES = [
    (3, 2, "agsp"), (2, 1, "wreath"), (3, 1, "wreath"), (5, 1, "wreath"), (7, 1, "wreath"),
    (2, 2, "extended_clifford"), (2, 2, "real_clifford"),
]


def theorem1_gram(d, n, variant):
    return rebit_gram(n) if variant == "real_clifford" else stabilizer_states(d, n).gram


def sympy_order(gens):
    return PermutationGroup([Permutation(list(g)) for g in gens]).order()


@pytest.mark.parametrize("d,n,variant", [
    (2, 1, "wreath"), (3, 1, "wreath"), (5, 1, "wreath"),
    (2, 2, "extended_clifford"), (3, 2, "agsp"), (2, 2, "real_clifford"),
])
def test_known_order_chain_is_complete(d, n, variant):
    # the random chain of the predicted generators on another base is a chain
    # of a subgroup of their group; the chain the search certifies on its own
    # base has their group's order and holds every deterministic strong
    # generator, so it is complete
    gens = predicted_generators(d, n, variant)
    degree = len(gens[0])
    hint = list(range(degree - 1, degree - 4, -1))
    moved = PermGroup.random_chain(gens, hint, degree)
    oracle = PermutationGroup([Permutation(list(g)) for g in gens])
    assert moved.base[:3] == hint
    assert_schreier_trees(moved)
    assert all(oracle.contains(Permutation(list(g))) for g in moved.level_gens[0])
    assert oracle.order() % moved.order() == 0
    certified = gram_automorphisms(theorem1_gram(d, n, variant), seeds=gens)
    assert certified.order() == oracle.order()
    assert all(certified.contains(g) for g in predicted_group(d, n, variant).level_gens[0])


def test_random_chain_past_its_deadline_raises_with_a_partial_chain():
    gens = predicted_generators(3, 1, "wreath")
    with pytest.raises(SearchTimeout) as info:
        PermGroup.random_chain(gens, [11, 10], len(gens[0]), deadline=time.monotonic() - 1)
    partial = info.value.partial
    assert partial is not None and partial.base == [11, 10]
    assert partial.order() < predicted_group(3, 1, "wreath").order()
    assert f"partial order {partial.order()}" in str(info.value)


class NoSchreierSims(PermGroup):
    @classmethod
    def from_generators(cls, *args, **kwargs):
        raise AssertionError("deterministic Schreier-Sims ran")


@pytest.mark.parametrize("d,n,variant", THEOREM1_CASES)
def test_search_certifies_the_seed_chain(d, n, variant, monkeypatch):
    # the search finds no automorphism outside the seeds' random chain, so
    # the certified order is the predicted order with no deterministic
    # Schreier-Sims, and it is sympy's order for the predicted generators
    gens = predicted_generators(d, n, variant)
    want = sympy_order(gens)
    chain = gram_automorphisms(theorem1_gram(d, n, variant), seeds=gens)
    assert chain.generators == list(gens)  # nothing found
    assert chain.order() == want
    monkeypatch.setattr(symmetry, "PermGroup", NoSchreierSims)
    report = verify_theorem1(d, n, variant)
    assert report["computed_order"] == report["predicted_order"] == want
    assert report["match"]


@pytest.mark.parametrize("d,n,variant", [
    (2, 1, "wreath"), (3, 1, "wreath"), (2, 2, "extended_clifford"), (3, 2, "agsp"),
])
def test_seed_prefixes_certify_the_full_order(d, n, variant):
    # seeds generating a proper subgroup leave automorphisms to the search;
    # the certified chain still has the full order
    gens = predicted_generators(d, n, variant)
    gram = theorem1_gram(d, n, variant)
    want = predicted_group(d, n, variant).order()
    for k in range(len(gens)):
        chain = gram_automorphisms(gram, seeds=gens[:k])
        assert chain.generators[:k] == list(gens[:k])
        assert chain.order() == want


WREATH_5_BASE = [5 * j + i for i in range(4) for j in range(6)]


@pytest.mark.parametrize("d,n,variant,seeded,nodes,base,sizes", [
    (3, 2, "agsp", True, 5, [0, 45, 21, 1], [360, 243, 48, 2]),
    (5, 1, "wreath", True, 25, WREATH_5_BASE, [30, 25, 20, 15, 10, 5] + [4] * 6 + [3] * 6 + [2] * 6),
    (5, 1, "wreath", False, 435, WREATH_5_BASE, [30, 25, 20, 15, 10, 5] + [4] * 6 + [3] * 6 + [2] * 6),
])
def test_search_nodes_base_and_orders_are_pinned(d, n, variant, seeded, nodes, base, sizes):
    # the pruning orbit read from the level's Schreier tree, and recomputed
    # after an adjoin for the vertices that found nothing only, prunes the
    # same vertices as the orbit of every processed vertex (figures of the
    # search that recomputed that orbit by `orbit_of`)
    seeds = predicted_generators(d, n, variant) if seeded else None
    search = AutomorphismSearch(theorem1_gram(d, n, variant), seeds=seeds)
    chain = search.run()
    assert search.nodes == nodes
    assert search.base_seq == chain.base == base
    assert [len(t) for t in chain.transversals] == sizes
    assert chain.order() == predicted_order_formula(d, n, variant)


@pytest.mark.parametrize("d,n,variant", [(3, 1, "wreath"), (2, 2, "extended_clifford")])
def test_reports_do_not_depend_on_the_random_chain_stop(d, n, variant, monkeypatch):
    import stabsym.permgroup

    report = verify_theorem1(d, n, variant)
    monkeypatch.setattr(stabsym.permgroup, "RANDOM_SIFT_STOP", 0)
    gens = predicted_generators(d, n, variant)
    chain = gram_automorphisms(theorem1_gram(d, n, variant), seeds=gens)
    assert len(chain.generators) > len(gens)  # the fallback runs
    assert verify_theorem1(d, n, variant) == report


@pytest.mark.parametrize("d,n,variant,order", [
    (2, 1, "wreath", 48), (3, 1, "wreath", 31104), (5, 1, "wreath", 2149908480000000),
    (7, 1, "wreath", 16786680128857246009393152000000000), (3, 1, "agsp", 432),
    (3, 2, "agsp", 8398080), (2, 1, "extended_clifford", 48), (2, 2, "extended_clifford", 23040),
    (2, 3, "extended_clifford", 185794560), (2, 2, "real_clifford", 1152),
    (2, 3, "real_clifford", 2580480),
])
def test_predicted_order_formula_gives_the_certified_orders(d, n, variant, order):
    # the orders of the autgroup goldens and of the predicted chains
    assert predicted_order_formula(d, n, variant) == order


@pytest.mark.parametrize("d,n,variant", [
    (3, 1, "wreath"), (3, 2, "agsp"), (2, 2, "extended_clifford"), (2, 2, "real_clifford"),
])
def test_a_wrong_closed_form_order_is_a_mismatch(d, n, variant, monkeypatch):
    # the search matches the predicted generators, but their order is not
    # the paper's group's
    order = predicted_group(d, n, variant).order()
    monkeypatch.setattr(symmetry, "predicted_order_formula", lambda *args: order + 1)
    with pytest.raises(Mismatch, match="not the closed form") as info:
        verify_theorem1(d, n, variant)
    assert info.value.witness == order


def proper_subgroup_generators(d, n, variant):
    gens = predicted_generators(d, n, variant)
    # (2,2) without the transpose; (3,1) without the outer block cycle
    return gens[:-1]


@pytest.mark.parametrize("d,n,variant", [(3, 1, "wreath"), (2, 2, "extended_clifford")])
def test_a_too_small_prediction_is_a_mismatch(d, n, variant, monkeypatch):
    gens = proper_subgroup_generators(d, n, variant)
    assert sympy_order(gens) < predicted_group(d, n, variant).order()
    monkeypatch.setattr(symmetry, "predicted_generators", lambda *args: gens)
    with pytest.raises(Mismatch) as info:
        verify_theorem1(d, n, variant)
    witness = info.value.witness
    assert witness is not None
    assert not PermutationGroup([Permutation(list(g)) for g in gens]).contains(
        Permutation(list(witness)))


def test_the_fallback_chain_runs_under_the_budget(monkeypatch, capsys):
    # when the search finds automorphisms outside the seeds' chain, the
    # deterministic chain of the prediction gets what remains of the budget:
    # with the chain clock past every deadline once the search is done, it
    # stops and reports the partial order instead of running unbounded
    import stabsym.permgroup
    from stabsym.cli import main

    gens = proper_subgroup_generators(3, 1, "wreath")
    search = symmetry.gram_automorphisms

    def search_then_expire(*args, **kwargs):
        out = search(*args, **kwargs)
        monkeypatch.setattr(stabsym.permgroup, "time",
                            SimpleNamespace(monotonic=lambda: math.inf))
        return out

    monkeypatch.setattr(symmetry, "predicted_generators", lambda *args: gens)
    monkeypatch.setattr(symmetry, "gram_automorphisms", search_then_expire)
    with pytest.raises(SearchTimeout) as info:
        verify_theorem1(3, 1, "wreath", time_budget=600)
    partial = info.value.partial
    assert partial is not None and partial.order() < sympy_order(gens)
    assert str(info.value) == (f"time budget of 600 s exhausted by the predicted group's "
                               f"chain (partial order {partial.order()})")
    monkeypatch.setattr(stabsym.permgroup, "time", time)
    assert main(["autgroup", "--d", "3", "--n", "1", "--budget-seconds", "600"]) == 3
    assert capsys.readouterr().err.startswith(
        "budget exceeded: time budget of 600 s exhausted by the predicted group's chain "
        "(partial order ")


def test_wreath_decompose_identity_and_roundtrip():
    d = 5
    fam = stabilizer_states(d, 1)
    blocks = fam.blocks
    ident = tuple(range(fam.size))
    sigma, inners = wreath_decompose(ident, blocks)
    assert sigma == tuple(range(d + 1))
    assert all(g == tuple(range(d)) for g in inners)
    group = predicted_group(d, 1, "wreath")
    rng = random.Random(6)
    perm = ident
    for _ in range(6):
        perm = compose(perm, rng.choice(group.generators))
    sigma, inners = wreath_decompose(perm, blocks)
    assert wreath_recompose(sigma, inners, blocks) == perm


@pytest.mark.parametrize("d", [3, 5])
def test_wreath_coordinates_of_computed_generators_recompose(d):
    # every generator the search returns for `autgroup --d d --n 1`, the
    # seeds and any it found, decomposes and recomposes to itself
    blocks = stabilizer_states(d, 1).blocks
    gens = gram_automorphisms(stabilizer_states(d, 1).gram,
                              seeds=predicted_generators(d, 1, "wreath")).generators
    for g in gens:
        coordinates = wreath_decompose(g, blocks)
        assert wreath_recompose(*coordinates, blocks) == tuple(g)
        assert wreath_compose(*coordinates, blocks) == tuple(g)


def test_wreath_decompose_rejects_scattering():
    d = 3
    fam = stabilizer_states(d, 1)
    bad = list(range(fam.size))
    blocks = fam.blocks
    bad[blocks[0][0]], bad[blocks[1][0]] = bad[blocks[1][0]], bad[blocks[0][0]]
    with pytest.raises(NotBasisPreserving, match="block 0 is scattered"):
        wreath_decompose(tuple(bad), blocks)


def test_theorem1_reports_a_scattered_block(monkeypatch):
    def scattered(perm, blocks):
        raise NotBasisPreserving("block 0 is scattered by the permutation")

    monkeypatch.setattr(symmetry, "wreath_decompose", scattered)
    assert verify_theorem1(3, 1, "wreath")["basis_partition_preserved"] is False


def test_computed_symmetries_fix_uniform_sum():
    # unitality: the induced permutation fixes the uniform state sum exactly
    from stabsym.operators import OpMatrix

    fam = stabilizer_states(3, 1)
    group = gram_automorphisms(fam.gram)
    projs = family_projectors(fam)
    total = OpMatrix.zero(projs[0].m, 3)
    for p in projs:
        total = total + p
    for g in group.generators:
        permuted = OpMatrix.zero(total.m, 3)
        for i in range(fam.size):
            permuted = permuted + projs[g[i]]
        assert permuted == total


def _sf_verdicts(d, n, bs):
    """(sum rule, C) of the family of each b, by `_sf_families`."""
    trace, holds = symmetry._sf_families(d, n, bs)
    return [(h, str(Fraction(t, d ** n + 1)) if h else None)
            for t, h in zip(trace.tolist(), holds.tolist())]


def test_sf_machinery_d3_n1_all_b():
    assert _sf_verdicts(3, 1, list(all_vectors(3, 2))) == [(True, "1")] * 9


def test_sf_machinery_d3_n2_sampled():
    rng = random.Random(33)
    bs = [tuple(rng.randrange(3) for _ in range(4)) for _ in range(6)]
    assert _sf_verdicts(3, 2, bs) == [(True, "4")] * 6


@pytest.mark.parametrize("d,n,samples", [(3, 1, None), (5, 1, None), (3, 2, 12)])
def test_sf_weyl_basis_equals_the_dense_projector_sum(d, n, samples):
    # the dense Gram also finds every family pairwise non-orthogonal, as
    # every coset b + L holds b
    bs = list(all_vectors(d, 2 * n))
    if samples is not None:
        bs = random.Random(5).sample(bs, samples)
    for b, verdict in zip(bs, _sf_verdicts(d, n, bs)):
        nonorth, *dense = dense_sf_machinery(d, n, b)
        assert nonorth is True
        assert verdict == tuple(dense)


def test_sf_sum_in_chunks_equals_one_call(monkeypatch):
    bs = list(all_vectors(3, 4))
    whole = symmetry._sf_families(3, 2, bs)
    monkeypatch.setattr(symmetry, "BLOCK_BYTES", 1)  # one b per sf_checks call
    chunked = symmetry._sf_families(3, 2, bs)
    for x, y in zip(whole, chunked):
        assert x.tolist() == y.tolist()


@pytest.mark.parametrize("d,n", [(3, 1), (5, 1), (3, 2)])
def test_sf_checks_reject_a_mutated_family(d, n):
    b = (1,) * (2 * n)
    every = enumerate_lagrangians(d, n)
    dropped = Lagrangians(d, n, every.basis[1:])  # one Lagrangian dropped
    assert bool(sf_checks(every, np.array([b]))[1][0]) is True
    assert bool(sf_checks(dropped, np.array([b]))[1][0]) is False
    family = [StabilizerLabel.make(L, b) for L in lagrangian_objects(dropped)]
    assert dense_sf_machinery(d, n, b, family)[1] is False
