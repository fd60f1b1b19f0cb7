import itertools
import math
import random
import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from stabsym.errors import SearchTimeout
from stabsym.permgroup import (
    PermGroup,
    compose,
    identity_perm,
    inverse,
    schreier_sims,
)
from stabsym.symmetry import predicted_generators, predicted_group

from dense_oracles import assert_schreier_trees, is_identity, tree_representative


def cycle(n, pts):
    p = list(range(n))
    for i, x in enumerate(pts):
        p[x] = pts[(i + 1) % len(pts)]
    return tuple(p)


def test_s4_order():
    gens = [cycle(4, (0, 1)), cycle(4, (0, 1, 2, 3))]
    assert schreier_sims(gens).order() == 24


def test_symmetric_group_orders():
    for n in (5, 8, 12):
        gens = [cycle(n, (0, 1)), cycle(n, tuple(range(n)))]
        assert schreier_sims(gens).order() == math.factorial(n)


def test_alternating_group():
    n = 7
    gens = [cycle(n, (0, 1, 2)), cycle(n, tuple(range(n)))]  # n odd: full cycle is even
    assert schreier_sims(gens).order() == math.factorial(n) // 2


def test_membership():
    n = 6
    gens = [cycle(n, (0, 1, 2)), cycle(n, (2, 3, 4, 5))]
    g = schreier_sims(gens)
    rng = random.Random(4)
    for _ in range(30):
        p = identity_perm(n)
        for _ in range(rng.randrange(1, 8)):
            p = compose(p, rng.choice(gens))
        assert g.contains(p)


def test_non_membership():
    n = 6
    g = schreier_sims([cycle(n, (0, 1, 2)), cycle(n, (3, 4, 5))])
    assert g.order() == 9
    assert not g.contains(cycle(n, (0, 3)))
    assert not g.contains(cycle(n, (0, 1)))


def test_direct_product_order():
    n = 7
    g = schreier_sims([cycle(n, (0, 1)), cycle(n, (3, 4, 5, 6))])
    # <(01)> x <(3456)> has order 2 * 4 = 8
    assert g.order() == 8
    assert not g.contains(cycle(n, (1, 2)))


def test_inverse_and_compose():
    rng = random.Random(1)
    n = 10
    p = list(range(n))
    rng.shuffle(p)
    p = tuple(p)
    assert is_identity(compose(p, inverse(p)))
    assert is_identity(compose(inverse(p), p))


def test_incremental_add_generator():
    n = 5
    g = PermGroup.from_generators([cycle(n, (0, 1))], degree=n)
    assert g.order() == 2
    g.add_generator(cycle(n, (0, 1, 2, 3, 4)))
    assert g.order() == 120


def test_serialization_fields():
    g = schreier_sims([cycle(4, (0, 1)), cycle(4, (0, 1, 2, 3))])
    blob = g.to_json()
    assert blob["degree"] == 4 and blob["order"] == "24"
    assert blob["base"] and blob["strong_generators"]


def test_past_deadline_raises_with_partial_chain():
    gens = [cycle(8, (0, 1)), cycle(8, tuple(range(8)))]
    with pytest.raises(SearchTimeout) as info:
        PermGroup.from_generators(gens, deadline=time.monotonic() - 1)
    partial = info.value.partial
    assert partial is not None
    assert f"partial order {partial.order()}" in str(info.value)
    assert PermGroup.from_generators(gens, deadline=time.monotonic() + 600).order() == 40320


def test_adjoin_past_its_deadline_raises_with_the_chain_unchanged():
    group = PermGroup.from_generators([cycle(8, (0, 1))])
    with pytest.raises(SearchTimeout) as info:
        group.adjoin(cycle(8, tuple(range(8))), deadline=time.monotonic() - 1)
    assert info.value.partial is group
    assert group.generators == [cycle(8, (0, 1))] and group.order() == 2
    assert f"partial order {group.order()}" in str(info.value)
    group.adjoin(cycle(8, tuple(range(8))), deadline=time.monotonic() + 600)
    assert len(group.generators) == 2 and group.order() > 2


# ---------------------------------------------------------------------------
# Oracles: sympy's Schreier-Sims and the group axioms

@st.composite
def generator_sets(draw, max_degree=9, max_gens=3):
    """Degree and generators; each generator is a cycle or a permutation of a
    random support, so the groups range from trivial and intransitive ones
    to S_n."""
    n = draw(st.integers(1, max_degree))
    gens = []
    for _ in range(draw(st.integers(1, max_gens))):
        support = draw(st.lists(st.integers(0, n - 1), unique=True))
        if draw(st.booleans()):
            gens.append(cycle(n, support))
            continue
        p = list(range(n))
        for a, b in zip(support, draw(st.permutations(support))):
            p[a] = b
        gens.append(tuple(p))
    return n, gens


def sympy_group(gens):
    return PermutationGroup([Permutation(list(g)) for g in gens])


@settings(max_examples=200, deadline=None)
@given(generator_sets())
@example((4, [cycle(4, (0, 1)), cycle(4, (0, 1, 2, 3))]))
@example((9, [cycle(9, (0, 1, 2)), cycle(9, (2, 3, 4, 5, 6, 7, 8))]))
def test_order_matches_sympy(case):
    n, gens = case
    assert schreier_sims(gens, degree=n).order() == sympy_group(gens).order()


@settings(max_examples=50, deadline=None)
@given(generator_sets(), st.lists(st.integers(0, 2), min_size=1, max_size=16))
def test_random_words_are_members(case, word):
    n, gens = case
    group = schreier_sims(gens, degree=n)
    p = identity_perm(n)
    for i in word:
        p = compose(p, gens[i % len(gens)])
    assert group.contains(p)


@settings(max_examples=50, deadline=None)
@given(generator_sets(), st.data())
def test_generator_times_outside_transposition_is_not_member(case, data):
    n, gens = case
    oracle = sympy_group(gens)
    outside = [t for t in (cycle(n, pair) for pair in itertools.combinations(range(n), 2))
               if not oracle.contains(Permutation(list(t)))]
    assume(outside)
    group = schreier_sims(gens, degree=n)
    p = compose(data.draw(st.sampled_from(gens)), data.draw(st.sampled_from(outside)))
    assert not group.contains(p)


@settings(max_examples=50, deadline=None)
@given(generator_sets())
def test_schreier_trees_give_the_representatives(case):
    n, gens = case
    assert_schreier_trees(schreier_sims(gens, degree=n))


def sift_composing_every_level(group, p):
    """The sift that composes with the representative's inverse at every
    level, the identity's included, each inverse inverted from the product
    along the tree path."""
    for l, b in enumerate(group.base):
        if p[b] not in group.transversals[l]:
            return p, l
        p = compose(inverse(tree_representative(group, l, p[b])), p)
    return p, len(group.base)


@settings(max_examples=50, deadline=None)
@given(generator_sets(), st.data())
def test_sift_skipping_fixed_base_points_gives_the_same_residue(case, data):
    n, gens = case
    group = schreier_sims(gens, degree=n)
    for _ in range(4):
        p = tuple(data.draw(st.permutations(range(n))))
        assert group._sift(p) == sift_composing_every_level(group, p)


def assert_chain_of_a_subgroup(group, gens, base):
    """`group` is a chain of a subgroup of <gens> on a base starting with
    `base`: prefix kept, Schreier trees, strong generators in sympy's group,
    an order dividing sympy's, and every generator a member."""
    oracle = sympy_group(gens)
    assert group.base[:len(base)] == list(base)
    assert_schreier_trees(group)
    strong = group.level_gens[0] if group.level_gens else []
    assert all(oracle.contains(Permutation(list(g))) for g in strong)
    assert oracle.order() % group.order() == 0
    assert all(group.contains(g) for g in gens)


@settings(max_examples=50, deadline=None)
@given(generator_sets(), st.data())
def test_random_chain_is_a_chain_of_a_subgroup(case, data):
    n, gens = case
    base = data.draw(st.permutations(range(n)))[:data.draw(st.integers(0, n))]
    assert_chain_of_a_subgroup(PermGroup.random_chain(gens, base, n), gens, base)


@settings(max_examples=50, deadline=None)
@given(generator_sets(), st.data())
def test_adjoin_keeps_a_chain_of_a_subgroup(case, data):
    # adjoining forms no Schreier generators: the chain stays a chain of a
    # subgroup of its generators, now one holding the adjoined element
    n, gens = case
    group = PermGroup.random_chain(gens[:1], data.draw(st.permutations(range(n))), n)
    for g in gens[1:]:
        group.adjoin(g)
    assert group.generators == [tuple(g) for g in gens]
    assert_chain_of_a_subgroup(group, gens, [])


def test_random_chain_stops_on_a_run_of_identity_sifts(monkeypatch):
    import stabsym.permgroup

    gens = [cycle(6, (0, 1)), cycle(6, tuple(range(6)))]
    assert PermGroup.random_chain(gens, [0, 1], 6).order() == 720
    # with a run length of 0 only the generators are sifted: their residues
    # (0 1) and (1 2 3 4 5) give orbits of 6 and 5 points
    monkeypatch.setattr(stabsym.permgroup, "RANDOM_SIFT_STOP", 0)
    sifted = PermGroup.random_chain(gens, [0, 1], 6)
    assert sifted.level_gens[0] == [cycle(6, (0, 1)), cycle(6, (1, 2, 3, 4, 5))]
    assert sifted.order() == 30


def test_schreier_trees_of_theorem1_groups():
    for args in ((3, 1, "wreath"), (5, 1, "wreath"), (2, 2, "extended_clifford"),
                 (2, 2, "real_clifford")):
        assert_schreier_trees(predicted_group(*args))


def test_orbits_grow_without_composing(monkeypatch):
    # a random chain caches a representative only for an orbit point, and
    # adjoining a generator closes the orbits by gathers over the frontier,
    # with no composition
    import stabsym.permgroup

    gens = predicted_generators(5, 1, "wreath")
    degree = len(gens[0])
    group = PermGroup.random_chain(gens, [], degree)
    for tree, reps, inverse_reps in zip(group.transversals, group._reps, group._inverse_reps):
        assert reps.keys() <= tree.keys() and inverse_reps.keys() <= tree.keys()

    partial = PermGroup.random_chain(gens[:1], [], degree)
    composed, extended = [], []
    compose_ = stabsym.permgroup.compose
    extend_orbit = PermGroup._extend_orbit

    def counting_extend_orbit(self, l):
        def counting_compose(p, q):
            composed.append(l)
            return compose_(p, q)

        extended.append(l)
        monkeypatch.setattr(stabsym.permgroup, "compose", counting_compose)
        try:
            return extend_orbit(self, l)
        finally:
            monkeypatch.setattr(stabsym.permgroup, "compose", compose_)

    monkeypatch.setattr(PermGroup, "_extend_orbit", counting_extend_orbit)
    points = sum(len(tree) for tree in partial.transversals)
    for g in gens[1:]:
        partial.adjoin(g)
    assert extended and sum(len(tree) for tree in partial.transversals) > points
    assert composed == []
    assert_schreier_trees(partial)
