import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from stabsym.clifford import ExtCliffordElement, similitude_multiplier
from stabsym.zmod import inv_mod, legendre, rref


def test_composite_modulus_rejected():
    # a Z_d matrix is an integer array; its consumers refuse a composite d
    eye = np.eye(2, dtype=int)
    with pytest.raises(ValueError, match="modulus 6 is not prime"):
        ExtCliffordElement(mu=0, a=(0, 0), S=eye, alpha=1, d=6)
    with pytest.raises(ValueError, match="modulus 6 is not prime"):
        similitude_multiplier(eye, 6)
    with pytest.raises(ValueError):
        rref(eye, 4)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_field_axioms_exhaustive(d):
    # Z_d as the residues 0..d-1: `inv_mod` inverts every nonzero residue,
    # whatever lift it is given, and permutes them; 0 has no inverse
    inverses = [inv_mod(a, d) for a in range(1, d)]
    assert sorted(inverses) == list(range(1, d))
    for a, b in zip(range(1, d), inverses):
        assert a * b % d == 1
        assert inv_mod(a - d, d) == inv_mod(a + 3 * d, d) == b
    with pytest.raises(ZeroDivisionError):
        inv_mod(0, d)
    with pytest.raises(ZeroDivisionError):
        inv_mod(-d, d)


def test_rref_identity_z3():
    ech, pivots = rref(np.eye(2, dtype=int), 3)
    assert ech.tolist() == [[1, 0], [0, 1]] and pivots.tolist() == [0, 1]


def test_rref_dependent_rows_z5():
    ech, pivots = rref(np.array([[1, 2], [2, 4]]), 5)
    assert ech.tolist() == [[1, 2], [0, 0]]
    assert pivots.tolist() == [0, 2]  # a zero row's pivot is the column count


def _oracle_rank(rows, d):
    """Independent elimination: forward elimination with an explicit inverse table."""
    inv = {a: next(b for b in range(1, d) if (a * b) % d == 1) for a in range(1, d)}
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % d), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        f = inv[rows[rank][c] % d]
        rows[rank] = [(f * x) % d for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] % d:
                g = rows[i][c] % d
                rows[i] = [(x - g * y) % d for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_rref_rank_matches_oracle_random_z3():
    rng = random.Random(11)
    stack = [[[rng.randrange(3) for _ in range(4)] for _ in range(4)] for _ in range(50)]
    _, pivots = rref(np.array(stack), 3)
    assert (pivots < 4).sum(-1).tolist() == [_oracle_rank(rows, 3) for rows in stack]


def test_rref_idempotent_and_row_space_preserved():
    rng = random.Random(5)
    stack = np.array([[[rng.randrange(5) for _ in range(4)] for _ in range(3)] for _ in range(30)])
    ech, pivots = rref(stack, 5)
    again, pivots2 = rref(ech, 5)
    assert (again == ech).all() and (pivots2 == pivots).all()
    for rows, r, p in zip(stack.tolist(), ech.tolist(), pivots.tolist()):
        # each original row reduces to zero against the echelon basis
        basis = [(brow, q) for brow, q in zip(r, p) if q < 4]
        for row in rows:
            v = [x % 5 for x in row]
            for brow, q in basis:
                f = v[q]
                v = [(x - f * y) % 5 for x, y in zip(v, brow)]
            assert all(x == 0 for x in v)


@st.composite
def mixed_stacks(draw):
    """(d, stack): r x c matrices over Z_d, r < c or r > c, with a zero and
    a full-rank member among random ones."""
    d = draw(st.sampled_from([2, 3, 5, 7, 61]))
    r, c = draw(st.sampled_from([(1, 3), (2, 4), (2, 5), (3, 1), (4, 2), (5, 3)]))
    entries = st.integers(-d, 2 * d - 1)
    members = draw(st.lists(st.lists(st.lists(entries, min_size=c, max_size=c),
                                     min_size=r, max_size=r), min_size=1, max_size=5))
    k = min(r, c)
    x = np.array(draw(st.lists(entries, min_size=r * c, max_size=r * c))).reshape(r, c)
    full = x.copy()  # unit-triangular row mixes of I_k beside or above free entries
    full[:k, :k] = np.eye(k, dtype=int)
    full[:k, :k] += np.tril(x[:k, :k], -1)
    members += [np.zeros((r, c), dtype=int).tolist(), full.tolist()]
    order = draw(st.permutations(range(len(members))))
    return d, np.array([members[i] for i in order])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(mixed_stacks())
def test_rref_matches_sympy(case):
    d, stack = case
    r, c = stack.shape[1:]
    field = GF(d, symmetric=False)
    ech, pivots = rref(stack, d)
    ranks = []
    for a, e, p in zip(stack, ech, pivots):
        ref = DomainMatrix([[field(int(x)) for x in row] for row in a], (r, c), field)
        ref_ech, ref_pivots = ref.rref()
        rank = len(ref_pivots)
        ranks.append(rank)
        assert e.tolist() == [[int(x) for x in row] for row in ref_ech.to_list()]
        assert p.tolist() == [*ref_pivots, *[c] * (r - rank)]
    assert 0 in ranks and min(r, c) in ranks


def test_legendre_small_values():
    assert legendre(1, 3) == 1
    assert legendre(2, 3) == -1  # squares mod 3 are {0, 1}
    assert legendre(0, 5) == 0


def test_legendre_matches_square_table_z5():
    squares = {(x * x) % 5 for x in range(1, 5)}
    for a in range(5):
        expected = 0 if a == 0 else (1 if a in squares else -1)
        assert legendre(a, 5) == expected


@pytest.mark.parametrize("d", [3, 5, 7])
def test_legendre_multiplicative(d):
    for a in range(1, d):
        for b in range(1, d):
            assert legendre(a, d) * legendre(b, d) == legendre((a * b) % d, d)
