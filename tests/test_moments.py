import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import moments_reference
import stabsym
from stabsym import clifford, cyclotomic, moments, operators
from stabsym.clifford import metaplectic, real_clifford_orbit
from stabsym.cyclotomic import CycNumber, conductor_for
from stabsym.errors import StabsymError, Unsupported
from stabsym.moments import (
    OperatorSet,
    _Echelon,
    _dir_basis,
    _pair_sums,
    _solve_linear_positive,
    check_lin_jor_condition,
    check_lin_wig_condition,
    is_complex_2design,
    is_complex_3design,
    is_real_4design,
    is_real_6design,
    phase_point_operator_set,
    rebit_operator_set,
    span_dimension,
    stabilizer_operator_set,
    trace_table,
)
from stabsym.operators import (
    OpMatrix,
    rational_part,
    stabilizer_set,
    stabilizer_states,
)

from dense_oracles import (
    bruteforce_gram,
    coefficient_stack,
    dense,
    family_projectors,
    first_moment,
    hermitian_basis,
    hs_inner,
    jordan_slab,
    lowest_terms,
    moment_form,
    mono_traces,
    set_elements,
    trace_pairs,
    weyl,
)


def test_f1_of_identity_is_one():
    q = stabilizer_operator_set(3, 1)
    one = OpMatrix.identity(q.conductor, 3)
    assert moment_form(q, 1, [one]) == CycNumber.one(q.conductor)


def test_f1_is_normalized_trace():
    # 1-design property: F_1(A) = tr(A)/d
    q = stabilizer_operator_set(3, 1)
    rng = random.Random(0)
    basis = [m.to_matrix() for _, m in hermitian_basis(3, 1)]
    for _ in range(10):
        coeffs = [Fraction(rng.randrange(-3, 4)) for _ in basis]
        a = OpMatrix.zero(q.conductor, 3)
        for c, b in zip(coeffs, basis):
            a = a + b.scale(c)
        assert moment_form(q, 1, [a]) == a.trace() * Fraction(1, 3)


def test_first_moment_is_maximally_mixed():
    for d, n in ((3, 1), (2, 1), (5, 1)):
        q = stabilizer_operator_set(d, n)
        expected = OpMatrix.identity(q.conductor, d ** n).scale(Fraction(1, d ** n))
        assert first_moment(q) == expected


def test_trace_table_matches_hs_inner_sampled():
    rng = random.Random(7)
    for q in (stabilizer_operator_set(3, 1), stabilizer_operator_set(2, 2)):
        basis = hermitian_basis(q.d, q.n)
        rows = trace_table(q)
        for _ in range(40):
            i = rng.randrange(len(basis))
            j = rng.randrange(q.size)
            direct = hs_inner(basis[i][1].to_matrix(), set_elements(q)[j])
            assert direct == CycNumber.from_fraction(q.conductor, Fraction(int(rows[i, j])))


@pytest.mark.parametrize("d,n", [(3, 1), (5, 1), (3, 2)])
def test_stabilizer_sets_are_2designs(d, n):
    assert is_complex_2design(stabilizer_operator_set(d, n)).passed


@pytest.mark.parametrize("d,n", [(3, 1), (5, 1), (3, 2)])
def test_odd_stabilizer_sets_fail_3design_with_witness(d, n):
    report = is_complex_3design(stabilizer_operator_set(d, n))
    assert not report.passed and report.witness is not None


@pytest.mark.parametrize("n", [1, 2])
def test_qubit_stabilizer_sets_are_3designs(n):
    assert is_complex_3design(stabilizer_operator_set(2, n)).passed


def test_rebits_fail_complex_2design():
    report = is_complex_2design(rebit_operator_set(1))
    assert not report.passed and report.witness is not None


@pytest.mark.parametrize("n", [1, 2])
def test_rebits_pass_real_designs(n):
    q = rebit_operator_set(n)
    r4 = is_real_4design(q)
    assert r4.passed
    assert all(v > 0 for v in r4.constants.values())
    r6 = is_real_6design(q)
    assert r6.passed
    assert all(v > 0 for v in r6.constants.values())


def test_rebit2_constants_match_sphere_values():
    # uniform-sphere moments give the ratios (1, 2)/(N(N+2)) and (1, 2, 4)/(N(N+2)(N+4))
    q = rebit_operator_set(2)
    r4 = is_real_4design(q)
    assert r4.constants["K_tr"] == Fraction(1, 24)
    assert r4.constants["K_hs"] == Fraction(2, 24)
    r6 = is_real_6design(q)
    assert (r6.constants["K1"], r6.constants["K2"], r6.constants["K3"]) == (
        Fraction(1, 192), Fraction(2, 192), Fraction(4, 192))


def test_perturbed_set_fails_real_design():
    # negative control: the rebits with one state dropped are no real design
    for n in (1, 2):
        q = rebit_operator_set(n)
        perturbed = OperatorSet(name="perturbed", d=2, n=n, labels=q.labels[1:])
        assert not is_real_4design(perturbed).passed
        assert not is_real_6design(perturbed).passed


def test_operator_set_refuses_empty_labels():
    with pytest.raises(ValueError, match="at least one label"):
        OperatorSet("empty", 3, 1, labels=())


def test_operator_set_refuses_labels_of_another_d_n():
    # the (3,1) labels would be read as a wrong (5,1) table
    with pytest.raises(ValueError, match=r"not a stabilizer label at \(d, n\) = \(5, 1\)"):
        OperatorSet("x", 5, 1, labels=stabilizer_set(3, 1).labels)
    with pytest.raises(ValueError, match="not a stabilizer label"):
        OperatorSet("x", 3, 2, labels=stabilizer_set(3, 1).labels)


@pytest.mark.parametrize("point", [(0, 3), (0, -1), (0,), (0, 1, 2), (0.0, 1),
                                   stabilizer_set(3, 1).labels[0]])
def test_operator_set_refuses_points_that_are_not_2n_residues(point):
    with pytest.raises(ValueError, match="not a point of 2n residues mod d"):
        OperatorSet("x", 3, 1, labels=[(0, 0), point])


def test_fk_symmetry_under_argument_permutations():
    import itertools

    q = stabilizer_operator_set(3, 1)
    rng = random.Random(13)
    basis = [m.to_matrix() for _, m in hermitian_basis(3, 1)]
    for _ in range(5):
        a, b = rng.choice(basis), rng.choice(basis)
        assert moment_form(q, 2, [a, b]) == moment_form(q, 2, [b, a])
    for _ in range(3):
        args = [rng.choice(basis) for _ in range(3)]
        vals = {moment_form(q, 3, [args[i] for i in p]) for p in itertools.permutations(range(3))}
        assert len(vals) == 1


def test_f2_invariant_under_symmetry_generators():
    # F_k(U† A U, ...) = F_k(A, ...) for Clifford conjugations preserving Q
    d = 3
    q = stabilizer_operator_set(d, 1)
    rng = random.Random(3)
    basis = [m.to_matrix() for _, m in hermitian_basis(d, 1)]
    f = dense(metaplectic(d, [[0, -1], [1, 0]]))
    for _ in range(5):
        a, b = rng.choice(basis), rng.choice(basis)
        fa = f.dagger() @ a @ f
        fb = f.dagger() @ b @ f
        assert moment_form(q, 2, [a, b]) == moment_form(q, 2, [fa, fb])
        assert moment_form(q, 3, [a, b, a]) == moment_form(q, 3, [fa, fb, fa])


def test_span_dimensions():
    assert span_dimension(stabilizer_operator_set(3, 1)) == 9
    assert span_dimension(stabilizer_operator_set(2, 1)) == 4
    assert span_dimension(rebit_operator_set(1)) == 3
    assert span_dimension(rebit_operator_set(2)) == 10
    # q_0 has trace 1 and dir(Q) is traceless, so span(Q) = dir(Q) + q_0; the
    # stabilizers and phase points span all Hermitian matrices, the rebits all
    # real symmetric ones
    for q in _span_sets():
        full = q.dim * (q.dim + 1) // 2 if q.name.startswith("rebit") else q.dim ** 2
        assert span_dimension(q) == len(_dir_basis(q)[0]) + 1 == full


def _span_sets():
    return (*(stabilizer_operator_set(d, n)
              for d, n in ((2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2))),
            rebit_operator_set(1), rebit_operator_set(2), phase_point_operator_set(3, 1))


def _full_pick(rows):
    """The greedy pick over every difference of columns i and 0 of rows,
    with no early stop, and those differences as Python ints."""
    cols = list(zip(*rows))
    ech = _Echelon(len(rows))
    picked = tuple(i for i in range(1, len(cols))
                   if ech.insert([x - y for x, y in zip(cols[i], cols[0])]))
    return picked, [[col[i] - col[0] for i in picked] for col in zip(*cols)]


def test_dir_basis_picks_as_a_full_pass_and_stops_early(monkeypatch):
    for q in _span_sets():
        picked, coords = _dir_basis(q)
        assert (picked, coords.tolist()) == _full_pick(trace_table(q).tolist())
    # at (3,2) the rank reaches ncols - 1 = 80 long before the 359th difference
    calls = []
    insert = _Echelon.insert
    monkeypatch.setattr(_Echelon, "insert", lambda self, row: calls.append(1) or insert(self, row))
    q = stabilizer_operator_set(3, 2)
    picked, coords = _dir_basis.__wrapped__(q)
    assert len(picked) == 80 and coords.shape == (81, 80)
    assert len(calls) == picked[-1] < q.size - 1


@st.composite
def integer_rows(draw):
    """At most 8 x 8 integer rows: independent ones with entries in [-3, 3],
    and dependent ones forced as -1/0/1 combinations of two earlier rows."""
    nrows, ncols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rows = []
    for i in range(nrows):
        if i >= 1 and draw(st.booleans()):
            a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            ca, cb = draw(st.sampled_from((-1, 0, 1))), draw(st.sampled_from((-1, 0, 1)))
            rows.append([ca * x + cb * y for x, y in zip(rows[a], rows[b])])
        else:
            rows.append(draw(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols)))
    return rows


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(integer_rows())
def test_echelon_rank_and_picked_rows_match_sympy(rows):
    ech = _Echelon(len(rows[0]))
    picked = [i for i, row in enumerate(rows) if ech.insert(row)]
    # greedily independent rows are the pivot columns of the transpose's RREF
    _, pivots = sympy.Matrix(rows).T.rref()
    assert ech.rank == len(pivots)
    assert picked == list(pivots)
    for r, p in zip(ech.rows, ech.pivots):
        assert r[p] > 0 and gcd(*r) == 1
        assert all(x == 0 for x in r[:p])


def test_echelon_takes_int64_rows_without_overflow():
    # the fraction-free products exceed 2^63; the rows are Python ints inside
    big = np.array([[2 ** 62, 3, 1, 0], [2 ** 62 - 1, 5, 2, 0]], dtype=np.int64)
    ech = _Echelon(4)
    assert [ech.insert(row) for row in big] == [True, True]
    assert not ech.insert(big[0] - big[1])
    assert ech.insert(np.array([0, 0, 0, 1], dtype=np.int64))
    assert all(type(x) is int for r in ech.rows for x in r)


@st.composite
def positive_systems(draw):
    """[A | b] with b = A x0 for a positive rational x0, in 1 to 3 unknowns."""
    k = draw(st.integers(1, 3))
    m = draw(st.integers(1, 6))
    frac = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    a = [[draw(frac) for _ in range(k)] for _ in range(m)]
    x0 = [Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 4))) for _ in range(k)]
    return [(*row, sum(c * x for c, x in zip(row, x0))) for row in a], k


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(positive_systems())
def test_solver_returns_an_exact_positive_solution(system):
    equations, k = system
    rank = sympy.Matrix([eq[:k] for eq in equations]).rank()
    if k - rank > 1:
        with pytest.raises(StabsymError):
            _solve_linear_positive(equations, k)
        return
    # a positive solution exists (x0), so one must be returned
    sol = _solve_linear_positive(equations, k)
    assert sol is not None and all(x > 0 for x in sol)
    for eq in equations:
        assert sum(c * x for c, x in zip(eq[:k], sol)) == eq[k]


def test_solver_inconsistent_system_gives_none():
    assert _solve_linear_positive([(1, 0, 1), (1, 0, 2)], 2) is None
    assert _solve_linear_positive([(1, 1, 1), (2, 2, 3), (1, -1, 0)], 2) is None


def test_solver_rank_one_in_three_unknowns_raises():
    equations = [(1, 1, 1, 3), (2, 2, 2, 6), (Fraction(1, 2),) * 3 + (Fraction(3, 2),)]
    with pytest.raises(StabsymError):
        _solve_linear_positive(equations, 3)


def _huge_entry_set(monkeypatch, entry):
    # a fresh set (S2 and the dir(Q) basis are cached per set) whose trace
    # table has one huge entry, in int64 when it fits, read by the library
    # and the oracle alike
    q0 = stabilizer_operator_set(2, 1)
    q = OperatorSet(name="huge-entry", d=2, n=1, labels=q0.labels)
    rows = trace_table(q0).astype(object)
    rows[1, 2] = entry  # the trace tr(T(1) q_2), on a real Pauli row
    if entry < 2 ** 63:
        rows = rows.astype(np.int64)
    monkeypatch.setattr(moments, "trace_table", lambda q: rows)
    monkeypatch.setattr(moments_reference, "trace_table", lambda q: rows)
    return q


def _never_fits(monkeypatch):
    """Send every guarded op to the Python ints from now on."""
    monkeypatch.setattr(cyclotomic, "fits_int64", lambda *args: False)


@pytest.mark.parametrize("entry", [2 ** 31, 2 ** 70])
def test_huge_table_entry_is_computed_exactly(monkeypatch, entry):
    # the pair sums of 2^31 * scale overflow int64, and 2^70 does not fit it
    # The real predicates read the huge entry (row 1 is a real Pauli), but
    # their reference reads dense traces, not the table, so only the four
    # `PREDICATES` are compared with it; all six are compared between the
    # int64 and the Python-int paths
    q = _huge_entry_set(monkeypatch, entry)
    rows = moments.trace_table(q).tolist()
    s2, (picked, coords) = _pair_sums(q), _dir_basis(q)
    assert s2.tolist() == [[sum(a * b for a, b in zip(x, y)) for y in rows] for x in rows]
    assert (picked, coords.tolist()) == _full_pick(rows)
    reports = _reports(moments, q)
    assert {name: reports[name] for name in PREDICATES} == {
        name: _outcome(getattr(moments_reference, name), q) for name in PREDICATES}
    _never_fits(monkeypatch)
    fresh = OperatorSet(name="huge-entry on Python ints", d=2, n=1, labels=q.labels)
    assert _pair_sums(fresh).tolist() == s2.tolist()
    fresh_picked, fresh_coords = _dir_basis(fresh)
    assert (fresh_picked, fresh_coords.tolist()) == (picked, coords.tolist())
    assert _reports(moments, fresh) == reports


@pytest.mark.parametrize("entry,check", [
    (2 ** 31, "check_lin_wig_condition"), (2 ** 21, "check_lin_jor_condition"),
    (2 ** 32, "check_lin_wig_condition"), (2 ** 22, "check_lin_jor_condition"),
    (2 ** 70, "check_lin_jor_condition"), (2 ** 15, "check_lin_wig_condition"),
    (2 ** 16, "check_lin_wig_condition"), (2 ** 12, "check_lin_jor_condition"),
    (2 ** 13, "check_lin_jor_condition"), (2 ** 31, "check_lin_jor_condition"),
    (2 ** 32, "check_lin_jor_condition"),
])
def test_huge_gram_entries_are_computed_exactly(monkeypatch, entry, check):
    # one table entry e makes the Gram entries tr(q_i q_j) ~ e^2, which the
    # library reads through S2 = T T^T and C^T S2 C (quartic in e, as is
    # C^T S2 u for mu_1), D = C^T T and the cubic form of D's rows.  The
    # entries send each form down each Python-int branch of `_exact`: the
    # bound fails while every value fits int64 (2^15 for C^T S2 C, 2^31 for
    # S2 and D, 2^12 for the cubic form), a value would wrap int64 (2^16,
    # 2^32, 2^13 and the larger entries), or the entry does not fit int64
    # at all (2^70)
    q = _huge_entry_set(monkeypatch, entry)
    report = getattr(moments, check)(q)
    assert report == getattr(moments_reference, check)(q)
    _never_fits(monkeypatch)
    fresh = OperatorSet(name="huge-entry on Python ints", d=2, n=1, labels=q.labels)
    assert getattr(moments, check)(fresh) == report


def test_lin_wig_condition_passes():
    assert check_lin_wig_condition(stabilizer_operator_set(3, 1))["pass"]
    assert check_lin_wig_condition(rebit_operator_set(2))["pass"]


def test_lin_wig_condition_phase_points():
    report = check_lin_wig_condition(phase_point_operator_set(3, 1))
    assert report["pass"]
    # F_2 = (A|B)/d^n on dir(Q): the A(a) are orthogonal with norm^2 = d^n,
    # so Parseval carries a d^n, not 1
    assert report["constant"] == "1/3"
    assert report["dir_dimension"] == 8


def test_lin_jor_condition_results():
    assert check_lin_jor_condition(stabilizer_operator_set(2, 2))["pass"]
    assert check_lin_jor_condition(rebit_operator_set(2))["pass"]
    report = check_lin_jor_condition(stabilizer_operator_set(3, 2))
    assert not report["pass"]
    assert not report["clauses"]["f3_proportional_on_dir"]
    assert report["witness"] is not None
    report = check_lin_jor_condition(phase_point_operator_set(3, 1))
    assert not report["pass"]
    assert not report["clauses"]["f3_proportional_on_dir"]


def test_design_report_json():
    blob = is_real_4design(rebit_operator_set(1)).to_json()
    assert blob["pass"] is True and "K_hs" in blob["constants"]


def test_symmetric_basis_spans():
    # the real Paulis (a_X.a_Z even) are real symmetric, pairwise orthogonal
    # and as many as dim Sym = D(D+1)/2, so they span Sym; the rows the mask
    # leaves out are i times a real matrix
    for n in (1, 2, 3):
        b, full = moments._basis(2, n, real=True), moments._basis(2, n)
        dim = 2 ** n
        assert len(b.points) == 2 ** (n - 1) * (2 ** n + 1) == dim * (dim + 1) // 2
        assert b.labels == tuple(full.labels[a] for a in b.points)
        mats = [weyl(2, n, a) for a in b.labels]
        for mat in mats:
            assert mat == mat.transpose() and not mat.coef[..., 1:].any()
        ints, scale = trace_pairs(mats, mats)
        assert scale == 1 and (ints == np.diag(np.full(len(mats), dim, dtype=object))).all()
        for a in set(range(4 ** n)) - set(b.points.tolist()):
            assert not weyl(2, n, full.labels[a]).coef[..., 0].any()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_real_basis_is_the_points_of_transpose_sign_0(n):
    # one realness rule, read by the real basis and by the rebit Lagrangians
    sign = clifford.transpose_action(n)[2](np.array(moments._basis(2, n).labels))
    assert moments._basis(2, n, real=True).points.tolist() == np.flatnonzero(sign == 0).tolist()


@pytest.mark.parametrize("check", ["is_real_4design", "is_real_6design"])
def test_real_designs_are_defined_at_d2_only(check):
    with pytest.raises(Unsupported, match="the real basis is defined at d = 2"):
        getattr(moments, check)(stabilizer_operator_set(3, 1))


# ---------------------------------------------------------------------------
# The table kernels against the per-entry reference predicates

PREDICATES = ("is_complex_2design", "is_complex_3design", "check_lin_wig_condition",
              "check_lin_jor_condition")
REAL_PREDICATES = ("is_real_4design", "is_real_6design")


def _outcome(fn, q):
    """The full report as JSON, or the type and message of what fn raised."""
    try:
        report = fn(q)
    except StabsymError as exc:
        return type(exc).__name__, str(exc)
    return report.to_json() if isinstance(report, moments.DesignReport) else report


def _reports(module, q):
    names = PREDICATES + (REAL_PREDICATES if q.d == 2 else ())
    return {name: _outcome(getattr(module, name), q) for name in names}


@st.composite
def stabilizer_subsets(draw):
    """A random subset, in random order, of the (2,1), (3,1), (2,2) or (5,1)
    stabilizer states, or a union of their bases (the states of one
    Lagrangian); such sets are rarely designs."""
    d, n = draw(st.sampled_from(((2, 1), (3, 1), (2, 2), (5, 1))))
    full = stabilizer_operator_set(d, n)
    if draw(st.booleans()):
        bases = {}
        for i, label in enumerate(stabilizer_states(d, n).labels):
            bases.setdefault(label.L, []).append(i)
        bases = list(bases.values())
        chosen = draw(st.lists(st.sampled_from(range(len(bases))), min_size=1, unique=True))
        picked = [i for b in sorted(chosen) for i in bases[b]]
    else:
        picked = draw(st.lists(st.integers(0, full.size - 1), min_size=2,
                               max_size=min(full.size, 24), unique=True))
    return OperatorSet(name=f"subset({d},{n})", d=d, n=n, labels=[full.labels[i] for i in picked])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(stabilizer_subsets())
def test_table_kernels_match_per_entry_reference(q):
    assert _reports(moments, q) == _reports(moments_reference, q)


@pytest.mark.parametrize("q", [
    stabilizer_operator_set(2, 1), stabilizer_operator_set(2, 2), stabilizer_operator_set(5, 1),
    stabilizer_operator_set(7, 1), rebit_operator_set(2), phase_point_operator_set(3, 1),
], ids=lambda q: q.name)
def test_table_kernels_match_reference_on_full_sets(q):
    # (2,1), (2,2) and the rebits pass every slab; (5,1) and (7,1) fail in
    # the first with an irrational Jordan value; the phase points fail at a
    # zero one.  (2,1) is the set of the huge-entry tests, whose real
    # predicates are compared with the reference here
    assert _reports(moments, q) == _reports(moments_reference, q)


def _brute_force_grams():
    """The Grams of the (2,2) stabilizer states and the n = 2 rebits from the
    traces of their projectors, as (codes, dtype, legend)."""
    grams = [bruteforce_gram(p, p)
             for p in map(family_projectors, (stabilizer_states(2, 2), real_clifford_orbit(2)))]
    return [(g.codes.tolist(), g.codes.dtype, g.legend) for g in grams]


def test_python_int_path_gives_identical_reports(monkeypatch):
    sets = (stabilizer_operator_set(2, 2), stabilizer_operator_set(5, 1),
            rebit_operator_set(2), phase_point_operator_set(3, 1))
    expected = [_reports(moments, q) for q in sets]
    grams = _brute_force_grams()
    calls = []

    def never_fits(*args):
        calls.append(args)
        return False

    monkeypatch.setattr(cyclotomic, "fits_int64", never_fits)
    # fresh sets and bases, so that the trace tables are recomputed too
    for table in (moments._basis, moments._phase_forms, moments._pauli_products):
        table.cache_clear()
    fresh = [OperatorSet(name=f"{q.name} on Python ints", d=q.d, n=q.n, labels=q.labels)
             for q in sets]
    assert [_reports(moments, q) for q in fresh] == expected
    assert _brute_force_grams() == grams
    assert calls  # every guarded op took the Python-int branch


def test_verify_design_checks_lin_wig_once(monkeypatch):
    calls = []
    check = moments.check_lin_wig_condition
    monkeypatch.setattr(moments, "check_lin_wig_condition",
                        lambda q: calls.append(q) or check(q))
    report = moments.verify_design("stab", 3, 1)
    assert len(calls) == 1
    assert report["checks"]["lin_subset_jor"]["clauses"]["f2_proportional_on_dir"]
    assert report["checks"]["lin_subset_wig"] == check(stabilizer_operator_set(3, 1))


def test_verify_design_computes_one_pair_sum_table_per_set(monkeypatch):
    # the real predicates read a block of the set's one S2, so a fresh rebit
    # set computes it once for its four S2 readers
    _fresh_sets(monkeypatch)
    before = _pair_sums.cache_info().misses
    assert moments.verify_design("rebit", 2, 2)["all_as_expected"]
    assert _pair_sums.cache_info().misses - before == 1


# ---------------------------------------------------------------------------
# The closed forms against the dense kernels

def _dense_traces(monos, mats):
    """All tr(B_x Q_y) gathered from the dense Q_y (`mono_traces`), as (ints,
    scale) in lowest terms."""
    out, den = mono_traces(monos, mats)
    return lowest_terms(rational_part(out), den)


def _hermitian_monos(d, n):
    return [mono for _, mono in hermitian_basis(d, n)]


@pytest.mark.parametrize("q", [
    *(stabilizer_operator_set(d, n) for d, n in ((3, 1), (5, 1), (7, 1), (3, 2))),
    phase_point_operator_set(3, 1),
    *(stabilizer_operator_set(2, n) for n in (1, 2, 3)),
    *(rebit_operator_set(n) for n in (1, 2, 3)),
    *(phase_point_operator_set(2, n) for n in (1, 2)),
], ids=lambda q: q.name)
def test_incidence_table_matches_mono_traces(q):
    # the dense traces are integers, over scale 1, and are the table
    ints, scale = _dense_traces(_hermitian_monos(q.d, q.n), set_elements(q))
    table = trace_table(q)
    assert table.dtype == np.int64 and not table.flags.writeable
    assert scale == 1 and table.tolist() == ints.tolist()


@pytest.mark.parametrize("q", [
    *(stabilizer_operator_set(d, n) for d, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1),
                                                 (7, 1))),
    *(rebit_operator_set(n) for n in (1, 2, 3)),
    *(phase_point_operator_set(d, n) for d, n in ((2, 1), (2, 2), (3, 1), (5, 1), (3, 2))),
], ids=lambda q: q.name)
def test_every_trace_table_is_c_ordered_and_read_only(q):
    # the stabilizer tables are built transposed; numpy's int64 matmul has
    # no BLAS path and runs slower on an F-ordered operand
    table = trace_table(q)
    assert table.dtype == np.int64 and table.flags.c_contiguous and not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 0


@pytest.mark.parametrize("d,n", [(3, 1), (5, 1), (3, 2), (2, 1), (2, 2), (2, 3)])
def test_closed_form_basis_matches_dense(d, n):
    m = conductor_for(d)
    b = moments._basis(d, n)
    monos = _hermitian_monos(d, n)
    mats = [mono.to_matrix() for mono in monos]
    (single, c1), (pair, c2) = (_dense_traces(monos, x)
                                for x in ([OpMatrix.identity(m, d ** n)], mats))
    assert b.single.tolist() == [Fraction(x, c1) for x in single[:, 0]]
    # tr(B_a B_b) = d^n [a = b], the scalar the predicates read
    assert [[Fraction(x, c2) for x in row] for row in pair.tolist()] == \
        (d ** n * np.eye(len(monos), dtype=int)).tolist()
    assert b.labels == tuple(a for a, _ in hermitian_basis(d, n))


@pytest.mark.parametrize("d,n,slabs", [(3, 1, None), (5, 1, None), (3, 2, [40]), (2, 1, None),
                                       (2, 2, None), (2, 3, [0, 21, 63])])
def test_triple_traces_match_mono_traces_of_products(d, n, slabs):
    b = moments._basis(d, n)
    monos = _hermitian_monos(d, n)
    mats = [mono.to_matrix() for mono in monos]
    for i in range(len(monos)) if slabs is None else slabs:
        dense, den = mono_traces([monos[i] @ mono for mono in monos[i:]], mats[i:])
        e, values = moments._triples(d, n, b.points[i], b.points[i:, None], b.points[i:])
        assert (values[e] * den == dense).all()
        # the scan's Jordan side on the basis points: the symmetrized slab
        closed = moments._jordan(d, n, b.points, _slab(len(monos), i))
        assert (closed * den == (dense + dense.transpose(1, 0, 2))[np.triu_indices(len(e))]).all()


def _slab(r, i):
    """Slab i alone of a triple scan over r indices (`moments._triple_chunks`):
    its pairs j, k >= i relative to i, in scan order."""
    return [(i, *np.triu_indices(r - i))]


def _jordan_slabs_agree(q, slabs):
    """The table-side Jordan slab equals `jordan_slab` of the dense
    differences q_i - q_0, as rationals, on the given slabs (None: all)."""
    m = q.conductor
    picked, coords = _dir_basis(q)
    idx = np.asarray(picked)
    stack, den = coefficient_stack(set_elements(q))
    for i in range(len(idx)) if slabs is None else slabs:
        dense = jordan_slab(m, stack[idx] - stack[0], i)[np.triu_indices(len(idx) - i)]
        closed = moments._jordan(q.d, q.n, coords.T, _slab(len(idx), i))
        assert (closed * den ** 3 == dense * q.dim ** 3).all()


@pytest.mark.parametrize("d,n,slabs", [(3, 1, None), (5, 1, None), (7, 1, [0]), (3, 2, [0]),
                                       (2, 2, None)])
def test_phase_space_slab_matches_dense_jordan_slab(d, n, slabs):
    _jordan_slabs_agree(stabilizer_operator_set(d, n), slabs)


def test_phase_space_slab_matches_dense_on_rebits():
    _jordan_slabs_agree(rebit_operator_set(2), None)


def test_phase_space_slab_matches_dense_on_a_random_subset():
    for d, n in ((5, 1), (2, 2)):
        full = stabilizer_operator_set(d, n)
        picked = random.Random(5).sample(range(full.size), 12)
        q = OperatorSet(name=f"subset({d},{n})", d=d, n=n, labels=[full.labels[i] for i in picked])
        _jordan_slabs_agree(q, None)


def test_mu1_clause_matches_dense_first_moment():
    full = stabilizer_operator_set(3, 1)
    sets = [*_span_sets(), OperatorSet(name="three states", d=3, n=1, labels=full.labels[:3]),
            OperatorSet(name="two states", d=3, n=1, labels=full.labels[3:5])]
    for q in sets:
        mu = first_moment(q)
        dense = mu == OpMatrix.identity(q.conductor, q.dim).scale(Fraction(1, q.dim))
        assert check_lin_jor_condition(q)["clauses"]["mu1_proportional_identity"] == dense
    # the first three states are one basis, the next two are not
    assert [check_lin_jor_condition(q)["clauses"]["mu1_proportional_identity"]
            for q in sets[-2:]] == [True, False]


GOLDENS = Path(__file__).parent / "goldens"


@pytest.mark.parametrize("which,d,n,golden", [
    ("stab", 3, 1, "verify-design_d3_n1.json"), ("stab", 5, 1, "verify-design_d5_n1.json"),
    ("stab", 3, 2, "verify-design_d3_n2.json"),
    ("phase-points", 3, 1, "verify-design_d3_n1_set-phase-points.json"),
    *(("stab", 2, n, f"verify-design_d2_n{n}.json") for n in (1, 2)),
    *(("rebit", 2, n, f"verify-design_d2_n{n}_set-rebit.json") for n in (1, 2)),
    *(("phase-points", 2, n, f"verify-design_d2_n{n}_set-phase-points.json") for n in (1, 2)),
])
def test_odd_d_verify_design_builds_without_dense_kernels(monkeypatch, which, d, n, golden):
    # at every d, despite the name (kept for stable test ids): fresh sets and
    # bases, and no dense matrix is built, traced, multiplied or added
    def dense(*args, **kwargs):
        raise AssertionError("dense kernel called")

    monkeypatch.setattr(operators, "build_gram", dense)  # behind every set's Gram
    monkeypatch.setattr(OpMatrix, "_set", dense)  # behind every OpMatrix built
    monkeypatch.setattr(cyclotomic._Field, "contract", dense)
    monkeypatch.setattr(OpMatrix, "__matmul__", dense)
    monkeypatch.setattr(OpMatrix, "__add__", dense)
    _fresh_sets(monkeypatch)
    for table in (moments._basis, moments._phase_forms, moments._pauli_products):
        table.cache_clear()
    expected = json.loads((GOLDENS / golden).read_text())
    report = moments.verify_design(which, d, n)
    assert {"command": "verify-design", "d": d, "n": n, "set": which, **report} == expected


def test_moment_checks_build_no_n_by_n_array(monkeypatch):
    # every exact contraction behind verify_design at (3,2), N = 360 states
    # against d^(2n) = 81 basis rows, has at most one axis of length N
    shapes = []
    exact = moments._exact

    def recorded(*args):
        out = exact(*args)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(moments, "_exact", recorded)
    _fresh_sets(monkeypatch)
    report = moments.verify_design("stab", 3, 2)
    assert report["all_as_expected"]
    assert shapes and all(sum(x >= 360 for x in shape) < 2 for shape in shapes)
    assert (80, 360) in shapes  # D = C^T T


def test_no_dense_element_path_is_left():
    removed = ("_gram_data", "moment_form", "mono_traces", "coefficient_stack", "lowest_terms",
               "stab_projector", "phase_point")
    for module in (moments, operators, stabsym):
        assert not [name for name in removed if hasattr(module, name)]
    q = stabilizer_operator_set(2, 1)
    assert not hasattr(OperatorSet, "elements") and not hasattr(q, "elements")
    with pytest.raises(TypeError):
        OperatorSet("dense", 2, 1, elements=set_elements(q))


# ---------------------------------------------------------------------------
# The overflow policy and the chunked triple scan

# the sets of the benchmark's `exact-laws` workload, and (3,2)
_DESIGN_SETS = [("stab", 2, 2), ("stab", 5, 1), ("stab", 7, 1), ("rebit", 2, 2),
                ("phase-points", 3, 1), ("stab", 3, 2)]


def _fresh_sets(monkeypatch):
    """Uncached sets behind the set constructors, so that every table of a
    set is recomputed."""
    monkeypatch.setattr(moments, "stabilizer_set", operators.stabilizer_set.__wrapped__)
    monkeypatch.setattr(moments, "real_clifford_orbit", clifford.real_clifford_orbit.__wrapped__)
    monkeypatch.setattr(moments, "phase_point_operator_set",
                        moments.phase_point_operator_set.__wrapped__)


@pytest.mark.parametrize("which,d,n", _DESIGN_SETS)
def test_verify_design_is_the_same_on_python_ints(monkeypatch, which, d, n):
    expected = moments.verify_design(which, d, n)
    _fresh_sets(monkeypatch)
    _never_fits(monkeypatch)
    assert moments.verify_design(which, d, n) == expected


@pytest.mark.parametrize("which,d,n", _DESIGN_SETS)
def test_verify_design_is_the_same_in_one_slab_chunks(monkeypatch, which, d, n):
    # the chunks of a scan change neither a verdict nor a witness (stab (7,1)
    # and (3,2) and the phase points fail with one), and they grow as
    # 1, 1, 2, 4, ... slabs; a set failing in slab 0 scans that slab alone
    expected = moments.verify_design(which, d, n)
    chunks = []
    trilinear = moments._trilinear
    monkeypatch.setattr(moments, "_trilinear", lambda rows, slabs: chunks.append(
        [i for i, _, _ in slabs]) or trilinear(rows, slabs))
    assert moments.verify_design(which, d, n) == expected
    scans = []  # one per scan: its chunks, each the list of its slabs
    for c in chunks:
        if c[0] == 0:
            scans.append([])
        scans[-1].append(c)
    for scan in scans:
        sizes = [len(c) for c in scan]
        assert [x for c in scan for x in c] == list(range(sum(sizes)))
        assert all(size == max(1, sum(sizes[:k])) for k, size in enumerate(sizes[:-1]))
    if expected["checks"]["lin_subset_jor"]["witness"] is not None:
        assert scans[-1] == [[0]]
    slabs = sum(len(c) for scan in scans for c in scan)
    monkeypatch.setattr(moments, "_TRIPLE_CHUNK", 0)
    chunks.clear()
    assert moments.verify_design(which, d, n) == expected
    assert all(len(c) == 1 for c in chunks) and len(chunks) == slabs


def test_moment_checks_take_the_int64_path(monkeypatch):
    # on the benchmark's sets every exact integer of the moment checks is
    # proven to fit int64 and computed there: no Python-int branch is taken
    bounds, dtypes = [], []
    fits, exact = cyclotomic.fits_int64, moments._exact
    monkeypatch.setattr(cyclotomic, "fits_int64", lambda *args: bounds.append(fits(*args))
                        or bounds[-1])
    monkeypatch.setattr(moments, "_exact", lambda *args: dtypes.append(exact(*args).dtype)
                        or exact(*args))
    _fresh_sets(monkeypatch)
    for which, d, n in _DESIGN_SETS[:-1]:
        assert moments.verify_design(which, d, n)["all_as_expected"]
    assert bounds and all(bounds) and set(dtypes) == {np.dtype(np.int64)}
    assert not hasattr(moments, "_compact")


@st.composite
def patched_tables(draw):
    """A set and its trace table, scaled by 2^s, with a few entries, rows or
    columns replaced by one integer each of any size up to 2^40, in int64
    (as `_huge_entry_set` does).  The sizes come from a drawn seed, so that
    every bit length is as likely, and with them the sizes at which a bound
    of `_exact` starts to fail; a row or a column of one value drives its
    sums towards their bound, and scaling keeps the Lin ⊂ Wig and Lin ⊂ Jor
    conditions, so that their scans run on to large values."""
    q = draw(st.sampled_from([stabilizer_operator_set(2, 1), stabilizer_operator_set(3, 1),
                              rebit_operator_set(2), stabilizer_operator_set(2, 2)]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    rows = trace_table(q) * 2 ** rng.randrange(21)
    for _ in range(rng.randrange(4)):
        a, j = rng.randrange(rows.shape[0]), rng.randrange(rows.shape[1])
        cells = rng.choice([(a, j), (a, slice(None)), (slice(None), j)])
        bits = rng.randrange(41)
        rows[cells] = rng.randint(-2 ** bits, 2 ** bits)
    return q, rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(patched_tables())
def test_patched_tables_give_the_same_reports_on_python_ints(case):
    # all six predicates (the real ones at d = 2) agree between the int64
    # path, narrowed where a value fits, and the Python ints throughout
    q, rows = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moments, "trace_table", lambda q: rows)
        reports = _reports(moments, OperatorSet(name="patched", d=q.d, n=q.n, labels=q.labels))
        _never_fits(mp)
        fresh = OperatorSet(name="patched on Python ints", d=q.d, n=q.n, labels=q.labels)
        assert _reports(moments, fresh) == reports
