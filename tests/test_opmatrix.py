"""OpMatrix, a power-basis coefficient tensor, against an entrywise CycNumber
reference written here."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabsym.cyclotomic import CycNumber, GaloisMap, _exact, _field, fits_int64, galois_apply
from stabsym.operators import OpMatrix

from dense_oracles import hs_inner, is_hermitian, trace_product

CONDUCTORS = (8, 12, 20)


# -- the reference: lists of lists of CycNumber --------------------------------

def ref_matmul(x, y):
    dim, m = len(x), x[0][0].m
    out = [[CycNumber.zero(m)] * dim for _ in range(dim)]
    for i in range(dim):
        for k in range(dim):
            for j in range(dim):
                out[i][k] = out[i][k] + x[i][j] * y[j][k]
    return out


def ref_map(f, *xs):
    return [[f(*entries) for entries in zip(*rows)] for rows in zip(*xs)]


def ref_transpose(x):
    return [list(col) for col in zip(*x)]


def ref_trace(x):
    acc = CycNumber.zero(x[0][0].m)
    for i in range(len(x)):
        acc = acc + x[i][i]
    return acc


def ref_hs_inner(x, y):
    acc = CycNumber.zero(x[0][0].m)
    for rx, ry in zip(x, y):
        for a, b in zip(rx, ry):
            acc = acc + a.conj() * b
    return acc


def ref_to_json(x):
    return {"conductor": x[0][0].m, "dim": len(x),
            "entries": [[e.to_json()["coeffs"] for e in r] for r in x]}


def same(mat, ref):
    """The matrix equals the reference, entry by entry and as a fresh build."""
    assert [list(r) for r in mat.rows] == ref
    assert mat == OpMatrix(mat.m, ref)
    assert hash(mat) == hash(OpMatrix(mat.m, ref))


# -- strategies ---------------------------------------------------------------

def cyc(m, big=False):
    deg = _field(m).deg
    coeff = st.integers(-2 ** 70, 2 ** 70) if big else st.integers(-4, 4)
    den = st.integers(1, 2 ** 66) if big else st.sampled_from([1, 1, 2, 3, 4, 6])
    return st.builds(lambda num, d: CycNumber(m, num, d),
                     st.lists(coeff, min_size=deg, max_size=deg), den)


@st.composite
def matrices(draw, count=2, big=False):
    m = draw(st.sampled_from(CONDUCTORS))
    dim = draw(st.integers(1, 4))
    entry = cyc(m, big)
    return [[[draw(entry) for _ in range(dim)] for _ in range(dim)] for _ in range(count)]


# -- tests ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(matrices(), st.integers(-5, 5), st.fractions(max_denominator=7), st.data())
def test_tensor_form_matches_the_entrywise_reference(xy, k, q, data):
    x, y = xy
    m = x[0][0].m
    a, b = OpMatrix(m, x), OpMatrix(m, y)
    c = data.draw(cyc(m))
    same(a @ b, ref_matmul(x, y))
    same(a + b, ref_map(lambda s, t: s + t, x, y))
    same(a - b, ref_map(lambda s, t: s - t, x, y))
    same(-a, ref_map(lambda s: -s, x))
    same(a.scale(k), ref_map(lambda s: s * k, x))
    same(a.scale(q), ref_map(lambda s: s * q, x))
    same(a.scale(c), ref_map(lambda s: c * s, x))
    same(a.transpose(), ref_transpose(x))
    same(a.conj(), ref_map(CycNumber.conj, x))
    same(a.dagger(), ref_transpose(ref_map(CycNumber.conj, x)))
    assert a.trace() == ref_trace(x)
    assert hs_inner(a, b) == ref_hs_inner(x, y)
    assert a.to_json() == ref_to_json(x)
    assert is_hermitian(a) == (ref_transpose(ref_map(CycNumber.conj, x)) == x)
    if m != 8:  # C_alpha needs omega_d, d = m / 4 odd
        d = m // 4
        for alpha in range(1, d):
            gal = GaloisMap(alpha, d)
            same(a.entrywise_galois(gal), ref_map(lambda s: galois_apply(gal, s), x))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(matrices(count=3))
def test_equal_matrices_by_different_routes_are_equal_and_hash_equal(xyz):
    x, y, z = xyz
    m = x[0][0].m
    a, b, c = (OpMatrix(m, r) for r in (x, y, z))
    routes = [
        a,
        a.scale(2).scale(Fraction(1, 2)),
        a.scale(Fraction(6, 5)).scale(Fraction(5, 6)),
        (a + b) - b,
        a.dagger().dagger(),
        a.transpose().transpose(),
        OpMatrix(m, a.rows),
        OpMatrix._make(m, a.coef * 7, a.den * 7),
    ]
    for r in routes:
        assert r == a and hash(r) == hash(a)
        assert r.den == a.den and r.coef.tolist() == a.coef.tolist()
    assert (a @ b) @ c == a @ (b @ c)
    assert (a + b) @ c == a @ c + b @ c
    assert (a @ b).dagger() == b.dagger() @ a.dagger()


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(matrices(big=True))
def test_coefficients_beyond_int64_stay_exact(xy):
    x, y = xy
    m = x[0][0].m
    a, b = OpMatrix(m, x), OpMatrix(m, y)
    same(a @ b, ref_matmul(x, y))
    same(a + b, ref_map(lambda s, t: s + t, x, y))
    assert hs_inner(a, b) == ref_hs_inner(x, y)


def test_products_above_two_to_the_63_are_python_ints():
    big = CycNumber(12, [2 ** 62 + 1, -(2 ** 61), 3, 2 ** 40], 1)
    a = OpMatrix(12, [[big, big], [big, big]])
    p = a @ a @ a
    assert p.coef.dtype == object
    assert all(type(v) is int for v in p.coef.flat)
    assert max(abs(v) for v in p.coef.flat) > 2 ** 63
    x = [[big, big], [big, big]]
    same(p, ref_matmul(ref_matmul(x, x), x))


def test_storage_is_lowest_terms_and_read_only():
    half = CycNumber(12, [1, 2, 0, 4], 2)
    a = OpMatrix(12, [[half, CycNumber.zero(12)], [CycNumber.one(12), half]])
    assert a.den == 2 and a.coef.tolist() == [[[1, 2, 0, 4], [0] * 4], [[2, 0, 0, 0], [1, 2, 0, 4]]]
    assert OpMatrix.zero(12, 2).den == 1 and not np.any(OpMatrix.zero(12, 2).coef)
    assert (a - a) == OpMatrix.zero(12, 2) and (a - a).den == 1
    with pytest.raises(ValueError):
        a.coef[0, 0, 0] = 5


def test_entries_must_be_cycnumbers_of_the_conductor():
    one8, one12 = CycNumber.one(8), CycNumber.one(12)
    with pytest.raises(ValueError, match="conductor 12"):
        OpMatrix(12, [[one12, one8], [one12, one12]])
    with pytest.raises(ValueError, match="conductor 12"):
        OpMatrix(12, [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="square"):
        OpMatrix(12, [[one12, one12]])
    with pytest.raises(ValueError):
        OpMatrix.identity(12, 2).scale(one8)
    with pytest.raises(ValueError):
        OpMatrix.identity(12, 2) @ OpMatrix.identity(8, 2)


# -- the guarded int64 kernel against the Python-int contraction -------------

def python_contract(f, x, y, axes):
    """`_Field.contract` on the Python ints alone: the reference the int64
    path must equal."""
    pair = np.tensordot(x, y, axes)
    a = x.ndim - len(axes[0]) - 1
    return np.tensordot(pair, f.mul, axes=([a, pair.ndim - 1], [0, 1]))


def python_galois(f, x, t):
    return x.dot(f.galois(t))


def equal_python_ints(got, want):
    assert got.dtype == object and all(type(v) is int for v in got.flat)
    assert got.shape == want.shape and got.tolist() == want.tolist()


# tensors near 2^31 straddle the bound, those from 2^62 up fail it, and those
# from 2^63 up do not fit int64 at all
MAGNITUDES = (3, 2 ** 20, 2 ** 31 - 1, 2 ** 31, 2 ** 62, 2 ** 63 - 1, 2 ** 63, 2 ** 70)


@st.composite
def coefficient_tensors(draw, shape):
    top = draw(st.sampled_from(MAGNITUDES))
    entry = st.one_of(st.integers(-top, top), st.sampled_from((top, -top, top - 1)))
    flat = draw(st.lists(entry, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(flat, dtype=object).reshape(shape)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((3, 4, 5, 7)), st.integers(1, 4), st.integers(1, 5), st.data())
def test_guarded_kernel_equals_the_python_int_contraction(m, dim, den, data):
    f = _field(m)
    x, y = (data.draw(coefficient_tensors((dim, dim, f.deg))) for _ in range(2))
    c = data.draw(coefficient_tensors((f.deg,)))
    for axes in (([1], [0]), ([0, 1], [1, 0]), ([], [])):  # matmul, trace, outer
        equal_python_ints(f.contract(x, y, axes), python_contract(f, x, y, axes))
    equal_python_ints(f.contract(x, c, ([], [])), python_contract(f, x, c, ([], [])))
    for t in (1, m - 1):
        equal_python_ints(f.galois_map(x, t), python_galois(f, x, t))
    # the OpMatrix products built on the kernel
    a, b = OpMatrix._make(m, x, den), OpMatrix._make(m, y, 1)
    scalar = CycNumber(m, c.tolist(), den)
    assert a @ b == OpMatrix._make(m, python_contract(f, a.coef, b.coef, ([1], [0])), a.den * b.den)
    assert trace_product(a, b) == CycNumber(
        m, python_contract(f, a.coef, b.coef, ([0, 1], [1, 0])).tolist(), a.den * b.den)
    assert a.scale(scalar) == OpMatrix._make(
        m, python_contract(f, a.coef, np.array(scalar.num, dtype=object), ([], [])),
        a.den * scalar.den)
    conj = OpMatrix._make(m, python_galois(f, a.coef, m - 1), a.den)
    assert a.conj() == conj and a.dagger() == conj.transpose()
    assert hs_inner(a, b) == trace_product(conj.transpose(), b)


def test_kernel_falls_back_when_the_bound_fails_for_int64_inputs():
    # every entry is M (1 + i) with M = 2^31 - 1 at conductor 4, so each
    # coefficient fits int64, and so does dim * max|mul| * M^2 = 2 M^2 < 2^63;
    # but a product (1 + i)^2 = 2i puts 2 M^2 per product, 4 M^2 >= 2^63 per
    # entry of A A on the i coefficient: only the deg^2 = 4 coefficient pairs
    # of the bound send it to the Python ints
    m, big = 4, 2 ** 31 - 1
    f = _field(m)
    coef = np.full((2, 2, 2), big, dtype=object)
    assert fits_int64(2 * 1, big, big) and not fits_int64(2 * f.deg ** 2, 1, big, big)
    want = np.zeros((2, 2, 2), dtype=object)
    want[:, :, 1] = 4 * big * big
    equal_python_ints(f.contract(coef, coef, ([1], [0])), want)
    a = OpMatrix._make(m, coef, 2)
    entry = CycNumber(m, [big, big], 2)
    p = a @ a
    same(p, ref_matmul([[entry] * 2] * 2, [[entry] * 2] * 2))
    # (M (1 + i) / 2)^2 summed twice is M^2 i: the 4 over 4 cancels
    assert p.den == 1 and p.coef.tolist() == [[[0, big * big]] * 2] * 2
    assert np.gcd.reduce(np.append(p.coef.ravel(), p.den)) == 1


def test_fits_int64_holds_exactly_below_two_to_the_63():
    assert fits_int64(2, 2 ** 31, 2 ** 31 - 1) and not fits_int64(2, 2 ** 31, 2 ** 31)
    assert fits_int64(1, 2 ** 63 - 1) and not fits_int64(1, 2 ** 63)
    assert not fits_int64(np.int64(2 ** 40), np.int64(2 ** 40))  # no int64 wraparound


def test_exact_returns_int64_unless_a_result_is_beyond_int64():
    dot = lambda x, y: x @ y  # noqa: E731
    # the proven path computes and returns int64
    out = _exact(dot, 2, (np.array([[3, 4]]), np.array([5, 6])))
    assert out.dtype == np.int64 and out.tolist() == [39]
    # the bound fails (2 * 2^62 = 2^63), the Python ints give 0, which fits
    out = _exact(dot, 2, (np.array([[2 ** 62, -2 ** 62]]), np.array([1, 1])))
    assert out.dtype == np.int64 and out.tolist() == [0]
    # an operand beyond int64, a result within it
    huge = np.array([[2 ** 70, 1]], dtype=object)
    out = _exact(lambda x: x - x, 2, (huge,))
    assert out.dtype == np.int64 and out.tolist() == [[0, 0]]
    # only a result beyond int64 stays an object array of Python ints
    out = _exact(dot, 2, (np.array([[2 ** 62, 2 ** 62]]), np.array([1, 1])))
    assert out.dtype == object and out.tolist() == [2 ** 63] and type(out[0]) is int
    # the dense kernels keep their object arrays of Python ints
    f = _field(8)
    x = np.ones((1, 1, f.deg), dtype=object)
    assert f.contract(x, x, ([1], [0])).dtype == object and f.galois_map(x, 3).dtype == object
