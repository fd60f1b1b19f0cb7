import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import stabsym
from stabsym import cyclotomic
from stabsym.cyclotomic import (
    CycNumber,
    GaloisMap,
    conductor_for,
    cyclotomic_poly,
    galois_apply,
    gauss_sum,
    omega,
    root_of_unity,
)
from stabsym.errors import Mismatch
from stabsym.zmod import legendre

from dense_oracles import cyc_from_json, is_real, iunit, sqrt_d, tau, to_complex


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)


def test_third_roots_sum_to_zero():
    z = root_of_unity(3, 1)
    assert z + z * z + 1 == CycNumber.zero(3)


def test_tau_squared_is_omega_d5():
    assert tau(5) * tau(5) == omega(5)
    assert tau(3) * tau(3) == omega(3)


def test_zeta8_fourth_power():
    z = root_of_unity(8, 1)
    assert z ** 4 == CycNumber.from_fraction(8, -1)


def test_omega_tau_orders():
    for d in (3, 5, 7):
        assert omega(d) ** d == CycNumber.one(conductor_for(d))
        assert tau(d) ** d == CycNumber.one(conductor_for(d))
    assert tau(2) ** 4 == CycNumber.one(8)
    assert iunit(2) * iunit(2) == CycNumber.from_fraction(8, -1)


def _random_cyc(m, rng):
    from stabsym.cyclotomic import _field

    deg = _field(m).deg
    num = [rng.randrange(-9, 10) for _ in range(deg)]
    den = rng.randrange(1, 7)
    return CycNumber(m, num, den)


@pytest.mark.parametrize("m", [8, 12, 20, 28, 44, 52])  # d = 2, 3, 5, 7, 11, 13
def test_field_axioms_random(m):
    rng = random.Random(m)
    for _ in range(40):
        a, b, c = (_random_cyc(m, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == CycNumber.one(m)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        CycNumber.zero(12).inverse()


def test_inverse_refuses_a_norm_that_is_not_rational(monkeypatch):
    # with every conjugate replaced by x itself, x^phi(m) is not rational
    monkeypatch.setattr(CycNumber, "galois_raw", lambda self, t: self)
    with pytest.raises(ValueError, match="not rational"):
        omega(5).inverse()


@pytest.fixture
def fresh_sqrt_d():
    sqrt_d.cache_clear()
    yield
    sqrt_d.cache_clear()


@pytest.mark.parametrize("d", [3, 5])
def test_sqrt_d_refuses_a_wrong_gauss_sum(monkeypatch, fresh_sqrt_d, d):
    # a raise, not an assert, so `python -O` keeps the certificate
    wrong = gauss_sum(d) + 1
    monkeypatch.setattr(cyclotomic, "gauss_sum", lambda d_: wrong)
    with pytest.raises(Mismatch, match=f"sqrt[(]{d}[)]"):
        sqrt_d(d)


def test_sqrt_d_certifies_under_python_O():
    code = ("import dense_oracles\nfrom stabsym import cyclotomic\n"
            "wrong = cyclotomic.gauss_sum(5) + 1\n"
            "cyclotomic.gauss_sum = lambda d: wrong\n"
            "try:\n    dense_oracles.sqrt_d(5)\n"
            "except cyclotomic.Mismatch:\n    print('refused')\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (str(Path(stabsym.__file__).parents[1]), str(Path(__file__).parent))))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout == "refused\n"


def test_cyclotomic_poly_refuses_an_inexact_division(monkeypatch):
    def off_by_one(num, den):
        q, rem = divmod_(num, den)
        return q, [rem[0] + 1] + rem[1:]

    divmod_ = cyclotomic._poly_divmod
    monkeypatch.setattr(cyclotomic, "_poly_divmod", off_by_one)
    cyclotomic_poly.cache_clear()
    try:
        with pytest.raises(Mismatch, match="does not divide"):
            cyclotomic_poly(6)
    finally:
        cyclotomic_poly.cache_clear()


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_sqrt_d_squares_to_d(d):
    s = sqrt_d(d)
    assert s * s == CycNumber.from_fraction(s.m, d)
    assert is_real(s)
    assert to_complex(s).real > 0


def test_gauss_sum_values():
    # d = 5 = 1 mod 4: the Gauss sum itself is sqrt(5)
    assert gauss_sum(5) == sqrt_d(5)
    # d = 3 = 3 mod 4: the Gauss sum is i*sqrt(3)
    assert gauss_sum(3) == iunit(3) * sqrt_d(3)


def test_galois_identity_and_conjugation():
    x = omega(5)
    assert galois_apply(GaloisMap(1, 5), x) == x
    assert galois_apply(GaloisMap(4, 5), x) == x.conj() == x.inverse()


@pytest.mark.parametrize("d", [3, 5])
def test_galois_on_sqrt_d_is_legendre_sign(d):
    s = sqrt_d(d)
    for alpha in range(1, d):
        expected = s if legendre(alpha, d) == 1 else -s
        assert galois_apply(GaloisMap(alpha, d), s) == expected


@pytest.mark.parametrize("d", [3, 5, 7])
def test_galois_composition(d):
    rng = random.Random(d)
    m = conductor_for(d)
    for _ in range(10):
        x = _random_cyc(m, rng)
        for a in range(1, d):
            for b in range(1, d):
                lhs = galois_apply(GaloisMap(a, d), galois_apply(GaloisMap(b, d), x))
                rhs = galois_apply(GaloisMap((a * b) % d, d), x)
                assert lhs == rhs


def test_galois_fixes_rationals_and_i():
    for d in (3, 5):
        for a in range(1, d):
            g = GaloisMap(a, d)
            assert galois_apply(g, CycNumber.from_fraction(conductor_for(d), Fraction(3, 7))) == \
                CycNumber.from_fraction(conductor_for(d), Fraction(3, 7))
            assert galois_apply(g, iunit(d)) == iunit(d)


def test_conj_times_self_is_real():
    rng = random.Random(99)
    for m in (8, 12, 20):
        for _ in range(30):
            x = _random_cyc(m, rng)
            y = x.conj() * x
            assert is_real(y)
            assert abs(to_complex(y).imag) < 1e-9


def test_serialization_roundtrip():
    rng = random.Random(7)
    for m in (8, 12, 20):
        x = _random_cyc(m, rng)
        assert cyc_from_json(x.to_json()) == x


def test_numpy_integer_coefficients_become_python_ints():
    # an np.int64 coefficient (an entry of an int64 kernel result) would wrap
    # silently in the products below; the constructor takes it to an int
    big = np.int64(2 ** 62)
    x = CycNumber(8, [big, 0, np.int64(1), 0], np.int64(3))
    assert all(type(c) is int for c in (*x.num, x.den))
    y = x * x  # (2^62 + i)^2 / 9 = (2^124 - 1 + 2^63 i) / 9
    assert y.num == (2 ** 124 - 1, 0, 2 ** 63, 0) and y.den == 9
    assert CycNumber(8, [big, 0, 0, 0], _norm=False) * 4 == CycNumber.from_fraction(8, 2 ** 64)
    with pytest.raises(TypeError):
        CycNumber(8, [1.0, 0, 0, 0])
