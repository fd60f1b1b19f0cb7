"""Exact arithmetic in cyclotomic fields Q[zeta_m], Galois maps, Gauss sums.

Numbers are stored as integer coefficient vectors over the power basis
{zeta_m^k : k < phi(m)} together with a single positive denominator, fully
reduced modulo the m-th cyclotomic polynomial.  Each field also caches the
same arithmetic as small integer tensors: the power expansions `pows`, the
multiplication tensor `mul` and the Galois maps (`_Field.galois`).  Every
exact integer contraction of the library runs through one guarded kernel,
`_exact`: int64 where a bound proves it exact, Python ints otherwise, and
its result is an int64 array whenever every entry fits int64 (an object
array of Python ints only beyond that).  A caller may compare, index and
reduce such a result with any/all/argmax; every sum, difference or product
of one goes through `_exact` again, so int64 never wraps silently.  The
library's certified paths contract integer tables against `pows`, such as
the Clifford laws' counts of omega exponents (`clifford.products_equal`:
one contraction per group of sampled triples whose scales agree up to
sign) and the moment checks' triple-trace counts.  `_Field.contract` and
`_Field.galois_map`, which multiply and Galois-map the dense matrices of
`operators.OpMatrix`, serve the tests' dense oracles and no library path;
their results stay object arrays of Python ints.  No element is ever
embedded in the complex numbers: the module holds no float arithmetic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

import numpy as np

from .errors import Mismatch
from .zmod import require_prime


def _poly_divmod(num, den):
    """Exact division of integer polynomials, den monic. Coeff index = degree."""
    num = list(num)
    q = [0] * max(1, len(num) - len(den) + 1)
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1]
        q[k] = c
        if c:
            for i, dc in enumerate(den):
                num[k + i] -= c * dc
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int):
    """Integer coefficients of Phi_m, index = degree: x^m - 1 divided by
    every Phi_k, k a proper divisor of m, each division exact (else
    Mismatch)."""
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for k in range(1, m):
        if m % k == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_poly(k))
            if rem != [0]:
                raise Mismatch(f"Phi_{k} does not divide x^{m} - 1", witness=rem)
    return tuple(poly)


def fits_int64(terms, *bounds):
    """Whether every sum of at most `terms` products, each of one factor of
    absolute value <= b for every b in bounds, has absolute value below 2^63,
    so that int64 computes it, and each of its partial sums, exactly.  The
    product is taken over Python ints, so numpy scalars cannot wrap it."""
    return prod(map(int, bounds), start=int(terms)) < 2 ** 63


def _int64(x):
    """x as an int64 array and max|x| as a Python int, or None if an entry
    does not fit int64 (`astype` raises OverflowError exactly then)."""
    try:
        x = x.astype(np.int64)
    except OverflowError:
        return None
    return x, max(int(x.max(initial=0)), -int(x.min(initial=0)))


def _exact(op, terms, operands, tensor=None):
    """op(*operands, tensor) exactly, for an op that sums at most `terms`
    products of one entry of each operand and one of the tensor
    (op(*operands) and the operands alone when tensor is None).  It runs in
    int64 when every operand fits int64 and `fits_int64` proves that no sum,
    partial sums included, reaches 2^63, and then returns the int64 result;
    otherwise the same op runs on Python ints, which never overflow, and the
    result is narrowed to int64 when every entry fits, else returned as an
    object array of Python ints.  This is the library's one overflow
    policy: every exact integer contraction runs here, and so does every
    sum, difference or product of its results.  tensor = (object array, its
    `_int64` form)."""
    fixed = () if tensor is None else (tensor,)
    small = [_int64(x) for x in operands]
    if None in small or not fits_int64(terms, *(b for _, (_, b) in fixed), *(b for _, b in small)):
        out = op(*(np.asarray(x, dtype=object) for x in operands), *(t for t, _ in fixed))
        narrow = _int64(out)
        return out if narrow is None else narrow[0]
    return op(*(x for x, _ in small), *(t for _, (t, _) in fixed))


class _Field:
    """Cached per-conductor data: zeta-power expansions, the reduction rows
    of scalar products, and the power-basis tensors of multiplication and of
    the Galois maps, which `contract` and `galois_map` apply to coefficient
    arrays."""

    def __init__(self, m: int):
        self.m = m
        poly = cyclotomic_poly(m)
        self.deg = deg = len(poly) - 1
        top_row = [-c for c in poly[:deg]]  # x^deg mod Phi_m
        # zeta^j in the power basis for j in [0, m)
        pows = []
        v = [1] + [0] * (deg - 1)
        for _ in range(m):
            pows.append(tuple(v))
            top = v[-1]
            v = [0] + v[:-1]
            if top:
                v = [a + top * b for a, b in zip(v, top_row)]
        self.red = [pows[k % m] for k in range(deg, 2 * deg - 1)]  # x^k mod Phi_m
        # object arrays of Python ints: pows[j] = zeta^j, and
        # mul[a, b] = zeta^a * zeta^b in the power basis
        self.pows = np.array(pows, dtype=object)
        k = np.arange(deg)
        self.mul = self.pows[(k[:, None] + k[None, :]) % m]
        self._mul = (self.mul, _int64(self.mul))
        self._galois = {}

    def galois(self, t):
        """The matrix of zeta -> zeta^t on the power basis: row k is zeta^(kt)."""
        return self._galois_tensor(t)[0]

    def _galois_tensor(self, t):
        if t not in self._galois:
            if gcd(t, self.m) != 1:
                raise ValueError("t must be a unit mod m")
            gal = self.pows[(np.arange(self.deg) * t) % self.m]
            self._galois[t] = (gal, _int64(gal))
        return self._galois[t]

    def contract(self, x, y, axes):
        """Power-basis coefficients of the sum over `axes` (as in
        np.tensordot) of the products of the numbers x[..., a] and y[..., b];
        the last axis of each holds coefficients and is not summed.  The free
        axes of x come first, then those of y, then the coefficient axis.

        Each output coefficient sums at most k * deg^2 products
        x * y * mul[a, b, c]: k the number of summed index tuples (the
        product of the lengths of `axes`), deg^2 the coefficient pairs.
        `_exact` bounds that sum and computes it in int64 when the bound
        allows, on Python ints otherwise; the result is an object array of
        Python ints either way."""
        a = x.ndim - len(axes[0]) - 1
        terms = self.deg ** 2 * prod(x.shape[i] for i in axes[0])

        def op(x, y, mul):
            pair = np.tensordot(x, y, axes)
            return np.tensordot(pair, mul, axes=([a, pair.ndim - 1], [0, 1]))

        return _exact(op, terms, (x, y), self._mul).astype(object)

    def galois_map(self, x, t):
        """Power-basis coefficients of zeta -> zeta^t applied to each number
        x[..., :], an array of Python ints, through the same guarded kernel
        as `contract` (deg products per coefficient), as an object array of
        Python ints."""
        return _exact(np.dot, self.deg, (x,), self._galois_tensor(t)).astype(object)

    def reduce(self, conv):
        """Reduce a convolution (length <= 2*deg - 1) to the power basis."""
        deg = self.deg
        out = list(conv[:deg]) + [0] * max(0, deg - len(conv))
        for k in range(deg, len(conv)):
            c = conv[k]
            if c:
                row = self.red[k - deg]
                for i, rv in enumerate(row):
                    if rv:
                        out[i] += c * rv
        return out


@lru_cache(maxsize=None)
def _field(m: int) -> _Field:
    return _Field(m)


def _normalize(num, den):
    if den < 0:
        num = [-x for x in num]
        den = -den
    g = den
    for x in num:
        g = gcd(g, x)
        if g == 1:
            break
    if g > 1:
        num = [x // g for x in num]
        den //= g
    return tuple(num), den


class CycNumber:
    """An exact element of Q[zeta_m]."""

    __slots__ = ("m", "num", "den")

    def __init__(self, m, num, den=1, _norm=True):
        # operator.index takes a numpy integer to a Python int, so that no
        # coefficient wraps in the arithmetic below, and refuses a float
        self.m = m
        num, den = [operator.index(x) for x in num], operator.index(den)
        if _norm:
            num, den = _normalize(num, den)
        self.num = tuple(num)
        self.den = den

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, m):
        return cls(m, (0,) * _field(m).deg, 1, _norm=False)

    @classmethod
    def from_fraction(cls, m, q):
        q = Fraction(q)
        deg = _field(m).deg
        return cls(m, (q.numerator,) + (0,) * (deg - 1), q.denominator, _norm=False)

    @classmethod
    def one(cls, m):
        return cls.from_fraction(m, 1)

    # -- predicates / conversions ---------------------------------------
    def is_zero(self):
        return all(x == 0 for x in self.num)

    def is_rational(self):
        return all(x == 0 for x in self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    @property
    def coeffs(self):
        return tuple(Fraction(x, self.den) for x in self.num)

    def to_json(self):
        return {"m": self.m, "coeffs": [[c.numerator, c.denominator] for c in self.coeffs]}

    # -- arithmetic ------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, CycNumber):
            if other.m != self.m:
                raise ValueError("mixed conductors")
            return other
        if isinstance(other, (int, Fraction)):
            return CycNumber.from_fraction(self.m, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self, o
        if a.den == b.den:
            return CycNumber(a.m, [x + y for x, y in zip(a.num, b.num)], a.den)
        return CycNumber(
            a.m, [x * b.den + y * a.den for x, y in zip(a.num, b.num)], a.den * b.den
        )

    __radd__ = __add__

    def __neg__(self):
        return CycNumber(self.m, [-x for x in self.num], self.den, _norm=False)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CycNumber(self.m, [x * other for x in self.num], self.den)
        if isinstance(other, Fraction):
            return CycNumber(
                self.m, [x * other.numerator for x in self.num], self.den * other.denominator
            )
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self.num, o.num
        conv = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        return CycNumber(self.m, _field(self.m).reduce(conv), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        """x^-1 = (prod_{t != 1} sigma_t(x)) / N(x) over the units t mod m,
        sigma_t: zeta_m -> zeta_m^t, with the norm N(x) = x prod_{t != 1}
        sigma_t(x) rational (`as_fraction` raises if it is not)."""
        if self.is_zero():
            raise ZeroDivisionError("inverting 0")
        conjugates = CycNumber.one(self.m)
        for t in range(2, self.m):
            if gcd(t, self.m) == 1:
                conjugates = conjugates * self.galois_raw(t)
        return conjugates * (1 / (self * conjugates).as_fraction())

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = CycNumber.one(self.m)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def galois_raw(self, t: int) -> "CycNumber":
        """Apply zeta_m -> zeta_m^t, gcd(t, m) = 1."""
        out = np.array(self.num, dtype=object).dot(_field(self.m).galois(t))
        return CycNumber(self.m, list(out), self.den)

    def conj(self) -> "CycNumber":
        return self.galois_raw(self.m - 1)

    # -- comparisons -------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycNumber.from_fraction(self.m, other)
        if not isinstance(other, CycNumber):
            return NotImplemented
        return self.m == other.m and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.m, self.num, self.den))

    def __repr__(self):
        return f"Cyc(m={self.m}, {self.num}/{self.den})"


def root_of_unity(m: int, k: int) -> CycNumber:
    """zeta_m^k as an exact field element."""
    f = _field(m)
    return CycNumber(m, tuple(f.pows[k % m]), 1, _norm=False)


def conductor_for(d: int) -> int:
    """Smallest conductor holding omega_d, tau, i and sqrt(d): 8 for d=2, else 4d."""
    require_prime(d)
    return 8 if d == 2 else 4 * d


@lru_cache(maxsize=None)
def omega(d: int) -> CycNumber:
    """The d-th root of unity exp(2*pi*i/d) in the standard conductor."""
    m = conductor_for(d)
    return root_of_unity(m, m // d)


@lru_cache(maxsize=None)
def gauss_sum(d: int) -> CycNumber:
    """Quadratic Gauss sum sum_q omega_d^(q^2) for odd prime d."""
    if d == 2:
        raise ValueError("Gauss sum path requires odd d")
    w = omega(d)
    acc = CycNumber.zero(w.m)
    for q in range(d):
        acc = acc + root_of_unity(w.m, (w.m // d) * ((q * q) % d))
    return acc


@dataclass(frozen=True)
class GaloisMap:
    """Galois automorphism C_alpha: omega_d -> omega_d^alpha, fixing i.

    The exponent is extended from Z_d^x to Z_m^x by acting trivially on the
    4th/8th-root part, so sqrt(d) picks up exactly the Legendre sign.
    """

    alpha: int
    d: int

    def __post_init__(self):
        require_prime(self.d)
        if self.d == 2:
            raise ValueError("Galois layer is defined for odd d")
        if self.alpha % self.d == 0:
            raise ValueError("alpha must be a unit mod d")

    @property
    def exponent(self) -> int:
        # CRT: t = alpha mod d, t = 1 mod 4
        d = self.d
        a = self.alpha % d
        for t in range(1, 4 * d, 1):
            if t % d == a and t % 4 == 1:
                return t
        raise AssertionError("CRT lift not found")


def galois_exponent(c: GaloisMap, m: int) -> int:
    """The s with zeta_m -> zeta_m^s acting as C_alpha on Q[zeta_m]."""
    if m % (4 * c.d):
        raise ValueError("conductor does not contain omega_d")
    t = c.exponent
    # lift exponent from Z_{4d} to Z_m acting trivially on the extra part
    if m == 4 * c.d:
        return t
    k = m // (4 * c.d)
    for s in range(1, m):
        if gcd(s, m) == 1 and s % (4 * c.d) == t and s % k == 1 % k:
            return s
    raise ValueError("no compatible exponent lift")


def galois_apply(c: GaloisMap, x: CycNumber) -> CycNumber:
    return x.galois_raw(galois_exponent(c, x.m))
