"""Arithmetic and linear algebra over the prime field Z_d."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import SingularMatrix


@lru_cache(maxsize=None)
def is_prime(d: int) -> bool:
    if d < 2:
        return False
    k = 2
    while k * k <= d:
        if d % k == 0:
            return False
        k += 1
    return True


def require_prime(d: int) -> None:
    if not is_prime(d):
        raise ValueError(f"modulus {d} is not prime")


@dataclass(frozen=True)
class ZMod:
    """A fully reduced element of Z_d, d prime."""

    value: int
    d: int

    def __post_init__(self):
        require_prime(self.d)
        object.__setattr__(self, "value", self.value % self.d)

    def _coerce(self, other) -> int:
        if isinstance(other, ZMod):
            if other.d != self.d:
                raise ValueError("mixed moduli")
            return other.value
        return int(other)

    def __add__(self, other):
        return ZMod(self.value + self._coerce(other), self.d)

    def __sub__(self, other):
        return ZMod(self.value - self._coerce(other), self.d)

    def __mul__(self, other):
        return ZMod(self.value * self._coerce(other), self.d)

    def __neg__(self):
        return ZMod(-self.value, self.d)

    def inverse(self) -> "ZMod":
        if self.value == 0:
            raise ZeroDivisionError("0 has no inverse")
        return ZMod(pow(self.value, self.d - 2, self.d), self.d)

    def __truediv__(self, other):
        o = self._coerce(other) % self.d
        if o == 0:
            raise ZeroDivisionError("division by zero in Z_d")
        return self * pow(o, self.d - 2, self.d)

    def __int__(self):
        return self.value


def inv_mod(a: int, d: int) -> int:
    """Inverse of a in Z_d (d prime)."""
    a %= d
    if a == 0:
        raise ZeroDivisionError("0 has no inverse")
    return pow(a, d - 2, d)


def legendre(a, d: int | None = None) -> int:
    """Legendre symbol (a/d) for odd prime d; 0 on multiples of d."""
    if isinstance(a, ZMod):
        d = a.d
        a = a.value
    require_prime(d)
    if d == 2:
        raise ValueError("Legendre symbol requires odd d")
    a %= d
    if a == 0:
        return 0
    s = pow(a, (d - 1) // 2, d)
    return 1 if s == 1 else -1


# Row-level helpers on plain int lists; these are the workhorses that
# ZModMatrix and the phase-space module share.

def rref_rows(rows, d: int):
    """Reduced row echelon form of a list of int rows over Z_d.

    Returns (rows, pivots, rank) with zero rows dropped from the echelon part
    and pivot columns strictly increasing.
    """
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c] % d:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = inv_mod(rows[r][c], d)
        rows[r] = [(x * inv) % d for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] % d:
                f = rows[i][c] % d
                rows[i] = [(x - f * y) % d for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [tuple(row) for row in rows[:r]], tuple(pivots), r


def null_space(rows, ncols: int, d: int):
    """A basis of {k : r . k = 0 over Z_d for every row r}."""
    ech, pivots, _ = rref_rows(rows, d)
    out = []
    for f in (c for c in range(ncols) if c not in pivots):
        k = [0] * ncols
        k[f] = 1
        for row, p in zip(ech, pivots):
            k[p] = (-row[f]) % d
        out.append(k)
    return out


def solve_rows(a_rows, b, d: int):
    """One solution x of A x = b over Z_d, or None if inconsistent."""
    nrows = len(a_rows)
    ncols = len(a_rows[0]) if nrows else 0
    aug = [list(r) + [bv % d] for r, bv in zip(a_rows, b)]
    ech, pivots, rank = rref_rows(aug, d)
    x = [0] * ncols
    for row, p in zip(ech, pivots):
        if p == ncols:
            return None
        x[p] = row[-1]
    return tuple(x)


class ZModMatrix:
    """Immutable matrix over Z_d with exact field arithmetic."""

    __slots__ = ("rows", "d")

    def __init__(self, rows, d: int):
        require_prime(d)
        rows = tuple(tuple(x % d for x in r) for r in rows)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ValueError("ragged rows")
        self.rows = rows
        self.d = d

    @classmethod
    def identity(cls, n: int, d: int) -> "ZModMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], d)

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def __eq__(self, other):
        return isinstance(other, ZModMatrix) and self.d == other.d and self.rows == other.rows

    def __hash__(self):
        return hash((self.rows, self.d))

    def __repr__(self):
        return f"ZModMatrix({list(map(list, self.rows))}, d={self.d})"

    def __matmul__(self, other):
        if isinstance(other, ZModMatrix):
            if other.d != self.d or self.ncols != other.nrows:
                raise ValueError("shape/modulus mismatch")
            bt = list(zip(*other.rows))
            d = self.d
            return ZModMatrix(
                [[sum(x * y for x, y in zip(row, col)) % d for col in bt] for row in self.rows],
                d,
            )
        raise TypeError(type(other))

    def __add__(self, other):
        if self.d != other.d or self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape/modulus mismatch")
        return ZModMatrix(
            [[x + y for x, y in zip(r, s)] for r, s in zip(self.rows, other.rows)], self.d
        )

    def __neg__(self):
        return ZModMatrix([[-x for x in r] for r in self.rows], self.d)

    def scale(self, c: int) -> "ZModMatrix":
        return ZModMatrix([[c * x for x in r] for r in self.rows], self.d)

    def transpose(self) -> "ZModMatrix":
        return ZModMatrix(list(zip(*self.rows)), self.d)

    def apply(self, v):
        """Matrix-vector product, v a tuple."""
        d = self.d
        return tuple(sum(x * y for x, y in zip(row, v)) % d for row in self.rows)


def rref(m: ZModMatrix):
    """RREF of m; returns (ZModMatrix with zero rows trailing, pivots, rank)."""
    ech, pivots, rank = rref_rows(m.rows, m.d)
    padded = list(ech) + [tuple([0] * m.ncols)] * (m.nrows - rank)
    return ZModMatrix(padded, m.d), pivots, rank


def invert(m: ZModMatrix) -> ZModMatrix:
    """Inverse of a square full-rank matrix over Z_d."""
    n = m.nrows
    if n != m.ncols:
        raise SingularMatrix("not square")
    aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(m.rows)]
    ech, pivots, rank = rref_rows(aug, m.d)
    if rank < n or pivots != tuple(range(n)):
        raise SingularMatrix("rank deficient")
    return ZModMatrix([row[n:] for row in ech], m.d)
