"""Arithmetic and linear algebra over the prime field Z_d.  A Z_d matrix
is an integer numpy array (or stack of them), reduced mod d by whatever
reads it."""

from __future__ import annotations

from functools import lru_cache
from math import prod

import numpy as np


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


def inv_mod(a: int, d: int) -> int:
    """Inverse of a in Z_d (d prime)."""
    a %= d
    if a == 0:
        raise ZeroDivisionError("0 has no inverse")
    return pow(a, d - 2, d)


def legendre(a: int, d: int) -> int:
    """Legendre symbol (a/d) for odd prime d; 0 on multiples of d."""
    require_prime(d)
    if d == 2:
        raise ValueError("Legendre symbol requires odd d")
    a %= d
    if a == 0:
        return 0
    s = pow(a, (d - 1) // 2, d)
    return 1 if s == 1 else -1


def rref(a, d: int):
    """The reduced row echelon form over Z_d of every matrix in an integer
    stack a of shape (..., r, c), all at once: (ech, pivots), ech the
    echelon stack with its zero rows trailing and pivots[..., i] the pivot
    column of row i, or c for a zero row.

    One numpy step per column reduces every matrix that has a pivot there,
    with inverses read from a length-d table, in the smallest signed dtype
    that holds d^2 (a row minus a multiple of the pivot row stays above
    -(d - 1)^2 before it is reduced)."""
    require_prime(d)
    a = np.asarray(a)
    *lead, r, c = a.shape
    dtype = np.min_scalar_type(-d * d)
    ech = (a.reshape(prod(lead), r, c) % d).astype(dtype)
    inv = np.array([0, *(pow(x, d - 2, d) for x in range(1, d))], dtype=dtype)
    pivots = np.full(ech.shape[:2], c, dtype=np.intp)
    rank = np.zeros(len(ech), dtype=np.intp)
    rows = np.arange(r)
    for col in range(c):
        nonzero = (ech[:, :, col] != 0) & (rows >= rank[:, None])  # below the echelon part
        m = np.flatnonzero(nonzero.any(1))  # the matrices with a pivot in col
        if not m.size:
            continue
        k, s = rank[m], nonzero[m].argmax(1)  # row s moves up to row k
        pivot_row = ech[m, s]
        ech[m, s] = ech[m, k]
        ech[m, k] = pivot_row * inv[pivot_row[:, col]][:, None] % d
        f = ech[m, :, col]
        f[np.arange(m.size), k] = 0
        ech[m] = (ech[m] - f[:, :, None] * ech[m, k][:, None, :]) % d
        pivots[m, k] = col
        rank[m] += 1
    return ech.reshape(a.shape), pivots.reshape(*lead, r)
