"""Exact matrices over cyclotomic fields: Weyl operators T(a), phase-space
point operators A(a), stabilizer projectors and their Gram data."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .cyclotomic import CycNumber, _field, conductor_for, root_of_unity
from .errors import BudgetExceeded, InconsistentSigns, OddOnly, guard_int64
from .phase_space import (
    LagrangianSubspace,
    StabilizerLabel,
    Subspace,
    all_vectors,
    enumerate_lagrangians,
    enumerate_stabilizer_labels,
    subspace_intersection,
    symplectic_form,
    vec_sub,
)
from .zmod import require_prime


class OpMatrix:
    """Dense square matrix over Q[zeta_m]."""

    __slots__ = ("m", "dim", "rows")

    def __init__(self, m, rows):
        self.m = m
        self.rows = tuple(tuple(r) for r in rows)
        self.dim = len(self.rows)
        if any(len(r) != self.dim for r in self.rows):
            raise ValueError("matrix must be square")

    @classmethod
    def identity(cls, m, dim):
        one, zero = CycNumber.one(m), CycNumber.zero(m)
        return cls(m, [[one if i == j else zero for j in range(dim)] for i in range(dim)])

    @classmethod
    def zero(cls, m, dim):
        z = CycNumber.zero(m)
        return cls(m, [[z] * dim for _ in range(dim)])

    @classmethod
    def from_rational(cls, m, rows):
        return cls(m, [[CycNumber.from_fraction(m, x) for x in r] for r in rows])

    def _check(self, other):
        if self.m != other.m or self.dim != other.dim:
            raise ValueError("dimension or conductor mismatch")

    def __add__(self, other):
        self._check(other)
        return OpMatrix(self.m, [[x + y for x, y in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other):
        self._check(other)
        return OpMatrix(self.m, [[x - y for x, y in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __matmul__(self, other):
        self._check(other)
        cols = list(zip(*other.rows))
        out = []
        for row in self.rows:
            out_row = []
            for col in cols:
                acc = None
                for x, y in zip(row, col):
                    if x.is_zero() or y.is_zero():
                        continue
                    term = x * y
                    acc = term if acc is None else acc + term
                out_row.append(acc if acc is not None else CycNumber.zero(self.m))
            out.append(out_row)
        return OpMatrix(self.m, out)

    def scale(self, c):
        if isinstance(c, (int, Fraction)):
            c = CycNumber.from_fraction(self.m, c)
        return OpMatrix(self.m, [[c * x for x in r] for r in self.rows])

    def __neg__(self):
        return self.scale(-1)

    def transpose(self):
        return OpMatrix(self.m, list(zip(*self.rows)))

    def conj(self):
        return OpMatrix(self.m, [[x.conj() for x in r] for r in self.rows])

    def dagger(self):
        return self.conj().transpose()

    def trace(self):
        acc = CycNumber.zero(self.m)
        for i in range(self.dim):
            acc = acc + self.rows[i][i]
        return acc

    def entrywise_galois(self, gal):
        from .cyclotomic import galois_apply

        return OpMatrix(self.m, [[galois_apply(gal, x) for x in r] for r in self.rows])

    def is_hermitian(self):
        return self == self.dagger()

    def __eq__(self, other):
        return (
            isinstance(other, OpMatrix)
            and self.m == other.m
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.m, self.rows))

    def __repr__(self):
        return f"OpMatrix(m={self.m}, dim={self.dim})"

    def to_json(self):
        return {
            "conductor": self.m,
            "dim": self.dim,
            "entries": [[x.to_json()["coeffs"] for x in r] for r in self.rows],
        }


def hs_inner(a: OpMatrix, b: OpMatrix) -> CycNumber:
    """Hilbert-Schmidt inner product (A|B) = tr A† B."""
    a._check(b)
    acc = CycNumber.zero(a.m)
    for i in range(a.dim):
        for j in range(a.dim):
            x = a.rows[i][j]
            y = b.rows[i][j]
            if not (x.is_zero() or y.is_zero()):
                acc = acc + x.conj() * y
    return acc


# ---------------------------------------------------------------------------
# Monomial operators: one nonzero root-of-unity entry per column.  T(a) and
# A(a) are of this shape, which keeps exhaustive law checks cheap.

@dataclass(frozen=True)
class Mono:
    """Matrix with entries M[perm[q], q] = zeta^expo[q], zeta = omega_d (i for d=2)."""

    d: int
    n: int
    perm: tuple
    expo: tuple

    @property
    def r(self):
        return 4 if self.d == 2 else self.d

    def __matmul__(self, other):
        r = self.r
        perm = tuple(self.perm[p] for p in other.perm)
        expo = tuple((other.expo[q] + self.expo[other.perm[q]]) % r for q in range(len(self.perm)))
        return Mono(self.d, self.n, perm, expo)

    def dagger(self):
        size = len(self.perm)
        inv = [0] * size
        for q, p in enumerate(self.perm):
            inv[p] = q
        r = self.r
        expo = tuple((-self.expo[inv[q]]) % r for q in range(size))
        return Mono(self.d, self.n, tuple(inv), expo)

    def phase_shift(self, k):
        """Multiply by zeta^k globally."""
        r = self.r
        return Mono(self.d, self.n, self.perm, tuple((e + k) % r for e in self.expo))

    def _phase(self, e):
        m = conductor_for(self.d)
        return root_of_unity(m, (m // self.r) * e)

    def trace(self) -> CycNumber:
        m = conductor_for(self.d)
        acc = CycNumber.zero(m)
        for q, p in enumerate(self.perm):
            if p == q:
                acc = acc + self._phase(self.expo[q])
        return acc

    def trace_product(self, other) -> CycNumber:
        """tr(self @ other) without building matrices."""
        m = conductor_for(self.d)
        acc = CycNumber.zero(m)
        for q in range(len(self.perm)):
            if self.perm[other.perm[q]] == q:
                acc = acc + self._phase((other.expo[q] + self.expo[other.perm[q]]) % self.r)
        return acc

    def to_matrix(self) -> OpMatrix:
        m = conductor_for(self.d)
        dim = len(self.perm)
        zero = CycNumber.zero(m)
        rows = [[zero] * dim for _ in range(dim)]
        for q, p in enumerate(self.perm):
            rows[p][q] = self._phase(self.expo[q])
        return OpMatrix(m, rows)


def _digits(q, d, n):
    out = []
    for _ in range(n):
        out.append(q % d)
        q //= d
    return tuple(reversed(out))


def _index(digits, d):
    q = 0
    for x in digits:
        q = q * d + x
    return q


def weyl_mono(d, n, a) -> Mono:
    """T(a) as a monomial operator; a = (a_X, a_Z) concatenated."""
    require_prime(d)
    ax, az = a[:n], a[n:]
    dim = d ** n
    perm = []
    expo = []
    half = (d + 1) // 2
    dot = sum(x * z for x, z in zip(ax, az))
    for q in range(dim):
        digs = _digits(q, d, n)
        out = tuple((x + y) % d for x, y in zip(digs, ax))
        perm.append(_index(out, d))
        ph = sum(z * o for z, o in zip(az, out))
        if d == 2:
            expo.append((-dot + 2 * ph) % 4)
        else:
            expo.append((half * (-dot) + ph) % d)
    return Mono(d, n, tuple(perm), tuple(expo))


def weyl(d, n, a) -> OpMatrix:
    """The Weyl-Heisenberg operator T(a) as a dense exact matrix."""
    return weyl_mono(d, n, a).to_matrix()


def mono_sum(monos, scale) -> OpMatrix:
    """scale * (sum of the monomial operators) as a dense matrix.  The
    root-of-unity exponents of each entry are counted, and the entry is built
    once from the field's power table."""
    monos = list(monos)
    r, dim, m = monos[0].r, len(monos[0].perm), conductor_for(monos[0].d)
    counts = {}
    for mono in monos:
        for q, (p, e) in enumerate(zip(mono.perm, mono.expo)):
            counts.setdefault((p, q), [0] * r)[e] += 1
    roots = [_field(m).pows[(m // r) * e] for e in range(r)]  # zeta_r^e
    scale = Fraction(scale)
    rows = [[CycNumber.zero(m)] * dim for _ in range(dim)]
    for (p, q), by_expo in counts.items():
        num = [scale.numerator * sum(c * x for c, x in zip(by_expo, xs)) for xs in zip(*roots)]
        rows[p][q] = CycNumber(m, num, scale.denominator)
    return OpMatrix(m, rows)


@lru_cache(maxsize=None)
def phase_point_all(d, n):
    """All phase-space point operators A(a), keyed by a, from the defining sum."""
    scale = Fraction(1, d ** n)
    out = {}
    for a in all_vectors(d, 2 * n):
        terms = []
        for b in all_vectors(d, 2 * n):
            k = symplectic_form(a, b, d)
            phase_exp = 2 * k if d == 2 else k  # omega = i^2 when d = 2
            terms.append(weyl_mono(d, n, b).phase_shift(phase_exp))
        out[a] = mono_sum(terms, scale)
    return out


def phase_point(d, n, a) -> OpMatrix:
    """A(a) = d^-n sum_b omega^([a,b]) T(b)."""
    return phase_point_all(d, n)[tuple(x % d for x in a)]


@lru_cache(maxsize=None)
def phase_point_mono(d, n, a) -> Mono:
    """A(a) as a monomial operator (cross-checked against the defining sum in tests)."""
    if d == 2:
        raise OddOnly("qubit A(a) is not monomial; use phase_point")
    mat = phase_point(d, n, a)
    dim = mat.dim
    perm = [None] * dim
    expo = [0] * dim
    m = conductor_for(d)
    roots = [root_of_unity(m, (m // d) * e) for e in range(d)]
    for q in range(dim):
        col = [mat.rows[p][q] for p in range(dim)]
        nz = [p for p, x in enumerate(col) if not x.is_zero()]
        assert len(nz) == 1, "A(a) must be monomial"
        p = nz[0]
        perm[q] = p
        if col[p] not in roots:
            raise AssertionError("A(a) entry is not a unit phase")
        expo[q] = roots.index(col[p])
    return Mono(d, n, tuple(perm), tuple(expo))


@lru_cache(maxsize=8192)
def stab_projector(label: StabilizerLabel) -> OpMatrix:
    """Pi_L^g = d^-n sum_{b in L} omega^(g(b)) T(b) for odd d."""
    d, n = label.d, label.n
    if d == 2:
        raise OddOnly("use stab_projector_qubit for d = 2")
    terms = [weyl_mono(d, n, b).phase_shift(label.functional(b)) for b in label.L.points()]
    return mono_sum(terms, Fraction(1, d ** n))


def stab_projector_wigner(label: StabilizerLabel) -> OpMatrix:
    """The same projector from the phase-space side: d^-n sum_{b in L+a} A(b)."""
    d, n = label.d, label.n
    if d == 2:
        raise OddOnly("phase-space form requires odd d")
    m = conductor_for(d)
    dim = d ** n
    acc = OpMatrix.zero(m, dim)
    for x in label.coset().points():
        acc = acc + phase_point(d, n, x)
    return acc.scale(Fraction(1, dim))


def stab_projector_qubit(L: Subspace, signs) -> OpMatrix:
    """Qubit stabilizer projector 2^-n sum eps(b) T(b) from basis signs in {+1,-1}.

    The group {eps(b)T(b)} is generated by closure, so consistency is automatic
    for an isotropic basis; invalid input raises InconsistentSigns.
    """
    d = L.d
    if d != 2:
        raise ValueError("qubit path requires d = 2")
    n = L.ambient // 2
    if L.dim != n or len(signs) != n:
        raise InconsistentSigns("need a Lagrangian basis and one sign per row")
    if any(symplectic_form(u, v, 2) for u in L.basis for v in L.basis):
        raise InconsistentSigns("basis is not isotropic")
    if any(s not in (1, -1) for s in signs):
        raise InconsistentSigns("signs must be +1 or -1")
    dim = 2 ** n
    group = {(0,) * (2 * n): Mono(2, n, tuple(range(dim)), (0,) * dim)}
    for row, s in zip(L.basis, signs):
        gen = weyl_mono(2, n, row)
        if s == -1:
            gen = gen.phase_shift(2)
        for vec, mono in list(group.items()):
            new_vec = tuple((x + y) % 2 for x, y in zip(vec, row))
            if new_vec not in group:
                group[new_vec] = mono @ gen
    if len(group) != dim:
        raise InconsistentSigns("sign data does not close into a group")
    return mono_sum(group.values(), Fraction(1, dim))


@dataclass(frozen=True)
class QubitStabState:
    """A qubit stabilizer state named by (Lagrangian, basis sign tuple)."""

    L: LagrangianSubspace
    signs: tuple

    def sort_key(self):
        return (self.L.basis, self.signs)


@lru_cache(maxsize=None)
def enumerate_qubit_states(n):
    """All valid (L, signs) pairs for d = 2, sorted: 6 for n=1, 60 for n=2."""
    out = []
    for L in enumerate_lagrangians(2, n):
        for signs in itertools.product((1, -1), repeat=n):
            out.append(QubitStabState(L, signs))
    out.sort(key=QubitStabState.sort_key)
    return tuple(out)


@lru_cache(maxsize=65536)
def _cached_intersection(a: Subspace, b: Subspace) -> Subspace:
    return subspace_intersection(a, b)


def gram_closed_form(x: StabilizerLabel, y: StabilizerLabel) -> Fraction:
    """tr(Pi_x Pi_y) = d^(dim(L∩M) - n) * [g and h agree on L∩M], d odd.

    This is the character-comparison inner product; the normalized form in
    terms of (.|.) is recovered by construction since tr Pi = 1.
    """
    d, n = x.d, y.n
    if d == 2:
        raise OddOnly("qubit Gram entries come from brute force")
    inter = _cached_intersection(x.L, y.L)
    diff = vec_sub(x.rep, y.rep, d)
    for b in inter.basis:
        if symplectic_form(diff, b, d):
            return Fraction(0)
    return Fraction(d) ** (inter.dim - n)


@dataclass(frozen=True)
class GramMatrix:
    """Exact pairwise overlaps tr(q_i q_j) of a state family."""

    labels: tuple
    values: tuple  # tuple of tuples of Fraction

    @property
    def size(self):
        return len(self.labels)

    def value_multiset(self):
        out = {}
        for row in self.values:
            for v in row:
                out[v] = out.get(v, 0) + 1
        return out

    def to_csv(self):
        lines = []
        for row in self.values:
            lines.append(",".join(f"{v.numerator}/{v.denominator}" for v in row))
        return "\n".join(lines) + "\n"


def build_gram(states, projectors=None, budget=100_000_000) -> GramMatrix:
    """Gram matrix of a state family.

    Odd-d stabilizer labels use the closed form; anything else (qubit states,
    rebit projectors) uses brute-force traces of the supplied projector
    matrices (`gram_bruteforce_all_pairs`).
    """
    states = tuple(states)
    size = len(states)
    if size * size > budget:
        raise BudgetExceeded(f"{size}^2 Gram entries exceed budget")
    if states and isinstance(states[0], StabilizerLabel) and projectors is None:
        vals = [[gram_closed_form(x, y) for y in states] for x in states]
        return GramMatrix(labels=states, values=tuple(tuple(r) for r in vals))
    if projectors is None:
        raise ValueError("non-label states need explicit projector matrices")
    return GramMatrix(labels=states, values=gram_bruteforce_all_pairs(projectors))


# ---------------------------------------------------------------------------
# Cached state families

@dataclass(frozen=True)
class StateFamily:
    """A finite family of states: labels, exact projectors, and Gram data."""

    kind: str
    d: int
    n: int
    labels: tuple
    projectors: tuple
    gram: GramMatrix

    @property
    def size(self):
        return len(self.labels)


def gram_bruteforce_all_pairs(projectors):
    """All pairwise tr(P_i P_j) as exact Fractions, via integer tensor arithmetic.

    The coefficients are scaled to integers by the lcm of the entries'
    denominators; raises if any trace has a nonzero component outside the
    rational line.  numpy is used purely as an int64 container, guarded
    against overflow, so every value is exact.
    """
    import numpy as np

    projs = list(projectors)
    m = projs[0].m
    field = _field(m)
    deg = field.deg
    dim = projs[0].dim
    scale = lcm(*(x.den for p in projs for r in p.rows for x in r))
    coeff = np.zeros((len(projs), dim * dim, deg), dtype=np.int64)
    coeff_t = np.zeros_like(coeff)
    bound = 0
    for k, p in enumerate(projs):
        for i in range(dim):
            for j in range(dim):
                x = p.rows[i][j]
                if x.is_zero():
                    continue
                f = scale // x.den
                vec = [c * f for c in x.num]
                bound = max(bound, *map(abs, vec))
                coeff[k, i * dim + j, : len(vec)] = vec
                coeff_t[k, j * dim + i, : len(vec)] = vec
    # a product entry sums dim^2 terms, a convolution coefficient deg of those,
    # and the reduction adds |red| multiples of the convolution to each one
    guard_int64(dim * dim * deg * (1 + sum(abs(v) for row in field.red for v in row)), bound, 2)
    # convolution coefficients of sum_e A[x,e,a] * B[y,e,b], then reduce mod Phi_m
    prod = np.einsum("xea,yeb->xyab", coeff, coeff_t)
    conv = np.zeros((len(projs), len(projs), 2 * deg - 1), dtype=np.int64)
    for a in range(deg):
        for b in range(deg):
            conv[:, :, a + b] += prod[:, :, a, b]
    out = conv[:, :, :deg].copy()
    for k in range(deg, 2 * deg - 1):
        row = field.red[k - deg]
        for i, rv in enumerate(row):
            if rv:
                out[:, :, i] += rv * conv[:, :, k]
    if np.any(out[:, :, 1:]):
        raise ValueError("brute-force trace has irrational part")
    square = scale * scale
    return tuple(tuple(Fraction(int(v), square) for v in row) for row in out[:, :, 0])


@lru_cache(maxsize=None)
def stabilizer_states(d, n) -> StateFamily:
    """The full stabilizer-state family for (d, n) with exact projectors."""
    require_prime(d)
    if d == 2:
        labels = enumerate_qubit_states(n)
        projs = tuple(stab_projector_qubit(s.L, s.signs) for s in labels)
        gram = build_gram(labels, projectors=projs)
    else:
        labels = enumerate_stabilizer_labels(d, n)
        projs = tuple(stab_projector(lab) for lab in labels)
        gram = build_gram(labels)
    return StateFamily(kind="stabilizer", d=d, n=n, labels=labels, projectors=projs, gram=gram)
