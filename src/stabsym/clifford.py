"""Symplectic and Clifford machinery: Sp(2n, d), similitudes, the faithful
metaplectic section for single qudits, Galois-extended Clifford elements with
their exact composition law, qubit gates as label maps and the rebit states.

Single-qudit section values and extended-Clifford elements are rows of a
`PhaseStack`: each a sign times g_d^0 or g_d^-1 (g_d the Gauss sum) times a
d x d table of omega exponents, so the Clifford laws are integer counts of
exponent sums against integer rows (`products_equal`), with no cyclotomic
number and no matrix product.  The laws are written once, over arrays with a
leading batch axis: the section on a stack of S (`_sections`), the linear
parts omega^mu T(a) U_S (`_linear_parts`), the Galois maps
(`PhaseStack.galois`), the composition of elements (mu, a, S, alpha)
(`_compose`) and the check of a whole stack of triples x y = z
(`products_equal`, one bincount per batch); `metaplectic` and
`ExtCliffordElement.matrix` return stacks of one."""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import prod
from numbers import Integral

import numpy as np

from .cyclotomic import GaloisMap
from .errors import BudgetExceeded, Mismatch, OddOnly, WordDecompositionFailure
from .operators import OperatorSet, phase_point_table, weyl_table
from .permgroup import PermGroup
from .phase_space import (
    MAX_ENTRIES,
    MAX_POINTS,
    Lagrangians,
    all_vectors,
    code_points,
    enumerate_stabilizer_labels,
    jvec,
    label_permutations,
    point_codes,
    wreath_decompose,
)
from .zmod import inv_mod, legendre, require_prime


# ---------------------------------------------------------------------------
# Symplectic matrices and similitudes over Z_d

@lru_cache(maxsize=None)
def _form_matrix(n):
    """J with [a, b] = a^T J b, read-only."""
    form = jvec(np.eye(2 * n, dtype=np.int64)).T
    form.flags.writeable = False
    return form


def similitude_multiplier(m, d):
    """The mu with [Ma, Mb] = mu [a, b] over Z_d (d prime, else ValueError),
    or None if the integer matrix m is not a similitude: G = M^T J M mod d
    holds every [M e_i, M e_j], so mu = G[0, n] and m is a similitude iff
    G = mu J (mu = 0 for a singular m)."""
    require_prime(d)
    a = np.asarray(m) % d
    n = a.shape[1] // 2
    form = _form_matrix(n)
    gram = a.T @ form @ a % d
    mu = int(gram[0, n])
    return mu if np.array_equal(gram, mu * form % d) else None


def is_symplectic(m, d) -> bool:
    return similitude_multiplier(m, d) == 1


def k_alpha(d, n, alpha):
    """The canonical similitude K_alpha = diag(1_n, alpha 1_n) mod d."""
    return np.diag([1] * n + [alpha % d] * n)


@lru_cache(maxsize=None)
def _residues(d):
    """x^-1 and the Legendre symbol L(x) for every residue x mod an odd prime
    d (both 0 at x = 0), as read-only arrays indexed by x."""
    inv = np.array([0, *(inv_mod(x, d) for x in range(1, d))])
    leg = np.array([legendre(x, d) for x in range(d)])
    inv.flags.writeable = leg.flags.writeable = False
    return inv, leg


def _k_conjugate(s, beta, d):
    """K_beta S K_beta^-1 mod d for every S in an integer stack s (..., 2n,
    2n), beta an integer or an array over its leading axes: S with its upper
    right n x n block times beta^-1 and its lower left block times beta."""
    out = np.array(s)
    n = out.shape[-1] // 2
    beta = np.asarray(beta)[..., None, None] % d
    out[..., :n, n:] *= _residues(d)[0][beta]
    out[..., n:, :n] *= beta
    return out % d


def _k_apply(beta, a):
    """K_beta a = (a_X, beta a_Z) along the last axis of an integer array a,
    beta an integer or an array over its leading axes."""
    a = np.asarray(a)
    n = a.shape[-1] // 2
    return np.concatenate([a[..., :n], np.asarray(beta)[..., None] * a[..., n:]], axis=-1)


def transvection(v, d):
    """t_v: x -> x + [x, v] v, as its matrix 1 + v (J v)^T mod d."""
    v = np.asarray(v)
    return (np.eye(len(v), dtype=np.int64) + np.outer(v, jvec(v))) % d


def sp_order_formula(d, n) -> int:
    out = d ** (n * n)
    for k in range(1, n + 1):
        out *= d ** (2 * k) - 1
    return out


@lru_cache(maxsize=None)
def sp_generators(d, n):
    """A certified generating set of Sp(2n, d), read-only matrices, else
    Mismatch: the transvections of the unit vectors and of their pairwise
    sums.  Each is symplectic, so a random chain (`PermGroup.random_chain`)
    of the group they generate on the nonzero points has order at most
    |<gens>| <= |Sp(2n, d)|, and a chain that reaches |Sp(2n, d)|
    (`sp_order_formula`) certifies both."""
    require_prime(d)
    if d ** (2 * n) > MAX_POINTS:
        raise BudgetExceeded("phase space too large for certification")
    units = np.eye(2 * n, dtype=np.int64)
    i, j = np.triu_indices(2 * n, 1)
    gens = tuple(transvection(v, d) for v in np.concatenate([units, units[i] + units[j]]))
    perms = nonzero_point_perms(gens, d, n)
    order = PermGroup.random_chain(perms, (), d ** (2 * n) - 1).order()
    if order != sp_order_formula(d, n):
        raise Mismatch(f"a chain of the transvections reaches order {order}, "
                       f"not |Sp({2 * n}, {d})|", witness=order)
    for g in gens:
        if not is_symplectic(g, d):
            raise Mismatch("a transvection is not symplectic", witness=g)
        g.flags.writeable = False
    return gens


def _nonzero_points(d, n):
    """The nonzero points of Z_d^{2n} in `all_vectors` order: point i has
    the code i + 1 (`point_codes`)."""
    return code_points(np.arange(1, d ** (2 * n)), d, 2 * n)


def nonzero_point_perms(gens, d, n):
    """The permutation each invertible matrix in `gens` induces on the
    nonzero points of Z_d^{2n}, in `_nonzero_points` order: one integer
    product per matrix, and an image's index is its code - 1."""
    points = _nonzero_points(d, n)
    return [tuple((point_codes(points @ np.asarray(g).T % d, d) - 1).tolist())
            for g in gens]


def primitive_root(d):
    for g in range(2, d):
        seen = {1}
        x = g
        while x != 1:
            seen.add(x)
            x = (x * g) % d
        if len(seen) == d - 1:
            return g
    raise ValueError("no primitive root (d not prime?)")


# ---------------------------------------------------------------------------
# The metaplectic section for n = 1 (single qudit), odd d, in closed form
# (Appleby, J. Math. Phys. 46, 052107 (2005); Neuhauser, J. Lie Theory 12
# (2002)).  With S = [[a, b], [c, e]] by rows, tau = omega^((d+1)/2), the Gauss
# sum g_d and the Legendre symbol L:
#   b != 0:  U_S = L(2b) g_d^{-1} sum_{r,s} tau^(b^{-1}(a s^2 - 2 r s + e r^2)) |r><s|
#   b == 0:  U_S = L(a) sum_s tau^(a c s^2) |a s><s|
# Its values at [[0,-1],[1,0]], diag(g, g^{-1}) and [[1,0],[1,1]] are
#   Fourier    L(-2) F  with  F = g_d^{-1} (omega^{jk})
#   Multiplier M_g = L(g) sum |gq><q|
#   Shear      D_1 = diag(tau^{q^2}).
# Two multiplicative sections differ by a homomorphism SL(2, d) -> U(1), which
# is trivial for d >= 5 because SL(2, d) is perfect: the section is unique
# there, and so Galois-stable (field automorphisms are group automorphisms).
# At d = 3 the three values above pin it among the three sections.


def sl2_elements(d):
    """SL(2, d) as the lexicographically sorted tuple of its row pairs."""
    return tuple(((a, b), (c, e)) for a, b, c, e in product(range(d), repeat=4)
                 if (a * e - b * c) % d == 1)


@dataclass(frozen=True, eq=False)
class PhaseStack:
    """B phase tables of one d (one qudit, odd d), values of the metaplectic
    section or linear parts of extended Clifford elements: table i has entry
    (r, q) = sign[i] g_d^-gauss[i] omega^expo[i, r, q], 0 where expo[i, r, q]
    = -1, with the Gauss sum g_d = sum_q omega^(q^2).  sign (+-1), gauss (0 or
    1), both (B,), and expo, (B, d, d) in [-1, d), are read-only int64 arrays.
    Tables compare by `products_equal`, not by ==."""

    d: int
    sign: np.ndarray
    gauss: np.ndarray
    expo: np.ndarray

    def __post_init__(self):
        self.sign.flags.writeable = self.gauss.flags.writeable = self.expo.flags.writeable = False

    def __len__(self):
        return len(self.sign)

    def galois(self, alpha) -> PhaseStack:
        """Table i under C_alpha[i], omega -> omega^alpha[i]: exponents times
        alpha[i], sign times L(alpha[i])^gauss[i] as C_alpha(g_d) = L(alpha)
        g_d; an alpha = 0 mod d is a ValueError."""
        d, alpha = self.d, np.asarray(alpha) % self.d
        if not alpha.all():
            raise ValueError(f"alpha must be a unit mod {d}, not {alpha.tolist()}")
        expo = np.where(self.expo < 0, -1, self.expo * alpha[:, None, None] % d)
        return PhaseStack(d, self.sign * _residues(d)[1][alpha] ** self.gauss, self.gauss, expo)


@lru_cache(maxsize=None)
def _gauss_rows(d):
    """R[m, e] = (c_k) with d g_d^m omega^e = sum_{k < d} c_k omega^k, read-only
    (4, d + 1, d) int64, m = 0, 1, 2, -1 (index 3) and a zero row e = -1 last:
    g_d omega^e = sum_q omega^(q^2 + e), and g_d^2 = L(-1) d, so d g_d^-1 = L(-1) g_d."""
    e, k = np.arange(d + 1)[:, None], np.arange(d)
    one = (k == e).astype(np.int64)  # omega^e, 0 at e = d
    gauss = np.where(e < d, np.bincount(k * k % d, minlength=d)[(k - e) % d], 0)
    sign = _residues(d)[1][-1]  # L(-1)
    rows = np.stack([d * one, d * gauss, sign * d * d * one, sign * gauss])
    rows.flags.writeable = False
    return rows


def products_equal(x, y, z):
    """Whether x y = z in every one of the d^2 entries, zeros included, with
    no matrix product: the (B,) bool array of the B triples' verdicts for
    three `PhaseStack`s of length B.  One bincount over the whole batch,
    item i's cells offset by i d^3, gives N[i, r, s, k] = #{q : expo_x[i, r,
    q] + expo_y[i, q, s] = k mod d, neither -1}.  Times d g_d^(gauss_x +
    gauss_y), entry (r, s) holds iff d sign_x sign_y sum_k N[k] omega^k =
    sign_z R[m, expo_z] . omega, m = gauss_x + gauss_y - gauss_z
    (`_gauss_rows`); as 1 + omega + ... + omega^(d-1) = 0 is the only
    relation of those powers (d prime), iff the two integer rows differ by a
    constant.  Counts are at most d and R at most d^2: int64 is exact."""
    d, size = x.d, len(x)
    if not len(y) == len(z) == size:
        raise ValueError("stacks of different lengths")
    ex, ey = x.expo[:, :, :, None], y.expo[:, None, :, :]
    keys = ex + ey  # one (B, d, d, d) array, updated in place
    keys %= d
    keys += np.arange(size * d * d).reshape(size, d, 1, d) * d  # the cell (i, r, s)
    zero = size * d ** 3
    keys[(ex < 0) | (ey < 0)] = zero
    diff = np.bincount(keys.ravel(), minlength=zero + 1)[:-1].reshape(size, d * d, d)
    diff *= (d * x.sign * y.sign)[:, None, None]
    m = x.gauss + y.gauss - z.gauss
    diff -= z.sign[:, None, None] * _gauss_rows(d)[m[:, None], z.expo.reshape(size, d * d)]
    return (diff == diff[:, :, :1]).all(axis=(1, 2))


def metaplectic(d, s) -> PhaseStack:
    """The canonical unitary U_S with U_S T(b) U_S^dagger = T(Sb) exactly,
    multiplicative in S (n = 1, odd d), as a stack of one phase table, the
    closed form above; S any integer matrix, cached per (d, S mod d)."""
    if d == 2:
        raise OddOnly("the metaplectic section needs odd d")
    s = np.asarray(s)
    if s.dtype.kind not in "iu":
        raise ValueError(f"S must be an integer matrix, not an array of {s.dtype}")
    return _metaplectic(d, tuple(map(tuple, (s % d).tolist())))


@lru_cache(maxsize=1024)  # all of SL(2, d) up to d = 7
def _metaplectic(d, rows) -> PhaseStack:
    return _sections(d, [rows])


def _sections(d, s) -> PhaseStack:
    """U_S for every S in an integer stack s (B, 2, 2), by the closed form
    above on the whole stack at once: sign L(2b) and gauss 1 where b != 0,
    sign L(a) and gauss 0 where b = 0.  An S not in SL(2, d) is a
    WordDecompositionFailure."""
    s = np.asarray(s) % d
    a, b, c, e = s.reshape(-1, 4).T[:, :, None, None]  # each (B, 1, 1)
    outside = ((a * e - b * c) % d != 1).reshape(-1)
    if outside.any():
        rows = tuple(map(tuple, s[outside][0].tolist()))
        raise WordDecompositionFailure(f"{rows} is not in SL(2, {d})")
    inv, leg = _residues(d)
    half, q = (d + 1) // 2, np.arange(d)
    r = q[:, None]
    full = half * inv[b] * (a * q * q - 2 * r * q + e * r * r) % d  # b != 0
    mono = np.where(r == a * q % d, half * a * c * q * q % d, -1)  # b = 0: |a q><q|
    a, b = a.reshape(-1), b.reshape(-1)
    return PhaseStack(d, np.where(b != 0, leg[2 * b % d], leg[a]), (b != 0).astype(np.int64),
                      np.where(b[:, None, None] != 0, full, mono))


# ---------------------------------------------------------------------------
# Galois-extended Clifford elements (single qudit)

@dataclass(frozen=True)
class ExtCliffordElement:
    """omega^mu T(a) U_S C_alpha for one qudit of odd prime dimension d.
    Every field is kept reduced mod d (S, any integer matrix, as its rows),
    so one element has one form for `==`, hashing and `to_json`; a mu or
    alpha that is not an integer, an a that is not 2 integers or alpha = 0
    mod d is a ValueError.  Its laws are those
    of a batch of one in the array form (mu, a, S, alpha) (`_arrays`)."""

    mu: int
    a: tuple
    S: tuple
    alpha: int
    d: int

    def __post_init__(self):
        d = self.d
        s = np.asarray(self.S)
        if s.shape != (2, 2) or s.dtype.kind not in "iu":
            raise ValueError(f"S must be a 2 x 2 integer matrix (one qudit), not {self.S!r}")
        s = s % d
        if not is_symplectic(s, d):  # ValueError for a composite d
            raise ValueError("S must be symplectic")
        if len(self.a) != 2 or not all(isinstance(x, Integral) for x in self.a):
            raise ValueError(f"a must be 2 residues mod {d}, not {self.a!r}")
        if not isinstance(self.mu, Integral) or not isinstance(self.alpha, Integral):
            raise ValueError(f"mu and alpha must be integers, not {self.mu!r}, {self.alpha!r}")
        if self.alpha % d == 0:
            raise ValueError(f"alpha must be a unit mod {d}, not {self.alpha!r}")
        object.__setattr__(self, "mu", int(self.mu) % d)
        object.__setattr__(self, "a", tuple(int(x) % d for x in self.a))
        object.__setattr__(self, "S", tuple(map(tuple, s.tolist())))
        object.__setattr__(self, "alpha", int(self.alpha) % d)

    @classmethod
    def identity(cls, d):
        return cls(mu=0, a=(0, 0), S=((1, 0), (0, 1)), alpha=1, d=d)

    def _arrays(self):
        """(mu, a, S, alpha) as arrays of a batch of one (`_compose`)."""
        return np.array([self.mu]), np.array([self.a]), np.array([self.S]), np.array([self.alpha])

    def galois(self) -> GaloisMap:
        return GaloisMap(self.alpha, self.d)

    def matrix(self) -> PhaseStack:
        """The linear part omega^mu T(a) U_S as a stack of one phase table:
        `_linear_parts` on the cached U_S."""
        mu, a, _, _ = self._arrays()
        return _linear_parts(self.d, mu, a, metaplectic(self.d, self.S))

    def to_json(self):
        return {
            "mu": self.mu,
            "a": list(self.a),
            "S": [list(r) for r in self.S],
            "alpha": self.alpha,
        }


def _linear_parts(d, mu, a, u: PhaseStack) -> PhaseStack:
    """omega^mu[i] T(a[i]) u[i] for a stack u of sections U_S: the monomial
    T(a) (`weyl_table`) moves row q of U_S to row perm[q] and adds mu +
    expo[q] to its exponents."""
    perm, shift = weyl_table(d, 1, point_codes(np.asarray(a) % d, d))
    shift += np.asarray(mu)[:, None]
    expo = np.empty_like(u.expo)
    expo[np.arange(len(perm))[:, None], perm] = np.where(u.expo < 0, -1,
                                                         (u.expo + shift[:, :, None]) % d)
    return PhaseStack(d, u.sign, u.gauss, expo)


def _compose(d, h, g):
    """The composition law on arrays: h and g are (mu, a, S, alpha) integer
    arrays of shapes (B,), (B, 2), (B, 2, 2) and (B,), and so is hg, reduced
    mod d.  With h = (nu, b, R, beta) and g = (mu, a, S, alpha),
    hg = omega^{nu + beta mu - (1/2)[b, R K_beta a]} T(R K_beta a + b)
    U_{R K_beta S K_beta^{-1}} C_{beta alpha} (`_k_apply`, `_k_conjugate`)."""
    nu, b, r, beta = (np.asarray(x) % d for x in h)
    mu, a, s, alpha = (np.asarray(x) % d for x in g)
    rka = np.einsum("bij,bj->bi", r, _k_apply(beta, a)) % d
    return ((nu + beta * mu - (d + 1) // 2 * (b * jvec(rka)).sum(-1)) % d, (rka + b) % d,
            r @ _k_conjugate(s, beta, d) % d, beta * alpha % d)


# ---------------------------------------------------------------------------
# Qubit gates, the real Clifford group and the rebit orbit

def qubit_gate_action(n, name, i=0, j=1):
    """The `label_permutations` map (S, 0, eta) with U T(b) U^dagger =
    (-1)^eta(b) T(S b) for the gate U = name on qubit i (CZ on qubits i and
    j) of an n-qubit register, name in H, S, Y, Z, CZ: the tableau rules
    (Aaronson & Gottesman, PRA 70, 052328 (2004)).  eta takes an integer
    array of points b and acts along its last axis."""
    s = np.eye(2 * n, dtype=np.int64)
    x, z = i, n + i
    if name == "H":  # X <-> Z, Y -> -Y
        s[[x, z]] = s[[z, x]]
        eta = lambda b: b[..., x] * b[..., z]
    elif name == "S":  # X -> Y, Y -> -X
        s[z, x] = 1
        eta = lambda b: b[..., x] * b[..., z]
    elif name in ("Y", "Z"):  # Z flips X; Y flips X and Z
        eta = lambda b: (b[..., x] + (name == "Y") * b[..., z]) % 2
    elif name == "CZ":  # X_i -> X_i Z_j, X_j -> Z_i X_j
        s[n + j, x] = s[z, j] = 1
        eta = lambda b: b[..., x] * b[..., j] * (b[..., z] + b[..., n + j]) % 2
    else:
        raise ValueError(name)
    return s, (0,) * (2 * n), eta


def transpose_action(n):
    """The label map of transposition: T(b)^T = (-1)^(b_X.b_Z) T(b), eta
    acting along the last axis of an integer array of points b."""
    return (np.eye(2 * n, dtype=np.int64), (0,) * (2 * n),
            lambda b: (b[..., :n] * b[..., n:]).sum(-1) % 2)


def rebit_count(n):
    """2^n prod_k (2^(k-1) + 1), the number of n-rebit stabilizer states."""
    return 2 ** n * prod(2 ** (k - 1) + 1 for k in range(1, n + 1))


@lru_cache(maxsize=None)
def real_clifford_closure(n):
    """((lags, index, reps), generators) of the rebit states, no Gram: the qubit labels
    on real Lagrangians (transposition fixes each basis row, hence the span), the real
    sublist lags of `enumerate_lagrangians(2, n)`, breadth-first from |0...0>, under Z_i,
    H_i, CZ_ij; refused before listing if the Gram passes MAX_ENTRIES."""
    if (size := rebit_count(n)) ** 2 > MAX_ENTRIES:
        raise BudgetExceeded(f"{size}^2 rebit Gram entries exceed the budget of {MAX_ENTRIES}")
    full, index, reps = enumerate_stabilizer_labels(2, n)
    real = ~transpose_action(n)[2](full.basis).any(-1)
    lags = Lagrangians(2, n, full.basis[real])
    keep = real[index]
    index, reps = (np.cumsum(real) - 1)[index[keep]], reps[keep]
    gates = [(g, i) for i in range(n) for g in ("Z", "H")]
    gates += [("CZ", i, j) for i in range(n) for j in range(i + 1, n)]
    perms = label_permutations(lags, index, reps, [qubit_gate_action(n, *g) for g in gates])
    seen, queue = {0: 0}, [0]
    for p in queue:
        for perm in perms:
            if perm[p] not in seen:
                seen[perm[p]] = len(seen)
                queue.append(perm[p])
    gens = tuple(tuple(seen[perm[p]] for p in seen) for perm in perms)
    order = list(seen)
    return (lags, index[order], reps[order]), gens


@lru_cache(maxsize=None)
def real_clifford_orbit(n) -> OperatorSet:
    """The rebit states of `real_clifford_closure` as a set, with no Gram."""
    lags, index, reps = real_clifford_closure(n)[0]
    return OperatorSet(f"rebit({n})", 2, n, lags=lags, index=index, reps=reps)


# ---------------------------------------------------------------------------
# Wreath coordinates of the standard single-qubit symmetry generators

_XYZ_VECTORS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


def wreath_decompose_table():
    """Induced wreath coordinates of the five standard generators at d=2, n=1.

    Each row reports the basis permutation sigma and, per source basis B, the
    within-basis map applied as B leaves: 'e' (identity) or 't' (transposition),
    read off the labels of X+, X-, Y+, Y-, Z+, Z-, one block of two per basis
    (`phase_space.wreath_decompose`): the enumerated labels of each basis, rep 0
    (the + state, [rep, b] = 0 on its basis row b) first.
    """
    bases = tuple(_XYZ_VECTORS)
    lags, index, reps = enumerate_stabilizer_labels(2, 1)
    vectors = lags.basis[:, 0].tolist()
    order = np.concatenate([np.flatnonzero(index == vectors.index(list(v)))
                            for v in _XYZ_VECTORS.values()])
    names = ("Y", "Z", "H", "S")
    perms = label_permutations(lags, index[order], reps[order], [transpose_action(1)]
                               + [qubit_gate_action(1, name) for name in names])

    def coordinates(perm):
        sigma, inners = wreath_decompose(perm, [[0, 1], [2, 3], [4, 5]])
        return {"outer": {b: bases[s] for b, s in zip(bases, sigma)},
                "inner": {b: "e" if g == (0, 1) else "t" for b, g in zip(bases, inners)}}

    rows = {f"conjugation_by_{name}": coordinates(perm) for name, perm in zip(names, perms[1:])}
    return {"complex_conjugation": coordinates(perms[0]), **rows}


# ---------------------------------------------------------------------------
# The Clifford laws, checked exactly

_EYE = {"X": "X", "Y": "Y", "Z": "Z"}

# the wreath coordinates of the five standard single-qubit generators
WREATH_TABLE = {
    "complex_conjugation": {"outer": _EYE, "inner": {"X": "e", "Y": "t", "Z": "e"}},
    "conjugation_by_Y": {"outer": _EYE, "inner": {"X": "t", "Y": "e", "Z": "t"}},
    "conjugation_by_Z": {"outer": _EYE, "inner": {"X": "t", "Y": "t", "Z": "e"}},
    "conjugation_by_H": {"outer": {"X": "Z", "Y": "Y", "Z": "X"},
                         "inner": {"X": "e", "Y": "t", "Z": "e"}},
    "conjugation_by_S": {"outer": {"X": "Y", "Y": "X", "Z": "Z"},
                         "inner": {"X": "e", "Y": "t", "Z": "e"}},
}


def _weyl_law(d, n, pairs):
    """Whether every pair (a, b) obeys the Weyl law, on the monomial tables
    of the distinct vectors (`weyl_table`): T(a) T(b) has perm P_a[P_b] and
    exponents X_b + X_a[P_b] mod r (zeta = omega_d and r = d at odd d,
    zeta = i and r = 4 at d = 2).  Odd d: T(a) T(b) =
    zeta^(-half [a, b]) T(a + b) = zeta^(-[a, b]) T(b) T(a), half =
    (d + 1)/2.  d = 2: T(a) T(b) = zeta^(2 [a, b]) T(b) T(a), and every
    T(a) is Hermitian."""
    if not pairs:
        return True
    r = 4 if d == 2 else d
    vecs = np.array(pairs, dtype=np.int64)
    a, b = vecs[:, 0], vecs[:, 1]
    form = (a * jvec(b)).sum(axis=1) % d
    codes, index = np.unique(point_codes(np.concatenate([a, b, (a + b) % d]), d),
                             return_inverse=True)
    perm, expo = weyl_table(d, n, codes)
    ia, ib, ic = index.reshape(3, -1)
    rows = np.arange(len(pairs))[:, None]
    pa, pb, xa, xb = perm[ia], perm[ib], expo[ia], expo[ib]
    ab, ab_expo = pa[rows, pb], (xb + xa[rows, pb]) % r
    ba, ba_expo = pb[rows, pa], (xa + xb[rows, pa]) % r
    if d == 2:
        inverse = np.argsort(perm, axis=1)  # T(a)^dagger: perm^-1, -X[perm^-1]
        dagger = -np.take_along_axis(expo, inverse, axis=1) % r
        hermitian = (inverse == perm).all() and (dagger == expo).all()
        return bool(hermitian and (ab == ba).all()
                    and (ab_expo == (ba_expo + 2 * form[:, None]) % r).all())
    half = (d + 1) // 2
    return bool((ab == perm[ic]).all() and (ab_expo == (expo[ic] - half * form[:, None]) % r).all()
                and (ab == ba).all() and (ab_expo == (ba_expo - form[:, None]) % r).all())


def _galois_acts_as_k(table, d, alphas):
    """Whether the entrywise Galois map C_alpha takes the monomial of x to
    that of K_alpha x for every point x of Z_d^2 and every alpha in alphas,
    as one array check over the monomial tables (perm, expo) = table(d, 1,
    codes) of the d^2 points (`weyl_table`, `phase_point_table`): C_alpha
    keeps a perm and multiplies each exponent by alpha, and K_alpha x =
    (x_X, alpha x_Z)."""
    points = code_points(np.arange(d * d), d, 2)
    perm, expo = table(d, 1, np.arange(d * d))
    alpha = np.asarray(alphas)[:, None]
    image = points[:, 0] * d + alpha * points[:, 1] % d  # the code of K_alpha x
    return bool((perm[image] == perm).all()
                and (expo[image] == alpha[..., None] * expo % d).all())


def _phase_points_conjugate_parity(d):
    """Whether `phase_point_table` gives A(a) = T(a)^dagger A(0) T(a), A(0)
    the parity q -> -q, at the d^2 points: with T(a)|q> = omega^e(q) |pi(q)>
    (`weyl_table`), that is omega^(e(q) - e(s)) |s>, s = pi^-1(-pi(q))."""
    codes = np.arange(d * d)
    (perm, expo), (pp, pe) = weyl_table(d, 1, codes), phase_point_table(d, 1, codes)
    s = np.take_along_axis(np.argsort(perm, axis=1), -perm % d, axis=1)
    return bool((pp == s).all() and (pe == (expo - np.take_along_axis(expo, s, 1)) % d).all())


_CHUNK = 128  # samples per batched check: bounds its (chunk, d, d, d) key array


def verify_clifford_laws(d, n, seed, samples):
    """The Clifford laws at (d, n): {"checks": {law: {"pass": ...}}, "pass"}.

    The Weyl composition law (odd d) or commutation law with Hermiticity
    (d = 2) holds on all pairs when d^(4n) <= 6561, else on `samples` pairs
    drawn from random.Random(seed).  For one qudit of odd d <= 7 the same
    generator then draws `samples` pairs (s1, s2) of SL(2, d), s1 first, for
    the multiplicative metaplectic section, and after all of them `samples`
    pairs (g, h) of extended Clifford elements, g first, each drawn as mu,
    a_0, a_1, S, alpha, for their composition law.  Every sample is drawn
    whatever the verdicts.  Each law is checked _CHUNK samples at a time, as
    arrays with no per-sample object: the sections of the drawn S
    (`_sections`), the linear parts (`_linear_parts`), the Galois images
    (`PhaseStack.galois`) and the composites (`_compose`), with one
    `products_equal` call on the chunk's stacks.  Every A(x) is
    T(x)^dagger A(0) T(x) (`_phase_points_conjugate_parity`), C_alpha acts
    as K_alpha on every A(x), and transposition as K_{-1} on every T(a),
    each one array check over the d^2 points (`_galois_acts_as_k`).  At (2, 1) the wreath
    coordinates of the standard generators equal `WREATH_TABLE`.

    The section has a closed form for every odd d; the d <= 7 gate is kept
    so that the report at every (d, n) keeps its set of checks.
    """
    rng = random.Random(seed)
    checks = {}

    def rand_vec():
        return tuple(rng.randrange(d) for _ in range(2 * n))

    pairs = (
        [(a, b) for a in all_vectors(d, 2 * n) for b in all_vectors(d, 2 * n)]
        if d ** (4 * n) <= 6561
        else [(rand_vec(), rand_vec()) for _ in range(samples)]
    )

    law = "weyl_commutation_law" if d == 2 else "weyl_composition_law"
    checks[law] = {"pass": _weyl_law(d, n, pairs), "pairs": len(pairs)}

    if d != 2 and n == 1 and d <= 7:
        sl2 = sl2_elements(d)

        def sampled(law, draw):
            # every sample is drawn, whatever the verdicts, so the draws after
            # them never depend on one
            return all([law(np.array([draw() for _ in range(min(_CHUNK, samples - k))]))
                        for k in range(0, samples, _CHUNK)])

        def multiplies(pairs):  # (size, 2, 2, 2): s1, s2
            s1, s2 = pairs[:, 0], pairs[:, 1]
            return products_equal(_sections(d, s1), _sections(d, s2), _sections(d, s1 @ s2)).all()

        checks["metaplectic_multiplicative"] = {
            "pass": sampled(multiplies, lambda: (rng.choice(sl2), rng.choice(sl2)))}

        def element():  # mu, a_0, a_1, the rows of S, alpha
            return (rng.randrange(d), rng.randrange(d), rng.randrange(d), *sum(rng.choice(sl2), ()),
                    rng.randrange(1, d))

        def composes(pairs):  # (size, 2, 8): g, h
            g, h = ((e[:, 0], e[:, 1:3], e[:, 3:7].reshape(-1, 2, 2), e[:, 7])
                    for e in (pairs[:, 0], pairs[:, 1]))
            x, y, z = (_linear_parts(d, mu, a, _sections(d, s))
                       for mu, a, s, _ in (h, g, _compose(d, h, g)))
            return products_equal(x, y.galois(h[3]), z).all()

        checks["ext_clifford_composition_law"] = {
            "pass": sampled(composes, lambda: (element(), element()))}

        # C_alpha with U = 1 acts on the monomial A(x) alone, once the A(x)
        # are tied to the T(a); transposition is C_{-1}, entrywise complex
        # conjugation, on the T(a)
        checks["galois_action_on_phase_points"] = {
            "pass": _phase_points_conjugate_parity(d)
            and _galois_acts_as_k(phase_point_table, d, range(2, d))}
        checks["transpose_is_k_minus_one"] = {"pass": _galois_acts_as_k(weyl_table, d, [d - 1])}

    if d == 2 and n == 1:
        rows = wreath_decompose_table()
        checks["wreath_table"] = {"pass": rows == WREATH_TABLE, "rows": rows}

    return {"checks": checks, "pass": all(c["pass"] for c in checks.values())}
