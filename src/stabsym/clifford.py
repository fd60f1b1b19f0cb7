"""Symplectic and Clifford machinery: Sp(2n, d), similitudes, the faithful
metaplectic section for single qudits, Galois-extended Clifford elements with
their exact composition law, qubit gates as label maps and the rebit states.

A single-qudit section value or extended-Clifford element is a phase table
(`PhaseTable`): one scale times a d x d table of omega exponents, so the
Clifford laws are integer counts of exponent sums (`products_equal`), not
cyclotomic matrix products."""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .cyclotomic import (
    CycNumber,
    GaloisMap,
    _exact,
    _field,
    _int64,
    conductor_for,
    galois_apply,
    gauss_sum,
)
from .errors import BudgetExceeded, Mismatch, OddOnly, WordDecompositionFailure
from .operators import StateFamily, build_gram, phase_point_mono, weyl_mono
from .permgroup import PermGroup
from .phase_space import (
    MAX_POINTS,
    LagrangianSubspace,
    StabilizerLabel,
    all_vectors,
    enumerate_stabilizer_labels,
    jvec,
    label_from_functional,
    label_permutations,
    symplectic_form,
    vec_add,
    wreath_decompose,
)
from .zmod import ZModMatrix, inv_mod, legendre, require_prime


# ---------------------------------------------------------------------------
# Symplectic matrices and similitudes over Z_d

@lru_cache(maxsize=None)
def _form_matrix(n):
    """J with [a, b] = a^T J b, read-only."""
    form = jvec(np.eye(2 * n, dtype=np.int64)).T
    form.flags.writeable = False
    return form


def similitude_multiplier(m: ZModMatrix):
    """The mu with [Ma, Mb] = mu [a, b], or None if m is not a similitude:
    G = M^T J M mod d holds every [M e_i, M e_j], so mu = G[0, n] and m is a
    similitude iff G = mu J (mu = 0 for a singular m)."""
    d, n = m.d, m.ncols // 2
    a, form = np.array(m.rows), _form_matrix(n)
    gram = a.T @ form @ a % d
    mu = int(gram[0, n])
    return mu if np.array_equal(gram, mu * form % d) else None


def is_symplectic(m: ZModMatrix) -> bool:
    return similitude_multiplier(m) == 1


def k_alpha(d, n, alpha) -> ZModMatrix:
    """The canonical similitude K_alpha = diag(1_n, alpha 1_n)."""
    rows = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[i][i] = 1
        rows[n + i][n + i] = alpha % d
    return ZModMatrix(rows, d)


def transvection(v, d) -> ZModMatrix:
    """t_v: x -> x + [x, v] v."""
    size = len(v)
    jv = (jvec(np.array(v)) % d).tolist()
    rows = [
        [(1 if i == j else 0) + v[i] * jv[j] for j in range(size)]
        for i in range(size)
    ]
    return ZModMatrix(rows, d)


def sp_order_formula(d, n) -> int:
    out = d ** (n * n)
    for k in range(1, n + 1):
        out *= d ** (2 * k) - 1
    return out


@lru_cache(maxsize=None)
def sp_generators(d, n):
    """A certified generating set of Sp(2n, d) built from transvections: the
    order of the group they generate on the nonzero points is |Sp(2n, d)|
    (`sp_order_formula`) and each is symplectic, else Mismatch."""
    require_prime(d)
    if d ** (2 * n) > MAX_POINTS:
        raise BudgetExceeded("phase space too large for certification")
    units = [tuple(1 if k == i else 0 for k in range(2 * n)) for i in range(2 * n)]
    small = list(units)
    for i in range(2 * n):
        for j in range(i + 1, 2 * n):
            small.append(tuple((x + y) % d for x, y in zip(units[i], units[j])))
    for vectors in (small, _nonzero_points(d, n)):  # the few, else every transvection
        gens = [transvection(v, d) for v in vectors]
        order = _order_on_nonzero(gens, d, n)
        if order == sp_order_formula(d, n):
            break
    else:
        raise Mismatch(f"the transvections generate a group of order {order}, "
                       f"not |Sp({2 * n}, {d})|", witness=order)
    for g in gens:
        if not is_symplectic(g):
            raise Mismatch("a transvection is not symplectic", witness=g)
    return tuple(gens)


def _nonzero_points(d, n):
    return [v for v in all_vectors(d, 2 * n) if any(v)]


def matrix_point_perm(m: ZModMatrix, points, index=None):
    """The permutation a matrix induces on a list of phase-space points."""
    if index is None:
        index = {p: i for i, p in enumerate(points)}
    return tuple(index[m.apply(p)] for p in points)


def _order_on_nonzero(gens, d, n):
    points = _nonzero_points(d, n)
    index = {p: i for i, p in enumerate(points)}
    perms = [matrix_point_perm(g, points, index) for g in gens]
    return PermGroup.from_generators(perms, degree=len(points)).order()


def sp_order(d, n) -> int:
    """|Sp(2n, d)| certified by the permutation engine on nonzero vectors."""
    return _order_on_nonzero(sp_generators(d, n), d, n)


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


@lru_cache(maxsize=None)
def _gauss_sum_inverse(d):
    """g_d^-1, an extended Euclid over the field: computed once per d."""
    return gauss_sum(d).inverse()


@dataclass(frozen=True, eq=False)
class PhaseTable:
    """The d x d matrix with entry (r, q) = scale * omega^expo[r, q], and 0
    where expo[r, q] = -1 (one qudit, odd d): a value of the metaplectic
    section or the linear part of an extended Clifford element.  expo is a
    read-only int64 array with entries in [-1, d); the tables compare by
    `products_equal`, not by ==."""

    d: int
    scale: CycNumber
    expo: np.ndarray

    def __post_init__(self):
        self.expo.flags.writeable = False

    def galois(self, gal: GaloisMap) -> PhaseTable:
        """The entrywise Galois map C_alpha: omega -> omega^alpha multiplies
        every exponent by alpha, and `galois_apply` maps the scale."""
        expo = np.where(self.expo < 0, -1, self.expo * gal.alpha % self.d)
        return PhaseTable(self.d, galois_apply(gal, self.scale), expo)


@lru_cache(maxsize=1024)
def _cross_rows(x: CycNumber, y: CycNumber, z: CycNumber, d):
    """Row k < d: the power-basis numerators of x y omega^k times z.den, as
    `_exact`'s (tensor, int64 form), and of z omega^k times (x y).den, with
    a zero row last (index -1, for the entries expo = -1): so a product of
    tables with scales x and y and a table with scale z compare over one
    denominator.  Cached per triple of scales, a handful per d, so a check
    forms no product of numbers."""
    xy, f = x * y, _field(z.m)
    shifts = f.pows[(np.arange(f.deg) + (z.m // d) * np.arange(d)[:, None]) % z.m]
    left, right = (_exact(np.dot, f.deg, (np.array(c.num, dtype=object) * den, shifts))
                   for c, den in ((xy, z.den), (z, xy.den)))
    return (left, _int64(left)), np.vstack([right, np.zeros((1, f.deg), dtype=object)])


def products_equal(x: PhaseTable, y: PhaseTable, z: PhaseTable) -> bool:
    """Whether x y = z in every one of the d^2 entries, zeros included, with
    no matrix product.  One bincount gives N[r, s, k] = #{q : expo_x[r, q] +
    expo_y[q, s] = k mod d, neither -1}, so (x y)[r, s] = scale_x scale_y
    sum_k N[r, s, k] omega^k; that is compared with scale_z
    omega^expo_z[r, s], each side times the other's denominator
    (`_cross_rows`)."""
    d = x.d
    ex, ey = x.expo[:, :, None], y.expo[None, :, :]
    cells = (np.arange(d)[:, None, None] * d + np.arange(d)) * d  # (r, s) of (r, q, s)
    keys = np.where((ex < 0) | (ey < 0), d ** 3, cells + (ex + ey) % d)  # d^3: a zero
    counts = np.bincount(keys.ravel(), minlength=d ** 3 + 1)[:-1]
    left, right = _cross_rows(x.scale, y.scale, z.scale, d)
    lhs = _exact(np.dot, d, (counts.reshape(d * d, d),), left)
    return bool((lhs == right[z.expo.ravel()]).all())


def metaplectic(d, s) -> PhaseTable:
    """The canonical unitary U_S with U_S T(b) U_S^dagger = T(Sb) exactly,
    multiplicative in S (n = 1, odd d), as the phase table of the closed
    form above; S a `ZModMatrix` or its rows, cached per (d, S mod d)."""
    if d == 2:
        raise OddOnly("the metaplectic section needs odd d")
    rows = s.rows if isinstance(s, ZModMatrix) else s
    return _metaplectic(d, tuple(tuple(x % d for x in row) for row in rows))


@lru_cache(maxsize=1024)  # all of SL(2, d) up to d = 7
def _metaplectic(d, rows) -> PhaseTable:
    (a, b), (c, e) = rows
    if (a * e - b * c) % d != 1:
        raise WordDecompositionFailure(f"{rows} is not in SL(2, {d})")
    half = (d + 1) // 2
    q = np.arange(d)
    if b:
        r = q[:, None]
        expo = half * inv_mod(b, d) * (a * q * q - 2 * r * q + e * r * r) % d
        return PhaseTable(d, _gauss_sum_inverse(d) * legendre(2 * b, d), expo)
    expo = np.full((d, d), -1)
    expo[a * q % d, q] = half * a * c * q * q % d
    return PhaseTable(d, CycNumber.from_fraction(conductor_for(d), legendre(a, d)), expo)


# ---------------------------------------------------------------------------
# The affine similitude group

@dataclass(frozen=True)
class AffineSimilitude:
    """The triple (a, S, alpha) acting as x -> S K_alpha x + a."""

    a: tuple
    S: ZModMatrix
    alpha: int

    def __post_init__(self):
        if not is_symplectic(self.S):
            raise ValueError("linear part must be symplectic")
        if self.alpha % self.d == 0:
            raise ValueError("multiplier must be a unit")

    @property
    def d(self):
        return self.S.d

    @property
    def n(self):
        return self.S.ncols // 2

    @property
    def matrix(self) -> ZModMatrix:
        return self.S @ k_alpha(self.d, self.n, self.alpha)

    @classmethod
    def identity(cls, d, n):
        return cls(a=(0,) * (2 * n), S=ZModMatrix.identity(2 * n, d), alpha=1)

    def apply(self, x):
        return vec_add(self.matrix.apply(x), self.a, self.d)

    def to_json(self):
        return {"a": list(self.a), "S": [list(r) for r in self.S.rows], "alpha": self.alpha}


def agsp_compose(t: AffineSimilitude, s: AffineSimilitude) -> AffineSimilitude:
    """(b, R, beta) . (a, S, alpha) = (R K_beta a + b, R K_beta S K_beta^{-1}, beta alpha)."""
    if t.d != s.d or t.n != s.n:
        raise ValueError("mismatched spaces")
    d, n = t.d, t.n
    kb = k_alpha(d, n, t.alpha)
    kb_inv = k_alpha(d, n, inv_mod(t.alpha, d))
    rkb = t.S @ kb
    new_a = vec_add(rkb.apply(s.a), t.a, d)
    new_s = rkb @ s.S @ kb_inv
    return AffineSimilitude(a=new_a, S=new_s, alpha=(t.alpha * s.alpha) % d)


# ---------------------------------------------------------------------------
# Galois-extended Clifford elements (single qudit)

@dataclass(frozen=True)
class ExtCliffordElement:
    """omega^mu T(a) U_S C_alpha for one qudit of odd prime dimension d."""

    mu: int
    a: tuple
    S: ZModMatrix
    alpha: int

    def __post_init__(self):
        if self.S.ncols != 2:
            raise ValueError("matrix-level extended Clifford layer is single-qudit")
        if not is_symplectic(self.S):
            raise ValueError("S must be symplectic")

    @property
    def d(self):
        return self.S.d

    @classmethod
    def identity(cls, d):
        return cls(mu=0, a=(0, 0), S=ZModMatrix.identity(2, d), alpha=1)

    def galois(self) -> GaloisMap:
        return GaloisMap(self.alpha % self.d, self.d)

    def matrix(self) -> PhaseTable:
        """The linear part omega^mu T(a) U_S as a phase table: the monomial
        omega^mu T(a) moves row q of the cached U_S to row perm[q] and adds
        mu + expo[q] to its exponents."""
        d = self.d
        t, u = weyl_mono(d, 1, self.a), metaplectic(d, self.S)
        shift = self.mu + np.array(t.expo)[:, None]
        expo = np.empty_like(u.expo)
        expo[list(t.perm)] = np.where(u.expo < 0, -1, (u.expo + shift) % d)
        return PhaseTable(d, u.scale, expo)

    def to_json(self):
        return {
            "mu": self.mu % self.d,
            "a": list(self.a),
            "S": [list(r) for r in self.S.rows],
            "alpha": self.alpha % self.d,
        }


def ext_compose(h: ExtCliffordElement, g: ExtCliffordElement) -> ExtCliffordElement:
    """hg = omega^{nu + beta mu - (1/2)[b, R K_beta a]} T(R K_beta a + b)
    U_{R K_beta S K_beta^{-1}} C_{beta alpha}."""
    if h.d != g.d:
        raise ValueError("mixed dimensions")
    d = h.d
    half = (d + 1) // 2
    kb = k_alpha(d, 1, h.alpha)
    kb_inv = k_alpha(d, 1, inv_mod(h.alpha, d))
    rkb = h.S @ kb
    rkb_a = rkb.apply(g.a)
    mu = (h.mu + h.alpha * g.mu - half * symplectic_form(h.a, rkb_a, d)) % d
    return ExtCliffordElement(
        mu=mu,
        a=vec_add(rkb_a, h.a, d),
        S=rkb @ g.S @ kb_inv,
        alpha=(h.alpha * g.alpha) % d,
    )


# ---------------------------------------------------------------------------
# Qubit gates, the real Clifford group and the rebit orbit

def qubit_gate_action(n, name, i=0, j=1):
    """The `transform_labels` map (S, 0, eta) with U T(b) U^dagger =
    (-1)^eta(b) T(S b) for the gate U = name on qubit i (CZ on qubits i and
    j) of an n-qubit register, name in H, S, Y, Z, CZ: the tableau rules
    (Aaronson & Gottesman, PRA 70, 052328 (2004))."""
    rows = [list(r) for r in ZModMatrix.identity(2 * n, 2).rows]
    x, z = i, n + i
    if name == "H":  # X <-> Z, Y -> -Y
        rows[x], rows[z] = rows[z], rows[x]
        eta = lambda b: b[x] * b[z]
    elif name == "S":  # X -> Y, Y -> -X
        rows[z][x] = 1
        eta = lambda b: b[x] * b[z]
    elif name in ("Y", "Z"):  # Z flips X; Y flips X and Z
        eta = lambda b: (b[x] + (name == "Y") * b[z]) % 2
    elif name == "CZ":  # X_i -> X_i Z_j, X_j -> Z_i X_j
        rows[n + j][x] = rows[z][j] = 1
        eta = lambda b: b[x] * b[j] * (b[z] + b[n + j]) % 2
    else:
        raise ValueError(name)
    return ZModMatrix(rows, 2), (0,) * (2 * n), eta


def transpose_action(n):
    """The label map of transposition: T(b)^T = (-1)^(b_X.b_Z) T(b)."""
    return (ZModMatrix.identity(2 * n, 2), (0,) * (2 * n),
            lambda b: sum(x * z for x, z in zip(b[:n], b[n:])) % 2)


@lru_cache(maxsize=None)
def real_clifford_closure(n):
    """(labels, generators) of the rebit states, with no Gram: the labels in
    breadth-first order from |0...0>, each gate Z_i, H_i, CZ_ij permuting them."""
    if n > 3:
        raise BudgetExceeded("rebit orbit supported for n <= 3")
    labels = enumerate_stabilizer_labels(2, n)
    gates = [(g, i) for i in range(n) for g in ("Z", "H")]
    gates += [("CZ", i, j) for i in range(n) for j in range(i + 1, n)]
    perms = label_permutations(labels, [qubit_gate_action(n, *g) for g in gates])
    z_basis = LagrangianSubspace.from_rows(ZModMatrix.identity(2 * n, 2).rows[n:], 2)
    start = labels.index(StabilizerLabel.make(z_basis, (0,) * (2 * n)))
    seen = {start: 0}
    queue = [start]
    for p in queue:
        for perm in perms:
            if perm[p] not in seen:
                seen[perm[p]] = len(seen)
                queue.append(perm[p])
    gens = tuple(tuple(seen[perm[p]] for p in seen) for perm in perms)
    return tuple(labels[p] for p in seen), gens


@lru_cache(maxsize=None)
def real_clifford_orbit(n) -> StateFamily:
    """The rebit states of `real_clifford_closure` with their Gram."""
    labels, _ = real_clifford_closure(n)
    return StateFamily(d=2, n=n, labels=labels, gram=build_gram(labels))


# ---------------------------------------------------------------------------
# Wreath coordinates of the standard single-qubit symmetry generators

_XYZ_VECTORS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


def wreath_decompose_table():
    """Induced wreath coordinates of the five standard generators at d=2, n=1.

    Each row reports the basis permutation sigma and, per source basis B, the
    within-basis map applied as B leaves: 'e' (identity) or 't' (transposition),
    read off the labels of X+, X-, Y+, Y-, Z+, Z-, one block of two per basis
    (`phase_space.wreath_decompose`).
    """
    bases = tuple(_XYZ_VECTORS)
    labels = [label_from_functional(LagrangianSubspace.from_rows([_XYZ_VECTORS[basis]], 2), (k,))
              for basis in bases for k in (0, 1)]
    names = ("Y", "Z", "H", "S")
    perms = label_permutations(labels, [transpose_action(1)]
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
    """Whether every pair (a, b) obeys the Weyl law, on the stacked
    monomials of the distinct vectors: T(a) T(b) has perm P_a[P_b] and
    exponents X_b + X_a[P_b] mod r (`Mono.__matmul__`, zeta = omega_d and
    r = d at odd d, zeta = i and r = 4 at d = 2).  Odd d: T(a) T(b) =
    zeta^(-half [a, b]) T(a + b) = zeta^(-[a, b]) T(b) T(a), half =
    (d + 1)/2.  d = 2: T(a) T(b) = zeta^(2 [a, b]) T(b) T(a), and every
    T(a) is Hermitian."""
    if not pairs:
        return True
    r = 4 if d == 2 else d
    vecs = np.array(pairs, dtype=np.int64)
    a, b = vecs[:, 0], vecs[:, 1]
    form = (a * jvec(b)).sum(axis=1) % d
    points, index = np.unique(np.concatenate([a, b, (a + b) % d]), axis=0, return_inverse=True)
    monos = [weyl_mono(d, n, v) for v in points.tolist()]
    perm, expo = np.array([t.perm for t in monos]), np.array([t.expo for t in monos])
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


def verify_clifford_laws(d, n, seed, samples):
    """The Clifford laws at (d, n): {"checks": {law: {"pass": ...}}, "pass"}.

    The Weyl composition law (odd d) or commutation law with Hermiticity
    (d = 2) holds on all pairs when d^(4n) <= 6561, else on `samples` pairs
    drawn from random.Random(seed).  For one qudit of odd d <= 7 the same
    generator draws `samples` pairs each for the multiplicative metaplectic
    section and the extended-Clifford composition law; C_alpha acts as K_alpha
    on every A(x) and transposition as K_{-1}.  At (2, 1) the wreath
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

        def rand_symplectic():
            return ZModMatrix(rng.choice(sl2), d)

        def multiplies(s1, s2):
            return products_equal(metaplectic(d, s1), metaplectic(d, s2), metaplectic(d, s1 @ s2))

        ok = all(multiplies(rand_symplectic(), rand_symplectic()) for _ in range(samples))
        checks["metaplectic_multiplicative"] = {"pass": ok}

        def rand_ext():
            return ExtCliffordElement(mu=rng.randrange(d), a=(rng.randrange(d), rng.randrange(d)),
                                      S=rand_symplectic(), alpha=rng.randrange(1, d))

        def composes(g, h):
            return products_equal(h.matrix(), g.matrix().galois(h.galois()),
                                  ext_compose(h, g).matrix())

        checks["ext_clifford_composition_law"] = {
            "pass": all(composes(rand_ext(), rand_ext()) for _ in range(samples))}

        def galois_acts(alpha, x):
            # C_alpha with U = 1 acts on the monomial A(x) alone
            image = phase_point_mono(d, 1, x).galois(GaloisMap(alpha, d))
            return image == phase_point_mono(d, 1, k_alpha(d, 1, alpha).apply(x))

        checks["galois_action_on_phase_points"] = {
            "pass": all(galois_acts(alpha, x) for alpha in range(2, d) for x in all_vectors(d, 2))}
        conj = GaloisMap(d - 1, d)  # entrywise complex conjugation, on a Mono
        checks["transpose_is_k_minus_one"] = {"pass": all(
            weyl_mono(d, 1, a).galois(conj) == weyl_mono(d, 1, (a[0], (-a[1]) % d))
            for a in all_vectors(d, 2))}

    if d == 2 and n == 1:
        rows = wreath_decompose_table()
        checks["wreath_table"] = {"pass": rows == WREATH_TABLE, "rows": rows}

    return {"checks": checks, "pass": all(c["pass"] for c in checks.values())}
