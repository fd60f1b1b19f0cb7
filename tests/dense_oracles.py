"""Dense-matrix reference versions of the library's label and monomial
kernels.

The library acts on d = 2 stabilizer states as labels: the Gram is the
closed form, and gates and transposition permute the labels through
integer index tables (`phase_space.label_permutations`).  `transform_labels`
builds every image label as an object, `transform_label` one label alone,
and `matrix_point_perm` maps phase-space points one tuple at a time
(`matrix_apply`), the oracle of `clifford.nonzero_point_perms`.  The
oracles here act on the exact projector matrices instead: a permutation is
read off by conjugating every projector, and the rebit states are the
breadth-first closure of |0...0><0...0| under the dense real Clifford
gates (`qubit_gate`).  `real_clifford_closure_reference` is the label
closure the library once ran instead of its real-Lagrangian test: every
qubit label permuted by the real gates, walked breadth-first from
|0...0>.  The
S_f sum rule is checked on Weyl coefficients (`symmetry.sf_checks`) and the
Galois action on A(x) as a monomial map; `dense_sf_machinery` and
`ext_apply` take the same steps with sums and products of dense matrices.

The n = 1 facet verdict and polytope membership are sums and minima over
basis blocks in the library (`polytope1`), its shifted overlap table is read
from the closed-form Gram's codes, and membership takes an operator's
Wigner function; `shifted_vertices` are the dense pi = Pi - (1/d) 1,
`dense_overlap_table` their pairwise traces, `dense_line_sums_vanish` sums
them per line, `dense_facet_family` lists all d^(d+1) facet operators as
dense matrices and `dense_membership` and `dense_incidence_counts` take one
`hs_inner` per facet; `dense_wigner` reads a dense matrix's Wigner function
and `wigner_negative_matrix` is the dense form of the library's
Wigner-negative state.  `family_projectors` builds a family's dense
projectors, `trace_pairs` is every pairwise trace of two lists of dense
matrices in one contraction, and `bruteforce_gram` the Gram of dense
projectors by those traces.  The rest are
one-element or single-operator forms of the library's batched kernels:
`transform_label`, `sign_bits` (c_L one point at a time, the oracle of
`phase_space.lagrangian_tables`), `functional_label_by_search` (a search
of all d^(2n) points per label), `mono_trace`, `mono_trace_product`,
`stab_projector_wigner`, `wreath_recompose`, `Similitude`,
`is_hermitian` and `is_identity`.  `first_moment` is the dense sum behind
the mu_1 ∝ 1 clause, which the library reads from trace-table row sums.

The moment predicates read closed-form bases and labelled trace tables in
the library (`moments._basis`, `moments.trace_table`); `symmetric_basis` is
the rational basis E_ii, E_ij + E_ji of the real symmetric matrices and
`jordan_slab` the symmetrized triple traces of dense matrices, the oracle of
`moments._jordan`.

The library writes T(a) and the odd-d A(a) as batched integer tables
(`operators.weyl_table`, `operators.phase_point_table`).  Their reference
here is one frozen `Mono` per point, cached: `weyl_mono` and
`phase_point_mono` build it, `Mono.__matmul__`, `dagger`, `phase_shift` and
`galois` are its algebra, `mono_sum` expands a sum of monomials to a dense
matrix and `weyl` is the dense T(a).

The single-qudit Clifford laws compare phase tables in the library
(`clifford.PhaseStack`, `clifford.products_equal`).  `dense_metaplectic` is
the dense closed form of U_S, `dense` expands one table of a stack to a
dense matrix, `concat` stacks the tables of several stacks,
`weyl_law_pairwise` checks the Weyl law one `Mono` product at a time and
`similitude_multiplier_loop` reads the multiplier pair by pair.
`hermitian_basis` lists the Hermitian basis as monomials in
`phase_space.point_codes` order.

The library's one Z_d elimination is the batched `zmod.rref`;
`rref_rows` and `null_space_rows` are the per-matrix elimination on lists
of ints, and `pair_table_loop` builds the Lagrangian pair table with one
`null_space_rows` per pair, the oracle of `operators._pair_table`.  The
library inverts no Z_d matrix; the oracles' pre-images take sympy's
`Matrix.inv_mod` (`inverse_mod`).

A stabilizer chain keeps a Schreier tree per level and builds coset
representatives on demand (`permgroup.PermGroup`); `tree_representative`
multiplies the generators along a tree path from scratch, and
`assert_schreier_trees` checks every edge and every representative of a
chain against it.

The library builds no dense element of a set: an `OperatorSet` is its
labels.  The dense side is here.  `stab_projector` and `phase_point` are the
exact projector Pi_x and point operator A(a), and `set_elements` gives a
set's elements from its labels.  `coefficient_stack` puts matrices over one
denominator, `mono_traces` gathers every tr(B_x Q_y) of monomial B_x against
dense Q_y, and `lowest_terms` reduces a table.  `moment_form` is F_k summed
element by element.

The helpers that only tests call are here, not in the library: the dense
traces, the float embedding `to_complex`, which only `sqrt_d` reads for
its sign, and one-element forms such as `ext_compose` and `vec_add`.
"""

import cmath
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import numpy as np
import sympy

from stabsym import cyclotomic
from stabsym.clifford import (ExtCliffordElement, PhaseStack, _compose, k_alpha, qubit_gate_action,
                              similitude_multiplier)
from stabsym.cyclotomic import (CycNumber, _exact, _field, _int64, conductor_for, gauss_sum, omega,
                                root_of_unity)
from stabsym.errors import Mismatch, OddOnly, StabsymError, WordDecompositionFailure
from stabsym.operators import GramMatrix, OpMatrix, build_gram, rational_part, stabilizer_states
from stabsym.permgroup import compose, identity_perm
from stabsym.phase_space import (
    LagrangianSubspace,
    StabilizerLabel,
    Subspace,
    _echelon_blocks,
    all_vectors,
    enumerate_lagrangians,
    enumerate_stabilizer_labels,
    jvec,
    label_permutations,
    lagrangian_index,
    lagrangian_tables,
    code_points,
    point_codes,
    symplectic_form,
)
from stabsym.zmod import inv_mod, legendre, require_prime


# ---------------------------------------------------------------------------
# Helpers that no library path calls: the traces of dense matrices, the
# float embedding of a field element and the sqrt(d) whose sign it picks,
# and one-element forms of the library's batched laws

class InconsistentSigns(StabsymError):
    """Qubit sign data does not describe a valid stabilizer group."""


class ConductorTooSmall(StabsymError):
    """The cyclotomic field does not contain the requested element."""


def from_rational(m, rows) -> OpMatrix:
    """The `OpMatrix` over Q[zeta_m] with the rational entries rows."""
    return OpMatrix(m, [[CycNumber.from_fraction(m, x) for x in r] for r in rows])


def trace_product(a: OpMatrix, b: OpMatrix) -> CycNumber:
    """tr(A B) = sum_{i,j} A[i,j] B[j,i], without forming A B."""
    a._check(b)
    out = _field(a.m).contract(a.coef, b.coef, ([0, 1], [1, 0]))
    return CycNumber(a.m, list(out), a.den * b.den)


def hs_inner(a: OpMatrix, b: OpMatrix) -> CycNumber:
    """Hilbert-Schmidt inner product (A|B) = tr A† B."""
    return trace_product(a.dagger(), b)


def cyc_from_json(obj) -> CycNumber:
    """The `CycNumber` of its `to_json` form."""
    fracs = [Fraction(p, q) for p, q in obj["coeffs"]]
    den = lcm(*(f.denominator for f in fracs))
    return CycNumber(obj["m"], [int(f * den) for f in fracs], den)


def to_complex(x: CycNumber) -> complex:
    """x in the canonical embedding zeta_m -> exp(2 pi i / m), in floats."""
    z = cmath.exp(2j * cmath.pi / x.m)
    return sum(c * z ** k for k, c in enumerate(x.num)) / x.den


def is_real(x: CycNumber) -> bool:
    return x.conj() == x


@lru_cache(maxsize=None)
def iunit(d: int) -> CycNumber:
    m = conductor_for(d)
    return root_of_unity(m, m // 4)


@lru_cache(maxsize=None)
def tau(d: int) -> CycNumber:
    """tau = omega^((d+1)/2) for odd d; tau = i for d = 2."""
    if d == 2:
        return iunit(2)
    return omega(d) ** ((d + 1) // 2)


def _lift(x: CycNumber, m: int) -> CycNumber:
    """Embed x from conductor x.m into a multiple conductor m."""
    if m % x.m:
        raise ValueError("target conductor must be a multiple")
    powers = _field(m).pows[(np.arange(len(x.num)) * (m // x.m)) % m]
    return CycNumber(m, list(np.array(x.num, dtype=object).dot(powers)), x.den)


@lru_cache(maxsize=None)
def sqrt_d(d: int, m: int | None = None) -> CycNumber:
    """Exact sqrt(d), real and positive in the canonical embedding: the Gauss
    sum (`cyclotomic.gauss_sum`, which a test may replace), over i at d = 3 mod 4."""
    require_prime(d)
    want = conductor_for(d)
    if m is None:
        m = want
    if m % want:
        raise ConductorTooSmall(f"conductor {m} lacks sqrt({d}); need multiple of {want}")
    if d == 2:
        z = root_of_unity(8, 1)
        s = z + z.conj()  # 2 cos(pi/4)
    elif d % 4 == 1:
        s = cyclotomic.gauss_sum(d)
    else:
        s = cyclotomic.gauss_sum(d) * iunit(d).inverse()  # Gauss sum equals i*sqrt(d)
    if m != want:
        s = _lift(s, m)
    if s * s != d or not is_real(s):
        raise Mismatch(f"the candidate sqrt({d}) is not real with square {d}", witness=s)
    # one-time numeric sign decision; exactness is certified by the checks above
    approx = to_complex(s).real
    if approx < 0:
        s = -s
    if not abs(abs(approx) - d ** 0.5) < 1e-9:
        raise Mismatch(f"the candidate sqrt({d}) is {approx} in the canonical embedding",
                       witness=s)
    return s


def vec_add(a, b, d):
    return tuple((x + y) % d for x, y in zip(a, b))


def enumerate_subspaces(d, ambient, k):
    """All k-dimensional subspaces of Z_d^ambient as canonical RREF bases,
    one integer array (count, k, ambient)."""
    return np.concatenate(list(_echelon_blocks(d, ambient, k)))


def ext_compose(h: ExtCliffordElement, g: ExtCliffordElement) -> ExtCliffordElement:
    """hg by the law of `clifford._compose`, on a batch of one.  On phase
    space an element acts as x -> S K_alpha x + a, the map (S K_alpha, a) of
    `label_permutations`, and hg as that of h after that of g."""
    if h.d != g.d:
        raise ValueError("mixed dimensions")
    mu, a, s, alpha = (x[0] for x in _compose(h.d, h._arrays(), g._arrays()))
    return ExtCliffordElement(mu=int(mu), a=tuple(a.tolist()), S=s, alpha=int(alpha), d=h.d)


# ---------------------------------------------------------------------------
# Monomial operators one point at a time: the reference of the library's
# `weyl_table` and `phase_point_table`

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

    def galois(self, gal):
        """The entrywise Galois map C_alpha (`GaloisMap`, odd d), omega ->
        omega^alpha: every exponent times alpha, as zeta = omega."""
        if gal.d != self.d:
            raise ValueError("Galois map of another d")
        return Mono(self.d, self.n, self.perm, tuple(gal.alpha * e % self.d for e in self.expo))

    def to_matrix(self) -> OpMatrix:
        return mono_sum([self], 1)


def weyl_mono(d, n, a) -> Mono:
    """T(a) as a monomial operator; a = (a_X, a_Z) concatenated.  `Mono` is
    frozen, so one instance per (d, n, a) is cached and shared."""
    return _weyl_mono(d, n, tuple(map(int, a)))


@lru_cache(maxsize=8192)
def _weyl_mono(d, n, a) -> Mono:
    require_prime(d)
    ax, az = np.array(a[:n]), np.array(a[n:])
    out = (code_points(np.arange(d ** n), d, n) + ax) % d  # T(a) takes |q> to |q + a_X>
    dot, ph = int(ax @ az), out @ az
    expo = (2 * ph - dot) % 4 if d == 2 else ((d + 1) // 2 * -dot + ph) % d
    return Mono(d, n, tuple(point_codes(out, d).tolist()), tuple(expo.tolist()))


@lru_cache(maxsize=None)
def phase_point_mono(d, n, a) -> Mono:
    """A(a) = T(a)^dagger A(0) T(a) as a monomial operator, A(0) the parity
    |x> -> |-x>."""
    if d == 2:
        raise OddOnly("qubit A(a) is not monomial")
    dim = d ** n
    parity = Mono(d, n, tuple(point_codes(-code_points(np.arange(dim), d, n) % d, d).tolist()),
                  (0,) * dim)
    t = weyl_mono(d, n, a)
    return t.dagger() @ parity @ t


def weyl(d, n, a) -> OpMatrix:
    """The Weyl-Heisenberg operator T(a) as a dense exact matrix."""
    return weyl_mono(d, n, a).to_matrix()


def mono_sum(monos, scale) -> OpMatrix:
    """scale * (sum of the monomial operators) as a dense matrix: the power
    expansion of each entry zeta^expo[q] is added into the coefficient tensor
    at (perm[q], q)."""
    monos = list(monos)
    r, dim, m = monos[0].r, len(monos[0].perm), conductor_for(monos[0].d)
    f = _field(m)
    perms = np.array([mono.perm for mono in monos]).ravel()
    expos = np.array([mono.expo for mono in monos]).ravel()
    coef = np.zeros((dim, dim, f.deg), dtype=object)
    np.add.at(coef, (perms, np.tile(np.arange(dim), len(monos))), f.pows[(m // r) * expos])
    scale = Fraction(scale)
    return OpMatrix._make(m, coef * scale.numerator, scale.denominator)


def real_gates(n):
    """Z_i, H_i, CZ_ij as (name, i[, j]), in the order of `real_clifford_orbit`."""
    gates = [(g, i) for i in range(n) for g in ("Z", "H")]
    return gates + [("CZ", i, j) for i in range(n) for j in range(i + 1, n)]


def extended_gates(n):
    """H_i, S_i, CZ_ij, in the order of the extended Clifford generators
    (transposition comes last)."""
    gates = [(g, i) for i in range(n) for g in ("H", "S")]
    return gates + [("CZ", i, j) for i in range(n) for j in range(i + 1, n)]


def perm_from_matrix_action(projectors, transform):
    """The permutation of `projectors` by `transform`, a map of matrices."""
    index = {p: i for i, p in enumerate(projectors)}
    return tuple(index[transform(p)] for p in projectors)


def conjugation(u):
    return lambda p: u @ p @ u.dagger()


def transposition(p):
    return p.transpose()


def extended_clifford_perms(n, projectors):
    """The extended Clifford generators on `projectors`: conjugation by each
    of `extended_gates`, then transposition."""
    perms = [perm_from_matrix_action(projectors, conjugation(qubit_gate(n, *g)))
             for g in extended_gates(n)]
    return perms + [perm_from_matrix_action(projectors, transposition)]


@lru_cache(maxsize=None)
def dense_real_clifford_orbit(n):
    """The projectors of the breadth-first closure of |0...0><0...0| under
    the dense `real_gates`, in the order they are found."""
    dim = 2 ** n
    start = from_rational(conductor_for(2),
                          [[int(i == j == 0) for j in range(dim)] for i in range(dim)])
    gates = [qubit_gate(n, *g) for g in real_gates(n)]
    seen = {start: None}
    queue = [start]
    while queue:
        p = queue.pop(0)
        for g in gates:
            q = g @ p @ g.dagger()
            if q not in seen:
                seen[q] = None
                queue.append(q)
    return tuple(seen)


def real_clifford_closure_reference(n):
    """(labels, generators) of the orbit of |0...0> under `real_gates`,
    found among all qubit labels: each gate permutes every label, and the
    orbit is walked breadth-first through those permutations."""
    labels = enumerate_stabilizer_labels(2, n)
    perms = label_permutations(labels, [qubit_gate_action(n, *g) for g in real_gates(n)])
    z_basis = LagrangianSubspace.from_rows(np.eye(2 * n, dtype=np.int64)[n:].tolist(), 2)
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


def _bit(q, i, n):
    return (q >> (n - 1 - i)) & 1


@lru_cache(maxsize=None)
def qubit_gate(n, name, i=0, j=1) -> OpMatrix:
    """H/S/Z/X/Y on qubit i, or CZ on qubits (i, j), of an n-qubit register."""
    m = conductor_for(2)
    dim = 2 ** n
    one, zero = CycNumber.one(m), CycNumber.zero(m)
    iu = iunit(2)
    if name == "CZ":
        rows = [[zero] * dim for _ in range(dim)]
        for q in range(dim):
            rows[q][q] = -one if _bit(q, i, n) and _bit(q, j, n) else one
        return OpMatrix(m, rows)
    if name == "H":
        r = sqrt_d(2).inverse()
        local = ((r, r), (r, -r))
    elif name == "S":
        local = ((one, zero), (zero, iu))
    elif name == "Z":
        local = ((one, zero), (zero, -one))
    elif name == "X":
        local = ((zero, one), (one, zero))
    elif name == "Y":
        local = ((zero, -iu), (iu, zero))
    else:
        raise ValueError(name)
    rows = [[zero] * dim for _ in range(dim)]
    for q in range(dim):
        for bi in (0, 1):
            val = local[bi][_bit(q, i, n)]
            if not val.is_zero():
                q2 = (q & ~(1 << (n - 1 - i))) | (bi << (n - 1 - i))
                rows[q2][q] = val
    return OpMatrix(m, rows)


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


def ext_apply(e, m: OpMatrix) -> OpMatrix:
    """Adjoint action rho -> (M C_alpha) rho (M C_alpha)^{-1} with M the
    dense e.matrix(), for an `ExtCliffordElement` e."""
    u = dense(e.matrix())
    return u @ m.entrywise_galois(e.galois()) @ u.dagger()


def dense_sf_machinery(d, n, b, family=None):
    """(pairwise non-orthogonal, sum rule, C or None) of one b from dense
    matrices, the oracle of `symmetry._sf_families`: for the labels of
    `family` (default: (L, b) for every Lagrangian L), the Gram of the
    labels, the sum of their projectors and C (1 + A(b)) with C from the
    trace."""
    if d == 2:
        raise OddOnly("S_f machinery requires odd d")
    b = tuple(x % d for x in b)
    if family is None:
        family = [StabilizerLabel.make(L, b) for L in enumerate_lagrangians(d, n)]
    nonorth = build_gram(family).legend[0] > 0  # the legend is sorted
    dim = d ** n
    acc = OpMatrix.zero(stab_projector(family[0]).m, dim)
    for lab in family:
        acc = acc + stab_projector(lab)
    c = acc.trace().as_fraction() / (dim + 1)
    expected = (OpMatrix.identity(acc.m, dim) + phase_point(d, n, b)).scale(c)
    sum_ok = c > 0 and acc == expected
    return nonorth, sum_ok, str(c) if sum_ok else None


def family_projectors(fam):
    """The exact projectors of an `OperatorSet`'s stabilizer labels (`stab_projector`)."""
    return tuple(map(stab_projector, fam.labels))


def trace_pairs(left, right):
    """All tr(L_x R_y) as (ints, scale): tr(L_x R_y) = ints[x, y] / scale,
    with ints an int64 array when every entry fits (`cyclotomic._exact`),
    else an object array of Python ints, and scale a positive int, in
    lowest terms.

    One contraction of the two coefficient stacks with the field's
    multiplication tensor, in the guarded kernel `cyclotomic._exact`.  A
    coefficient of tr(L_x R_y) sums dim^2 entry products, each expanded
    through the deg^2 coefficient pairs.  It raises if any trace has a
    nonzero component outside the rational line, and keeps only the rational
    one.
    """
    f = _field(left[0].m)
    (lhs, lden), (rhs, rden) = coefficient_stack(left), coefficient_stack(right)
    # L with mul first, then R: numpy's own path choice is the 7-index loop
    path = ["einsum_path", (0, 2), (0, 1)]
    ints = _exact(lambda x, y, mul: rational_part(np.einsum("xija,yjib,abc->xyc", x, y, mul,
                                                            optimize=path)),
                  left[0].dim ** 2 * f.deg ** 2, (lhs, rhs), f._mul)
    return lowest_terms(ints, lden * rden)


def bruteforce_gram(states, projectors):
    """The Gram of `states` with the given exact projectors: their pairwise
    traces (`trace_pairs`), ranked into codes over a legend."""
    ints, scale = trace_pairs(projectors, projectors)
    return GramMatrix.from_keys(states, ints, lambda v: Fraction(v, scale))


@dataclass(frozen=True)
class ShiftedVertex:
    """pi = Pi - (1/d) 1: the traceless part of a stabilizer vertex."""

    label: object
    matrix: OpMatrix


def shifted_vertices(d):
    fam = stabilizer_states(d, 1)
    eye = OpMatrix.identity(conductor_for(d), d)
    return [ShiftedVertex(label=lab, matrix=p - eye.scale(Fraction(1, d)))
            for lab, p in zip(fam.labels, family_projectors(fam))]


def dense_overlap_table(d):
    """tr(pi_x pi_y) for every pair of dense shifted vertices, as (ints,
    scale)."""
    mats = [v.matrix for v in shifted_vertices(d)]
    return trace_pairs(mats, mats)


def dense_line_sums_vanish(d):
    """Whether the dense shifted vertices of every basis block sum to zero."""
    verts = shifted_vertices(d)
    zero = OpMatrix.zero(verts[0].matrix.m, d)
    return all(sum((verts[i].matrix for i in block), zero) == zero
               for block in lagrangian_index(stabilizer_states(d, 1).labels).blocks)


@dataclass(frozen=True)
class FacetOperator:
    """X = (1/d) 1 + sum_i pi_{L_i}^{g_i}, one character per line."""

    characters: tuple  # one state index per block
    matrix: OpMatrix


@lru_cache(maxsize=None)
def dense_facet_family(d):
    """All d^(d+1) facet operators of the single-qudit stabilizer polytope,
    in `itertools.product(*blocks)` order, the blocks of `lagrangian_index`."""
    verts = shifted_vertices(d)
    base = OpMatrix.identity(verts[0].matrix.m, d).scale(Fraction(1, d))
    facets = []
    for choice in itertools.product(*lagrangian_index(stabilizer_states(d, 1).labels).blocks):
        acc = base
        for i in choice:
            acc = acc + verts[i].matrix
        facets.append(FacetOperator(characters=choice, matrix=acc))
    assert len({f.matrix for f in facets}) == len(facets), "duplicate facet"
    return tuple(facets)


def wigner_negative_matrix(d) -> OpMatrix:
    """rho = (1 - A(0))/(d - 1) as a dense matrix, the operator whose Wigner
    function is `polytope1.wigner_negative_state`."""
    eye = OpMatrix.identity(conductor_for(d), d)
    return (eye - phase_point(d, 1, (0, 0))).scale(Fraction(1, d - 1))


def dense_wigner(a: OpMatrix, d):
    """The Wigner function w[x] = tr(A(x) a) of a dense single-qudit matrix,
    the points in `moments.hermitian_basis` order, by `mono_traces`."""
    out, den = mono_traces([mono for _, mono in hermitian_basis(d, 1)], [a])
    return tuple(Fraction(int(v), den) for v in rational_part(out)[:, 0])


def dense_membership(a: OpMatrix, d):
    """`polytope1.polytope_membership` by one `hs_inner` per facet: (inside,
    the first violated facet or None)."""
    for facet in dense_facet_family(d):
        # tr(A X) = (X|A), as every facet operator X is Hermitian
        if hs_inner(facet.matrix, a).as_fraction() < 0:
            return False, facet
    return True, None


def dense_incidence_counts(d):
    """For each facet, the number of vertices with tr(X Pi) = 0 and the minimum."""
    projs = family_projectors(stabilizer_states(d, 1))
    out = []
    for facet in dense_facet_family(d):
        vals = [hs_inner(facet.matrix, p).as_fraction() for p in projs]
        if min(vals) < 0:
            raise Mismatch("facet fails the supporting-hyperplane property")
        out.append((vals.count(Fraction(0)), min(vals)))
    return out


def inverse_mod(matrix, d):
    """The inverse over Z_d of an invertible integer matrix by sympy's
    `Matrix.inv_mod`, as an integer array."""
    return np.array(sympy.Matrix(np.asarray(matrix).tolist()).inv_mod(d).tolist(), dtype=np.int64)


def matrix_apply(matrix, v, d):
    """The tuple matrix . v mod d, one integer row at a time."""
    return tuple(sum(x * y for x, y in zip(row, v)) % d for row in np.asarray(matrix).tolist())


def transform_label(label: StabilizerLabel, matrix, a, eta=None) -> StabilizerLabel:
    """Image of the labelled coset under x -> matrix . x + a over Z_d, d =
    label.d, for an integer matrix; with `eta` (d = 2) the rep is also
    shifted by t_L as in `transform_labels`, for this one label."""
    d = label.d
    new_rows = [matrix_apply(matrix, row, d) for row in label.L.basis]
    new_L = LagrangianSubspace.from_rows(new_rows, d)
    new_rep = vec_add(matrix_apply(matrix, label.rep, d), a, d)
    if eta is not None:
        pre = np.array(new_L.basis) @ inverse_mod(matrix, d).T % d
        values = [sign_bits(label.L)[b] + e for b, e in zip(map(tuple, pre.tolist()),
                                                            eta(pre).tolist())]
        new_rep = vec_add(new_rep, functional_label_by_search(new_L, values).rep, d)
    return StabilizerLabel.make(new_L, new_rep)


@lru_cache(maxsize=None)
def sign_bits(L: LagrangianSubspace) -> dict:
    """c_L(b) at every b = sum k_i b_i in L (k_i is b at the i-th pivot), one
    point at a time: prod_{k_i = 1} T(b_i) = (-1)^c_L(b) T(b), b_i the
    canonical basis, so at d = 2 c_L(b) is read from the products x_k . z_l
    of the rows it sums; the oracle of `phase_space.lagrangian_tables`'s
    signs."""
    out = dict.fromkeys(L.points(), 0)
    if L.d != 2:  # T(a) T(b) = T(a + b) when [a, b] = 0
        return out
    n = L.ambient // 2
    for b in out:
        rows = np.array([row for row, p in zip(L.basis, L.pivots) if b[p]]).reshape(-1, 2 * n)
        xz = rows[:, :n] @ rows[:, n:].T  # xz[k, l] = x_k . z_l
        out[b] = int(np.dot(b[:n], b[n:]) - np.trace(xz) + 2 * np.triu(xz, 1).sum()) % 4 // 2
    return out


@lru_cache(maxsize=None)
def _all_points(d, length):
    return np.array(list(all_vectors(d, length)))


def functional_label_by_search(L: LagrangianSubspace, values) -> StabilizerLabel:
    """The label whose rep a has [a, b_i] = values[i] on the basis of L, a
    the first of the d^(2n) points in `all_vectors` order with a . J b_i =
    values[i]: the oracle of `phase_space.label_from_functional`."""
    points = _all_points(L.d, L.ambient)
    hits = ((points @ jvec(np.array(L.basis)).T - values) % L.d == 0).all(1)
    assert hits.any(), "functionals on a Lagrangian are always representable"
    return StabilizerLabel.make(L, tuple(points[hits.argmax()].tolist()))


def transform_labels(labels, matrix, a, eta=None):
    """The images of the labelled cosets under x -> matrix . x + a, as
    labels: all reps mapped by one integer product mod d, each Lagrangian
    mapped and reduced once, and every image rep reduced against its mapped
    Lagrangian (`StabilizerLabel.make`).

    With `eta` (d = 2; it takes an integer array of points and acts along
    its last axis) the map takes T(b) to (-1)^eta(b) T(S b), S = matrix
    symplectic, and (L, rep) to (S L, S rep + a + t_L), [t_L, b'] =
    c_L(S^-1 b') + eta(S^-1 b') on the basis rows b' of S L: c_L from
    `sign_bits` and t_L by `functional_label_by_search`, one Lagrangian at a
    time."""
    d = labels[0].d
    lags, which, _, _ = lagrangian_index(labels)
    mapped = np.array([L.basis for L in lags]) @ np.asarray(matrix).T % d
    images = [LagrangianSubspace.from_rows(rows, d) for rows in mapped.tolist()]
    shifts = np.zeros((len(lags), 2 * labels[0].n), dtype=np.int64)
    if eta is not None:
        basis = np.array([L.basis for L in images])  # (Lagrangians, n, 2n)
        pre = basis @ inverse_mod(matrix, d).T % d
        for k, (L, image) in enumerate(zip(lags, images)):
            values = [sign_bits(L)[b] + e for b, e in zip(map(tuple, pre[k].tolist()),
                                                          eta(pre[k]).tolist())]
            shifts[k] = functional_label_by_search(image, values).rep
    reps = (np.array([lab.rep for lab in labels]) @ np.asarray(matrix).T + a
            + shifts[which]) % d
    return [StabilizerLabel.make(images[k], tuple(rep)) for k, rep in zip(which, reps.tolist())]


def rref_rows(rows, d: int):
    """Reduced row echelon form of a list of int rows over Z_d, one row
    operation at a time: (rows, pivots, rank), zero rows dropped and pivot
    columns strictly increasing."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c] % d), None)
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


def null_space_rows(rows, ncols: int, d: int):
    """A basis of {k : r . k = 0 over Z_d for every row r}: for each free
    column f of `rref_rows`, e_f - sum_i ech[i][f] e_(p_i)."""
    ech, pivots, _ = rref_rows(rows, d)
    out = []
    for f in (c for c in range(ncols) if c not in pivots):
        k = [0] * ncols
        k[f] = 1
        for row, p in zip(ech, pivots):
            k[p] = (-row[f]) % d
        out.append(k)
    return out


def pair_table_loop(lags):
    """`operators._pair_table` with one `null_space_rows` per pair of
    Lagrangians (i <= j), each result written to both orders: (dims, jb,
    signs) in the same dtypes."""
    tables = lagrangian_tables(lags)
    d, n = lags[0].d, lags[0].ambient // 2
    dims = np.zeros((len(lags),) * 2, dtype=np.uint8)
    jb = np.zeros((len(lags),) * 2 + (n, 2 * n), dtype=np.min_scalar_type(d - 1))
    codes = np.zeros((len(lags),) * 2 + (n,), dtype=np.min_scalar_type(d ** (2 * n) - 1))
    basis = tables.basis
    pairing = (np.einsum("irk,jsk->ijsr", basis, jvec(basis)) % d).tolist()
    for i in range(len(lags)):
        for j in range(i, len(lags)):
            kernel = null_space_rows(pairing[i][j], n, d)
            dims[i, j] = dims[j, i] = len(kernel)
            for t, k in enumerate(kernel):
                b = np.dot(k, basis[i]) % d
                jb[i, j, t] = jb[j, i, t] = jvec(b) % d
                codes[i, j, t] = codes[j, i, t] = point_codes(b, d)
    return dims, jb, tables.signs[np.arange(len(lags))[:, None, None], codes]


def matrix_point_perm(m, points, d, index=None):
    """The permutation an integer matrix induces on a list of points of
    Z_d^{2n}."""
    if index is None:
        index = {p: i for i, p in enumerate(points)}
    return tuple(index[matrix_apply(m, p, d)] for p in points)


def _mono_phase(mono: Mono, e):
    m = conductor_for(mono.d)
    return root_of_unity(m, (m // mono.r) * e)


def mono_trace(mono: Mono) -> CycNumber:
    acc = CycNumber.zero(conductor_for(mono.d))
    for q, p in enumerate(mono.perm):
        if p == q:
            acc = acc + _mono_phase(mono, mono.expo[q])
    return acc


def mono_trace_product(a: Mono, b: Mono) -> CycNumber:
    """tr(a @ b) without building matrices."""
    acc = CycNumber.zero(conductor_for(a.d))
    for q in range(len(a.perm)):
        if a.perm[b.perm[q]] == q:
            acc = acc + _mono_phase(a, (b.expo[q] + a.expo[b.perm[q]]) % a.r)
    return acc


def first_moment(q) -> OpMatrix:
    """mu_1 = (1/|Q|) sum q for an `OperatorSet` q."""
    acc = OpMatrix.zero(q.conductor, q.dim)
    for el in set_elements(q):
        acc = acc + el
    return acc.scale(Fraction(1, q.size))


def stab_projector_wigner(label: StabilizerLabel) -> OpMatrix:
    """The stabilizer projector from the phase-space side: d^-n sum_{b in L+a} A(b)."""
    d, n = label.d, label.n
    if d == 2:
        raise OddOnly("phase-space form requires odd d")
    dim = d ** n
    acc = OpMatrix.zero(conductor_for(d), dim)
    for b in label.L.points():
        acc = acc + phase_point(d, n, vec_add(label.rep, b, d))
    return acc.scale(Fraction(1, dim))


def wreath_recompose(sigma, inners, blocks):
    """The permutation of wreath coordinates (sigma, inners) on `blocks`, the
    inverse of `phase_space.wreath_decompose`."""
    perm = [None] * sum(map(len, blocks))
    for bi, block in enumerate(blocks):
        for k, v in enumerate(block):
            perm[v] = blocks[sigma[bi]][inners[bi][k]]
    return tuple(perm)


@dataclass(frozen=True, eq=False)
class Similitude:
    """R in GSp(2n, d), an integer matrix, with multiplier alpha;
    factorizes as R = S K_alpha."""

    R: np.ndarray
    alpha: int
    d: int

    @classmethod
    def from_matrix(cls, r, d):
        mu = similitude_multiplier(r, d)
        if mu is None or mu == 0:
            raise ValueError("not a symplectic similitude")
        return cls(R=np.asarray(r), alpha=mu, d=d)

    @property
    def symplectic_part(self):
        d, n = self.d, len(self.R) // 2
        return self.R @ k_alpha(d, n, inv_mod(self.alpha, d)) % d  # K_alpha^-1 = K_(alpha^-1)


def is_hermitian(a: OpMatrix):
    return a == a.dagger()


def is_identity(p):
    return tuple(p) == identity_perm(len(p))


def tree_representative(group, l, gamma):
    """u_gamma of level l: the product h_k ... h_1 of the generators on the
    tree path from base[l] to gamma, each edge (beta, i) read as
    level_gens[l][i] and nothing taken from the chain's caches."""
    tree, u = group.transversals[l], identity_perm(group.degree)
    for _ in range(len(tree)):
        if tree[gamma] is None:
            return u
        gamma, i = tree[gamma]
        u = compose(u, group.level_gens[l][i])
    raise AssertionError(f"the level-{l} tree has a cycle")


def assert_schreier_trees(group):
    """Every level's Schreier tree at full strength: the base point is the
    root, every other orbit point gamma has an edge (beta, i) inside the
    orbit with level_gens[l][i][beta] == gamma, the orbit is closed under
    the level's generators, whose stored inverses undo them, the
    representative built on demand is the product along the tree path and
    maps base[l] to gamma, and its cached inverse undoes it."""
    ident = identity_perm(group.degree)
    assert len(group.transversals) == len(group.level_gens) == len(group.base)
    for l, (b, tree) in enumerate(zip(group.base, group.transversals)):
        gens, gen_inverses = group.level_gens[l], group.level_gen_inverses[l]
        assert tree[b] is None
        assert all(compose(h_inv, h) == ident for h, h_inv in zip(gens, gen_inverses, strict=True))
        assert all(h[x] in tree for h in gens for x in tree)
        for gamma, edge in tree.items():
            if gamma != b:
                beta, i = edge
                assert beta in tree and gens[i][beta] == gamma
            u = tree_representative(group, l, gamma)
            assert u[b] == gamma
            assert group._representative(l, gamma) == u
            assert compose(group._representative(l, gamma, inverted=True), u) == ident


@lru_cache(maxsize=None)
def symmetric_basis(m, dim):
    """Rational basis of Sym: E_ii and E_ij + E_ji."""
    pairs = [(i, i) for i in range(dim)] + list(itertools.combinations(range(dim), 2))
    return tuple(from_rational(m, [[int((r, c) in ((i, j), (j, i))) for c in range(dim)]
                                   for r in range(dim)]) for i, j in pairs)


def jordan_slab(m, stack, i):
    """tr(M_i M_j M_k) + tr(M_i M_k M_j) for j, k >= i, as power-basis
    numerators over den^3, for the matrices M_x = stack[x] / den over
    Q[zeta_m] (`coefficient_stack`)."""
    f = _field(m)
    tail = stack[i:]
    prod = f.contract(stack[i], tail, ([1], [1]))  # (M_i M_j)[r, s] at [r, j, s]
    t = f.contract(prod, tail, ([0, 2], [2, 1]))  # tr(M_i M_j M_k) at [j, k]
    return t + t.transpose(1, 0, 2)


# ---------------------------------------------------------------------------
# Dense elements of operator sets

@lru_cache(maxsize=8192)
def stab_projector(label: StabilizerLabel) -> OpMatrix:
    """Pi_L^g = d^-n sum_{b in L} omega^(g(b) + c_L(b)) T(b) (`StabilizerLabel`)."""
    d, n, signs = label.d, label.n, sign_bits(label.L)
    step = 2 if d == 2 else 1  # omega = zeta^step for the monomials' zeta (i at d = 2)
    terms = [weyl_mono(d, n, b).phase_shift(step * (label.functional(b) + c))
             for b, c in signs.items()]
    return mono_sum(terms, Fraction(1, d ** n))


def phase_point(d, n, a) -> OpMatrix:
    """A(a) = d^-n sum_b omega^([a,b]) T(b): for odd d the dense form of the
    monomial `phase_point_mono`, for d = 2 the defining sum.  Cached per
    point, like `weyl_mono`."""
    return _phase_point(d, n, tuple(int(x) % d for x in a))


@lru_cache(maxsize=None)
def _phase_point(d, n, a) -> OpMatrix:
    if d != 2:
        return phase_point_mono(d, n, a).to_matrix()
    # omega = i^2 when d = 2
    terms = [weyl_mono(d, n, b).phase_shift(2 * symplectic_form(a, b, d))
             for b in all_vectors(d, 2 * n)]
    return mono_sum(terms, Fraction(1, d ** n))


@lru_cache(maxsize=None)
def set_elements(q):
    """The dense elements of an `OperatorSet`, built from its labels: the
    projector of each stabilizer label, the A(a) of each point."""
    if isinstance(q.labels[0], StabilizerLabel):
        return tuple(map(stab_projector, q.labels))
    return tuple(phase_point(q.d, q.n, a) for a in q.labels)


def coefficient_stack(mats):
    """The coefficient tensors of mats over one common denominator, as
    (stack, den): mats[x] = stack[x] / den, stack an object array of Python
    ints with the matrix index first."""
    den = lcm(*(x.den for x in mats))
    return np.stack([x.coef * (den // x.den) for x in mats]), den


def mono_traces(monos, mats):
    """All tr(B_x Q_y) for monomial operators B_x and matrices Q_y, as (out,
    den): out an integer array [x, y, k] (int64 when it fits,
    `cyclotomic._exact`), power-basis coefficients over den, the matrices'
    common denominator (`coefficient_stack`).

    tr(B Q) = sum_c zeta^expo[c] Q[c, perm[c]]: one entry of Q per column of
    B, so an output coefficient sums dim * deg^2 products with the field's
    multiplication tensor (dim^2 * deg^2 for dense B), in the guarded kernel
    `cyclotomic._exact`.
    """
    stack, den = coefficient_stack(mats)
    mono = monos[0]
    m = conductor_for(mono.d)
    f = _field(m)
    dim = len(mono.perm)
    perms, expos = (np.array([getattr(b, a) for b in monos]) for a in ("perm", "expo"))
    small = _int64(stack)  # gathering int64 entries saves converting the larger copy
    gathered = (stack if small is None else small[0])[:, np.arange(dim), perms]
    # gathered[y, x, c] = Q_y[c, perm_x[c]]
    roots = f.pows[(m // mono.r) * expos]  # [x, c] = zeta^expo_x[c]
    path = ["einsum_path", (1, 2), (0, 1)]  # the roots with mul first
    return _exact(lambda g, r, mul: np.einsum("yxcb,xca,abk->xyk", g, r, mul, optimize=path),
                  dim * f.deg ** 2, (gathered, roots), f._mul), den


def lowest_terms(ints, scale):
    """ints / scale in lowest terms, as (ints, scale)."""
    g = gcd(scale, int(np.gcd.reduce(ints, axis=None)))
    return ints // g, scale // g


def moment_form(q, k, args):
    """F_k^Q(A_1..A_k) = (1/|Q|) sum_q prod_i tr(A_i q), exact, over the
    dense elements of the `OperatorSet` q."""
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    if len(args) != k:
        raise ValueError("need exactly k arguments")
    acc = CycNumber.zero(q.conductor)
    for el in set_elements(q):
        term = CycNumber.one(q.conductor)
        for a in args:
            term = term * trace_product(a, el)
        acc = acc + term
    return acc * Fraction(1, q.size)


@lru_cache(maxsize=None)
def hermitian_basis(d, n):
    """An orthogonal Hermitian basis as (point, monomial) pairs, in
    `phase_space.point_codes` order: A(a) for odd d, the Pauli T(a) for d = 2."""
    mono = weyl_mono if d == 2 else phase_point_mono
    return tuple((a, mono(d, n, a)) for a in sorted(all_vectors(d, 2 * n)))


# ---------------------------------------------------------------------------
# Dense single-qudit Clifford elements

def similitude_multiplier_loop(m, d):
    """`clifford.similitude_multiplier` pair by pair: [M e_i, M e_j] against
    [e_i, e_j] over Z_d for every pair of unit vectors."""
    n = len(m) // 2
    mu = None
    basis = [tuple(1 if k == i else 0 for k in range(2 * n)) for i in range(2 * n)]
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            lhs = symplectic_form(matrix_apply(m, a, d), matrix_apply(m, b, d), d)
            rhs = symplectic_form(a, b, d)
            if rhs == 0:
                if lhs != 0:
                    return None
            else:
                factor = (lhs * inv_mod(rhs, d)) % d
                if mu is None:
                    mu = factor
                elif mu != factor:
                    return None
    return mu


@lru_cache(maxsize=1024)
def dense_metaplectic(d, rows) -> OpMatrix:
    """U_S for S = rows (reduced mod d) as a dense matrix of CycNumbers, from
    the closed form in `clifford` (Appleby 2005): with tau = omega^((d+1)/2)
    and the Gauss sum g_d, L(2b) g_d^-1 tau^(b^-1 (a s^2 - 2 r s + e r^2))
    at (r, s) if b != 0, else L(a) tau^(a c s^2) at (a s, s)."""
    (a, b), (c, e) = rows
    if (a * e - b * c) % d != 1:
        raise WordDecompositionFailure(f"{rows} is not in SL(2, {d})")
    m = conductor_for(d)
    half = (d + 1) // 2
    if b:
        scale = gauss_sum(d).inverse() * legendre(2 * b, d)
        phase = [root_of_unity(m, (m // d) * k) * scale for k in range(d)]
        t = half * inv_mod(b, d)
        return OpMatrix(m, [[phase[t * (a * q * q - 2 * r * q + e * r * r) % d]
                             for q in range(d)] for r in range(d)])
    sign = legendre(a, d)
    out = [[CycNumber.zero(m)] * d for _ in range(d)]
    for q in range(d):
        out[a * q % d][q] = root_of_unity(m, (m // d) * (half * a * c * q * q % d)) * sign
    return OpMatrix(m, out)


def dense(stack, i=0) -> OpMatrix:
    """Table i of a `clifford.PhaseStack` as a dense matrix, entry by entry:
    scale * omega^expo[i, r, q], and 0 where expo[i, r, q] = -1."""
    scale, d = stack.scales[stack.which[i]], stack.d
    m = scale.m
    phase = [scale * root_of_unity(m, (m // d) * k) for k in range(d)]
    phase.append(CycNumber.zero(m))  # index -1
    return OpMatrix(m, [[phase[k] for k in row] for row in stack.expo[i].tolist()])


def concat(stacks) -> PhaseStack:
    """One `clifford.PhaseStack` of the tables of stacks of one d in turn,
    with one palette entry per distinct scale."""
    palette = {}
    which = [palette.setdefault(t.scales[w], len(palette)) for t in stacks for w in t.which.tolist()]
    return PhaseStack(stacks[0].d, tuple(palette), np.array(which),
                      np.concatenate([t.expo for t in stacks]))


def weyl_law_pairwise(d, n, pairs, mono=weyl_mono):
    """The Weyl law of `clifford._weyl_law` one pair at a time, by `Mono`
    products of the monomials mono(d, n, a)."""
    half = (d + 1) // 2

    def law(a, b):
        s = symplectic_form(a, b, d)
        ta, tb = mono(d, n, a), mono(d, n, b)
        ab, ba = ta @ tb, tb @ ta
        if d == 2:
            return ab == ba.phase_shift(2 * s) and ta.dagger() == ta
        return (ab == mono(d, n, vec_add(a, b, d)).phase_shift(-half * s)
                and ab == ba.phase_shift(-s))

    return all(law(a, b) for a, b in pairs)
