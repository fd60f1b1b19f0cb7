"""Dense-matrix reference versions of the library's label and monomial
kernels.

The library acts on d = 2 stabilizer states as labels: the Gram is the
closed form, and gates and transposition are maps on labels
(`phase_space.transform_labels`).  The oracles here act on the exact
projector matrices instead: a permutation is read off by conjugating every
projector, and the rebit states are the breadth-first closure of
|0...0><0...0| under the dense real Clifford gates (`qubit_gate`).  The
S_f sum rule is checked on Weyl coefficients (`symmetry.sf_checks`) and the
Galois action on A(x) as a monomial map; `dense_sf_machinery` and
`ext_apply` take the same steps with sums and products of dense matrices.
"""

from fractions import Fraction
from functools import lru_cache

from stabsym.cyclotomic import CycNumber, conductor_for, iunit, sqrt_d
from stabsym.errors import InconsistentSigns, OddOnly
from stabsym.operators import (
    Mono,
    OpMatrix,
    build_gram,
    mono_sum,
    phase_point,
    stab_projector,
    weyl_mono,
)
from stabsym.phase_space import Subspace, StabilizerLabel, enumerate_lagrangians, symplectic_form


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
    start = OpMatrix.from_rational(conductor_for(2),
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
    """Adjoint action rho -> (M C_alpha) rho (M C_alpha)^{-1} with M =
    e.matrix(), for an `ExtCliffordElement` e."""
    u = e.matrix()
    return u @ m.entrywise_galois(e.galois()) @ u.dagger()


def dense_sf_machinery(d, n, b, family=None):
    """`symmetry.verify_Sf_machinery` from dense matrices: for the labels of
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
    return {
        "d": d,
        "n": n,
        "b": list(b),
        "set_size": len(family),
        "pairwise_nonorthogonal": nonorth,
        "sum_rule": sum_ok,
        "C": str(c) if sum_ok else None,
        "pass": nonorth and sum_ok,
    }
