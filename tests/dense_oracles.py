"""Dense-matrix reference versions of the qubit and rebit label kernels.

The library acts on d = 2 stabilizer states as labels: the Gram is the
closed form, and gates and transposition are maps on labels
(`phase_space.transform_labels`).  The oracles here act on the exact
projector matrices instead: a permutation is read off by conjugating every
projector, and the rebit states are the breadth-first closure of
|0...0><0...0| under the dense real Clifford gates.
"""

from functools import lru_cache

from stabsym.clifford import qubit_gate
from stabsym.cyclotomic import conductor_for
from stabsym.operators import OpMatrix


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
