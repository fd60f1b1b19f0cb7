"""stabsym: exact-arithmetic stabilizer polytopes and their symmetry groups.

Everything is computed over explicit cyclotomic fields or prime fields; no
floating point enters any verified value.
"""

from .zmod import legendre, rref
from .cyclotomic import CycNumber, GaloisMap, galois_apply, root_of_unity
from .phase_space import enumerate_lagrangians, enumerate_stabilizer_labels, wreath_decompose
from .operators import (
    GramMatrix,
    OperatorSet,
    OpMatrix,
    build_gram,
    stabilizer_states,
)
from .clifford import (
    ExtCliffordElement,
    metaplectic,
    real_clifford_orbit,
    sp_generators,
    wreath_decompose_table,
)
from .moments import (
    check_lin_jor_condition,
    check_lin_wig_condition,
    is_complex_2design,
    is_complex_3design,
    is_real_4design,
    is_real_6design,
)
from .permgroup import PermGroup, schreier_sims
from .symmetry import (
    gram_automorphisms,
    predicted_generators,
    predicted_group,
    verify_theorem1,
)
from .polytope1 import direct_sum_check, polytope_membership

__version__ = "0.1.0"
