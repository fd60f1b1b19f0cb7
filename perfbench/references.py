"""Independent references for the benchmark's verdicts.

Nothing here is read from the program's own expectations or from a stored copy
of its output: group orders come from textbook formulas and from a second
permutation-group engine (sympy), Gram properties are re-checked with numpy,
and the design verdicts and constants come from the paper's truth table and
the Haar moment formulas.  Each `check_*` returns a list of failure messages;
an empty list means the verdict is confirmed.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

import numpy as np


# ---------------------------------------------------------------------------
# Group orders


def sp_order(q, n):
    """|Sp(2n, q)| = q^(n^2) * prod_{i=1..n} (q^(2i) - 1)."""
    return q ** (n * n) * prod(q ** (2 * i) - 1 for i in range(1, n + 1))


def expected_order(d, n, variant):
    """Order of the symmetry group of Theorem 1, acting on the states."""
    if variant == "wreath":  # S_d wr S_(d+1)
        return factorial(d) ** (d + 1) * factorial(d + 1)
    if variant == "agsp":  # translations, Sp(2n, d), and the d - 1 multipliers
        return d ** (2 * n) * sp_order(d, n) * (d - 1)
    if variant == "extended_clifford":  # Clifford group mod phases, times complex conjugation
        return 2 * 2 ** (n * n + 2 * n) * prod(4 ** j - 1 for j in range(1, n + 1))
    if variant == "real_clifford":  # real Clifford group (Nebe-Rains-Sloane) mod its centre {+1, -1}
        return 2 ** (n * n + n + 1) * (2 ** n - 1) * prod(4 ** j - 1 for j in range(1, n))
    raise ValueError(f"unknown variant {variant!r}")


def sympy_order(generators):
    """The group order from sympy's Schreier-Sims on the same generators."""
    from sympy.combinatorics import Permutation, PermutationGroup

    return int(PermutationGroup([Permutation(list(g)) for g in generators]).order())


def _gram_codes(values):
    distinct = sorted({v for row in values for v in row})
    code = {v: i for i, v in enumerate(distinct)}
    return np.array([[code[v] for v in row] for row in values], dtype=np.int64)


def check_autgroup(args, report, code, evidence):
    d, n, variant = args.d, args.n, args.variant
    fails = []
    if code != 0 or not report.get("match"):
        fails.append(f"autgroup {d},{n},{variant}: no match (exit {code})")
        return fails
    want = expected_order(d, n, variant)
    for key in ("computed_order", "predicted_order"):
        if report[key] != want:
            fails.append(f"autgroup {d},{n},{variant}: {key} {report[key]} != {want}")
    gens = evidence["generators"]
    got = sympy_order(gens)
    if got != want:
        fails.append(f"autgroup {d},{n},{variant}: sympy order {got} != {want}")
    gram = _gram_codes(evidence["gram"])
    for g in gens:
        g = np.array(g, dtype=np.int64)
        if not np.array_equal(gram[g][:, g], gram):
            fails.append(f"autgroup {d},{n},{variant}: a predicted generator moves the Gram")
            break
    size = len(evidence["gram"])
    row_sum = Fraction(size, d ** n)  # the family is a 1-design
    if any(sum(row) != row_sum for row in evidence["gram"]):
        fails.append(f"autgroup {d},{n},{variant}: a Gram row does not sum to {row_sum}")
    return fails


# ---------------------------------------------------------------------------
# Designs and the Lin-in-Wig / Lin-in-Jor conditions


def design_truth(kind, d):
    """The paper's truth table: which predicates hold for which operator set."""
    if kind == "stab":
        qubit = d == 2
        return {"complex_2design": True, "complex_3design": qubit,
                "lin_subset_wig": True, "lin_subset_jor": qubit}
    if kind == "rebit":
        return {"complex_2design": False, "real_4design": True, "real_6design": True,
                "lin_subset_wig": True, "lin_subset_jor": True}
    if kind == "phase-points":
        return {"lin_subset_wig": True, "lin_subset_jor": False}
    raise ValueError(kind)


def haar_constants(kind, d, n):
    """Constants the reports must carry, keyed by (check, field[, name]).

    Complex sets follow the unitary Haar moments, 1/(D(D+1)) and
    1/(D(D+1)(D+2)); rebits the orthogonal ones over D(D+2) and D(D+2)(D+4);
    the phase-point operators satisfy Parseval with norm D, so F_2 = (A|B)/D.
    """
    dim = d ** n
    if kind == "stab":
        out = {("lin_subset_wig", "constant"): Fraction(1, dim * (dim + 1)),
               ("lin_subset_jor", "span_dimension"): dim * dim}
        if d == 2:
            out[("lin_subset_jor", "f3_constant")] = Fraction(1, dim * (dim + 1) * (dim + 2))
        return out
    if kind == "rebit":
        k2 = dim * (dim + 2)
        k3 = k2 * (dim + 4)
        return {("real_4design", "constants", "K_hs"): Fraction(2, k2),
                ("real_4design", "constants", "K_tr"): Fraction(1, k2),
                ("real_6design", "constants", "K1"): Fraction(1, k3),
                ("real_6design", "constants", "K2"): Fraction(2, k3),
                ("real_6design", "constants", "K3"): Fraction(4, k3),
                ("lin_subset_wig", "constant"): Fraction(2, k2),
                ("lin_subset_jor", "f3_constant"): Fraction(4, k3),
                ("lin_subset_jor", "span_dimension"): dim * (dim + 1) // 2}
    if kind == "phase-points":
        return {("lin_subset_wig", "constant"): Fraction(1, dim),
                ("lin_subset_jor", "span_dimension"): dim * dim}
    raise ValueError(kind)


def _lookup(checks, path):
    node = checks
    for key in path:
        node = node[key]
    return node


def check_design(args, report, code, evidence):
    d, n, kind = args.d, args.n, args.set
    tag = f"verify-design {d},{n},{kind}"
    fails = []
    if code != 0:
        fails.append(f"{tag}: exit {code}")
    checks = report["checks"]
    for name, want in design_truth(kind, d).items():
        if checks[name]["pass"] != want:
            fails.append(f"{tag}: {name} is {checks[name]['pass']}, the paper says {want}")
    for path, want in haar_constants(kind, d, n).items():
        got = _lookup(checks, path)
        if got is None or Fraction(got) != want:
            fails.append(f"{tag}: {'.'.join(path)} is {got}, expected {want}")
    return fails


# ---------------------------------------------------------------------------
# Clifford laws and the S_f sum rule


CLIFFORD_LAWS_N1 = ("weyl_composition_law", "metaplectic_multiplicative",
                    "ext_clifford_composition_law", "galois_action_on_phase_points",
                    "transpose_is_k_minus_one")


def check_clifford(args, report, code, evidence):
    d, n = args.d, args.n
    tag = f"verify-clifford {d},{n}"
    fails = []
    if code != 0 or not report.get("pass"):
        fails.append(f"{tag}: laws reported broken (exit {code})")
    checks = report["checks"]
    for law in CLIFFORD_LAWS_N1:
        if not checks.get(law, {}).get("pass"):
            fails.append(f"{tag}: {law} missing or failed")
    pairs = checks.get("weyl_composition_law", {}).get("pairs")
    if pairs != d ** (4 * n):
        fails.append(f"{tag}: {pairs} Weyl pairs checked, expected all {d ** (4 * n)}")
    return fails


def sf_constant(d, n):
    """C in sum_L Pi_(L,b) = C (1 + A(b)): the trace gives #Lagrangians / (D + 1)."""
    return Fraction(prod(d ** k + 1 for k in range(1, n + 1)), d ** n + 1)


def check_sfsum(args, report, code, evidence):
    d, n = args.d, args.n
    tag = f"sf-sum {d},{n}"
    fails = []
    if code != 0 or not report.get("pass"):
        fails.append(f"{tag}: sum rule reported broken (exit {code})")
    want = sf_constant(d, n)
    if report.get("C") is None or Fraction(report["C"]) != want:
        fails.append(f"{tag}: C is {report.get('C')}, expected {want}")
    if report.get("tested_b") != d ** (2 * n):
        fails.append(f"{tag}: {report.get('tested_b')} points b tested, expected {d ** (2 * n)}")
    return fails


CHECKS = {
    "autgroup": check_autgroup,
    "verify-design": check_design,
    "verify-clifford": check_clifford,
    "sf-sum": check_sfsum,
}


def check(args, report, code, evidence):
    return CHECKS[args.cmd](args, report, code, evidence)
