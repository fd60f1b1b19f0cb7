"""Self-test of the benchmark's correctness checks: true verdicts pass, and a
perturbed order, generator, constant, truth-table entry or law is reported as
a failed operation.

    python3 perfbench/selftest.py     # from the repository root, a few seconds

Exits 0 when every perturbation is caught and every true verdict passes.
"""

from __future__ import annotations

import copy
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import references  # noqa: E402
import workloads  # noqa: E402


def _set(path, value):
    def perturb(report, evidence):
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return perturb


def _bump_order(report, evidence):
    report["computed_order"] += 1


def _swap_in_generator(report, evidence):
    g = list(evidence["generators"][0])
    g[0], g[-1] = g[-1], g[0]
    evidence["generators"][0] = tuple(g)


CASES = [
    (["autgroup", "--d", "3", "--n", "1", "--variant", "wreath"], {
        "order + 1": _bump_order,
        "generator with two points swapped": _swap_in_generator,
    }),
    (["autgroup", "--d", "2", "--n", "2", "--variant", "real_clifford", "--set", "rebit"], {
        "order + 1": _bump_order,
    }),
    (["verify-design", "--d", "5", "--n", "1"], {
        "Lin-in-Wig constant 1/31": _set(("checks", "lin_subset_wig", "constant"), "1/31"),
        "3-design entry flipped": _set(("checks", "complex_3design", "pass"), True),
        "span dimension 24": _set(("checks", "lin_subset_jor", "span_dimension"), 24),
    }),
    (["verify-design", "--d", "2", "--n", "2", "--set", "rebit"], {
        "K_hs 1/13": _set(("checks", "real_4design", "constants", "K_hs"), "1/13"),
        "K3 1/96": _set(("checks", "real_6design", "constants", "K3"), "1/96"),
        "Lin-in-Jor entry flipped": _set(("checks", "lin_subset_jor", "pass"), False),
    }),
    (["verify-clifford", "--d", "3", "--n", "1", "--seed", "5"], {
        "metaplectic law broken": _set(("checks", "metaplectic_multiplicative", "pass"), False),
    }),
    (["sf-sum", "--d", "3", "--n", "1"], {
        "C = 2": _set(("C",), "2"),
    }),
]


def main():
    ok = True
    for argv, perturbations in CASES:
        args = workloads.parse(argv)
        report, code = workloads.run_command(args)
        evidence = workloads.evidence(args)
        fails = references.check(args, report, code, evidence)
        print(f"{'ok  ' if not fails else 'FAIL'} {' '.join(argv)}: true verdict "
              f"{'confirmed' if not fails else fails}")
        ok &= not fails
        for label, perturb in perturbations.items():
            bad_report, bad_evidence = copy.deepcopy(report), copy.deepcopy(evidence)
            perturb(bad_report, bad_evidence)
            caught = references.check(args, bad_report, code, bad_evidence)
            print(f"{'ok  ' if caught else 'FAIL'}   {label}: "
                  f"{caught[0] if caught else 'not caught'}")
            ok &= bool(caught)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
