"""Batch verification CLI: each family of exact checks as a subcommand emitting
deterministic machine-readable JSON reports.

Exit codes: 0 all checks pass, 1 mismatch found, 2 usage error, 3 budget or
timeout exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from fractions import Fraction

from .clifford import (
    ExtCliffordElement,
    ext_apply,
    ext_compose,
    k_alpha,
    metaplectic,
    real_clifford_orbit,
    wreath_decompose_table,
    _metaplectic_table,
)
from .cyclotomic import omega, tau
from .errors import BudgetExceeded, Mismatch, SearchTimeout, StabsymError
from .moments import (
    check_lin_jor_condition,
    check_lin_wig_condition,
    is_complex_2design,
    is_complex_3design,
    is_real_4design,
    is_real_6design,
    phase_point_operator_set,
    rebit_operator_set,
    stabilizer_operator_set,
)
from .operators import stabilizer_states, phase_point, weyl
from .phase_space import (
    all_vectors,
    enumerate_lagrangians,
    enumerate_stabilizer_labels,
    symplectic_form,
    vec_add,
)
from .polytope1 import (
    direct_sum_check,
    facet_family,
    facet_incidence_counts,
    polytope_membership,
    wigner_negative_state,
)
from .symmetry import rebit_gram, verify_Sf_machinery, verify_theorem1
from .zmod import ZModMatrix, is_prime


def _json_default(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    raise TypeError(type(x))


def _emit(report, args) -> None:
    text = json.dumps(report, sort_keys=True, indent=2, default=_json_default) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.golden:
        os.makedirs(args.golden, exist_ok=True)
        name = report.get("command", "report")
        tag = f"{name}_d{report.get('d')}_n{report.get('n')}.json"
        path = os.path.join(args.golden, tag)
        if os.path.exists(path):
            with open(path) as fh:
                if fh.read() != text:
                    raise Mismatch(f"golden file {path} differs")
        else:
            with open(path, "w") as fh:
                fh.write(text)


def _default_variant(d, n, which):
    if which == "rebit":
        return "real_clifford"
    if n == 1:
        return "wreath"
    if d == 2:
        return "extended_clifford"
    return "agsp"


def cmd_enumerate(args):
    lags = enumerate_lagrangians(args.d, args.n)
    labels = enumerate_stabilizer_labels(args.d, args.n)
    report = {
        "command": "enumerate",
        "d": args.d,
        "n": args.n,
        "lagrangian_count": len(lags),
        "stabilizer_label_count": len(labels),
        "lagrangians": [[list(r) for r in L.basis] for L in lags],
        "labels": [
            {"L": [list(r) for r in lab.L.basis], "rep": list(lab.rep)} for lab in labels
        ],
    }
    expected = 1
    for k in range(1, args.n + 1):
        expected *= args.d ** k + 1
    report["count_matches_product_formula"] = len(lags) == expected
    return report, 0 if report["count_matches_product_formula"] else 1


def cmd_gram(args):
    if args.set == "rebit":
        gram = rebit_gram(args.n)
    else:
        gram = stabilizer_states(args.d, args.n).gram
    if args.format == "csv":
        sys.stdout.write(gram.to_csv())
        return None, 0
    multiset = {f"{v.numerator}/{v.denominator}": c for v, c in sorted(gram.value_multiset().items())}
    report = {
        "command": "gram",
        "d": args.d,
        "n": args.n,
        "set": args.set,
        "size": gram.size,
        "value_multiset": multiset,
    }
    if gram.size <= args.matrix_limit:
        report["matrix"] = [[str(v) for v in row] for row in gram.values]
    return report, 0


def _variant_name(d, n, variant):
    return {
        "wreath": f"S_{d} wr S_{d + 1}",
        "extended_clifford": "extended Clifford group",
        "agsp": f"AGSp(Z_{d}^{2 * n})",
        "real_clifford": "real Clifford group",
    }[variant]


def cmd_autgroup(args):
    variant = args.variant or _default_variant(args.d, args.n, args.set)
    try:
        result = verify_theorem1(args.d, args.n, variant, time_budget=args.budget_seconds)
    except Mismatch as exc:
        return {
            "command": "autgroup",
            "d": args.d,
            "n": args.n,
            "variant": variant,
            "match": False,
            "error": str(exc),
        }, 1
    report = {"command": "autgroup", **result}
    report["predicted"] = _variant_name(args.d, args.n, variant)
    report["computed_order"] = int(result["computed_order"])
    report["predicted_order"] = int(result["predicted_order"])
    return report, 0


def cmd_verify_design(args):
    d, n = args.d, args.n
    checks = {}
    if args.set == "stab":
        q = stabilizer_operator_set(d, n)
        expected = {
            "complex_2design": True,
            "complex_3design": d == 2,
            "lin_subset_wig": True,
            "lin_subset_jor": d == 2,
        }
        r2 = is_complex_2design(q)
        r3 = is_complex_3design(q, stop_at_first=(d != 2))
        checks["complex_2design"] = r2.to_json()
        checks["complex_3design"] = r3.to_json()
        computed = {
            "complex_2design": r2.passed,
            "complex_3design": r3.passed,
        }
    elif args.set == "rebit":
        q = rebit_operator_set(n)
        expected = {
            "complex_2design": False,
            "real_4design": True,
            "real_6design": True,
            "lin_subset_wig": True,
            "lin_subset_jor": True,
        }
        r2 = is_complex_2design(q)
        r4 = is_real_4design(q)
        r6 = is_real_6design(q)
        checks["complex_2design"] = r2.to_json()
        checks["real_4design"] = r4.to_json()
        checks["real_6design"] = r6.to_json()
        computed = {
            "complex_2design": r2.passed,
            "real_4design": r4.passed,
            "real_6design": r6.passed,
        }
    elif args.set == "phase-points":
        q = phase_point_operator_set(d, n)
        expected = {"lin_subset_wig": True, "lin_subset_jor": False}
        computed = {}
    else:
        raise ValueError(args.set)
    wig = check_lin_wig_condition(q)
    jor = check_lin_jor_condition(q)
    checks["lin_subset_wig"] = wig
    checks["lin_subset_jor"] = jor
    computed["lin_subset_wig"] = wig["pass"]
    computed["lin_subset_jor"] = jor["pass"]
    ok = all(computed[k] == expected[k] for k in computed)
    report = {
        "command": "verify-design",
        "d": d,
        "n": n,
        "set": args.set,
        "checks": checks,
        "expected": expected,
        "all_as_expected": ok,
    }
    return report, 0 if ok else 1


def cmd_verify_clifford(args):
    d, n = args.d, args.n
    rng = random.Random(args.seed)
    report = {"command": "verify-clifford", "d": d, "n": n, "seed": args.seed,
              "samples": args.samples, "checks": {}}

    def rand_vec():
        return tuple(rng.randrange(d) for _ in range(2 * n))

    # composition and commutation laws (the tau-composition form is odd-d only)
    pairs = (
        [(a, b) for a in all_vectors(d, 2 * n) for b in all_vectors(d, 2 * n)]
        if d ** (4 * n) <= 6561
        else [(rand_vec(), rand_vec()) for _ in range(args.samples)]
    )
    if d != 2:
        t, w = tau(d), omega(d)
        ok = True
        for a, b in pairs:
            s = symplectic_form(a, b, d)
            ta, tb = weyl(d, n, a), weyl(d, n, b)
            if ta @ tb != weyl(d, n, vec_add(a, b, d)).scale(t ** ((-s) % d)):
                ok = False
                break
            if ta @ tb != (tb @ ta).scale(w ** ((-s) % d)):
                ok = False
                break
        report["checks"]["weyl_composition_law"] = {"pass": ok, "pairs": len(pairs)}
    else:
        ok = True
        for a, b in pairs:
            s = symplectic_form(a, b, 2)
            ta, tb = weyl(2, n, a), weyl(2, n, b)
            rhs = tb @ ta
            if s:
                rhs = rhs.scale(-1)
            if ta @ tb != rhs or not ta.is_hermitian():
                ok = False
                break
        report["checks"]["weyl_commutation_law"] = {"pass": ok, "pairs": len(pairs)}

    if d != 2 and n == 1 and d <= 7:
        table = sorted(_metaplectic_table(d))
        ok = True
        for _ in range(args.samples):
            s1 = ZModMatrix(rng.choice(table), d)
            s2 = ZModMatrix(rng.choice(table), d)
            if metaplectic(d, s1) @ metaplectic(d, s2) != metaplectic(d, s1 @ s2):
                ok = False
                break
        report["checks"]["metaplectic_multiplicative"] = {"pass": ok}

        def rand_ext():
            return ExtCliffordElement(
                mu=rng.randrange(d),
                a=(rng.randrange(d), rng.randrange(d)),
                S=ZModMatrix(rng.choice(table), d),
                alpha=rng.randrange(1, d),
            )

        ok = True
        for _ in range(args.samples):
            g, h = rand_ext(), rand_ext()
            hg = ext_compose(h, g)
            if h.matrix() @ g.matrix().entrywise_galois(h.galois()) != hg.matrix():
                ok = False
                break
        report["checks"]["ext_clifford_composition_law"] = {"pass": ok}

        ok = True
        for alpha in range(2, d):
            e = ExtCliffordElement(mu=0, a=(0, 0), S=ZModMatrix.identity(2, d), alpha=alpha)
            ka = k_alpha(d, 1, alpha)
            for x in all_vectors(d, 2):
                if ext_apply(e, phase_point(d, 1, x)) != phase_point(d, 1, ka.apply(x)):
                    ok = False
                    break
        report["checks"]["galois_action_on_phase_points"] = {"pass": ok}

        ok = all(
            weyl(d, 1, a).conj() == weyl(d, 1, (a[0], (-a[1]) % d))
            for a in all_vectors(d, 2)
        )
        report["checks"]["transpose_is_k_minus_one"] = {"pass": ok}

    if d == 2 and n == 1:
        table = wreath_decompose_table()
        eye = {"X": "X", "Y": "Y", "Z": "Z"}
        expected = {
            "complex_conjugation": {"outer": eye, "inner": {"X": "e", "Y": "t", "Z": "e"}},
            "conjugation_by_Y": {"outer": eye, "inner": {"X": "t", "Y": "e", "Z": "t"}},
            "conjugation_by_Z": {"outer": eye, "inner": {"X": "t", "Y": "t", "Z": "e"}},
            "conjugation_by_H": {"outer": {"X": "Z", "Y": "Y", "Z": "X"},
                                 "inner": {"X": "e", "Y": "t", "Z": "e"}},
            "conjugation_by_S": {"outer": {"X": "Y", "Y": "X", "Z": "Z"},
                                 "inner": {"X": "e", "Y": "t", "Z": "e"}},
        }
        report["checks"]["wreath_table"] = {"pass": table == expected, "rows": table}

    ok = all(c["pass"] for c in report["checks"].values())
    report["pass"] = ok
    return report, 0 if ok else 1


def cmd_facets(args):
    d = args.d
    facets = facet_family(d)
    counts = facet_incidence_counts(d)
    supporting = all(minimum == 0 for _, minimum in counts)
    per_facet = {zeros for zeros, _ in counts}
    rho = wigner_negative_state(d)
    inside, violated = polytope_membership(rho, d)
    report = {
        "command": "facets",
        "d": d,
        "n": 1,
        "facet_count": len(facets),
        "supporting": supporting,
        "vertices_per_facet": sorted(per_facet),
        "direct_sum": direct_sum_check(d),
        "wigner_negative_state_inside": inside,
        "violated_facet_characters": None if violated is None else list(violated.characters),
    }
    ok = supporting and not inside and per_facet == {(d - 1) * (d + 1)}
    report["pass"] = ok
    return report, 0 if ok else 1


def cmd_sfsum(args):
    rng = random.Random(args.seed)
    results = []
    if args.d ** (2 * args.n) <= 81:
        bs = list(all_vectors(args.d, 2 * args.n))
    else:
        bs = [tuple(rng.randrange(args.d) for _ in range(2 * args.n))
              for _ in range(args.samples)]
    for b in bs:
        results.append(verify_Sf_machinery(args.d, args.n, b))
    constants = {r["C"] for r in results}
    ok = all(r["pass"] for r in results) and len(constants) == 1
    report = {
        "command": "sf-sum",
        "d": args.d,
        "n": args.n,
        "seed": args.seed,
        "tested_b": len(results),
        "C": sorted(constants)[0] if ok else None,
        "pass": ok,
    }
    return report, 0 if ok else 1


def cmd_report(args):
    sub = {}
    code = 0
    for name, fn in (
        ("enumerate", cmd_enumerate),
        ("gram", cmd_gram),
        ("verify-design", cmd_verify_design),
        ("verify-clifford", cmd_verify_clifford),
        ("autgroup", cmd_autgroup),
    ):
        rep, c = fn(args)
        if rep and name == "enumerate":
            rep = {k: v for k, v in rep.items() if not isinstance(v, list)}
        sub[name] = rep
        code = max(code, c)
    if args.d != 2 and args.n == 1 and args.d <= 5:
        rep, c = cmd_facets(args)
        sub["facets"] = rep
        code = max(code, c)
    report = {
        "command": "report",
        "d": args.d,
        "n": args.n,
        "seed": args.seed,
        "sections": sub,
        "pass": code == 0,
    }
    return report, code


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stabsym",
        description="Exact verification suite for stabilizer polytope symmetries.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, needs_n=True):
        p.add_argument("--d", type=int, required=True, help="prime local dimension")
        if needs_n:
            p.add_argument("--n", type=int, default=1, help="number of qudits")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=100)
        p.add_argument("--budget-seconds", type=float, default=None,
                       help="search time budget (default: $STABSYM_BUDGET_SECONDS, else 600)")
        p.add_argument("--output", default=None)
        p.add_argument("--golden", default=None)
        p.add_argument("--timing", action="store_true")

    p = sub.add_parser("enumerate", help="Lagrangians and stabilizer labels")
    common(p)
    p = sub.add_parser("gram", help="Gram matrix and value multiset")
    common(p)
    p.add_argument("--set", choices=["stab", "rebit"], default="stab")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--matrix-limit", type=int, default=64)
    p = sub.add_parser("autgroup", help="computed vs predicted symmetry group")
    common(p)
    p.add_argument("--set", choices=["stab", "rebit"], default="stab")
    p.add_argument("--variant", choices=["wreath", "extended_clifford", "agsp", "real_clifford"],
                   default=None)
    p = sub.add_parser("verify-design", help="moment and condition predicates")
    common(p)
    p.add_argument("--set", choices=["stab", "rebit", "phase-points"], default="stab")
    p = sub.add_parser("verify-clifford", help="composition laws and adjoint actions")
    common(p)
    p = sub.add_parser("facets", help="n=1 facet family and membership")
    common(p, needs_n=False)
    p.set_defaults(n=1)
    p = sub.add_parser("sf-sum", help="the S_f sum rule constant")
    common(p)
    p = sub.add_parser("report", help="full suite for one (d, n)")
    common(p)
    p.set_defaults(set="stab", variant=None, format="json", matrix_limit=64)
    return parser


HANDLERS = {
    "enumerate": cmd_enumerate,
    "gram": cmd_gram,
    "autgroup": cmd_autgroup,
    "verify-design": cmd_verify_design,
    "verify-clifford": cmd_verify_clifford,
    "facets": cmd_facets,
    "sf-sum": cmd_sfsum,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    if not is_prime(args.d):
        sys.stderr.write(f"--d must be prime, got {args.d}\n")
        return 2
    start = time.monotonic()
    try:
        report, code = HANDLERS[args.cmd](args)
        if report is not None:
            if args.timing:
                report["elapsed_seconds"] = round(time.monotonic() - start, 3)
            _emit(report, args)
    except (BudgetExceeded, SearchTimeout) as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 3
    except Mismatch as exc:
        sys.stderr.write(f"mismatch: {exc}\n")
        return 1
    except StabsymError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
