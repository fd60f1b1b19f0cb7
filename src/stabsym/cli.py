"""Batch verification CLI: parses the arguments, dispatches each subcommand to
the library function that verifies it, and emits the report as deterministic
machine-readable JSON.

Exit codes: 0 all checks pass, 1 mismatch found, 2 usage error (also for a
combination of arguments the library does not implement), 3 budget or
timeout exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from .clifford import verify_clifford_laws
from .errors import BudgetExceeded, Mismatch, SearchTimeout, StabsymError, Unsupported
from .moments import verify_design
from .phase_space import verify_enumeration
from .polytope1 import facet_report
from .symmetry import (budget_seconds, default_variant, family_gram, verify_sf_sum,
                       verify_theorem1)
from .zmod import is_prime


def _json_default(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    raise TypeError(type(x))


# named in every golden file name, or saying where a report goes or how long
# it may take rather than what it is
_NOT_IN_GOLDEN_NAME = ("cmd", "d", "n", "golden", "output", "timing", "budget_seconds")


def golden_name(args) -> str:
    """`<command>_d<d>_n<n>.json`, with `_<option>-<value>` inserted before the
    suffix for every other option not at its default, in alphabetical order,
    so that two different reports never share a golden file."""
    defaults = vars(build_parser().parse_args([args.cmd, "--d", str(args.d)]))
    parts = [args.cmd, f"d{args.d}", f"n{args.n}"]
    for key, value in sorted(vars(args).items()):
        if key not in _NOT_IN_GOLDEN_NAME and value != defaults[key]:
            parts.append(f"{key.replace('_', '-')}-{value}")
    return "_".join(parts) + ".json"


def _emit(report, args) -> None:
    text = json.dumps(report, sort_keys=True, indent=2, default=_json_default) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.golden:
        os.makedirs(args.golden, exist_ok=True)
        path = os.path.join(args.golden, golden_name(args))
        if os.path.exists(path):
            with open(path) as fh:
                if fh.read() != text:
                    raise Mismatch(f"golden file {path} differs")
        else:
            with open(path, "w") as fh:
                fh.write(text)


def _verdict(report, key="pass"):
    return report, 0 if report[key] else 1


def cmd_enumerate(args):
    return _verdict({"command": "enumerate", "d": args.d, "n": args.n,
                     **verify_enumeration(args.d, args.n)},
                    "count_matches_product_formula")


def cmd_gram(args):
    gram = family_gram(args.set, args.d, args.n)
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


def cmd_autgroup(args):
    if args.variant and (args.variant == "real_clifford") != (args.set == "rebit"):
        raise Unsupported(f"--variant {args.variant} is not a case of --set {args.set}")
    variant = args.variant or default_variant(args.d, args.n, args.set)
    try:
        result = verify_theorem1(args.d, args.n, variant, time_budget=args.budget_seconds)
    except Mismatch as exc:
        return {"command": "autgroup", "d": args.d, "n": args.n, "variant": variant,
                "match": False, "error": str(exc)}, 1
    return {"command": "autgroup", **result}, 0


def cmd_verify_design(args):
    return _verdict({"command": "verify-design", "d": args.d, "n": args.n, "set": args.set,
                     **verify_design(args.set, args.d, args.n)},
                    "all_as_expected")


def cmd_verify_clifford(args):
    return _verdict({"command": "verify-clifford", "d": args.d, "n": args.n, "seed": args.seed,
                     "samples": args.samples,
                     **verify_clifford_laws(args.d, args.n, args.seed, args.samples)})


def cmd_facets(args):
    return _verdict({"command": "facets", "d": args.d, "n": 1, **facet_report(args.d)})


def cmd_sfsum(args):
    return _verdict({"command": "sf-sum", "d": args.d, "n": args.n, "seed": args.seed,
                     **verify_sf_sum(args.d, args.n, args.seed, args.samples)})


def cmd_report(args):
    sections = [
        ("enumerate", cmd_enumerate),
        ("gram", cmd_gram),
        ("verify-design", cmd_verify_design),
        ("verify-clifford", cmd_verify_clifford),
        ("autgroup", cmd_autgroup),
    ]
    if args.d != 2 and args.n == 1 and args.d <= 5:
        sections.append(("facets", cmd_facets))
    sub = {}
    code = 0
    for name, fn in sections:
        rep, c = fn(args)
        if rep and name == "enumerate":
            rep = {k: v for k, v in rep.items() if not isinstance(v, list)}
        sub[name] = rep
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


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stabsym",
        description="Exact verification suite for stabilizer polytope symmetries.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, needs_n=True):
        p.add_argument("--d", type=int, required=True, help="prime local dimension")
        if needs_n:
            p.add_argument("--n", type=positive_int, default=1, help="number of qudits")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=positive_int, default=100)
        p.add_argument("--budget-seconds", type=budget_seconds, default=None,
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
    except Unsupported as exc:
        sys.stderr.write(f"unsupported: {exc}\n")
        return 2
    except StabsymError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
