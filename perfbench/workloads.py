"""The benchmark's workloads: the inputs each one builds during set-up and the
CLI operations it then runs, each returning a certified verdict.

Every operation goes through `stabsym.cli.HANDLERS`, the same code path as the
`stabsym` command, so a workload measures what a user waits for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from stabsym import cli, moments, operators, phase_space, symmetry


@dataclass(frozen=True)
class Workload:
    setup: Callable[[], None]
    commands: Callable[[int], list]


def _setup_theorem1():
    phase_space.enumerate_lagrangians(3, 2)
    phase_space.enumerate_stabilizer_labels(3, 2)
    for d, n in ((3, 2), (2, 1), (3, 1), (5, 1), (7, 1), (2, 2)):
        operators.stabilizer_states(d, n)
    symmetry.rebit_gram(2)


def _setup_exact_laws():
    for d, n in ((2, 2), (5, 1), (7, 1)):
        moments.stabilizer_operator_set(d, n)
    moments.rebit_operator_set(2)
    moments.phase_point_operator_set(3, 1)
    phase_space.enumerate_lagrangians(3, 2)


def _autgroup(d, n, variant):
    argv = ["autgroup", "--d", str(d), "--n", str(n), "--variant", variant]
    if variant == "real_clifford":
        argv += ["--set", "rebit"]
    return argv


WORKLOADS = {
    # All four cases of Theorem 1 in one process: the (3,2) search is
    # dominated by refinement, the n = 1 chains by Schreier-Sims.  The n = 1
    # cases alone run ~7 s, too short to be steady on a shared 2-core box.
    "theorem1": Workload(
        setup=_setup_theorem1,
        commands=lambda seed: [
            _autgroup(3, 2, "agsp"),
            *(_autgroup(d, 1, "wreath") for d in (2, 3, 5, 7)),
            _autgroup(2, 2, "extended_clifford"),
            _autgroup(2, 2, "real_clifford"),
        ],
    ),
    # verify-design at (3,2) (~15 s, and the (3,2) family in set-up) is left
    # out to keep a full benchmark within its time budget; see README
    "exact-laws": Workload(
        setup=_setup_exact_laws,
        commands=lambda seed: [
            *(["verify-design", "--d", str(d), "--n", str(n)] for d, n in ((2, 2), (5, 1), (7, 1))),
            ["verify-design", "--d", "2", "--n", "2", "--set", "rebit"],
            ["verify-design", "--d", "3", "--n", "1", "--set", "phase-points"],
            ["verify-clifford", "--d", "5", "--n", "1", "--seed", str(seed)],
            ["sf-sum", "--d", "3", "--n", "2", "--seed", str(seed)],
        ],
    ),
}


def parse(argv):
    return cli.build_parser().parse_args(argv)


def run_command(args):
    """One user-visible operation: the CLI handler's (report, exit code)."""
    return cli.HANDLERS[args.cmd](args)


def evidence(args):
    """Program data the references check beyond the report, read after timing.

    For `autgroup` these are the exact Gram matrix and the predicted group's
    generators; both come from caches the timed run already filled, except the
    rebit Gram, which the library rebuilds on every call.
    """
    if args.cmd != "autgroup":
        return {}
    if args.variant == "real_clifford":
        gram = symmetry.rebit_gram(args.n)
    else:
        gram = operators.stabilizer_states(args.d, args.n).gram
    predicted = symmetry.predicted_group(args.d, args.n, args.variant)
    return {"gram": gram.values, "generators": list(predicted.generators)}
