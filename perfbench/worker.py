"""One fresh benchmark process: set up one workload and, unless asked only to
set up, run its operations once and check them.  Prints one JSON line.

Run from the repository root by `run.py`; `--t0` is the parent's
`time.monotonic()` just before it started this process, so set-up time counts
interpreter start, imports and the building of the inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    opts = ap.parse_args()

    import numpy
    import references
    import spans
    import workloads

    tracer = None
    if opts.mode == "trace":
        tracer = spans.Tracer()
        spans.install(tracer)
    wl = workloads.WORKLOADS[opts.workload]
    commands = [workloads.parse(argv) for argv in wl.commands(opts.seed)]
    wl.setup()
    setup_s = time.monotonic() - opts.t0
    if opts.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    outcomes = []
    c0 = time.process_time()
    w0 = time.perf_counter()
    for args in commands:
        try:
            outcomes.append(workloads.run_command(args))
        except Exception as exc:  # a raising operation is counted as failed, not fatal
            outcomes.append(exc)
    wall_s = time.perf_counter() - w0
    cpu_s = time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = spans.layer_metrics(tracer, wall_s) if tracer else None

    # an operation fails when it raises or when a reference rejects its verdict;
    # only the second makes the run incorrect
    raised, wrong, failed = [], [], 0
    for args, outcome in zip(commands, outcomes):
        if isinstance(outcome, Exception):
            raised.append(f"{args.cmd}: raised {outcome!r}")
            failed += 1
            continue
        report, code = outcome
        fails = references.check(args, report, code, workloads.evidence(args))
        wrong.extend(fails)
        failed += bool(fails)
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(commands),
        "failed": failed,
        "raised": raised,
        "wrong": wrong,
        "numpy": numpy.__version__,
        "layers": layers,
    }))


if __name__ == "__main__":
    main()
