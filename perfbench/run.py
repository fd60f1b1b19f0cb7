"""Benchmark for stabsym's exact certification.

    python3 perfbench/run.py --workload theorem1 --seed 1 --seconds 1 --trace 0

Run from the repository root.  Each round of a workload is a fresh worker
process, started one at a time with every BLAS/OpenMP pool pinned to one
thread.  Rounds repeat until `--seconds` have passed (at least one round), and
set-up is measured in at least three fresh processes.  With `--trace 0` the
last line of output is the end-to-end result; with `--trace 1` one traced
round gives the per-layer metrics and the tracing overhead.  Every run appends
its record, with a machine record, to perfbench/results/runs.jsonl.
`--workload all` runs every workload in turn and prints one line for each.
"""

from __future__ import annotations

import argparse
import compileall
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results", "runs.jsonl")
WORKLOADS = ("theorem1", "exact-laws")
MIN_SETUPS = 3
RUN_LIMIT_S = 170.0  # one run must end within 180 s

# Single-threaded BLAS is the baseline: multithreaded OpenBLAS doubles the CPU
# time of the search's float matmul for a small wall-time gain on two cores.
ONE_THREAD = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",  # the per-layer counts repeat exactly
}


class BenchError(Exception):
    pass


def spawn(workload, seed, mode, deadline):
    """Run one worker process to its end and return its JSON line."""
    env = dict(os.environ, **ONE_THREAD)
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} worker exceeded the run limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _verdicts(rounds):
    return {
        "correct": all(not r["wrong"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
    }


def timed_run(workload, seed, seconds, deadline):
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        rounds.append(spawn(workload, seed, "run", deadline))
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, "setup", deadline)["setup_s"])
    median = statistics.median
    metrics = {
        "wall_s": _metric(median(r["wall_s"] for r in rounds), "s"),
        "cpu_s": _metric(median(r["cpu_s"] for r in rounds), "s"),
        "setup_s": _metric(median(setups), "s"),
        "peak_rss_mb": _metric(median(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    return {**_verdicts(rounds), "metrics": metrics}, {"rounds": rounds, "setups": setups}


def traced_run(workload, seed, deadline):
    traced = spawn(workload, seed, "trace", deadline)
    metrics = {name: _metric(value, unit) for name, (value, unit) in sorted(traced["layers"].items())}
    return {**_verdicts([traced]), "metrics": metrics}, {"rounds": [traced]}


def _git_sha(root):
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(root, ".git", ref)
    if os.path.exists(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def machine_record(root, numpy_version):
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": _git_sha(root),
        "platform": platform.platform(),
    }


def run_one(workload, opts, root):
    deadline = time.monotonic() + RUN_LIMIT_S
    if opts.trace:
        result, detail = traced_run(workload, opts.seed, deadline)
    else:
        result, detail = timed_run(workload, opts.seed, opts.seconds, deadline)
    record = {
        "workload": workload,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": bool(opts.trace),
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": machine_record(root, detail["rounds"][0]["numpy"]),
        "result": result,
        **detail,
    }
    os.makedirs(os.path.dirname(RESULTS), exist_ok=True)
    with open(RESULTS, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    for round_ in detail["rounds"]:
        for msg in round_["wrong"] + round_["raised"]:
            print(f"{workload}: {msg}", file=sys.stderr)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src", "stabsym")
    if not os.path.isfile(os.path.join(src, "__init__.py")):
        print(f"no stabsym sources under {os.path.join('src', 'stabsym')}; "
              "run from the repository root", file=sys.stderr)
        return 2
    # the build: byte-compile once so that no round pays for compilation
    compileall.compile_dir(src, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    try:
        if opts.workload == "all":
            for workload in WORKLOADS:
                print(json.dumps({"workload": workload, **run_one(workload, opts, root)}), flush=True)
        else:
            print(json.dumps(run_one(opts.workload, opts, root)))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
