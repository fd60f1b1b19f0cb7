"""Span recorder for the traced benchmark run.

The program's source is not touched: `install` replaces the public entry
points of stabsym's modules with wrappers that record a span (name, start,
end, parent) per call, and replaces `CycNumber.__add__`/`__mul__` with plain
call counters, since a timer per call would outweigh the call.  Spans stay in
memory; `layer_metrics` derives the per-layer figures from them at the end,
with the tracing overhead.
"""

from __future__ import annotations

import sys
import time

# span name -> wrapped entry points, as (module, attribute) or (module, class, attribute)
SPANS = {
    "symmetry.search": [("symmetry", "gram_automorphisms")],
    "symmetry.predicted_group": [("symmetry", "predicted_group")],
    "symmetry.refine": [("symmetry", "AutomorphismSearch", "refine")],
    "permgroup.build": [("permgroup", "PermGroup", "from_generators")],
    "permgroup.add_generator": [("permgroup", "PermGroup", "add_generator")],
    "permgroup.contains": [("permgroup", "PermGroup", "contains")],
    "operators.matmul": [("operators", "OpMatrix", "__matmul__")],
    "moments.trace_table": [("moments", "trace_table")],
    "moments.design": [("moments", "is_complex_2design"), ("moments", "is_complex_3design")],
    "moments.real_design": [("moments", "is_real_4design"), ("moments", "is_real_6design")],
    "moments.lin_wig": [("moments", "check_lin_wig_condition")],
    "moments.lin_jor": [("moments", "check_lin_jor_condition")],
    "phase_space.enumerate": [("phase_space", "enumerate_lagrangians"),
                              ("phase_space", "enumerate_stabilizer_labels")],
    "cli.autgroup": [("cli", "cmd_autgroup")],
    "cli.verify_design": [("cli", "cmd_verify_design")],
    "cli.verify_clifford": [("cli", "cmd_verify_clifford")],
    "cli.sf_sum": [("cli", "cmd_sfsum")],
}

# build_gram is one entry point with two algorithms; the span name says which
GRAM_SPANS = ("operators.gram_closed_form", "operators.gram_hs")

# the search is reported by its self time; every other span by its total time
TIMED = [name for name in (*SPANS, *GRAM_SPANS) if name != "symmetry.search"]
CALLS = ("symmetry.refine", "permgroup.add_generator", "permgroup.contains", "operators.matmul")

COUNTERS = {
    "cyclotomic.add_calls": ("__add__", "__radd__"),
    "cyclotomic.mul_calls": ("__mul__", "__rmul__"),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {name: 0 for name in COUNTERS}
        self.chains = {}  # id -> PermGroup returned by the search or predicted_group
        self._stack = []

    def wrap(self, name, fn, keep=False, choose=None):
        """Wrap `fn` in a span; `choose(*args, **kwargs)` may pick the span name
        per call.  With `keep`, the returned chains are kept for the metrics."""
        spans, stack, chains = self.spans, self._stack, self.chains
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [choose(*args, **kwargs) if choose else name, clock(), None,
                   stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if keep:
                chains[id(out)] = out
            return out

        return wrapper

    def count(self, key, fn):
        counts = self.counts

        def wrapper(a, b):
            counts[key] += 1
            return fn(a, b)

        return wrapper


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "stabsym" or name.startswith("stabsym."))]


def _rebind(original, wrapper):
    """Point every stabsym module-level name and CLI handler at the wrapper,
    since the modules bind each other's functions by `from . import`."""
    for mod in _modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
    from stabsym import cli

    for key, value in cli.HANDLERS.items():
        if value is original:
            cli.HANDLERS[key] = wrapper


def install(tracer):
    from stabsym import cyclotomic, operators

    mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _modules()}
    for name, targets in SPANS.items():
        keep = name in ("symmetry.search", "symmetry.predicted_group")
        for target in targets:
            if len(target) == 2:
                mod, attr = target
                original = getattr(mods[mod], attr)
                _rebind(original, tracer.wrap(name, original, keep=keep))
                continue
            mod, cls_name, attr = target
            cls = getattr(mods[mod], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, tracer.wrap(name, raw))

    def gram_kind(states, projectors=None, budget=None):
        return GRAM_SPANS[0] if projectors is None else GRAM_SPANS[1]

    _rebind(operators.build_gram, tracer.wrap(None, operators.build_gram, choose=gram_kind))
    for key, attrs in COUNTERS.items():
        for attr in attrs:
            raw = cyclotomic.CycNumber.__dict__[attr]
            setattr(cyclotomic.CycNumber, attr, tracer.count(key, raw))


def _outermost_times(spans):
    """Per span name, the summed duration of calls not nested in a call of the same name."""
    out = {}
    for name, start, end, parent in spans:
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[name] = out.get(name, 0.0) + (end - start)
    return out


def _self_time(spans, name):
    """Duration of the named spans minus the part their direct children cover."""
    total = 0.0
    for rec in spans:
        if rec[0] == name:
            total += rec[2] - rec[1]
    for child in spans:
        if child[3] >= 0 and spans[child[3]][0] == name:
            total -= child[2] - child[1]
    return total


def wrapper_costs(reps=10000):
    """Measured extra cost per call of a span wrapper and of a counter, in s."""
    scratch = Tracer()

    def f(a, b):
        return a

    def per_call(fn):
        t = time.perf_counter()
        for _ in range(reps):
            fn(1, 2)
        return (time.perf_counter() - t) / reps

    def best(fn):
        return min(per_call(fn) for _ in range(5))

    base = best(f)
    return (best(scratch.wrap("calibration", f)) - base,
            best(scratch.count(next(iter(COUNTERS)), f)) - base)


def layer_metrics(tracer, wall_s):
    """Per-layer figures of one traced round, whose operations took `wall_s`:
    name -> (value, unit)."""
    spans = tracer.spans
    times = _outermost_times(spans)
    calls = {}
    for rec in spans:
        calls[rec[0]] = calls.get(rec[0], 0) + 1
    out = {name + "_s": (times.get(name, 0.0), "s") for name in TIMED}
    out.update({name + "_calls": (calls.get(name, 0), "count") for name in CALLS})
    refine_calls = calls.get("symmetry.refine", 0)
    out["symmetry.refine_ms_per_call"] = (
        1000.0 * times.get("symmetry.refine", 0.0) / refine_calls if refine_calls else 0.0, "ms")
    out["symmetry.search_self_s"] = (_self_time(spans, "symmetry.search"), "s")
    chains = tracer.chains.values()
    out["permgroup.transversal_points"] = (
        sum(len(t) for c in chains for t in c.transversals), "count")
    out["permgroup.strong_generators"] = (
        sum(len(c.level_gens[0]) if c.level_gens else 0 for c in chains), "count")
    for key, value in tracer.counts.items():
        out[key] = (value, "count")
    out["trace.spans"] = (len(spans), "count")
    # the tracing overhead: what the wrappers added to this round, measured per
    # call, against the untraced time of the same round
    span_cost, count_cost = wrapper_costs()
    overhead = len(spans) * span_cost + sum(tracer.counts.values()) * count_cost
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.overhead_pct"] = (100.0 * overhead / (wall_s - overhead), "%")
    return out
