"""Span tracing of linrelay's layers, installed from outside the package.

`Tracer.install()` replaces public functions at the names their callers look
them up under (for example `linrelay.bound.integrate_adaptive`, which
`solve_endpoint` calls, and `linrelay.trajectory.integrate_adaptive`, which
the trajectory rebuild calls) with wrappers that record one span per call:
name, start, end, parent and the class of any exception raised.  The hottest
function, `f_eval`, gets a bare call counter instead of spans.  Spans stay in
memory; `write_spans` writes them out once the run is over.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import time
from collections import Counter

# (module, attribute, span name).  Each entry is the name a caller uses.
SPANNED = (
    ("linrelay.bound", "integrate_adaptive", "numerics.quad"),
    ("linrelay.trajectory", "integrate_adaptive", "trajectory.quad"),
    ("linrelay.bound", "find_root_bracketed", "numerics.root"),
    ("linrelay.bound", "minimize_simplex", "numerics.simplex"),
    ("linrelay.baselines", "minimize_simplex", "numerics.simplex"),
    ("linrelay.bound", "theorem_bound", "bound.theorem"),
    ("linrelay.cli", "theorem_bound", "bound.theorem"),
    ("linrelay.bound", "solve_endpoint", "bound.endpoint"),
    ("linrelay.cli", "solve_endpoint", "cli.endpoint"),
    ("linrelay.cli", "optimize_bound", "bound.optimize"),
    ("linrelay.baselines", "optimize_bound", "bound.optimize"),
    ("linrelay.cli", "build_trajectory", "trajectory.build"),
    ("linrelay.trajectory", "invert_A_profile", "trajectory.invert"),
    ("linrelay.trajectory", "reconstruct_barred", "trajectory.reconstruct"),
    ("linrelay.cli", "check_identities", "trajectory.check"),
    ("linrelay.cli", "build_code", "codes.build"),
    ("linrelay.cli", "evaluate_rank1", "codes.oracle"),
    ("linrelay.cli", "export_code", "codes.export"),
    ("linrelay.baselines", "two_by_two_bound", "baselines.two_by_two"),
    ("linrelay.baselines", "evaluate_rank1", "baselines.oracle"),
)
COUNTED = (
    ("linrelay.bound", "f_eval"),
    ("linrelay.trajectory", "f_eval"),
)
ROOT = "cli.main"


class Tracer:
    """Collects spans as tuples (name, start, end, parent index, error class)."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self.f_evals = itertools.count()
        self.simplex_evals = itertools.count()

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            err = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, err)

        return wrapper

    def _simplex(self, fn):
        tick = self.simplex_evals.__next__

        @functools.wraps(fn)
        def minimize(f, start, *rest, **kwargs):
            def counted(x):
                tick()
                return f(x)

            return fn(counted, start, *rest, **kwargs)

        return minimize

    def install(self) -> None:
        for module, attr, name in SPANNED:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
            if attr == "minimize_simplex":
                fn = self._simplex(fn)
            setattr(mod, attr, self.span(name, fn))
        for module, attr in COUNTED:
            mod = importlib.import_module(module)
            setattr(mod, attr, _counted(getattr(mod, attr), self.f_evals.__next__))

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\terror\n")
            for i, (name, start, end, parent, err) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\t{err or ''}\n")


def _counted(fn, tick):
    @functools.wraps(fn)
    def wrapper(*args):
        tick()
        return fn(*args)

    return wrapper


def layer_metrics(tracer: Tracer, rounds: int, traced_run_s: float) -> tuple[dict, dict]:
    """Per-layer metrics per round, and the self time of every span name.

    traced_run_s is the median traced round.  Call once: the counters are read by advancing them.

    A theorem_bound call inside a simplex span is refinement; any other call
    under optimize_bound is scan.  Self time is a span's duration minus the
    durations of its direct children (calls are sequential, so children never
    overlap).
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def inside(idx: int, ancestor: str) -> bool:
        idx = spans[idx][3]
        while idx >= 0:
            if spans[idx][0] == ancestor:
                return True
            idx = spans[idx][3]
        return False

    calls: Counter = Counter()
    total: Counter = Counter()
    self_s: Counter = Counter()
    scan_errors: Counter = Counter()
    scan_points = scan_infeasible = refine_evals = 0
    scan_s = refine_s = 0.0
    for i, (name, start, end, parent, err) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        total[name] += dur
        self_s[name] += dur - child_time[i]
        if name == "bound.theorem":
            if inside(i, "numerics.simplex"):
                refine_evals += 1
            elif inside(i, "bound.optimize"):
                scan_points += 1
                scan_s += dur
                if err:
                    scan_infeasible += 1
                    scan_errors[err] += 1
        elif name == "numerics.simplex" and inside(i, "bound.optimize"):
            refine_s += dur

    per = float(rounds)
    quad_names = ("numerics.quad", "trajectory.quad")
    metrics = {
        "numerics.quad_calls": sum(calls[n] for n in quad_names) / per,
        "numerics.quad_s": sum(total[n] for n in quad_names) / per,
        "numerics.f_evals": next(tracer.f_evals) / per,
        "numerics.root_calls": calls["numerics.root"] / per,
        "numerics.root_s": total["numerics.root"] / per,
        "numerics.simplex_calls": calls["numerics.simplex"] / per,
        "numerics.simplex_evals": next(tracer.simplex_evals) / per,
        "numerics.simplex_s": total["numerics.simplex"] / per,
        "bound.optimize_s": total["bound.optimize"] / per,
        "bound.scan_s": scan_s / per,
        "bound.scan_points": scan_points / per,
        "bound.scan_infeasible": scan_infeasible / per,
        "bound.refine_s": refine_s / per,
        "bound.refine_evals": refine_evals / per,
        "bound.endpoint_calls": (calls["bound.endpoint"] + calls["cli.endpoint"]) / per,
        "bound.endpoint_s": (total["bound.endpoint"] + total["cli.endpoint"]) / per,
        "bound.endpoint_resolves": calls["cli.endpoint"] / per,
        "trajectory.build_s": total["trajectory.build"] / per,
        "trajectory.invert_s": total["trajectory.invert"] / per,
        "trajectory.reconstruct_s": total["trajectory.reconstruct"] / per,
        "trajectory.quad_calls": calls["trajectory.quad"] / per,
        "trajectory.check_s": total["trajectory.check"] / per,
        "codes.build_s": total["codes.build"] / per,
        "codes.oracle_calls": calls["codes.oracle"] / per,
        "codes.oracle_s": total["codes.oracle"] / per,
        "codes.export_s": total["codes.export"] / per,
        "baselines.two_by_two_s": total["baselines.two_by_two"] / per,
        "baselines.oracle_calls": calls["baselines.oracle"] / per,
        "baselines.oracle_s": total["baselines.oracle"] / per,
        "cli.self_s": self_s[ROOT] / per,
        "trace.run_s": traced_run_s,
    }
    detail = {
        "self_s": {n: v / per for n, v in sorted(self_s.items())},
        "calls": {n: v / per for n, v in sorted(calls.items())},
        "scan_infeasible_by_error": {n: v / per for n, v in sorted(scan_errors.items())},
        "spans": len(spans),
    }
    return metrics, detail
