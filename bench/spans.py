"""Spans around the program's public names, installed from the benchmark.

Each binding replaces a name where the importing module binds it (for
example ``rayleigh_kuo.nth_eigenvalue``, the name the Rayleigh-Kuo layer
calls), so every call the layer above makes goes through a span.  A span
records its parent; a span's self time is its duration minus the time of
the spans it contains.  A binding whose name no longer exists is reported
as absent instead of failing the run.
"""

from __future__ import annotations

import importlib.util
import sys
import time
from collections import defaultdict


def _dim(args, kwargs):
    op = args[0] if args else kwargs["op"]
    return op.dim


def _modes(args, kwargs):
    return len(args[0])


def _text_bytes(result):
    return len(result.encode("utf-8"))


def _miss(result):
    return int(result is None)


def _hit(result):
    return int(result is not None)


# (module, attribute, span name, {counter: fn(args, kwargs)}, {counter: fn(result)})
# ``module`` is a betaplane submodule name, or "module:Class" for a method.
BINDINGS = [
    ("rayleigh_kuo", "nth_eigenvalue", "eigen.solve", {"eigen.rows": _dim}, {}),
    ("rayleigh_kuo", "eigenvector", "eigen.vector", {}, {}),
    ("rayleigh_kuo", "assemble", "grid.assemble", {}, {}),
    ("atlas", "lambda_1_singular", "rk.singular", {}, {}),
    ("atlas", "lambda_n_regular", "rk.regular", {}, {}),
    ("cli", "lambda_1_singular", "rk.singular", {}, {}),
    ("cli", "lambda_n_regular", "rk.regular", {}, {}),
    ("bifurcation", "lambda_1_singular", "rk.singular", {}, {}),
    ("modified_flow", "lambda_n_general", "rk.general", {}, {}),
    ("bifurcation", "lambda_n_general", "rk.general", {}, {}),
    ("atlas", "find_beta_star", "atlas.root", {}, {}),
    ("atlas", "beta_T", "atlas.root", {}, {}),
    ("atlas", "speed_for_eigenvalue", "atlas.root", {}, {}),
    ("atlas", "lambda1_wall", "atlas.wall", {}, {}),
    ("atlas", "lambda1_regular", "atlas.regular", {}, {}),
    ("modified_flow", "erf", "mf.erf", {}, {}),
    ("modified_flow", "cutoff_constants", "mf.setup", {}, {}),
    ("modified_flow", "b0", "mf.setup", {}, {}),
    ("bifurcation", "construct", "bif.construct", {}, {}),
    ("bifurcation", "residual_norm", "bif.residual", {}, {}),
    ("damping", "run_damping_experiment", "damping.run", {}, {}),
    ("damping", "evolve_rk4", "damping.run", {}, {}),
    ("damping", "_rk4_multiplier", None, {"damping.mode_steps": _modes}, {}),
    ("cache:CurveCache", "get", "cache.get", {}, {"cache.misses": _miss, "cache.hits": _hit}),
    ("cache:CurveCache", "put", "cache.put", {"cache.writes": lambda a, k: 1}, {}),
    ("tables:CurveTable", "to_csv", "tables.serialize", {}, {"tables.bytes_out": _text_bytes}),
    ("tables:CurveTable", "to_json", "tables.serialize", {}, {"tables.bytes_out": _text_bytes}),
    ("cli", "table_to_svg", "svgplot.render", {}, {}),
]


class Tracer:
    """Collects span statistics in memory; ``summary()`` returns them as plain data."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edges = defaultdict(int)  # "parent>child" -> calls
        self.counts = defaultdict(int)
        self.absent = []
        self._stack = []  # [name, child seconds]

    def _span(self, name, fn, arg_counters, result_counters):
        tracer = self

        def wrapper(*args, **kwargs):
            for key, count in arg_counters.items():
                tracer.counts[key] += count(args, kwargs)
            if name is None:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else ""
            tracer.edges[f"{parent}>{name}"] += 1
            frame = [name, 0.0]
            tracer._stack.append(frame)
            t0 = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = tracer.clock() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += dt
                tracer.calls[name] += 1
                tracer.total[name] += dt
                tracer.self_time[name] += dt - frame[1]
            for key, count in result_counters.items():
                tracer.counts[key] += count(result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap every binding whose module is loaded; a name that no longer exists is absent."""
        for where, attr, name, arg_counters, result_counters in BINDINGS:
            module_name, _, class_name = where.partition(":")
            full = f"{package.__name__}.{module_name}"
            target = sys.modules.get(full)
            if target is None and importlib.util.find_spec(full) is not None:
                continue  # this process never imports the module, so nothing calls it
            if target is not None and class_name:
                target = getattr(target, class_name, None)
            if target is None or not hasattr(target, attr):
                self.absent.append(f"{where}.{attr}")
                continue
            setattr(target, attr, self._span(name, getattr(target, attr), arg_counters, result_counters))

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "edges": dict(self.edges),
            "counts": dict(self.counts),
            "absent": list(self.absent),
        }


def merge(summaries) -> dict:
    """Sum span statistics from several processes (the CLI workload)."""
    out = {"calls": defaultdict(int), "total": defaultdict(float), "self": defaultdict(float),
           "edges": defaultdict(int), "counts": defaultdict(int), "absent": set()}
    for s in summaries:
        for key in ("calls", "total", "self", "edges", "counts"):
            for name, value in s[key].items():
                out[key][name] += value
        out["absent"].update(s["absent"])
    return {k: (sorted(v) if k == "absent" else dict(v)) for k, v in out.items()}


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics (name -> (value, unit)) from a merged span summary."""
    calls, self_s, total = summary["calls"], summary["self"], summary["total"]
    counts, edges = summary["counts"], summary["edges"]
    roots = calls.get("atlas.root", 0)
    walls = calls.get("atlas.wall", 0)
    evals = walls + calls.get("atlas.regular", 0)
    mode_steps = counts.get("damping.mode_steps", 0)
    damping_s = total.get("damping.run", 0.0)
    return {
        "eigen.solves": (calls.get("eigen.solve", 0), "count"),
        "eigen.rows": (counts.get("eigen.rows", 0), "count"),
        "eigen.solve_self_s": (self_s.get("eigen.solve", 0.0), "s"),
        "eigen.vectors": (calls.get("eigen.vector", 0), "count"),
        "eigen.vector_self_s": (self_s.get("eigen.vector", 0.0), "s"),
        "grid.assemble_self_s": (self_s.get("grid.assemble", 0.0), "s"),
        "rk.singular_calls": (calls.get("rk.singular", 0), "count"),
        "rk.singular_self_s": (self_s.get("rk.singular", 0.0), "s"),
        "rk.regular_calls": (calls.get("rk.regular", 0), "count"),
        "rk.regular_self_s": (self_s.get("rk.regular", 0.0), "s"),
        "rk.general_calls": (calls.get("rk.general", 0), "count"),
        "rk.general_self_s": (self_s.get("rk.general", 0.0), "s"),
        "atlas.roots": (roots, "count"),
        "atlas.wall_evals": (walls, "count"),
        "atlas.evals_per_root": (evals / roots if roots else 0.0, "count"),
        "atlas.root_self_s": (self_s.get("atlas.root", 0.0), "s"),
        "atlas.memo_hit_ratio": (
            1.0 - edges.get("atlas.wall>rk.singular", 0) / walls if walls else 0.0, "ratio"),
        "mf.erf_calls": (calls.get("mf.erf", 0), "count"),
        "mf.erf_self_s": (self_s.get("mf.erf", 0.0), "s"),
        "mf.setup_self_s": (self_s.get("mf.setup", 0.0), "s"),
        "bif.construct_self_s": (self_s.get("bif.construct", 0.0), "s"),
        "bif.residual_self_s": (self_s.get("bif.residual", 0.0), "s"),
        "damping.mode_steps": (mode_steps, "count"),
        "damping.mode_steps_per_s": (mode_steps / damping_s if damping_s else 0.0, "1/s"),
        "cache.writes": (counts.get("cache.writes", 0), "count"),
        "cache.hits": (counts.get("cache.hits", 0), "count"),
        "cache.misses": (counts.get("cache.misses", 0), "count"),
        "tables.bytes_out": (counts.get("tables.bytes_out", 0), "bytes"),
        "tables.serialize_self_s": (self_s.get("tables.serialize", 0.0), "s"),
    }
