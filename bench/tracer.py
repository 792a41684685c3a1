"""Spans around the package's public functions, and per-layer metrics from them.

``Tracer.install`` wraps each function in ``TRACED`` and rebinds the
wrapper under every name a ``schrobridge`` module looks it up by, so
calls between modules are recorded too. Each call becomes one span
(name, parent, start, end, info); ``info`` holds counts taken from the
arguments' shapes and the return value. Spans stay in memory until the
run ends. ``layer_metrics`` turns a run's spans into the per-layer
numbers of the benchmark.
"""
from __future__ import annotations

import functools
import os
import sys
import time


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _solve_info(args, kwargs, sol):
    return {"sweeps": sol.iterations, "converged": bool(sol.converged),
            "entries": 2 * sol.iterations * sol.mu1.support.n_points
            * sol.mu2.support.n_points}


def _bl_info(args, kwargs, result):
    return {"points": _arg(args, kwargs, 0, "mu1").support.n_points
            + _arg(args, kwargs, 1, "mu2").support.n_points}


def _drift_info(args, kwargs, result):
    x = _arg(args, kwargs, 1, "x")
    sol = _arg(args, kwargs, 2, "sol")
    paths = x.shape[0] if getattr(x, "ndim", 1) == 2 else 1
    return {"logits": paths * sol.mu2.support.n_points}


def _write_info(args, kwargs, result):
    return {"path": os.fspath(_arg(args, kwargs, 0, "path"))}


# (module, function, span name, info from (args, kwargs, result) or None).
# cli has no public layer functions besides main; its own stages are the
# config parse, the input resolution (gaussian synthesis) and the manifest.
TRACED = (
    ("cli", "_parse_config_file", "cli.config", None),
    ("cli", "_resolve_density", "cli.resolve", None),
    ("cli", "_resolve_measure", "cli.resolve", None),
    ("cli", "_resolve_kernel", "cli.resolve", None),
    ("cli", "_Run.finish", "cli.manifest", None),
    ("io", "write_json", "io.write", _write_info),
    ("io", "write_csv", "io.write", _write_info),
    ("io", "write_plan_csv", "io.write", _write_info),
    ("io", "write_terminal_csv", "io.write", _write_info),
    ("io", "write_paths_binary", "io.write", _write_info),
    ("io", "load_density_csv", "io.load", None),
    ("io", "load_measure_csv", "io.load", None),
    ("io", "load_kernel_csv", "io.load", None),
    ("solver", "solve_schrodinger", "solver.solve", _solve_info),
    ("core", "log_eval_kernel", "core.log_kernel", None),
    ("core", "bl_distance", "core.bl", _bl_info),
    ("core", "w2_distance", "core.w2", None),
    ("core", "w2_distance_1d", "core.w2", None),
    ("core", "product_support", "core.product_support", None),
    ("control", "control_value", "control", None),
    ("control", "report_from_solution", "control", None),
    ("control", "objective_from_solution", "control", None),
    ("hpath", "simulate", "hpath.simulate", None),
    ("hpath", "drift", "hpath.drift", _drift_info),
    ("hpath", "sample_density", "hpath.sample", None),
    ("hpath", "endpoint_diagnostics", "hpath.diagnostics", None),
    ("moment", "zero_noise_continuation", "moment.continuation",
     lambda a, k, res: {"levels": len(res.eps_schedule)}),
    ("moment", "solve_fixed_point", "moment.fixed_point",
     lambda a, k, trace: {"outer_steps": len(trace.iterates) - 1}),
    ("moment", "verify_moment_measure", "moment.verify", None),
    ("stability", "make_family", "stability.family", None),
    ("stability", "run_convergence", "stability.ladder", None),
    ("stability", "semiconvexity_constant", "stability.semiconvexity", None),
)


class Tracer:
    """In-memory span recorder; spans are [name, parent, start, end, info]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.active = False

    def span(self, name, fn, info=None):
        """Wrap ``fn`` so that each call while active records one span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            record = [name, self._stack[-1] if self._stack else None, 0.0, 0.0, None]
            self.spans.append(record)
            self._stack.append(sid)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                record[4] = info(args, kwargs, result)
            return result
        return wrapper

    def install(self):
        """Rebind every traced function under all names the package uses."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "schrobridge" or n.startswith("schrobridge.")]
        for module, attr, name, info in TRACED:
            owner = sys.modules[f"schrobridge.{module}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                setattr(owner, attr, self.span(name, getattr(owner, attr), info))
                continue
            original = getattr(owner, attr)
            wrapper = self.span(name, original, info)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)


# ---------------------------------------------------------------------------
# Per-layer metrics from one run's spans
# ---------------------------------------------------------------------------

REPEAT_COUNTS = ("solver.sweeps", "moment.outer_steps", "core.log_kernel_calls",
                 "core.bl_calls", "hpath.drift_calls", "io.bytes_written")


def layer_metrics(spans, root="cli.main"):
    """Per-layer times and counts; ``root`` spans are the timed CLI calls.

    A span's self time is its duration minus its direct children's
    durations (calls are nested and single-threaded, so children never
    overlap). ``trace.unattributed_s`` is the root spans' self time: time
    inside the CLI calls that no layer span covers.
    """
    child_time = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent is not None:
            child_time[parent] += t1 - t0
    ancestors = []
    for name, parent, *_ in spans:
        ancestors.append(set() if parent is None
                         else ancestors[parent] | {spans[parent][0]})

    total = {}
    self_time = {}
    calls = {}
    for i, (name, parent, t0, t1, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (t1 - t0)
        self_time[name] = self_time.get(name, 0.0) + (t1 - t0) - child_time[i]
        calls[name] = calls.get(name, 0) + 1

    def outer(name):
        """Spans of ``name`` not nested in another span of the same name."""
        return [i for i, s in enumerate(spans) if s[0] == name and name not in ancestors[i]]

    def info_sum(name, key, under=None):
        return sum(s[4][key] for i, s in enumerate(spans)
                   if s[0] == name and s[4] is not None
                   and (under is None or under in ancestors[i]))

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    writes = outer("io.write")
    write_s = sum(spans[i][3] - spans[i][2] for i in writes)
    written = {spans[i][4]["path"] for i in writes
               if spans[i][4] is not None
               and os.path.basename(spans[i][4]["path"]) != "manifest.json"}
    bytes_written = sum(os.path.getsize(p) for p in written if os.path.exists(p))
    solver_s = total.get("solver.solve", 0.0)
    solver_calls = calls.get("solver.solve", 0)
    drift_s = total.get("hpath.drift", 0.0)
    drift_calls = calls.get("hpath.drift", 0)
    outer_steps = info_sum("moment.fixed_point", "outer_steps")
    # Each ladder solves the base instance once, then every family member.
    ladder_solves = sum(1 for i, s in enumerate(spans)
                        if s[0] == "solver.solve" and "stability.ladder" in ancestors[i])

    return {
        "cli.self_s": sum(self_time.get(k, 0.0)
                          for k in ("cli.config", "cli.resolve", "cli.manifest")),
        "io.write_s": write_s,
        "io.load_s": total.get("io.load", 0.0),
        "io.bytes_written": bytes_written,
        "io.ns_per_byte": ratio(write_s, bytes_written, 1e9),
        "solver.calls": solver_calls,
        "solver.sweeps": info_sum("solver.solve", "sweeps"),
        "solver.s": solver_s,
        "solver.ns_per_entry": ratio(solver_s, info_sum("solver.solve", "entries"), 1e9),
        "solver.converged_frac": ratio(info_sum("solver.solve", "converged"),
                                       solver_calls),
        "core.log_kernel_calls": calls.get("core.log_kernel", 0),
        "core.log_kernel_s": total.get("core.log_kernel", 0.0),
        "core.bl_calls": calls.get("core.bl", 0),
        "core.bl_points": info_sum("core.bl", "points"),
        "core.bl_s": total.get("core.bl", 0.0),
        "core.w2_calls": calls.get("core.w2", 0),
        "core.w2_s": total.get("core.w2", 0.0),
        "core.product_support_s": total.get("core.product_support", 0.0),
        "control.calls": len(outer("control")),
        "control.self_s": self_time.get("control", 0.0),
        "hpath.simulate_s": total.get("hpath.simulate", 0.0),
        "hpath.drift_calls": drift_calls,
        "hpath.drift_s_per_step": ratio(drift_s, drift_calls),
        "hpath.ns_per_logit": ratio(drift_s, info_sum("hpath.drift", "logits"), 1e9),
        "hpath.sample_s": total.get("hpath.sample", 0.0),
        "hpath.diagnostics_s": total.get("hpath.diagnostics", 0.0),
        "moment.levels": info_sum("moment.continuation", "levels"),
        "moment.outer_steps": outer_steps,
        "moment.inner_sweeps": info_sum("solver.solve", "sweeps",
                                        under="moment.fixed_point"),
        "moment.s_per_outer_step": ratio(total.get("moment.fixed_point", 0.0),
                                         outer_steps),
        "moment.verify_s": total.get("moment.verify", 0.0),
        "stability.family_s": total.get("stability.family", 0.0),
        "stability.ladder_self_s": self_time.get("stability.ladder", 0.0),
        "stability.member_solves": max(0, ladder_solves - len(outer("stability.ladder"))),
        "stability.semiconvexity_s": total.get("stability.semiconvexity", 0.0),
        "trace.unattributed_s": self_time.get(root, 0.0),
    }

