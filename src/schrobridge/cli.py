"""Command-line front end: reproducible runs over CSV inputs.

Subcommands: solve, control, bridge, moment, stability. Parameters come
from a flat key=value config file; command-line flags override config
values. Every run writes its artifacts plus a manifest (input hashes,
parameters, tool version, wall time) into the output directory. Exit
codes: 0 success, 1 validation error, 2 non-convergence.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .control import control_value
from .core import (
    Density,
    GaussianHeatKernel,
    NonConvergenceError,
    make_grid,
)
from .hpath import check_path_counts, endpoint_diagnostics, simulate
from .io import (
    load_density_csv,
    load_kernel_csv,
    load_measure_csv,
    solution_payload,
    write_csv,
    write_json,
    write_manifest,
    write_paths_binary,
    write_plan_csv,
    write_terminal_csv,
)
from .moment import zero_noise_continuation
from .solver import solve_schrodinger
from .stability import make_family, run_convergence, semiconvexity_constant


def _parse_config_file(path):
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _find_input(run, spec):
    """Path of input spec, or of spec in the config's directory; recorded in run.inputs."""
    for path in (spec, os.path.join(run.config_dir or "", spec)):
        if os.path.exists(path):
            run.inputs.append(path)
            return path
    raise ValueError(f"input file not found: {spec}")


def _resolve_density(run, key):
    """The density config ``key`` names: a CSV path or gaussian:mean,var on --grid."""
    spec = run.get(key)
    if not spec.startswith("gaussian:"):
        return load_density_csv(_find_input(run, spec))
    if run.grid is None:
        raise ValueError("builtin gaussian density needs --grid d,r,n")
    parts = run.get(key, lambda v: _floats(v[len("gaussian:"):]))
    var = parts[-1]
    if not 0 < var < math.inf:
        raise ValueError(f"gaussian variance must be finite and > 0, got {var:g}")
    mean = parts[:-1] or [0.0] * run.grid.dim
    if len(mean) != run.grid.dim:
        raise ValueError("gaussian mean dimension does not match the grid")
    vals = np.exp(-np.sum((run.grid.points - mean) ** 2, axis=1) / (2.0 * var))
    return Density(run.grid, vals / (vals @ run.grid.cell_volumes), is_probability=True)


def _resolve_measure(run, key):
    if run.get(key).startswith("gaussian:"):
        return _resolve_density(run, key).to_measure()
    return load_measure_csv(_find_input(run, run.get(key)))


def _resolve_kernel(run, key, source, target, eps, default=None):
    """The kernel config ``key`` names: a CSV path or gaussian:t (heat time t, default 1)."""
    if not run.get(key, str, default).startswith("gaussian:"):
        return load_kernel_csv(_find_input(run, run.get(key)), source, target)
    t = run.get(key, lambda v: float(v[len("gaussian:"):] or 1.0), 1.0)
    return GaussianHeatKernel(source=source, target=target, t=t, eps=eps)


def _floats(text):
    return [float(v) for v in text.split(",")]


def _bool(text):
    if text.lower() not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text.lower() == "true"


def _grid(text):
    d, r, n = text.split(",")
    return make_grid(int(d), float(r), int(n))


class _Run:
    """Collects parameters, inputs, and artifacts for one command."""

    def __init__(self, args):
        self.cfg = {}
        if args.config:
            if not os.path.exists(args.config):
                raise ValueError(f"config file not found: {args.config}")
            self.cfg.update(_parse_config_file(args.config))
        for key in ("out", "seed", "eps", "tol", "grid"):
            val = getattr(args, key, None)
            if val is not None:
                self.cfg[key] = str(val)
        if getattr(args, "full_paths", False):
            self.cfg["full_paths"] = "true"
        unread = sorted(set(self.cfg) - {"out", "grid", *_KEYS[args.command]})
        if unread:
            raise ValueError(f"{args.command} does not read: {', '.join(unread)}")
        self.out_dir = self.cfg.get("out", ".")
        os.makedirs(self.out_dir, exist_ok=True)
        self.inputs = []
        self.config_dir = None
        if args.config:
            self.inputs.append(args.config)
            self.config_dir = os.path.dirname(os.path.abspath(args.config))
        self.grid = self.get("grid", _grid) if "grid" in self.cfg else None

    def get(self, key, cast=str, default=None):
        """``cast`` of the config value, else ``default``; required when that is None."""
        if key in self.cfg:
            try:
                return cast(self.cfg[key])
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
        if default is None:
            raise ValueError(f"missing required parameter: {key}")
        return default

    def given(self, **casts):
        """Keyword arguments for the keys the config sets; the library defaults the rest."""
        return {key: self.get(key, cast) for key, cast in casts.items() if key in self.cfg}

    def seed(self):
        if "seed" not in self.cfg:
            raise ValueError("a seed is mandatory for stochastic commands")
        return self.get("seed", int)

    def path(self, name):
        return os.path.join(self.out_dir, name)

    def finish(self, command, start):
        params = {k: self.cfg[k] for k in sorted(self.cfg)}
        write_manifest(self.path("manifest.json"), command, __version__,
                       self.inputs, params, time.time() - start)


def _cmd_solve(run: _Run):
    mu1 = _resolve_measure(run, "mu1")
    mu2 = _resolve_measure(run, "mu2")
    eps = run.get("eps", float, 1.0)
    kernel = _resolve_kernel(run, "kernel", mu1.support, mu2.support, eps)
    sol = solve_schrodinger(kernel, mu1, mu2, **run.given(tol=float, max_iters=int))
    write_json(run.path("solution.json"), solution_payload(sol))
    write_plan_csv(run.path("plan.csv"), sol)
    if not sol.converged:
        raise NonConvergenceError("solver did not reach tolerance")
    return 0


def _cmd_control(run: _Run):
    p0 = _resolve_density(run, "p0")
    p1 = _resolve_density(run, "p1")
    eps_list = run.get("eps", _floats)
    if not all(0 < eps < math.inf for eps in eps_list):
        raise ValueError("every eps in the list must be finite and > 0")
    opts = run.given(tol=float, max_iters=int)
    rows = []  # report numbers, not solves: memory does not grow with the levels
    for eps in eps_list:
        rep = control_value(p0, p1, eps, **opts)
        if not rep.converged:
            raise NonConvergenceError(f"control solve stalled at eps={eps:g}")
        rows.append(dict(eps=eps, **rep.as_dict()))
    write_json(run.path("control.json"), {"reports": rows})
    columns = ["eps", "value", "max_pairwise_gap"]
    write_csv(run.path("control_sweep.csv"), columns, [[[row[c] for row in rows] for c in columns]])
    return 0


def _cmd_bridge(run: _Run):
    p0 = _resolve_density(run, "p0")
    p1 = _resolve_density(run, "p1")
    eps = run.get("eps", float)
    seed = run.seed()
    n_paths = run.get("n_paths", int, 10000)
    n_steps = run.get("n_steps", int, 200)
    keep = run.get("full_paths", _bool, False)
    bins = run.get("bins", int, 50)
    if not bins >= 1:
        raise ValueError("need bins >= 1")
    check_path_counts(n_paths, n_steps)
    rep = control_value(p0, p1, eps, **run.given(tol=float))
    if not rep.converged:
        raise NonConvergenceError("endpoint system did not converge")
    ens = simulate(rep.solution, n_paths, n_steps, seed, keep_full_paths=keep)
    diag = endpoint_diagnostics(ens, rep.solution, bins=bins)
    write_terminal_csv(run.path("terminal.csv"), ens)
    if keep:
        write_paths_binary(run.path("paths.bin"), ens)
    write_json(run.path("bridge_diagnostics.json"),
               {**dataclasses.asdict(diag), "seed": seed})
    return 0


def _write_moment_diagnostics(run: _Run, rows):
    cols = ["eps", "residual", "objective", "bl_drift", "convexity_defect",
            "pushforward_error", "w2_check", "outer_steps", "inner_sweeps"]
    write_csv(run.path("moment_diagnostics.csv"), cols, [[[r[c] for r in rows] for c in cols]])


def _cmd_moment(run: _Run):
    p1 = _resolve_density(run, "p1")
    opts = run.given(tol=float, max_outer=int)
    if "schedule" in run.cfg:
        opts["eps_schedule"] = run.get("schedule", _floats)
    try:
        result = zero_noise_continuation(p1, run.get("r", float), **opts)
    except NonConvergenceError as exc:
        _write_moment_diagnostics(run, exc.partial["diagnostics"])
        raise
    last = result.diagnostics[-1]
    write_json(run.path("moment.json"), {
        "p0": result.p0.values,
        "u_bar": result.u_bar,
        "eps_schedule": result.eps_schedule,
        "pushforward_error": last["pushforward_error"],
        "convexity_defect": last["convexity_defect"],
        "w2_check": last["w2_check"],
        "recenter_shift": result.recenter_shift,
    })
    _write_moment_diagnostics(run, result.diagnostics)
    return 0


def _cmd_stability(run: _Run):
    mu1 = _resolve_measure(run, "mu1")
    mu2 = _resolve_measure(run, "mu2")
    eps = run.get("eps", float, 1.0)
    kernel = _resolve_kernel(run, "kernel", mu1.support, mu2.support, eps, "gaussian:1")
    kind = run.get("family")
    params = run.given(amplitude=float, bandwidth=float,
                       index_set=lambda v: [int(n) for n in v.split(",")])
    params["seed"] = run.seed() if kind == "marginal_empirical" else run.get("seed", int, 0)
    family = make_family(kernel, mu1, mu2, kind, **params)
    n_probe = run.get("n_probes", int, 3)
    rng = np.random.Generator(np.random.Philox(key=params["seed"]))
    probes = [(int(rng.integers(mu1.support.n_points)),
               int(rng.integers(mu2.support.n_points))) for _ in range(n_probe)]
    m = run.get("m", int, int(math.ceil(max(mu1.support.bounding_radius,
                                            mu2.support.bounding_radius))))
    report = run_convergence((kernel, mu1, mu2), family, probes, m,
                             **run.given(tol=float, r_prime=float))
    columns = ["n", "plan_bl", "product_gap", "potential_gap", "supnorm_gap"]
    write_csv(run.path("stability.csv"), columns,
              [[[getattr(row, c) for row in report.rows] for c in columns]])
    summary = report.summary()
    summary["semiconvexity_constant"] = semiconvexity_constant(kernel)
    write_json(run.path("stability_summary.json"), summary)
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "control": _cmd_control,
    "bridge": _cmd_bridge,
    "moment": _cmd_moment,
    "stability": _cmd_stability,
}
# The config keys and flags each command reads besides the common out and grid.
_KEYS = {
    "solve": ("mu1", "mu2", "kernel", "eps", "tol", "max_iters"),
    "control": ("p0", "p1", "eps", "tol", "max_iters"),
    "bridge": ("p0", "p1", "eps", "seed", "n_paths", "n_steps", "full_paths", "bins", "tol"),
    "moment": ("p1", "r", "schedule", "tol", "max_outer"),
    "stability": ("mu1", "mu2", "kernel", "eps", "family", "amplitude", "bandwidth",
                  "index_set", "seed", "n_probes", "m", "tol", "r_prime"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="schrobridge",
        description="Schrodinger systems, bridges, and moment measures on grids")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="flat key = value parameter file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, help="RNG seed (mandatory when stochastic)")
    parser.add_argument("--eps", type=float, help="diffusivity")
    parser.add_argument("--tol", type=float, help="solver tolerance")
    parser.add_argument("--grid", help="builtin lattice spec d,r,n")
    parser.add_argument("--full-paths", action="store_true", dest="full_paths",
                        help="also write full trajectories as a binary block")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.time()
    try:
        run = _Run(args)
        status = _COMMANDS[args.command](run)
        run.finish(args.command, start)
        return status
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        try:
            run.finish(args.command, start)
        except Exception:
            pass
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
