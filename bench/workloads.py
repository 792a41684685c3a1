"""Seeded inputs, CLI commands and output checks for the benchmark workloads.

A workload runs the commands of its parts in one process, one part after
the other. Each part turns a seed into input files and a list of CLI
commands (``prepare``), and afterwards its artifacts are checked (``check``).
Instance parameters are drawn from narrow ranges around the acceptance
shapes, inside which every output check holds and the work (sweep counts)
varies by a few percent at most, so that seeds differ in their inputs but
not in how long they take.
"""
from __future__ import annotations

import json
import os
import random

import numpy as np

# Two workloads of two parts each rather than four of one: on a shared
# 2-vCPU host the speed drifts over tens of seconds, so the benchmark's time
# budget goes into fewer, longer runs. solve and stability stay apart, so
# that stability's peak memory does not hide a memory change in io.
WORKLOADS = {
    "bridge_solve": ("bridge", "solve"),
    "moment_stability": ("moment", "stability"),
}


def _grid(radius, n):
    """Points of make_grid(1, radius, n): cell midpoints of [-radius, radius]."""
    h = 2.0 * radius / n
    return -radius + h * (np.arange(n) + 0.5), h


def _write_measure_csv(path, x, weights, h):
    w = weights / weights.sum()
    with open(path, "w") as fh:
        fh.write("x_1,weight,cell_volume\n")
        for xi, wi in zip(x.tolist(), w.tolist()):
            fh.write(f"{xi:.17g},{wi:.17g},{h:.17g}\n")


def _write_config(path, params):
    with open(path, "w") as fh:
        for key, value in params.items():
            fh.write(f"{key} = {value}\n")


def _rng(name, seed):
    return random.Random(f"{name}:{seed}")


def _seed_arg(rng):
    return str(rng.randrange(1, 2**31))


def prepare(part, seed, work):
    """Write the seeded inputs of one part under ``work``; return [(label, argv)]."""
    rng = _rng(part, seed)
    if part == "bridge":
        cfg = os.path.join(work, "bridge.cfg")
        _write_config(cfg, {
            "p0": f"gaussian:{rng.uniform(-0.2, 0.2):.6f},0.36",
            "p1": f"gaussian:{rng.uniform(-0.2, 0.2):.6f},1.0",
            "eps": 0.5, "n_paths": 4000, "n_steps": 200, "bins": 50})
        return [("bridge", ["bridge", "--config", cfg, "--grid", "1,5,201",
                            "--seed", _seed_arg(rng),
                            "--out", os.path.join(work, "bridge")])]
    if part == "moment":
        # A centred target: off-centre ones (mean 0.05) need about 9x the
        # outer steps at eps = 1 and exceed the default max_outer of 200.
        cfg = os.path.join(work, "moment.cfg")
        _write_config(cfg, {
            "p1": f"gaussian:0,{rng.uniform(0.98, 1.02):.6f}", "r": 4.0,
            "schedule": ",".join(f"{2.0 ** -k:g}" for k in range(6))})
        return [("moment", ["moment", "--config", cfg, "--grid", "1,4,101",
                            "--out", os.path.join(work, "moment")])]
    if part == "solve":
        x, h = _grid(4.0, 500)
        c1, c2, c3 = (c + rng.uniform(-0.02, 0.02) for c in (0.5, -0.7, 1.5))
        _write_measure_csv(os.path.join(work, "mu1.csv"), x,
                           np.exp(-(x - c1) ** 2 / 0.6), h)
        _write_measure_csv(os.path.join(work, "mu2.csv"), x,
                           np.exp(-(x - c2) ** 2 / 0.4)
                           + 0.05 * np.exp(-(x - c3) ** 2 / 0.1), h)
        solve_cfg = os.path.join(work, "solve.cfg")
        _write_config(solve_cfg, {"mu1": "mu1.csv", "mu2": "mu2.csv",
                                  "kernel": "gaussian:1", "eps": 0.02,
                                  "tol": 1e-10})
        control_cfg = os.path.join(work, "control.cfg")
        _write_config(control_cfg, {
            "p0": f"gaussian:{rng.uniform(-0.05, 0.05):.6f},{rng.uniform(0.28, 0.32):.6f}",
            "p1": f"gaussian:{rng.uniform(-0.05, 0.05):.6f},{rng.uniform(0.57, 0.63):.6f}",
            "eps": "1,0.5,0.25,0.125,0.0625"})
        return [("solve", ["solve", "--config", solve_cfg,
                           "--out", os.path.join(work, "solve")]),
                ("control", ["control", "--config", control_cfg, "--grid", "1,5,201",
                             "--out", os.path.join(work, "control")])]
    if part == "stability":
        x, h = _grid(2.0, 111)
        a = 0.3 + rng.uniform(-0.03, 0.03)
        b = 0.4 + rng.uniform(-0.03, 0.03)
        _write_measure_csv(os.path.join(work, "mu1.csv"), x,
                           np.exp(-(x - a) ** 2 / 0.5) + 0.2, h)
        _write_measure_csv(os.path.join(work, "mu2.csv"), x,
                           np.exp(-(x + b) ** 2 / 0.3) + 0.1, h)
        cfg = os.path.join(work, "stability.cfg")
        _write_config(cfg, {"mu1": "mu1.csv", "mu2": "mu2.csv",
                            "kernel": "gaussian:1", "eps": 0.8,
                            "family": "kernel_perturbation",
                            "index_set": "4,8,16,32,64", "r_prime": 1.8})
        return [("stability", ["stability", "--config", cfg, "--seed", _seed_arg(rng),
                               "--out", os.path.join(work, "stability")])]
    raise ValueError(f"unknown part {part!r}")


# ---------------------------------------------------------------------------
# Output checks: each returns the names of the checks that failed
# ---------------------------------------------------------------------------

def _json(path):
    with open(path) as fh:
        return json.load(fh)


def _config(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _gaussian_spec(spec):
    mean, var = (float(v) for v in spec[len("gaussian:"):].split(","))
    return mean, var


def _input_weights(path):
    with open(path) as fh:
        next(fh)
        w = np.array([float(line.split(",")[1]) for line in fh])
    return w / w.sum()


def _check_solve(work, failures):
    sol = _json(os.path.join(work, "solve", "solution.json"))
    tol = float(_config(os.path.join(work, "solve.cfg"))["tol"])
    if sol["converged"] is not True:
        failures.append("solve.converged")
    for side in (1, 2):
        mu = _input_weights(os.path.join(work, f"mu{side}.csv"))
        marginal = np.asarray(sol[f"nu{side}"]) * np.exp(np.asarray(sol[f"u{side}"]))
        if not 0.5 * np.abs(marginal - mu).sum() <= tol:
            failures.append(f"solve.marginal_tv_{side}")


def _check_control(work, failures):
    reports = _json(os.path.join(work, "control", "control.json"))["reports"]
    if len(reports) != 5:
        failures.append("control.reports")
    for rep in reports:
        if not rep["max_pairwise_gap"] / (1.0 + abs(rep["potential_form"])) <= 1e-6:
            failures.append(f"control.three_form_gap_eps{rep['eps']:g}")


def _check_bridge(work, failures):
    from schrobridge import control_value, make_grid, sample_density, w2_distance_1d
    from schrobridge.core import Density, DiscreteMeasure, Support
    from schrobridge.hpath import binned_plan

    diag = _json(os.path.join(work, "bridge", "bridge_diagnostics.json"))
    cfg = _config(os.path.join(work, "bridge.cfg"))
    n = int(cfg["n_paths"])
    grid = make_grid(1, 5.0, 201)
    x = grid.points[:, 0]

    def density(spec):
        mean, var = _gaussian_spec(spec)
        v = np.exp(-(x - mean) ** 2 / (2.0 * var))
        return Density(grid, v / (v @ grid.cell_volumes), is_probability=True)

    p0, p1 = density(cfg["p0"]), density(cfg["p1"])
    target = p1.to_measure().normalized()
    seed = diag["seed"]

    # Terminal law: W2 to the target within 3x the floor of direct sampling
    # at the same path count (acceptance 05).
    floors = []
    for offset in (1, 2, 3):
        rng = np.random.Generator(np.random.Philox(key=seed + offset))
        pts, counts = np.unique(sample_density(p1, n, rng), axis=0, return_counts=True)
        emp = DiscreteMeasure(Support(points=pts, cell_volumes=np.ones(len(pts)),
                                      bounding_radius=float(np.abs(pts).max())),
                              counts / counts.sum(), is_probability=True)
        floors.append(w2_distance_1d(emp, target))
    if not diag["w2_full_1d"] <= 3.0 * float(np.mean(floors)):
        failures.append("bridge.w2_full_1d")

    # Joint law: binned TV to the plan within 1.3x the TV of exact
    # multinomial draws of the same count from the binned plan. At 4000
    # paths that sampling floor is about 0.10, so a fixed 0.05 cannot hold.
    sol = control_value(p0, p1, float(cfg["eps"])).solution
    plan = binned_plan(sol, 5.0, int(cfg["bins"]))
    plan = plan / plan.sum()
    rng = np.random.Generator(np.random.Philox(key=seed + 4))
    tv_floor = float(np.mean([0.5 * np.abs(rng.multinomial(n, plan) / n - plan).sum()
                              for _ in range(3)]))
    if not diag["tv_joint"] <= 1.3 * tv_floor:
        failures.append("bridge.tv_joint")


def _check_moment(work, failures):
    res = _json(os.path.join(work, "moment", "moment.json"))
    _, var = _gaussian_spec(_config(os.path.join(work, "moment.cfg"))["p1"])
    x, _ = _grid(4.0, 101)
    x = x - res["recenter_shift"][0]
    x = x[np.abs(x) <= 4.0 * (1 + 1e-12)]
    u_bar = np.asarray(res["u_bar"])
    if len(u_bar) != len(x):
        failures.append("moment.support")
        return
    # Acceptance 08 bounds. The moment measure of N(0, var) is exp(-u) dx
    # with u = var |x|^2 / 2: then grad u = var x is N(0, var).
    diff = (u_bar - 0.5 * var * x**2)[np.abs(x) <= 2.0]
    if not 0.5 * (diff.max() - diff.min()) <= 0.05:
        failures.append("moment.sup_gap")
    if not res["pushforward_error"] <= 0.02:
        failures.append("moment.pushforward_error")
    if not res["convexity_defect"] <= 1e-6:
        failures.append("moment.convexity_defect")


def _check_stability(work, failures):
    summary = _json(os.path.join(work, "stability", "stability_summary.json"))
    # Acceptance 06: each ladder decays by at least 4x from n = 4 to n = 64.
    for metric in ("plan_bl", "product_gap", "potential_gap", "supnorm_gap"):
        if not summary[metric]["ratio"] <= 0.25:
            failures.append(f"stability.{metric}_ratio")
        if summary[metric]["decreasing"] is not True:
            failures.append(f"stability.{metric}_decreasing")


CHECKS = {
    "bridge": _check_bridge,
    "moment": _check_moment,
    "solve": _check_solve,
    "control": _check_control,
    "stability": _check_stability,
}


def check(label, work):
    """Names of the output checks of one command that failed."""
    failures = []
    try:
        CHECKS[label](work, failures)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        failures.append(f"{label}.artifacts ({type(exc).__name__}: {exc})")
    return failures
