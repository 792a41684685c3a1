"""Exact sampling of the h-path diffusion bridge.

The process minimizing the entropic control energy between P0 and P1 is a
Brownian motion of variance eps * t per unit time, the bandwidth of the
Schrodinger solve's heat kernel, drifted by the gradient of the log heat
potential against the solve's terminal factor nu2. As a law on paths it is
the mixture of Brownian bridges over the plan, so endpoints are drawn from
the plan's conditional laws with no time stepping. Endpoint marginals and
the joint endpoint law are verified against the identically binned plan.
A function given the solve reads the laws and the kernel from it alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    W2_CLOUD_CAP,
    Density,
    DiscreteMeasure,
    Support,
    bl_distance,
    empirical_measure,
    relative_entropy,
    tv_distance,
    w2_distance,
    w2_distance_1d,
)
from .solver import SchroedingerSolution, _bandwidth, plan_matrix

_DRIFT_CHUNK = 2**16  # max entries of a (paths x atoms) logit block: a fixed working set
N_BOOTSTRAP = 20  # resamples behind the endpoint diagnostics' standard errors


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated bridge paths on a uniform time grid in [0, 1]."""

    times: np.ndarray
    initial: np.ndarray
    terminal: np.ndarray
    seed: int
    paths: np.ndarray | None = None

    @property
    def n_paths(self):
        return self.initial.shape[0]

    @property
    def dim(self):
        return self.initial.shape[1]


def _softmax_blocks(x, sol: SchroedingerSolution, bw):
    """Yield (rows, y - x, weights) over row blocks of at most _DRIFT_CHUNK entries.

    The (paths x atoms) weights are softmax_j(-|y_j - x|^2 / (2 bw) + log nu2_j):
    the h-path law of the target atom seen from x with bandwidth bw left.
    """
    y = sol.mu2.support.points
    block = max(1, _DRIFT_CHUNK // max(1, y.shape[0]))
    for start in range(0, x.shape[0], block):
        rows = slice(start, start + block)
        diff = y[None, :, :] - x[rows, None, :]
        w = np.einsum("pjd,pjd->pj", diff, diff)
        w *= -1.0 / (2.0 * bw)
        w += sol.log_nu2[None, :]
        w -= w.max(axis=1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=1, keepdims=True)
        yield rows, diff, w


def drift(t, x, sol: SchroedingerSolution):
    """Bridge drift bw * grad_x log sum_j g_bw(1-t, y_j - x) nu2_j, bw = eps * t of sol.kernel.

    Closed form: softmax-weighted mean of (y_j - x) / (1 - t), the weights
    being proportional to g_bw(1-t, y_j - x) nu2_j. Evaluated fully in the
    log domain, so far-field states fall back smoothly to the nearest-atom
    asymptote (y* - x) / (1 - t). Raises TypeError unless sol's kernel is a
    heat kernel.
    """
    if t >= 1.0:
        raise ValueError("drift is undefined at t >= 1")
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xs = np.atleast_2d(x)
    out = np.empty_like(xs)
    for rows, diff, w in _softmax_blocks(xs, sol, _bandwidth(sol) * (1.0 - t)):
        out[rows] = np.einsum("pj,pjd->pd", w, diff) / (1.0 - t)
    return out[0] if single else out


def _in_cells(support: Support, idx, rng):
    """Points drawn uniformly inside the cubic cells of support points idx."""
    h = support.cell_volumes[idx] ** (1.0 / support.dim)
    return support.points[idx] + (rng.random((len(idx), support.dim)) - 0.5) * h[:, None]


def sample_density(p: Density, n, rng) -> np.ndarray:
    """Draw n points from a piecewise-constant grid density.

    In every dimension: a cell by its mass, then a uniform point inside
    that cubic cell (the law of the step density). Reproducible given the
    generator state.
    """
    w = p.values * p.support.cell_volumes
    return _in_cells(p.support, rng.choice(p.support.n_points, size=n, p=w / w.sum()), rng)


def check_path_counts(n_paths, n_steps):
    """Reject what ``simulate`` cannot draw: no path, or fewer than two steps."""
    if n_steps < 2 or n_paths < 1:
        raise ValueError("need n_steps >= 2 and n_paths >= 1")


def simulate(sol: SchroedingerSolution, n_paths, n_steps, seed,
             keep_full_paths=False) -> PathEnsemble:
    """Exact bridge sampling as the plan mixture of Brownian bridges (Leonard 2014).

    With bw = eps * t of sol's heat kernel (TypeError for other kernels): X0 from
    sol.mu1 read as a step density; the atom given X0 = x by inverting
    softmax_j(-|y_j - x|^2 / (2 bw) + log nu2_j) at one uniform; X1 uniform in
    that atom's cell (the step-density reading of ``binned_plan``). Full paths
    are Brownian bridges of variance bw per unit time from X0 to X1, drawn
    after X1 so the terminal points do not depend on keep_full_paths.
    Identical inputs and seed give a bit-identical ensemble.
    """
    check_path_counts(n_paths, n_steps)
    if seed is None:
        raise ValueError("a seed is mandatory for simulation")
    bw = _bandwidth(sol)
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    times = np.linspace(0.0, 1.0, n_steps + 1)
    initial = sample_density(Density.from_measure(sol.mu1), n_paths, rng)
    u = rng.random(n_paths)
    atom = np.empty(n_paths, dtype=np.int64)
    for rows, _, w in _softmax_blocks(initial, sol, bw):
        np.cumsum(w, axis=1, out=w)
        atom[rows] = (w <= u[rows, None] * w[:, -1:]).sum(axis=1)
    terminal = _in_cells(sol.mu2.support, atom, rng)
    paths = None
    if keep_full_paths:
        paths = np.empty((n_paths, n_steps + 1, initial.shape[1]))
        paths[:, 0, :] = x = initial
        for k in range(1, n_steps):
            s, t = times[k - 1], times[k]
            scale = math.sqrt(bw * (t - s) * (1.0 - t) / (1.0 - s))
            x = x + (t - s) / (1.0 - s) * (terminal - x) + scale * rng.standard_normal(x.shape)
            paths[:, k, :] = x
        paths[:, -1, :] = terminal
    return PathEnsemble(times=times, initial=initial, terminal=terminal, seed=int(seed),
                        paths=paths)


def _bin_edges(radius, bins):
    """Bin edges per axis: linspace over [-radius, radius], the outer two at -inf and +inf."""
    edges = np.linspace(-radius, radius, bins + 1)
    edges[[0, -1]] = -np.inf, np.inf
    return edges


def _bin_ids(coords, radius, bins):
    """Flat bin of each row of coords on the ``_bin_edges`` lattice."""
    edges = _bin_edges(radius, bins)
    ids = np.zeros(len(coords), dtype=np.int64)
    for c in coords.T:
        ids = ids * bins + np.searchsorted(edges, c, side="right") - 1
    return ids


def _overlap_matrix(support: Support, radius, bins):
    """Dense (n, bins^d) share of each cubic quadrature cell in each ``_bin_edges`` bin.

    Grid masses represent cells, not atoms; assigning a whole cell to the
    bin of its center biases comparisons against continuous samples.
    """
    n, d = support.points.shape
    half = 0.5 * support.cell_volumes ** (1.0 / d)
    edges = _bin_edges(radius, bins)
    frac = np.ones((n, 1))
    for c in support.points.T:
        lo, hi = (c - half)[:, None], (c + half)[:, None]
        share = np.diff(np.clip(edges, lo, hi), axis=1) / (hi - lo)
        frac = (frac[:, :, None] * share[:, None, :]).reshape(n, -1)
    return frac


def binned_plan(sol: SchroedingerSolution, radius, bins):
    """The solver's plan aggregated onto the endpoint binning by cell overlap."""
    # one dense share matrix alive at a time, and the result normalized in place
    flat = _overlap_matrix(sol.mu1.support, radius, bins).T @ plan_matrix(sol)
    flat = (flat @ _overlap_matrix(sol.mu2.support, radius, bins)).ravel()
    flat /= flat.sum()
    return flat


@dataclass(frozen=True)
class EndpointReport:
    """Terminal-law and joint-law agreement diagnostics with error bars."""

    bl_terminal: float
    w2_subsample: float
    w2_full_1d: float | None
    tv_joint: float
    kl_joint: float
    tv_joint_err: float
    w2_err: float
    n_paths: int
    bins: int


def endpoint_diagnostics(ens: PathEnsemble, sol: SchroedingerSolution,
                         bins=50) -> EndpointReport:
    """Compare simulated endpoints with the target law sol.mu2 and the plan.

    Terminal law: bounded-Lipschitz distance on the full empirical measure,
    exact transport distance between k = min(n_paths, ``W2_CLOUD_CAP``)
    seeded draws of paths (without replacement) and of target atoms (with
    replacement, by weight), and the full quantile distance in one
    dimension. Joint law: endpoints binned to a ``bins``-per-axis lattice
    against the identically binned plan, in total variation and relative
    entropy. Bootstrap standard errors are seeded from the ensemble seed.
    """
    if not bins >= 1:
        raise ValueError("need bins >= 1")
    rng = np.random.Generator(np.random.Philox(key=ens.seed + 0x9E3779B9))
    target = sol.mu2
    emp = empirical_measure(ens.terminal)
    bl_term = bl_distance(emp, target)

    k = min(ens.n_paths, W2_CLOUD_CAP)
    paths = rng.choice(ens.n_paths, size=k, replace=False)
    atoms = rng.choice(target.support.n_points, size=k, p=target.weights)
    w2_sub = w2_distance(ens.terminal[paths], target.support.points[atoms])

    w2_full = None
    if ens.dim == 1:
        w2_full = w2_distance_1d(emp, target)
        atom = np.searchsorted(emp.support.points[:, 0], ens.terminal[:, 0])

    radius = max(sol.mu1.support.bounding_radius, sol.mu2.support.bounding_radius)
    plan_bins = binned_plan(sol, radius, bins)
    n = ens.n_paths
    ids = _bin_ids(np.hstack([ens.initial, ens.terminal]), radius, bins)
    joint = np.bincount(ids, minlength=len(plan_bins)) / n
    tv = tv_distance(joint, plan_bins)
    kl = relative_entropy(joint, plan_bins)

    # a resample is a count vector over the bin ids and, in 1-D, emp's atoms
    tv_samples = []
    w2_samples = []
    for _ in range(N_BOOTSTRAP):
        take = rng.choice(n, size=n, replace=True)
        tv_samples.append(tv_distance(np.bincount(ids[take], minlength=len(plan_bins)) / n,
                                      plan_bins))
        if ens.dim == 1:
            mass = np.bincount(atom[take], minlength=emp.support.n_points) / n
            w2_samples.append(w2_distance_1d(DiscreteMeasure(emp.support, mass), target))
    tv_err = float(np.std(tv_samples)) if tv_samples else math.nan
    w2_err = float(np.std(w2_samples)) if w2_samples else math.nan

    return EndpointReport(
        bl_terminal=bl_term, w2_subsample=w2_sub, w2_full_1d=w2_full,
        tv_joint=tv, kl_joint=kl, tv_joint_err=tv_err, w2_err=w2_err,
        n_paths=ens.n_paths, bins=bins)

