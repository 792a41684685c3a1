"""Exact sampling of the h-path diffusion bridge.

The process minimizing the entropic control energy between P0 and P1 is a
drifted Brownian motion whose drift is the gradient of the log heat
potential against the fixed terminal factor nu2 of the time-1 Schrodinger
solve. As a law on paths it is the mixture of Brownian bridges over the
solver's plan, so endpoints are drawn from the plan's conditional laws with
no time stepping. Endpoint marginals and the joint endpoint law are
verified against the solver's plan.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    W2_ORACLE_CAP,
    Density,
    DiscreteMeasure,
    Support,
    bl_distance,
    empirical_measure,
    relative_entropy,
    subsample_to_cap,
    tv_distance,
    w2_distance,
    w2_distance_1d,
)
from .solver import SchroedingerSolution, plan_matrix

_DRIFT_CHUNK = 4_000_000  # max entries of the (paths x atoms) logit block


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated bridge paths on a uniform time grid in [0, 1]."""

    times: np.ndarray
    initial: np.ndarray
    terminal: np.ndarray
    seed: int
    eps: float
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


def drift(t, x, sol: SchroedingerSolution, eps):
    """Bridge drift eps * grad_x log sum_j g_eps(1-t, y_j - x) nu2_j.

    Closed form: softmax-weighted mean of (y_j - x) / (1 - t), the weights
    being proportional to g_eps(1-t, y_j - x) nu2_j. Evaluated fully in
    the log domain, so far-field states fall back smoothly to the
    nearest-atom asymptote (y* - x) / (1 - t).
    """
    if t >= 1.0:
        raise ValueError("drift is undefined at t >= 1")
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xs = np.atleast_2d(x)
    out = np.empty_like(xs)
    for rows, diff, w in _softmax_blocks(xs, sol, eps * (1.0 - t)):
        out[rows] = np.einsum("pj,pjd->pd", w, diff) / (1.0 - t)
    return out[0] if single else out


def _in_cells(support: Support, idx, rng):
    """Points drawn uniformly inside the cubic cells of support points idx."""
    h = support.cell_volumes[idx] ** (1.0 / support.dim)
    return support.points[idx] + (rng.random((len(idx), support.dim)) - 0.5) * h[:, None]


def sample_density(p: Density, n, rng) -> np.ndarray:
    """Draw n points from a piecewise-constant grid density.

    One dimension uses the exact inverse CDF of the step density; higher
    dimensions pick cells by weight and jitter uniformly inside the cubic
    cell. Reproducible given the generator state.
    """
    w = p.values * p.support.cell_volumes
    w = w / w.sum()
    d = p.support.dim
    if d == 1:
        x = p.support.points[:, 0]
        order = np.argsort(x, kind="stable")
        x = x[order]
        wo = w[order]
        widths = p.support.cell_volumes[order]
        cum = np.cumsum(wo)
        cum[-1] = 1.0
        u = rng.random(n)
        idx = np.searchsorted(cum, u, side="right")
        idx = np.minimum(idx, len(x) - 1)
        left = cum[idx] - wo[idx]
        with np.errstate(invalid="ignore", divide="ignore"):
            frac = np.where(wo[idx] > 0, (u - left) / wo[idx], 0.5)
        return (x[idx] - 0.5 * widths[idx] + frac * widths[idx])[:, None]
    return _in_cells(p.support, rng.choice(p.support.n_points, size=n, p=w), rng)


def simulate(p0: Density, sol: SchroedingerSolution, eps, n_paths, n_steps,
             seed, keep_full_paths=False) -> PathEnsemble:
    """Exact bridge sampling as the plan mixture of Brownian bridges (Leonard 2014).

    X0 ~ p0; the atom given X0 = x by inverting softmax_j(-|y_j - x|^2 / (2 eps)
    + log nu2_j) at one uniform; X1 uniform in that atom's cell (the step-density
    reading of ``binned_plan``). Full paths are Brownian bridges from X0 to X1,
    drawn after X1 so the terminal points do not depend on keep_full_paths.
    Identical inputs and seed give a bit-identical ensemble.
    """
    if n_steps < 2 or n_paths < 1:
        raise ValueError("need n_steps >= 2 and n_paths >= 1")
    if seed is None:
        raise ValueError("a seed is mandatory for simulation")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    times = np.linspace(0.0, 1.0, n_steps + 1)
    initial = sample_density(p0, n_paths, rng)
    u = rng.random(n_paths)
    atom = np.empty(n_paths, dtype=np.int64)
    for rows, _, w in _softmax_blocks(initial, sol, eps):
        np.cumsum(w, axis=1, out=w)
        atom[rows] = (w <= u[rows, None] * w[:, -1:]).sum(axis=1)
    terminal = _in_cells(sol.mu2.support, atom, rng)
    paths = None
    if keep_full_paths:
        paths = np.empty((n_paths, n_steps + 1, p0.support.dim))
        paths[:, 0, :] = x = initial
        for k in range(1, n_steps):
            s, t = times[k - 1], times[k]
            scale = math.sqrt(eps * (t - s) * (1.0 - t) / (1.0 - s))
            x = x + (t - s) / (1.0 - s) * (terminal - x) + scale * rng.standard_normal(x.shape)
            paths[:, k, :] = x
        paths[:, -1, :] = terminal
    return PathEnsemble(times=times, initial=initial, terminal=terminal, seed=int(seed),
                        eps=float(eps), paths=paths)


def _bin_edges(radius, bins):
    return np.linspace(-radius, radius, bins + 1)


def _bin_index(coords, edges):
    return np.clip(np.searchsorted(edges, coords, side="right") - 1, 0, len(edges) - 2)


def binned_joint(x0, x1, radius, bins):
    """Histogram of endpoint pairs on a bins^(2d) lattice over [-radius, radius]."""
    d = x0.shape[1]
    edges = _bin_edges(radius, bins)
    idx = np.zeros(len(x0), dtype=np.int64)
    for coords in np.hstack([x0, x1]).T:
        idx = idx * bins + _bin_index(coords, edges)
    flat = np.bincount(idx, minlength=bins ** (2 * d))
    return flat / flat.sum()


def _cell_bin_split(support: Support, edges):
    """Distribute cubic quadrature cells over histogram bins by overlap.

    Grid masses represent cells, not atoms; assigning a whole cell to the
    bin of its center biases comparisons against continuous samples.
    Returns [(flat_bin_index, fraction)] combos covering every cell.
    """
    pts = support.points
    d = support.dim
    widths = support.cell_volumes ** (1.0 / d)
    bw = edges[1] - edges[0]
    n_bins = len(edges) - 1
    combos = [(np.zeros(len(pts), dtype=np.int64), np.ones(len(pts)))]
    span = int(math.ceil(widths.max() / bw)) + 1
    for axis in range(d):
        lo = pts[:, axis] - 0.5 * widths
        hi = pts[:, axis] + 0.5 * widths
        base = np.floor((lo - edges[0]) / bw).astype(np.int64)
        entries = []
        for off in range(span + 1):
            k = base + off
            bin_lo = edges[0] + k * bw
            overlap = np.clip(np.minimum(hi, bin_lo + bw) - np.maximum(lo, bin_lo),
                              0.0, None)
            entries.append((np.clip(k, 0, n_bins - 1), overlap / (hi - lo)))
        combos = [(idx0 * n_bins + k, f0 * f)
                  for idx0, f0 in combos for k, f in entries]
    return [(idx, f) for idx, f in combos if f.max() > 0]


def binned_plan(sol: SchroedingerSolution, radius, bins):
    """The solver's plan aggregated onto the endpoint binning by cell overlap."""
    d = sol.mu1.support.dim
    edges = _bin_edges(radius, bins)
    plan = plan_matrix(sol)
    src_combos = _cell_bin_split(sol.mu1.support, edges)
    tgt_combos = _cell_bin_split(sol.mu2.support, edges)
    flat = np.zeros(bins ** (2 * d))
    scale = bins**d
    for ks, fs in src_combos:
        for kt, ft in tgt_combos:
            w = plan * np.outer(fs, ft)
            idx = (ks[:, None] * scale + kt[None, :]).ravel()
            np.add.at(flat, idx, w.ravel())
    return flat / flat.sum()


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


def endpoint_diagnostics(ens: PathEnsemble, sol: SchroedingerSolution, p1: Density,
                         bins=50, n_bootstrap=20) -> EndpointReport:
    """Compare simulated endpoints with the target law and the plan.

    Terminal law: bounded-Lipschitz distance on the full empirical measure,
    exact transport distance on seeded subsamples (and the full quantile
    distance in one dimension). Joint law: endpoints binned to a
    ``bins``-per-axis lattice against the identically binned plan, in
    total variation and relative entropy. Bootstrap standard errors are
    seeded from the ensemble seed.
    """
    if not bins >= 1:
        raise ValueError("need bins >= 1")
    rng = np.random.Generator(np.random.Philox(key=ens.seed + 0x9E3779B9))
    target = p1.to_measure().normalized()
    emp = empirical_measure(ens.terminal)
    bl_term = bl_distance(emp, target)

    half = W2_ORACLE_CAP // 2
    sub = subsample_to_cap(ens.terminal, half, rng)
    tgt_small = target
    if target.support.n_points + sub.support.n_points > W2_ORACLE_CAP:
        tgt_small = subsample_to_cap(target.support.points, half, rng, target.weights)
    w2_sub = w2_distance(sub, tgt_small)

    w2_full = None
    if ens.dim == 1:
        w2_full = w2_distance_1d(emp, target)

    radius = max(sol.mu1.support.bounding_radius, sol.mu2.support.bounding_radius)
    plan_bins = binned_plan(sol, radius, bins)
    joint = binned_joint(ens.initial, ens.terminal, radius, bins)
    tv = tv_distance(joint, plan_bins)
    bin_sup = Support(points=np.arange(len(plan_bins), dtype=float)[:, None],
                      cell_volumes=np.ones(len(plan_bins)), bounding_radius=float(len(plan_bins)))
    kl = relative_entropy(DiscreteMeasure(bin_sup, joint, is_probability=True),
                          DiscreteMeasure(bin_sup, plan_bins / plan_bins.sum()))

    tv_samples = []
    w2_samples = []
    n = ens.n_paths
    for _ in range(n_bootstrap):
        take = rng.choice(n, size=n, replace=True)
        jb = binned_joint(ens.initial[take], ens.terminal[take], radius, bins)
        tv_samples.append(tv_distance(jb, plan_bins))
        if ens.dim == 1:
            w2_samples.append(w2_distance_1d(empirical_measure(ens.terminal[take]), target))
    tv_err = float(np.std(tv_samples)) if tv_samples else math.nan
    w2_err = float(np.std(w2_samples)) if w2_samples else math.nan

    return EndpointReport(
        bl_terminal=bl_term, w2_subsample=w2_sub, w2_full_1d=w2_full,
        tv_joint=tv, kl_joint=kl, tv_joint_err=tv_err, w2_err=w2_err,
        n_paths=ens.n_paths, bins=bins)


def initial_chi_square(ens: PathEnsemble, p0: Density):
    """Chi-square statistic of the initial states against P0, with dof.

    Bins the first time slice, 20 bins per axis over the support's
    bounding box, and compares counts with the exact step-density bin
    probabilities (cells split across bins by overlap). Returns
    (statistic, degrees_of_freedom).
    """
    bins = 20
    edges = _bin_edges(p0.support.bounding_radius, bins)
    d = p0.support.dim
    idx = np.zeros(ens.n_paths, dtype=np.int64)
    for axis in range(d):
        idx = idx * bins + _bin_index(ens.initial[:, axis], edges)
    counts = np.bincount(idx, minlength=bins**d).astype(float)
    probs = np.zeros(bins**d)
    w = p0.values * p0.support.cell_volumes
    for k, f in _cell_bin_split(p0.support, edges):
        np.add.at(probs, k, w * f)
    probs = probs / probs.sum()
    keep = probs * ens.n_paths >= 5.0
    expected = probs[keep] * ens.n_paths
    stat = float(np.sum((counts[keep] - expected) ** 2 / expected))
    return stat, int(keep.sum() - 1)
