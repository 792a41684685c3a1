"""Exact sampling of the h-path diffusion bridge.

The process minimizing the entropic control energy between P0 and P1 is a
Brownian motion of variance eps * t per unit time, the bandwidth of the
Schrodinger solve's heat kernel, drifted by the gradient of the log heat
potential against the solve's terminal factor nu2. As a law on paths it is
the mixture of Brownian bridges over the plan, so endpoints are drawn from
the plan's conditional laws with no time stepping. Endpoint marginals and
the joint endpoint law are verified against the identically binned plan.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .core import (
    W2_ORACLE_CAP,
    Density,
    DiscreteMeasure,
    GaussianHeatKernel,
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


def _bandwidth(sol: SchroedingerSolution):
    """The bridge's variance per unit time: eps * t of sol's heat kernel."""
    if not isinstance(sol.kernel, GaussianHeatKernel):
        raise TypeError("the h-path bridge needs a heat kernel")
    return sol.kernel.eps * sol.kernel.t


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


def check_path_counts(n_paths, n_steps):
    """Reject what ``simulate`` cannot draw: no path, or fewer than two steps."""
    if n_steps < 2 or n_paths < 1:
        raise ValueError("need n_steps >= 2 and n_paths >= 1")


def simulate(p0: Density, sol: SchroedingerSolution, n_paths, n_steps,
             seed, keep_full_paths=False) -> PathEnsemble:
    """Exact bridge sampling as the plan mixture of Brownian bridges (Leonard 2014).

    With bw = eps * t of sol's heat kernel (TypeError for other kernels): X0 ~ p0;
    the atom given X0 = x by inverting softmax_j(-|y_j - x|^2 / (2 bw) + log nu2_j)
    at one uniform; X1 uniform in that atom's cell (the step-density reading of
    ``binned_plan``). Full paths are Brownian bridges of variance bw per unit time
    from X0 to X1, drawn after X1 so the terminal points do not depend on
    keep_full_paths. Identical inputs and seed give a bit-identical ensemble.
    """
    check_path_counts(n_paths, n_steps)
    if seed is None:
        raise ValueError("a seed is mandatory for simulation")
    bw = _bandwidth(sol)
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    times = np.linspace(0.0, 1.0, n_steps + 1)
    initial = sample_density(p0, n_paths, rng)
    u = rng.random(n_paths)
    atom = np.empty(n_paths, dtype=np.int64)
    for rows, _, w in _softmax_blocks(initial, sol, bw):
        np.cumsum(w, axis=1, out=w)
        atom[rows] = (w <= u[rows, None] * w[:, -1:]).sum(axis=1)
    terminal = _in_cells(sol.mu2.support, atom, rng)
    paths = None
    if keep_full_paths:
        paths = np.empty((n_paths, n_steps + 1, p0.support.dim))
        paths[:, 0, :] = x = initial
        for k in range(1, n_steps):
            s, t = times[k - 1], times[k]
            scale = math.sqrt(bw * (t - s) * (1.0 - t) / (1.0 - s))
            x = x + (t - s) / (1.0 - s) * (terminal - x) + scale * rng.standard_normal(x.shape)
            paths[:, k, :] = x
        paths[:, -1, :] = terminal
    return PathEnsemble(times=times, initial=initial, terminal=terminal, seed=int(seed),
                        paths=paths)


def _bin_ids(coords, radius, bins):
    """Flat bin of each row of coords on the bins-per-axis lattice over [-radius, radius]^d."""
    edges = np.linspace(-radius, radius, bins + 1)
    ids = np.zeros(len(coords), dtype=np.int64)
    for c in coords.T:
        ids = ids * bins + np.clip(np.searchsorted(edges, c, side="right") - 1, 0, bins - 1)
    return ids


def binned_joint(x0, x1, radius, bins):
    """Histogram of endpoint pairs on a bins^(2d) lattice over [-radius, radius]."""
    flat = np.bincount(_bin_ids(np.hstack([x0, x1]), radius, bins),
                       minlength=bins ** (2 * x0.shape[1]))
    return flat / flat.sum()


def _overlap_matrix(support: Support, radius, bins):
    """Sparse (n, bins^d) share of each cubic quadrature cell in each bin.

    Grid masses represent cells, not atoms; assigning a whole cell to the
    bin of its center biases comparisons against continuous samples. The
    share of a cell beyond the lattice goes to the edge bin.
    """
    pts = support.points
    n, d = pts.shape
    widths = support.cell_volumes ** (1.0 / d)
    edges = np.linspace(-radius, radius, bins + 1)
    bw = edges[1] - edges[0]
    offsets = np.arange(int(math.ceil(widths.max() / bw)) + 2)
    ids = np.zeros((n, 1), dtype=np.int64)
    frac = np.ones((n, 1))
    for axis in range(d):
        lo = (pts[:, axis] - 0.5 * widths)[:, None]
        hi = (pts[:, axis] + 0.5 * widths)[:, None]
        k = np.floor((lo - edges[0]) / bw).astype(np.int64) + offsets
        bin_lo = edges[0] + k * bw
        overlap = np.clip(np.minimum(hi, bin_lo + bw) - np.maximum(lo, bin_lo), 0.0, None)
        ids = (ids[:, :, None] * bins + np.clip(k, 0, bins - 1)[:, None, :]).reshape(n, -1)
        frac = (frac[:, :, None] * (overlap / (hi - lo))[:, None, :]).reshape(n, -1)
    rows = np.repeat(np.arange(n), ids.shape[1])
    return sparse.csr_array((frac.ravel(), (rows, ids.ravel())), shape=(n, bins**d))


def binned_plan(sol: SchroedingerSolution, radius, bins):
    """The solver's plan aggregated onto the endpoint binning by cell overlap."""
    src = _overlap_matrix(sol.mu1.support, radius, bins)
    tgt = _overlap_matrix(sol.mu2.support, radius, bins)
    flat = (src.T @ plan_matrix(sol) @ tgt).ravel()
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
        atom = np.searchsorted(emp.support.points[:, 0], ens.terminal[:, 0])

    radius = max(sol.mu1.support.bounding_radius, sol.mu2.support.bounding_radius)
    plan_bins = binned_plan(sol, radius, bins)
    n = ens.n_paths
    ids = _bin_ids(np.hstack([ens.initial, ens.terminal]), radius, bins)
    joint = np.bincount(ids, minlength=len(plan_bins)) / n
    tv = tv_distance(joint, plan_bins)
    bin_sup = Support(points=np.arange(len(plan_bins), dtype=float)[:, None],
                      cell_volumes=np.ones(len(plan_bins)), bounding_radius=float(len(plan_bins)))
    kl = relative_entropy(DiscreteMeasure(bin_sup, joint, is_probability=True),
                          DiscreteMeasure(bin_sup, plan_bins / plan_bins.sum()))

    # a resample is a count vector over the bin ids and, in 1-D, emp's atoms
    tv_samples = []
    w2_samples = []
    for _ in range(n_bootstrap):
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


def initial_chi_square(ens: PathEnsemble, p0: Density):
    """Chi-square statistic of the initial states against P0, with dof.

    Bins the first time slice, 20 bins per axis over the support's
    bounding box, and compares counts with the exact step-density bin
    probabilities (cells split across bins by overlap). Returns
    (statistic, degrees_of_freedom).
    """
    bins = 20
    radius = p0.support.bounding_radius
    counts = np.bincount(_bin_ids(ens.initial, radius, bins), minlength=bins**p0.support.dim)
    probs = _overlap_matrix(p0.support, radius, bins).T @ (p0.values * p0.support.cell_volumes)
    probs = probs / probs.sum()
    keep = probs * ens.n_paths >= 5.0
    expected = probs[keep] * ens.n_paths
    stat = float(np.sum((counts[keep] - expected) ** 2 / expected))
    return stat, int(keep.sum() - 1)
