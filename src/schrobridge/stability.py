"""Stability of plans, product factors, and potentials under perturbations.

Generates families of perturbed instances (kernel wiggle, marginal
mollification, empirical marginals), solves each member, and reports how
fast the plan, the product factor measure, and the truncated-potential
sums approach the base solution as the family index grows. Convergence is
asserted as ladder trends on fixed seeded instances, never as asymptotic
claims.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DenseKernel,
    DiscreteMeasure,
    GaussianHeatKernel,
    KernelSpec,
    NonConvergenceError,
    lattice_neighbors,
    log_eval_kernel,
    pairwise_sq_dists,
    product_bl_distance,
)
from .solver import (
    SchroedingerSolution,
    plan_matrix,
    solve_schrodinger,
    truncated_potentials,
)


def _smooth_wiggle(source, target):
    """Fixed smooth perturbation profile sin(sum x) * cos(sum y)."""
    sx = np.sin(source.points.sum(axis=1))
    ty = np.cos(target.points.sum(axis=1))
    return np.outer(sx, ty)


@dataclass(frozen=True)
class PerturbationFamily:
    """Materialized perturbed instances q_n, mu1_n, mu2_n indexed by n."""

    index_set: tuple
    kernels: tuple
    mu1s: tuple
    mu2s: tuple
    kernel_sup_gaps: tuple

    def member(self, position):
        return self.kernels[position], self.mu1s[position], self.mu2s[position]

    def __len__(self):
        return len(self.index_set)


def _mollified(mu: DiscreteMeasure, bandwidth) -> DiscreteMeasure:
    """Gaussian-smoothed weights, re-gridded mass-preservingly."""
    pts = mu.support.points
    vols = mu.support.cell_volumes
    d2 = pairwise_sq_dists(pts, pts)
    k = np.exp(-d2 / (2.0 * bandwidth * bandwidth)) * vols[None, :]
    k /= k.sum(axis=1, keepdims=True)
    w = mu.weights @ k
    return DiscreteMeasure(mu.support, w / w.sum(), is_probability=True)


def _empirical(mu: DiscreteMeasure, n_samples, seed_key) -> DiscreteMeasure:
    rng = np.random.default_rng(seed_key)
    idx = rng.choice(mu.support.n_points, size=n_samples,
                     p=mu.weights / mu.weights.sum())
    counts = np.bincount(idx, minlength=mu.support.n_points).astype(float)
    return DiscreteMeasure(mu.support, counts / counts.sum(), is_probability=True)


def make_family(base_q: KernelSpec, base_mu1: DiscreteMeasure,
                base_mu2: DiscreteMeasure, kind, params=None) -> PerturbationFamily:
    """Build a perturbation family around a base instance.

    kind = "kernel_perturbation": log q_n = log q + amplitude / n * psi with
    the fixed smooth profile psi, built from log entries so that no entry
    underflows; marginals unchanged.
    kind = "marginal_mollification": both marginals Gaussian-smoothed with
    bandwidth / n and re-gridded.
    kind = "marginal_empirical": both marginals replaced by n seeded
    samples projected to the grid (the index is the sample count).
    """
    params = dict(params or {})
    raw_index = tuple(params.pop("index_set", (4, 8, 16, 32, 64)))
    amplitude = float(params.pop("amplitude", 1.0))
    bandwidth = float(params.pop("bandwidth", 0.5))
    seed = int(params.pop("seed", 0))
    if params:
        raise ValueError(f"unknown family parameters: {sorted(params)}")
    if not all(float(n).is_integer() and n > 0 for n in raw_index):
        raise ValueError("family indices must be positive integers")
    index_set = tuple(int(n) for n in raw_index)
    if not math.isfinite(amplitude):
        raise ValueError("amplitude must be finite")
    if not 0 < bandwidth < math.inf:
        raise ValueError("bandwidth must be finite and > 0")

    kernels, mu1s, mu2s, gaps = [], [], [], []
    if kind == "kernel_perturbation":
        psi = _smooth_wiggle(base_q.source, base_q.target)
        logq = log_eval_kernel(base_q)
        base_k = np.exp(logq)
        for n in index_set:
            qn = DenseKernel.from_log(base_q.source, base_q.target,
                                      logq + (amplitude / n) * psi)
            kernels.append(qn)
            mu1s.append(base_mu1)
            mu2s.append(base_mu2)
            gaps.append(float(np.abs(qn.values - base_k).max()))
    elif kind == "marginal_mollification":
        for n in index_set:
            bw = bandwidth / n
            mu1s.append(_mollified(base_mu1, bw))
            mu2s.append(_mollified(base_mu2, bw))
            kernels.append(base_q)
            gaps.append(0.0)
    elif kind == "marginal_empirical":
        for n in index_set:
            mu1s.append(_empirical(base_mu1, n, [seed, n, 1]))
            mu2s.append(_empirical(base_mu2, n, [seed, n, 2]))
            kernels.append(base_q)
            gaps.append(0.0)
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    return PerturbationFamily(
        index_set=index_set, kernels=tuple(kernels), mu1s=tuple(mu1s),
        mu2s=tuple(mu2s), kernel_sup_gaps=tuple(gaps))


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    plan_bl: float
    product_gap: float
    potential_gap: float
    supnorm_gap: float
    solved: bool


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple

    def trend(self, metric):
        """(first, last, last/first) over solved rows for one metric."""
        vals = [getattr(r, metric) for r in self.rows if r.solved]
        vals = [v for v in vals if np.isfinite(v)]
        if not vals:
            return (math.nan, math.nan, math.nan)
        first, last = vals[0], vals[-1]
        ratio = last / first if first > 0 else (0.0 if last == 0 else math.inf)
        return (first, last, ratio)

    def summary(self):
        metrics = ("plan_bl", "product_gap", "potential_gap", "supnorm_gap")
        out = {}
        for metric in metrics:
            first, last, ratio = self.trend(metric)
            out[metric] = {"first": first, "last": last, "ratio": ratio,
                           "decreasing": bool(last <= first + 1e-15)}
        return out


def _snap(support, point):
    return int(np.argmin(np.sum((support.points - point[None, :]) ** 2, axis=1)))


def potential_sum_gap(sol_a: SchroedingerSolution, sol_b: SchroedingerSolution,
                      m, probe_pairs, moving_shift=None):
    """Max probe gap of u_{1|m} + u_{2|m} between two solutions.

    ``probe_pairs`` are (source index, target index) pairs into the base
    supports; for the perturbed solution the probe may move by
    ``moving_shift`` (a vector) and is snapped to the nearest grid point.
    The sum is invariant under the factor-scaling gauge.
    """
    u1a, u2a = truncated_potentials(sol_a, m)
    u1b, u2b = truncated_potentials(sol_b, m)
    sum_gap = 0.0
    for i1, i2 in probe_pairs:
        j1, j2 = i1, i2
        if moving_shift is not None:
            j1 = _snap(sol_b.mu1.support, sol_a.mu1.support.points[i1] + moving_shift)
            j2 = _snap(sol_b.mu2.support, sol_a.mu2.support.points[i2] + moving_shift)
        sum_gap = max(sum_gap, abs((u1b[j1] + u2b[j2]) - (u1a[i1] + u2a[i2])))
    return sum_gap


def _supnorm_gap(sol_a, sol_b, in_s, in_t):
    """Summed sup-norm potential gap over the ball masks in_s, in_t."""
    return (float(np.abs(sol_b.u1 - sol_a.u1)[in_s].max())
            + float(np.abs(sol_b.u2 - sol_a.u2)[in_t].max()))


def run_convergence(base, fam: PerturbationFamily, probes, m,
                    tol=1e-12, max_iters=20000, r_prime=None,
                    probe_shift=0.25) -> ConvergenceReport:
    """Solve every family member and report its distance to the base solution.

    Per index n: bounded-Lipschitz distance of plans; dictionary gap of the
    product factor measures; worst probe gap of the truncated potential
    sums with probes moved by probe_shift / n along the first axis (snapped
    to the grid); and, when ``r_prime`` is given, the summed sup-norm
    potential gap over B_{r_prime}, valid under the equal-mass
    normalization (always in force here) and a finite semiconvexity
    constant of the base kernel. Plans and product factor measures are
    compared as (n, m) weight matrices on the base supports, which every
    family member shares. A member whose solve stalls or is rejected
    (NonConvergenceError, ValueError) is recorded as an unsolved row.
    Raises ValueError unless r_prime (when given) is finite and > 0 and
    its ball holds a point of each support.
    """
    if len(probes) == 0:
        raise ValueError("need at least one probe pair")
    q, mu1, mu2 = base
    if r_prime is not None:
        in_s = mu1.support.radii() <= r_prime * (1 + 1e-12)
        in_t = mu2.support.radii() <= r_prime * (1 + 1e-12)
        if not (0 < r_prime < math.inf and in_s.any() and in_t.any()):
            raise ValueError("need a finite r_prime > 0 whose ball holds a point "
                             "of each support")
    base_sol = solve_schrodinger(q, mu1, mu2, tol=tol, max_iters=max_iters)
    base_plan = plan_matrix(base_sol)
    base_product = np.outer(base_sol.nu1.weights, base_sol.nu2.weights)
    source, target = mu1.support, mu2.support
    shift_dir = np.zeros(source.dim)
    shift_dir[0] = 1.0
    rows = []
    for pos, n in enumerate(fam.index_set):
        qn, m1n, m2n = fam.member(pos)
        try:
            sol = solve_schrodinger(qn, m1n, m2n, tol=tol, max_iters=max_iters)
            if not sol.converged:
                raise NonConvergenceError("member solve did not converge")
        except (NonConvergenceError, ValueError):
            rows.append(ConvergenceRow(n, math.nan, math.nan, math.nan,
                                       math.nan, False))
            continue
        plan_gap = product_bl_distance(source, target, plan_matrix(sol), base_plan)
        product_gap = product_bl_distance(
            source, target, np.outer(sol.nu1.weights, sol.nu2.weights), base_product)
        sum_gap = potential_sum_gap(
            base_sol, sol, m, probes, moving_shift=(probe_shift / n) * shift_dir)
        sup_gap = math.nan if r_prime is None else _supnorm_gap(base_sol, sol, in_s, in_t)
        rows.append(ConvergenceRow(n, plan_gap, product_gap, sum_gap, sup_gap, True))
    return ConvergenceReport(rows=tuple(rows))


def semiconvexity_constant(q: KernelSpec) -> float:
    """Smallest C >= 0 making C|x|^2 + log q(x, y) convex in each variable.

    The analytic heat kernel gives exactly 1 / (2 eps t). Dense kernels
    are scanned with directional second differences of log q along lattice
    axes and diagonals in each variable; the estimate is
    max(0, -min_second_difference / 2).
    """
    if isinstance(q, GaussianHeatKernel):
        return 1.0 / (2.0 * q.eps * q.t)
    logk = log_eval_kernel(q)
    worst = 0.0
    for axis_support, table in ((q.source, logk), (q.target, logk.T)):
        steps, dirs, fwd_all, bwd_all = lattice_neighbors(axis_support)
        for h_sq, fwd, bwd in zip((dirs**2) @ steps**2, fwd_all, bwd_all):
            ok = (fwd >= 0) & (bwd >= 0)
            if not np.any(ok):
                continue
            second = (table[fwd[ok], :] + table[bwd[ok], :] - 2 * table[ok, :]) / h_sq
            worst = min(worst, float(second.min()))
    return max(0.0, -worst / 2.0)
