"""Moment measures of convex potentials via a zero-noise fixed point.

A probability density p on B_r is a stationary point of the free-energy
objective when p(x) is proportional to exp(-eps * u1(x) - |x|^2 / 2),
with u1 the potential of the heat-kernel Schrodinger solve between p and
the target law. Damped fixed-point iteration in log space finds that
density for each eps; driving eps to zero along a decreasing schedule
produces a convex potential u = -log p whose gradient pushes exp(-u) dx
to the target.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .core import (
    W2_ORACLE_CAP,
    Density,
    DiscreteMeasure,
    GaussianHeatKernel,
    NonConvergenceError,
    Support,
    bl_distance,
    empirical_measure,
    lattice_neighbors,
    subsample_to_cap,
    w2_distance,
    w2_distance_1d,
)
from .control import objective_from_solution
from .solver import SchroedingerSolution, solve_schrodinger

DEFAULT_DAMPING = 0.5
DEFAULT_EPS_SCHEDULE = tuple(2.0 ** (-k) for k in range(8))
INNER_TOL = 1e-12
INNER_MAX_ITERS = 20000


@dataclass(frozen=True)
class FixedPointTrace:
    """Iteration record of the fixed point at one noise level.

    ``objective`` is the free-energy objective of the last solved iterate.
    """

    eps: float
    iterates: tuple
    objective: float
    converged: bool
    residual: float
    final_solution: SchroedingerSolution

    @property
    def final(self) -> Density:
        return self.iterates[-1]


@dataclass(frozen=True)
class MomentMeasureResult:
    """Zero-noise limit candidate with its verification numbers."""

    p0: Density
    u_bar: np.ndarray
    eps_schedule: tuple
    pushforward_error: float
    convexity_defect: float
    w2_check: float
    recenter_shift: np.ndarray
    diagnostics: tuple
    traces: tuple


# ---------------------------------------------------------------------------
# Lattice utilities (gradients and midpoint convexity on grids)
# ---------------------------------------------------------------------------

def lattice_gradient(values, support: Support):
    """Central differences on the lattice, one-sided at the boundary."""
    values = np.asarray(values, dtype=float)
    steps, _, fwd_all, bwd_all = lattice_neighbors(support)
    n, d = support.n_points, support.dim
    grad = np.zeros((n, d))
    for k in range(d):
        fwd, bwd, h = fwd_all[k], bwd_all[k], steps[k]
        both = (fwd >= 0) & (bwd >= 0)
        only_f = (fwd >= 0) & (bwd < 0)
        only_b = (fwd < 0) & (bwd >= 0)
        none = (fwd < 0) & (bwd < 0)
        if np.any(none) and n > 1:
            raise ValueError("isolated lattice point: gradient undefined")
        grad[both, k] = (values[fwd[both]] - values[bwd[both]]) / (2 * h)
        ids_f = np.nonzero(only_f)[0]
        grad[ids_f, k] = (values[fwd[ids_f]] - values[ids_f]) / h
        ids_b = np.nonzero(only_b)[0]
        grad[ids_b, k] = (values[ids_b] - values[bwd[ids_b]]) / h
    return grad


def check_convexity(u_bar, support: Support) -> float:
    """Worst midpoint-convexity violation over lattice triples.

    Scans axis-aligned and diagonal directions; for every interior triple
    (x - h, x, x + h) accumulates max(0, u(x) - (u(x-h) + u(x+h)) / 2).
    Exactly convex grid functions give 0 up to floating error.
    """
    u = np.asarray(u_bar, dtype=float)
    _, _, fwd_all, bwd_all = lattice_neighbors(support)
    defect = 0.0
    for fwd, bwd in zip(fwd_all, bwd_all):
        ok = (fwd >= 0) & (bwd >= 0)
        if not np.any(ok):
            continue
        mid = u[ok] - 0.5 * (u[fwd[ok]] + u[bwd[ok]])
        defect = max(defect, float(np.clip(mid, 0.0, None).max()))
    return defect


# ---------------------------------------------------------------------------
# Fixed-point machinery
# ---------------------------------------------------------------------------

def _restrict_to_ball(support: Support, r) -> Support:
    keep = support.radii() <= r * (1 + 1e-12)
    if np.all(keep):
        return support
    if not np.any(keep):
        raise ValueError("no support points inside B_r")
    return Support(points=support.points[keep],
                   cell_volumes=support.cell_volumes[keep],
                   bounding_radius=min(support.bounding_radius, r))


def recentered(p: Density):
    """Shift the support so the barycenter is zero; returns (density, shift)."""
    shift = p.barycenter()
    if np.linalg.norm(shift) <= 1e-9 * max(1.0, p.support.bounding_radius):
        return p, np.zeros(p.support.dim)
    pts = p.support.points - shift[None, :]
    sup = Support(points=pts, cell_volumes=p.support.cell_volumes,
                  bounding_radius=float(np.linalg.norm(pts, axis=1).max()))
    return Density(sup, p.values, is_probability=p.is_probability), shift


def uniform_density(support: Support) -> Density:
    v = np.full(support.n_points, 1.0 / support.total_volume)
    return Density(support, v, is_probability=True)


def _step(p: Density, p1: Density, kernel: GaussianHeatKernel, init_log_nu2=None):
    """One application of the fixed-point map, returning (density, solve)."""
    sol = solve_schrodinger(kernel, p.to_measure(), p1.to_measure(),
                            tol=INNER_TOL, max_iters=INNER_MAX_ITERS,
                            init_log_nu2=init_log_nu2)
    if not sol.converged:
        raise NonConvergenceError(
            f"inner Schrodinger solve stalled at residual {sol.final_residual:.3e}")
    logits = -kernel.eps * sol.u1 - 0.5 * np.sum(p.support.points**2, axis=1)
    log_z = logsumexp(logits + np.log(p.support.cell_volumes))
    out = Density(p.support, np.exp(logits - log_z), is_probability=True)
    return out, sol


def fixed_point_step(p: Density, p1: Density, eps, r) -> Density:
    """Apply the map p -> normalize(exp(-eps * u1 - |x|^2 / 2)) on B_r.

    u1 is the source potential of the heat-kernel Schrodinger solve with
    marginals (p, p1). A density satisfying the stationarity equation is
    reproduced within solver tolerance.
    """
    if p.support.radii().max() > r * (1 + 1e-9):
        raise ValueError("iterate support must lie inside B_r")
    kernel = GaussianHeatKernel(source=p.support, target=p1.support, t=1.0, eps=eps)
    out, _ = _step(p, p1, kernel)
    return out


def solve_fixed_point(p1: Density, eps, r, damping=DEFAULT_DAMPING, tol=1e-9,
                      max_outer=200, init: Density | None = None) -> FixedPointTrace:
    """Damped fixed-point iteration in log space at one noise level.

    Updates log p <- (1 - damping) log p + damping log(step(p)) followed by
    renormalization; convergence is declared when the undamped map moves
    the iterate by at most ``tol`` in sup norm, and the returned final
    iterate is that undamped image. The target is recentered to barycenter
    zero unless already centered. The objective is evaluated once, at the
    iterate of the last solve.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    if max_outer < 1 or not tol > 0:
        raise ValueError("need max_outer >= 1 and tol > 0")
    p1, _ = recentered(p1)
    support = _restrict_to_ball(p1.support, r)
    if init is None:
        p = uniform_density(support)
    else:
        if init.support.radii().max() > r * (1 + 1e-9):
            raise ValueError("initial density must be supported in B_r")
        if damping < 1.0 and np.any(init.values == 0):
            raise ValueError(
                "zero-valued initialization cannot escape under damped "
                "log-space updates; floor it or use damping=1")
        p = init
    iterates = [p]
    residual = math.inf
    converged = False
    sol = None
    warm = None
    kernel = GaussianHeatKernel(source=support, target=p1.support, t=1.0, eps=eps)
    for _ in range(max_outer):
        image, sol = _step(p, p1, kernel, warm)
        warm = sol.log_nu2
        residual = float(np.abs(image.values - p.values).max())
        if residual <= tol:
            iterates.append(image)
            converged = True
            break
        with np.errstate(divide="ignore"):
            log_mix = ((1.0 - damping) * np.log(p.values)
                       + damping * np.log(image.values))
        log_mix -= logsumexp(log_mix + np.log(support.cell_volumes))
        p = Density(support, np.exp(log_mix), is_probability=True)
        iterates.append(p)
    # Either way the last solve ran at iterates[-2]: the image or the
    # damped mix was appended after it.
    return FixedPointTrace(
        eps=float(eps), iterates=tuple(iterates),
        objective=objective_from_solution(sol, iterates[-2], p1, eps),
        converged=converged, residual=residual, final_solution=sol)


def potential_profile(trace: FixedPointTrace):
    """The convex profile eps * u1 + |x|^2 / 2 of the trace's final solve."""
    sol = trace.final_solution
    pts = sol.mu1.support.points
    return trace.eps * sol.u1 + 0.5 * np.sum(pts**2, axis=1)


def jensen_gap(trace: FixedPointTrace) -> float:
    """integral of (eps*u2 + |y|^2/2) dP1 minus its value at the barycenter.

    Nonnegative for the convex target-side profile; evaluated off-grid at
    the exact barycenter through the analytic kernel.
    """
    from .solver import potential_at

    sol = trace.final_solution
    p1w = sol.mu2.weights
    pts = sol.mu2.support.points
    profile = trace.eps * sol.u2 + 0.5 * np.sum(pts**2, axis=1)
    y0 = pts.T @ p1w / p1w.sum()
    u2_y0 = float(potential_at(sol, y0[None, :], side=2)[0])
    at_y0 = trace.eps * u2_y0 + 0.5 * float(y0 @ y0)
    return float(profile @ p1w / p1w.sum()) - at_y0


def verify_moment_measure(u_bar, support: Support, p1: Density):
    """Check that grad(u) pushes exp(-u) dx onto the target law.

    Forms the discrete pushforward with atoms at the lattice gradient of
    ``u_bar`` weighted by exp(-u_bar) * cell volume (normalized), and
    returns ``(pushforward_error, w2_check)``: the bounded-Lipschitz
    distance of the pushforward to the target, and the gap between the
    squared transport cost of the coupling (x, grad u(x)) and the exact
    squared Wasserstein distance from exp(-u) dx to the target (computed
    on a subsample, seeded with key 0, beyond the oracle cap). The
    gap must be nonnegative up to discretization and shrink under grid
    refinement.
    """
    u = np.asarray(u_bar, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError("potential must be finite on the grid")
    du = lattice_gradient(u, support)
    if not np.all(np.isfinite(du)):
        raise ValueError("non-finite gradient at interior points")
    logw = -u + np.log(support.cell_volumes)
    rho_w = np.exp(logw - logsumexp(logw))
    push = empirical_measure(du, rho_w)
    target = p1.to_measure().normalized()
    pushforward_error = bl_distance(push, target)

    coupling_cost = float(np.sum(rho_w * np.sum((support.points - du) ** 2, axis=1)))
    rho = DiscreteMeasure(support, rho_w, is_probability=True)
    if support.dim == 1:
        w2 = w2_distance_1d(rho, target)
    else:
        rng = np.random.Generator(np.random.Philox(key=0))
        half = W2_ORACLE_CAP // 2
        w2 = w2_distance(subsample_to_cap(rho.support.points, half, rng, rho.weights),
                         subsample_to_cap(target.support.points, half, rng, target.weights))
    return pushforward_error, coupling_cost - w2 * w2


def zero_noise_continuation(p1: Density, r, eps_schedule=DEFAULT_EPS_SCHEDULE,
                            tol=1e-9, damping=DEFAULT_DAMPING,
                            max_outer=200) -> MomentMeasureResult:
    """Drive the fixed point along a decreasing noise schedule.

    The target is recentered once (shift reported); each level warm-starts
    from the previous converged density. The returned potential is
    u = -log p0 gauged to min zero, with its midpoint-convexity defect and
    pushforward error; per-level diagnostics record residual, objective,
    the bounded-Lipschitz drift between consecutive densities, and the
    per-level convexity/pushforward numbers. A non-converged level aborts;
    the error's ``partial`` holds the ``diagnostics`` rows and ``traces``
    of the levels completed before it.
    """
    eps_schedule = tuple(float(e) for e in eps_schedule)
    if len(eps_schedule) == 0 or not all(0 < e < math.inf for e in eps_schedule):
        raise ValueError("schedule must be nonempty with every entry finite and > 0")
    if any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
        raise ValueError("schedule must be strictly decreasing")
    p1c, shift = recentered(p1)
    traces = []
    rows = []
    prev = None
    for eps in eps_schedule:
        try:
            trace = solve_fixed_point(p1c, eps, r, damping=damping, tol=tol,
                                      max_outer=max_outer, init=prev)
            if not trace.converged:
                raise NonConvergenceError(
                    f"fixed point did not converge at eps={eps:g} "
                    f"(residual {trace.residual:.3e})")
        except NonConvergenceError as exc:
            exc.partial = {"diagnostics": tuple(rows), "traces": tuple(traces)}
            raise
        p_eps = trace.final
        u_eps = -np.log(p_eps.values)
        u_eps = u_eps - u_eps.min()
        push_err, _ = verify_moment_measure(u_eps, p_eps.support, p1c)
        drift_bl = (bl_distance(p_eps.to_measure(), prev.to_measure())
                    if prev is not None else math.nan)
        rows.append({
            "eps": eps,
            "residual": trace.residual,
            "objective": trace.objective,
            "bl_drift": drift_bl,
            "convexity_defect": check_convexity(u_eps, p_eps.support),
            "pushforward_error": push_err,
        })
        traces.append(trace)
        prev = p_eps
    p0 = prev
    u_bar = -np.log(p0.values)
    u_bar = u_bar - u_bar.min()
    pushforward_error, w2_check = verify_moment_measure(u_bar, p0.support, p1c)
    return MomentMeasureResult(
        p0=p0, u_bar=u_bar, eps_schedule=eps_schedule,
        pushforward_error=pushforward_error,
        convexity_defect=check_convexity(u_bar, p0.support),
        w2_check=w2_check, recenter_shift=shift,
        diagnostics=tuple(rows), traces=tuple(traces))
