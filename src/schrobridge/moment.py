"""Moment measures of convex potentials via a zero-noise fixed point.

A probability density p on B_r is a stationary point of the free-energy
objective when p(x) is proportional to exp(-eps * u1(x) - |x|^2 / 2),
with u1 the potential of the heat-kernel Schrodinger solve between p and
the target law. Fixed-point iteration in log space, Anderson-accelerated
after a damped first step, finds that density for each eps; driving eps
to zero along a decreasing schedule produces a convex potential
u = -log p whose gradient pushes exp(-u) dx to the target.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    W2_CLOUD_CAP,
    Density,
    DiscreteMeasure,
    GaussianHeatKernel,
    NonConvergenceError,
    Support,
    bl_distance,
    empirical_measure,
    lattice_neighbors,
    logsumexp,
    same_support,
    w2_distance,
)
from .control import objective_from_solution
from .solver import INNER_MAX_ITERS, INNER_TOL, SchroedingerSolution, solve_schrodinger

DEFAULT_DAMPING = 0.5
DEFAULT_EPS_SCHEDULE = tuple(2.0 ** (-k) for k in range(8))
ANDERSON_MEMORY = 5
OUTER_TOL, OUTER_MAX_STEPS = 1e-9, 200
# Inner tolerance per unit of outer residual, once that is <= FORCING_FROM (Eisenstat & Walker).
FORCING, FORCING_FROM = 1e-3, 1e-2


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
    inner_sweeps: int  # of all the level's inner solves

    @property
    def final(self) -> Density:
        return self.iterates[-1]


@dataclass(frozen=True)
class MomentMeasureResult:
    """Zero-noise limit candidate; its verification numbers are the last diagnostics row."""

    p0: Density
    u_bar: np.ndarray
    eps_schedule: tuple
    recenter_shift: np.ndarray
    diagnostics: tuple


# ---------------------------------------------------------------------------
# Lattice utilities (gradients and midpoint convexity on grids)
# ---------------------------------------------------------------------------

def lattice_gradient(values, support: Support):
    """Central differences on the lattice, one-sided at the boundary."""
    values = np.asarray(values, dtype=float)
    d = support.dim
    steps, _, fwd, bwd = lattice_neighbors(support)
    has_f, has_b = fwd[:d] >= 0, bwd[:d] >= 0
    if np.any(~has_f & ~has_b):
        raise ValueError("isolated lattice point: gradient undefined")
    own = np.arange(support.n_points)
    diff = values[np.where(has_f, fwd[:d], own)] - values[np.where(has_b, bwd[:d], own)]
    return (diff / (steps[:, None] * (1 + (has_f & has_b)))).T


def check_convexity(u_bar, support: Support) -> float:
    """Worst midpoint-convexity violation over lattice triples.

    Scans axis-aligned and diagonal directions; for every interior triple
    (x - h, x, x + h) accumulates max(0, u(x) - (u(x-h) + u(x+h)) / 2).
    Exactly convex grid functions give 0 up to floating error.
    """
    u = np.asarray(u_bar, dtype=float)
    _, _, fwd, bwd = lattice_neighbors(support)
    mid = u - 0.5 * (u[fwd] + u[bwd])  # a missing neighbour, -1, is masked below
    return float(np.where((fwd >= 0) & (bwd >= 0), mid, 0.0).max(initial=0.0))


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


def _step(p: Density, target: DiscreteMeasure, kernel: GaussianHeatKernel,
          init_log_nu2=None, tol=INNER_TOL):
    """One application of the fixed-point map, inner solve to ``tol``: (log image, solve).

    The log image is normalized on ``p``'s support; its exp is the image density.
    """
    sol = solve_schrodinger(kernel, p.to_measure(), target, tol=tol,
                            max_iters=INNER_MAX_ITERS, init_log_nu2=init_log_nu2)
    if not sol.converged:
        raise NonConvergenceError(
            f"inner Schrodinger solve stalled at residual {sol.final_residual:.3e}")
    logits = -kernel.eps * sol.u1 - 0.5 * np.sum(p.support.points**2, axis=1)
    return logits - logsumexp(logits + np.log(p.support.cell_volumes)), sol


def solve_fixed_point(p1: Density, eps, r, tol=OUTER_TOL, max_outer=OUTER_MAX_STEPS,
                      init: Density | None = None) -> FixedPointTrace:
    """Anderson-accelerated fixed-point iteration in log space at one noise level.

    Works on x = log p with residual f = g - x, where g is the log image
    of p under the map. The first step is the damped step
    x <- (1 - a) x + a g with a = ``DEFAULT_DAMPING``; every later step is
    undamped type-II Anderson mixing (Walker & Ni, SIAM J. Numer. Anal.
    2011): gamma fits f by least squares on the last ``ANDERSON_MEMORY``
    differences of f, and x <- g - G gamma with G the matching differences
    of g. No safeguard resets the history; for a contractive map the mixing
    converges locally without one (Toth & Kelley, SIAM J. Numer. Anal.
    2015). Every update is renormalized. Convergence is declared when the
    undamped map moves the iterate by at most ``tol`` in sup norm, and the
    returned final iterate is that undamped image. An inner solve after a
    residual r <= FORCING_FROM runs at max(INNER_TOL, FORCING * r), any other
    at INNER_TOL; an image that passes after a looser solve is redone at
    INNER_TOL and retested. ``init`` must be nowhere zero (the damped first
    step never leaves log 0) and live on the target's support points in B_r;
    the target is recentered to barycenter zero unless already centered.
    The objective is evaluated once, at the iterate of the last solve.
    """
    if max_outer < 1 or not tol > 0:
        raise ValueError("need max_outer >= 1 and tol > 0")
    p1, _ = recentered(p1)
    support = _restrict_to_ball(p1.support, r)
    if init is None:
        p = uniform_density(support)
    else:
        if not same_support(init.support, support):
            raise ValueError("init must be a density on the target's support points in B_r")
        if np.any(init.values == 0):
            raise ValueError("zero-valued initialization cannot escape log-space "
                             "damping; floor it")
        p = init
    iterates = [p]
    converged, warm, inner_tol, sweeps = False, None, INNER_TOL, 0
    dg, df = [], []
    x = np.log(p.values)
    target = p1.to_measure()
    kernel = GaussianHeatKernel(source=support, target=p1.support, t=1.0, eps=eps)
    for k in range(max_outer):
        while True:
            g, sol = _step(p, target, kernel, warm, inner_tol)
            warm, sweeps = sol.log_nu2, sweeps + sol.iterations
            image = np.exp(g)
            residual = float(np.abs(image - p.values).max())
            if residual > tol or inner_tol == INNER_TOL:
                break
            inner_tol = INNER_TOL
        inner_tol = max(INNER_TOL, FORCING * residual) if residual <= FORCING_FROM else INNER_TOL
        if residual <= tol:
            iterates.append(Density(support, image, is_probability=True))
            converged = True
            break
        f = g - x
        if k == 0:
            x_new = (1.0 - DEFAULT_DAMPING) * x + DEFAULT_DAMPING * g
        else:
            dg = [*dg, g - g_prev][-ANDERSON_MEMORY:]
            df = [*df, f - f_prev][-ANDERSON_MEMORY:]
            gamma = np.linalg.lstsq(np.stack(df, axis=1), f, rcond=None)[0]
            x_new = g - np.stack(dg, axis=1) @ gamma
        g_prev, f_prev = g, f
        x = x_new - logsumexp(x_new + np.log(support.cell_volumes))
        p = Density(support, np.exp(x), is_probability=True)
        iterates.append(p)
    # Either way the last solve ran at iterates[-2]: the image or the
    # next iterate was appended after it.
    return FixedPointTrace(
        eps=float(eps), iterates=tuple(iterates),
        objective=objective_from_solution(sol, iterates[-2], p1),
        converged=converged, residual=residual, final_solution=sol, inner_sweeps=sweeps)


def verify_moment_measure(u_bar, support: Support, p1: Density):
    """Check that grad(u) pushes exp(-u) dx onto the target law.

    Forms the discrete pushforward with atoms at the lattice gradient of
    ``u_bar`` weighted by exp(-u_bar) * cell volume (normalized), and
    returns ``(pushforward_error, w2_check)``: the bounded-Lipschitz
    distance of the pushforward to the target, and the Brenier gap on the
    ``W2_CLOUD_CAP`` grid points x_k at the stratified quantile levels
    (k + 1/2) / ``W2_CLOUD_CAP`` of exp(-u) dx in grid order: the
    mean of |x_k - grad u(x_k)|^2 minus the squared ``w2_distance`` of the
    clouds x_k and grad u(x_k). The pairing is one coupling, so the gap is
    nonnegative up to rounding, and zero when the pairing is optimal, as it
    is for the gradient of a convex u (Brenier).
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
    pushforward_error = bl_distance(push, p1.to_measure())

    levels = (np.arange(W2_CLOUD_CAP) + 0.5) / W2_CLOUD_CAP
    at = np.minimum(np.searchsorted(np.cumsum(rho_w), levels), support.n_points - 1)
    x, y = support.points[at], du[at]
    gap = float(np.mean(np.sum((x - y) ** 2, axis=1))) - w2_distance(x, y) ** 2
    return pushforward_error, gap


def _extrapolated(levels, eps):
    """log p at ``eps``, linear in eps through the two levels ``(eps, log p)`` given."""
    (e0, x0), (e1, x1) = levels
    return x1 + (eps - e1) / (e1 - e0) * (x1 - x0)


def zero_noise_continuation(p1: Density, r, eps_schedule=DEFAULT_EPS_SCHEDULE,
                            tol=OUTER_TOL, max_outer=OUTER_MAX_STEPS) -> MomentMeasureResult:
    """Drive the fixed point along a decreasing noise schedule.

    The target is recentered once (shift reported); level 2 starts from level
    1's density, each later one from log p extrapolated linearly in eps from
    the last two levels (the secant predictor, renormalized). The returned
    potential is u = -log p0 gauged to min zero. Per-level diagnostics record
    residual, objective, the bounded-Lipschitz drift between consecutive
    densities, the per-level convexity, pushforward and W2-check numbers, the
    outer steps and inner sweeps; the last row holds the returned potential's.
    Only one level's trace is alive at a time. A non-converged level aborts;
    the error's ``partial`` holds the completed levels' ``diagnostics`` rows.
    """
    eps_schedule = tuple(float(e) for e in eps_schedule)
    if len(eps_schedule) == 0 or not all(0 < e < math.inf for e in eps_schedule):
        raise ValueError("schedule must be nonempty with every entry finite and > 0")
    if any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
        raise ValueError("schedule must be strictly decreasing")
    p1c, shift = recentered(p1)
    rows, levels = [], []  # levels: (eps, log p) of the last two levels
    init = prev = None
    for eps in eps_schedule:
        if len(levels) == 2:
            x = _extrapolated(levels, eps)
            x -= logsumexp(x + np.log(prev.support.cell_volumes))
            init = Density(prev.support, np.exp(x), is_probability=True)
        try:
            trace = solve_fixed_point(p1c, eps, r, tol=tol, max_outer=max_outer,
                                      init=init)
            if not trace.converged:
                raise NonConvergenceError(
                    f"fixed point did not converge at eps={eps:g} "
                    f"(residual {trace.residual:.3e})")
        except NonConvergenceError as exc:
            exc.partial = {"diagnostics": tuple(rows)}
            raise
        p_eps = trace.final
        log_p = np.log(p_eps.values)
        u_eps = log_p.max() - log_p
        push_err, w2_check = verify_moment_measure(u_eps, p_eps.support, p1c)
        drift_bl = math.nan if prev is None else bl_distance(p_eps.to_measure(), prev.to_measure())
        rows.append({
            "eps": eps,
            "residual": trace.residual,
            "objective": trace.objective,
            "bl_drift": drift_bl,
            "convexity_defect": check_convexity(u_eps, p_eps.support),
            "pushforward_error": push_err,
            "w2_check": w2_check,
            "outer_steps": len(trace.iterates) - 1,
            "inner_sweeps": trace.inner_sweeps,
        })
        del trace  # its solves and kernel must not outlive the level
        init = prev = p_eps
        levels = [*levels, (eps, log_p)][-2:]
    return MomentMeasureResult(p0=prev, u_bar=u_eps, eps_schedule=eps_schedule,
                               recenter_shift=shift, diagnostics=tuple(rows))
