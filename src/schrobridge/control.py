"""Entropic control values, dual variables, and the free-energy objective.

The minimal control energy V for steering scaled Brownian motion from law
P0 at time 0 to P1 at time 1 admits three equivalent finite expressions
once the Schrodinger system with the heat kernel is solved:

* ``kl_form``        - relative entropy of the endpoint plan against the
                       reference P0 (x) heat-kernel measure,
* ``potential_form`` - entropy of P1 minus the potential integrals,
* ``dual_form``      - terminal dual integral minus initial value integral.

All three are computed independently on the grid and reported together
with their worst pairwise gap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Density, GaussianHeatKernel, Support, entropy
from .solver import SchroedingerSolution, plan_matrix, solve_schrodinger

_BALL_VOLUME_COEFF = {1: 2.0, 2: math.pi}


@dataclass(frozen=True)
class ControlValueReport:
    """Control value with its three computed forms and their agreement."""

    value: float
    kl_form: float
    potential_form: float
    dual_form: float
    max_pairwise_gap: float
    converged: bool
    solution: SchroedingerSolution

    def as_dict(self):
        return {
            "value": self.value,
            "kl_form": self.kl_form,
            "potential_form": self.potential_form,
            "dual_form": self.dual_form,
            "max_pairwise_gap": self.max_pairwise_gap,
        }


def dual_variables(sol: SchroedingerSolution, p1: Density):
    """Terminal dual f and initial value phi0 of the control problem.

    f(y) = log p1(y) - u2(y) on the target grid and phi0(x) = u1(x) on the
    source grid, with the free additive constant fixed to zero on both so
    that the dual and potential forms of the control value coincide.
    """
    mu2 = sol.mu2.weights
    vals = p1.values
    if np.any((vals == 0) & (mu2 > 0)):
        raise ValueError("density vanishes at a point carrying marginal mass")
    with np.errstate(divide="ignore"):
        f = np.where(mu2 > 0, np.log(vals, where=vals > 0,
                                     out=np.full_like(vals, -np.inf)) - sol.u2,
                     -np.inf)
    return f, sol.u1.copy()


def _kl_plan_vs_heat_product(sol: SchroedingerSolution) -> float:
    """H(plan | mu1 (x) heat-kernel Lebesgue reference) by quadrature.

    The kernel factor cancels exactly inside the log ratio, leaving
    sum_i rowmass_i (log nu1_i - log mu1_i)
    + sum_j colmass_j (log nu2_j - log vol_j).
    """
    plan = plan_matrix(sol)
    row = plan.sum(axis=1)
    col = plan.sum(axis=0)
    mu1 = sol.mu1.weights
    vol2 = sol.mu2.support.cell_volumes
    with np.errstate(divide="ignore", invalid="ignore"):
        term1 = np.where(row > 0, row * (sol.log_nu1 - np.log(mu1)), 0.0)
        term2 = np.where(col > 0, col * (sol.log_nu2 - np.log(vol2)), 0.0)
    return float(term1.sum() + term2.sum())


def control_value(p0: Density, p1: Density, eps,
                  tol=1e-12, max_iters=20000) -> ControlValueReport:
    """Control value between probability densities via the heat-kernel system.

    Solves the Schrodinger system with the time-1 heat kernel at
    diffusivity ``eps`` and evaluates the three equivalent forms of the
    value. A non-converged inner solve propagates as a flagged report.
    """
    mu1 = p0.to_measure()
    mu2 = p1.to_measure()
    if not (mu1.is_probability and mu2.is_probability):
        raise ValueError("inputs must be probability densities")
    kernel = GaussianHeatKernel(source=p0.support, target=p1.support, t=1.0, eps=eps)
    sol = solve_schrodinger(kernel, mu1, mu2, tol=tol, max_iters=max_iters)
    return report_from_solution(sol, p1)


def report_from_solution(sol: SchroedingerSolution, p1: Density) -> ControlValueReport:
    """Assemble the three-form report from an already solved system."""
    mu1w = sol.mu1.weights
    mu2w = sol.mu2.weights
    kl = _kl_plan_vs_heat_product(sol)
    s_p1 = entropy(p1)
    potential_form = s_p1 - float(sol.u2 @ mu2w) - float(sol.u1 @ mu1w)
    f, phi0 = dual_variables(sol, p1)
    dual_form = float(f[mu2w > 0] @ mu2w[mu2w > 0]) - float(phi0 @ mu1w)
    forms = (kl, potential_form, dual_form)
    gap = max(abs(x - y) for x in forms for y in forms)
    return ControlValueReport(
        value=kl,
        kl_form=kl,
        potential_form=potential_form,
        dual_form=dual_form,
        max_pairwise_gap=gap,
        converged=sol.converged,
        solution=sol,
    )


def control_value_gaussian_1d(s0_sq, s1_sq, eps) -> float:
    """Closed-form control value between centered 1-D Gaussians.

    Independent scalar oracle: with c the positive root of
    c^2 + eps*c = s0^2 * s1^2, the value is
    0.5 * ((s0^2 + s1^2 - 2c)/eps - 1 + log(s0^2 / c)).
    """
    c = 0.5 * (-eps + math.sqrt(eps * eps + 4.0 * s0_sq * s1_sq))
    return 0.5 * ((s0_sq + s1_sq - 2.0 * c) / eps - 1.0 + math.log(s0_sq / c))


def second_moment(p: Density) -> float:
    """integral |x|^2 dP by quadrature."""
    w = p.values * p.support.cell_volumes
    return float(np.sum(p.support.points**2, axis=1) @ w)


def free_energy_objective(p: Density, p1: Density, eps, r) -> float:
    """Objective S(P) - eps * V(P, P1) + 0.5 integral |x|^2 dP.

    Evaluates the minimized functional at one candidate density supported
    in B_r; this is a single evaluation, not the infimum.
    """
    if np.any((p.values > 0) & (p.support.radii() > r * (1 + 1e-9))):
        raise ValueError("candidate density has mass outside B_r")
    report = control_value(p, p1, eps)
    return entropy(p) - eps * report.value + 0.5 * second_moment(p)


def objective_from_solution(sol: SchroedingerSolution, p: Density, p1: Density, eps) -> float:
    """Same objective, reusing an existing solve for (p, p1)."""
    report = report_from_solution(sol, p1)
    return entropy(p) - eps * report.value + 0.5 * second_moment(p)


def free_energy_upper_bound(p1: Density | None, eps, r, support: Support | None = None) -> float:
    """Uniform-candidate bound -log Vol(B_r) + 0.5 * mean of |x|^2 over B_r.

    With a grid support the bound uses the grid's total cell volume and
    midpoint quadrature, making it exactly the objective of the uniform
    density on that grid with the control term dropped. Without a support
    the closed-form ball volume is used. Independent of eps and p1.
    """
    if support is not None:
        vol = support.total_volume
        mean_sq = float(
            np.sum(support.points**2, axis=1) @ support.cell_volumes) / vol
        return -math.log(vol) + 0.5 * mean_sq
    d = p1.support.dim if p1 is not None else 1
    if d in _BALL_VOLUME_COEFF:
        coeff = _BALL_VOLUME_COEFF[d]
    else:
        coeff = math.pi ** (d / 2) / math.gamma(d / 2 + 1)
    vol = coeff * r**d
    return -math.log(vol) + 0.5 * d * r * r / (d + 2)
