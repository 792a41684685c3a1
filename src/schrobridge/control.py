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

from dataclasses import dataclass

import numpy as np

from .core import Density, GaussianHeatKernel, entropy
from .solver import (
    INNER_MAX_ITERS,
    INNER_TOL,
    SchroedingerSolution,
    _bandwidth,
    plan_matrix,
    solve_schrodinger,
)

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
        return {key: getattr(self, key) for key in
                ("value", "kl_form", "potential_form", "dual_form", "max_pairwise_gap")}


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
                  tol=INNER_TOL, max_iters=INNER_MAX_ITERS) -> ControlValueReport:
    """Control value between probability densities via the heat-kernel system.

    Solves the Schrodinger system with the time-1 heat kernel at
    diffusivity ``eps`` and evaluates the three equivalent forms of the
    value. A non-converged inner solve propagates as a flagged report.
    """
    kernel = GaussianHeatKernel(source=p0.support, target=p1.support, t=1.0, eps=eps)
    sol = solve_schrodinger(kernel, p0.to_measure(), p1.to_measure(),
                            tol=tol, max_iters=max_iters)
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
    return ControlValueReport(value=kl, kl_form=kl, potential_form=potential_form,
                              dual_form=dual_form, max_pairwise_gap=gap,
                              converged=sol.converged, solution=sol)


def second_moment(p: Density) -> float:
    """integral |x|^2 dP by quadrature."""
    w = p.values * p.support.cell_volumes
    return float(np.sum(p.support.points**2, axis=1) @ w)


def objective_from_solution(sol: SchroedingerSolution, p: Density, p1: Density) -> float:
    """Same objective from an existing solve for (p, p1); eps is eps * t of sol's heat kernel."""
    return _objective(report_from_solution(sol, p1), p)


def _objective(report: ControlValueReport, p: Density) -> float:
    return (entropy(p) - _bandwidth(report.solution) * report.value
            + 0.5 * second_moment(p))
