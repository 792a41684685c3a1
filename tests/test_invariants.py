"""The paper's invariants as properties of generated instances.

Derandomized hypothesis tests over random 1-D grids, noise levels and
marginals with zero-mass points: the solver meets its marginal tolerance,
the plan and the potential sum u1 + u2 are invariant under the free gauge
(nu1, nu2) -> (c nu1, nu2 / c), and swapping the two marginals transposes
the plan.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from schrobridge import (
    DiscreteMeasure,
    GaussianHeatKernel,
    make_grid,
    plan_matrix,
    rescaled,
    solve_schrodinger,
)
from schrobridge.core import tv_distance

TOL = 1e-11


def _marginal(draw, grid):
    n = grid.n_points
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    w[sorted(draw(st.sets(st.integers(0, n - 1), max_size=n // 3)))] = 0.0
    return DiscreteMeasure(grid, w / w.sum(), is_probability=True)


@st.composite
def _instances(draw):
    """Two 1-D grids of their own sizes and radii, eps, marginals, a gauge c."""
    source = make_grid(1, draw(st.sampled_from([1.0, 1.5, 2.0])), draw(st.integers(3, 40)))
    target = make_grid(1, draw(st.sampled_from([1.0, 1.5, 2.0])), draw(st.integers(3, 40)))
    eps = 10.0 ** draw(st.floats(-1.5, math.log10(2.0)))
    c = 10.0 ** draw(st.floats(-3.0, 3.0))
    return source, target, eps, _marginal(draw, source), _marginal(draw, target), c


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_instances())
def test_marginals_gauge_and_swap(instance):
    source, target, eps, mu1, mu2, c = instance
    sol = solve_schrodinger(GaussianHeatKernel(source=source, target=target, eps=eps),
                            mu1, mu2, tol=TOL)
    assert sol.converged
    plan = plan_matrix(sol)
    # the residual is measured on the row marginal before the last source update
    assert sol.final_residual <= TOL
    assert tv_distance(plan.sum(axis=1), mu1.weights) <= TOL + 1e-14
    assert tv_distance(plan.sum(axis=0), mu2.weights) <= 1e-14

    gauged = rescaled(sol, c)
    assert np.allclose(plan_matrix(gauged), plan, rtol=1e-12, atol=0)
    assert np.allclose(gauged.u1[:, None] + gauged.u2[None, :],
                       sol.u1[:, None] + sol.u2[None, :], rtol=0, atol=1e-12)

    swapped = solve_schrodinger(GaussianHeatKernel(source=target, target=source, eps=eps),
                                mu2, mu1, tol=TOL)
    assert swapped.converged
    assert np.allclose(plan_matrix(swapped), plan.T, rtol=0, atol=1e-9)
