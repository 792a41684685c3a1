"""The paper's invariants as properties of generated instances.

Derandomized hypothesis tests over random 1-D and 2-D grids, noise levels
and marginals with zero-mass points: the solver meets its marginal
tolerance, the potentials keep the two-sided kernel (Beurling) bounds, the
truncated potentials meet the product identity, the plan and the potential
sum u1 + u2 are invariant under the free gauge (nu1, nu2) -> (c nu1, nu2 / c),
and swapping the two marginals transposes the plan. Under the gauge the
factor measures stay exp of the log factors and the level bound keeps its
product of truncated masses. On generated densities the three forms of the
control value (KL, potential and dual) agree.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schrobridge import (
    Density,
    DiscreteMeasure,
    GaussianHeatKernel,
    control_value,
    make_grid,
    plan_matrix,
    solve_schrodinger,
)
from schrobridge.core import tv_distance
from conftest import check_beurling_bounds, check_level_bounds, check_product_identity, rescaled

TOL = 1e-11


def _marginal(draw, grid):
    n = grid.n_points
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    w[sorted(draw(st.sets(st.integers(0, n - 1), max_size=n // 3)))] = 0.0
    return DiscreteMeasure(grid, w / w.sum(), is_probability=True)


def _grid(draw, dim):
    """A grid of 3 to 40 points in 1-D, 3 to 8 per axis in 2-D."""
    n_max = 40 if dim == 1 else 8
    return make_grid(dim, draw(st.sampled_from([1.0, 1.5, 2.0])), draw(st.integers(3, n_max)))


def _eps(draw):
    return 10.0 ** draw(st.floats(-1.5, math.log10(2.0)))


@st.composite
def _instances(draw, dim=1):
    """Two grids of their own sizes and radii, eps, marginals, a gauge c."""
    source = _grid(draw, dim)
    target = _grid(draw, dim)
    eps = _eps(draw)
    c = 10.0 ** draw(st.floats(-3.0, 3.0))
    return source, target, eps, _marginal(draw, source), _marginal(draw, target), c


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_instances())
def test_marginals_gauge_and_swap(instance):
    _check_marginals_gauge_and_swap(instance)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_instances(dim=2))
def test_marginals_gauge_and_swap_2d(instance):
    _check_marginals_gauge_and_swap(instance)


def _check_marginals_gauge_and_swap(instance):
    source, target, eps, mu1, mu2, c = instance
    sol = solve_schrodinger(GaussianHeatKernel(source=source, target=target, eps=eps),
                            mu1, mu2, tol=TOL)
    assert sol.converged
    plan = plan_matrix(sol)
    # the residual is measured on the row marginal before the last source update
    assert sol.final_residual <= TOL
    assert tv_distance(plan.sum(axis=1), mu1.weights) <= TOL + 1e-14
    assert tv_distance(plan.sum(axis=0), mu2.weights) <= 1e-14
    # both checks raise on a violation
    check_beurling_bounds(sol, max(source.bounding_radius, target.bounding_radius))
    n1, n2 = source.n_points - 1, target.n_points - 1
    check_product_identity(sol, 1, [(0, n2), (n1 // 2, n2 // 2), (n1, 0)])

    gauged = rescaled(sol, c)
    assert np.allclose(plan_matrix(gauged), plan, rtol=1e-12, atol=0)
    assert np.allclose(gauged.u1[:, None] + gauged.u2[None, :],
                       sol.u1[:, None] + sol.u2[None, :], rtol=0, atol=1e-12)

    swapped = solve_schrodinger(GaussianHeatKernel(source=target, target=source, eps=eps),
                                mu2, mu1, tol=TOL)
    assert swapped.converged
    assert np.allclose(plan_matrix(swapped), plan.T, rtol=0, atol=1e-9)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_instances(), st.sampled_from([1.0, 1.5]))
def test_gauge_keeps_factor_weights_and_level_bounds(instance, m):
    source, target, eps, mu1, mu2, c = instance
    sol = solve_schrodinger(GaussianHeatKernel(source=source, target=target, eps=eps),
                            mu1, mu2, tol=TOL)
    gauged = rescaled(sol, c)
    for s in (sol, gauged):
        assert np.array_equal(s.nu1.weights, np.exp(s.log_nu1))
        assert np.array_equal(s.nu2.weights, np.exp(s.log_nu2))
    masses = check_level_bounds(sol, m).detail["product_of_masses"]
    assert check_level_bounds(gauged, m).detail["product_of_masses"] == pytest.approx(
        masses, rel=1e-12, abs=0)


@st.composite
def _control_instances(draw):
    """Densities with zero-valued points on two 1-D or two 2-D grids, and eps."""
    dim = draw(st.sampled_from([1, 2]))
    p0, p1 = (Density.from_measure(_marginal(draw, _grid(draw, dim))) for _ in range(2))
    return p0, p1, _eps(draw)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_control_instances())
def test_three_forms_of_the_control_value_agree(instance):
    p0, p1, eps = instance
    rep = control_value(p0, p1, eps)
    assert rep.converged
    assert rep.max_pairwise_gap / (1.0 + abs(rep.potential_form)) <= 1e-6
