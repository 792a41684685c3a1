import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schrobridge import (
    DenseKernel,
    DiscreteMeasure,
    GaussianHeatKernel,
    check_beurling_bounds,
    check_level_bounds,
    check_product_identity,
    log_eval_kernel,
    make_grid,
    rescaled,
    solve_schrodinger,
    truncated_potentials,
)
from schrobridge.core import tv_distance
from schrobridge.solver import _refit, plan_matrix
from conftest import random_instance


def plain_fixed_point_oracle(k_matrix, w1, w2, iters=10**4):
    """Independent oracle: plain alternating fixed point, equal-mass gauge."""
    nu2 = np.ones(len(w2))
    nu1 = np.ones(len(w1))
    for _ in range(iters):
        nu1 = w1 / (k_matrix @ nu2)
        nu2 = w2 / (k_matrix.T @ nu1)
    c = math.sqrt(nu2.sum() / nu1.sum())
    return nu1 * c, nu2 / c


def plain_domain_solve(q, mu1, mu2, tol, max_iters=5000):
    """Reference: the alternating iteration on plain kernel entries.

    Same start, stopping rule and equal-mass gauge as solve_schrodinger;
    returns the gauged (nu1 weights, u1).
    """
    k = np.exp(log_eval_kernel(q))
    nu2 = np.ones(mu2.support.n_points)
    for _ in range(max_iters):
        with np.errstate(invalid="ignore", divide="ignore"):
            nu1 = np.where(mu1.weights > 0, mu1.weights / (k @ nu2), 0.0)
            nu2 = np.where(mu2.weights > 0, mu2.weights / (k.T @ nu1), 0.0)
        if 0.5 * np.abs(nu1 * (k @ nu2) - mu1.weights).sum() <= tol:
            break
    c = math.sqrt(nu2.sum() / nu1.sum())
    return nu1 * c, np.log(k @ nu2) - math.log(c)


def lse_reference_solve(q, mu1, mu2, tol=1e-10, max_iters=5000, init_log_nu2=None):
    """Reference: the log-sum-exp sweep the solver used before stabilized scaling.

    Same start, sweep order, stopping rule, exit state and equal-mass gauge;
    every half-sweep is a full logsumexp over the kernel matrix.
    """
    logk = log_eval_kernel(q)
    with np.errstate(divide="ignore"):
        logmu1 = np.log(mu1.weights)
        logmu2 = np.log(mu2.weights)

    if init_log_nu2 is None:
        b = np.zeros(mu2.support.n_points)
    else:
        b = np.asarray(init_log_nu2, dtype=float).copy()

    buf = np.empty_like(logk)

    def lse(vec, axis):
        # logsumexp of logk + vec broadcast along `axis`, reusing one buffer
        np.add(logk, vec[None, :] if axis == 1 else vec[:, None], out=buf)
        mx = buf.max(axis=axis)
        np.subtract(buf, mx[:, None] if axis == 1 else mx[None, :], out=buf)
        np.exp(buf, out=buf)
        return mx + np.log(buf.sum(axis=axis))

    u1 = lse(b, 1)
    residual = math.inf
    iterations = 0
    for iterations in range(1, max_iters + 1):
        a = logmu1 - u1
        u2 = lse(a, 0)
        b = logmu2 - u2
        u1 = lse(b, 1)
        residual = tv_distance(np.exp(a + u1), mu1.weights)
        if residual <= tol:
            break

    with np.errstate(over="ignore"):
        t1 = float(np.exp(a).sum())
        t2 = float(np.exp(b).sum())
    if not (0.0 < t1 < math.inf and 0.0 < t2 < math.inf):
        raise ValueError("factor masses beyond the float64 range")
    log_c = 0.5 * (math.log(t2) - math.log(t1))
    return SimpleNamespace(log_nu1=a + log_c, log_nu2=b - log_c, u1=u1 - log_c,
                           u2=u2 + log_c, iterations=iterations,
                           converged=residual <= tol)


class TestSolve:
    def test_factor_mass_overflow_named(self):
        g = make_grid(1, 4.0, 41)
        w = np.exp(-g.points[:, 0] ** 2 / 2)
        uniform = DiscreteMeasure(g, np.full(41, 1 / 41), is_probability=True)
        gauss = DiscreteMeasure(g, w / w.sum(), is_probability=True)
        q = GaussianHeatKernel(source=g, target=g, eps=0.001)
        with pytest.raises(ValueError, match="factor masses beyond the float64 range"):
            solve_schrodinger(q, uniform, gauss, max_iters=1000)

    def test_factor_mass_overflow_named_with_zero_mass_points(self):
        # uniform to N(0, 1) at eps = 0.005, with 10 zero-mass source points
        # and 7 zero-mass target points: scalings leave their range and are
        # absorbed on the way, the factor masses leave the float64 range, and
        # the solve must stop with the same error as the log-sum-exp sweep
        g = make_grid(1, 4.0, 151)
        w1 = np.ones(151)
        w1[:10] = 0.0
        w2 = np.exp(-g.points[:, 0] ** 2 / 2)
        w2[-7:] = 0.0
        mu1 = DiscreteMeasure(g, w1 / w1.sum(), is_probability=True)
        mu2 = DiscreteMeasure(g, w2 / w2.sum(), is_probability=True)
        q = GaussianHeatKernel(source=g, target=g, eps=0.005)
        with pytest.raises(ValueError, match="factor masses beyond the float64 range"):
            solve_schrodinger(q, mu1, mu2, max_iters=1000)

    def test_symmetric_2x2_closed_form(self, q2x2, mu_half):
        sol = solve_schrodinger(q2x2, mu_half, mu_half, tol=1e-14)
        expected = 1.0 / math.sqrt(6.0)
        assert np.allclose(sol.nu1.weights, expected, atol=1e-12)
        assert np.allclose(sol.nu2.weights, expected, atol=1e-12)
        assert np.allclose(plan_matrix(sol),
                           [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-12)

    def test_constant_kernel_gives_product(self, sup2, mu_half, mu_skew):
        q = DenseKernel(source=sup2, target=sup2, values=np.ones((2, 2)))
        sol = solve_schrodinger(q, mu_half, mu_skew, tol=1e-14)
        assert np.allclose(sol.nu1.weights, mu_half.weights, atol=1e-13)
        assert np.allclose(sol.nu2.weights, mu_skew.weights, atol=1e-13)
        assert np.allclose(plan_matrix(sol),
                           np.outer(mu_half.weights, mu_skew.weights), atol=1e-13)
        assert np.allclose(sol.u1, 0.0, atol=1e-13)
        assert np.allclose(sol.u2, 0.0, atol=1e-13)

    def test_skewed_2x2_against_oracle(self, q2x2, mu_half, mu_skew):
        sol = solve_schrodinger(q2x2, mu_half, mu_skew, tol=1e-14)
        assert sol.final_residual <= 1e-12
        # frozen from the 1e4-iteration plain fixed-point oracle
        assert np.allclose(sol.nu1.weights,
                           [0.33985302415522, 0.4904080729631687], atol=1e-12)
        assert np.allclose(sol.nu2.weights,
                           [0.6409631217711174, 0.18929797534727136], atol=1e-12)
        nu1o, nu2o = plain_fixed_point_oracle(np.array(q2x2.values),
                                              mu_half.weights, mu_skew.weights)
        assert np.allclose(sol.nu1.weights, nu1o, atol=1e-12)
        assert np.allclose(sol.nu2.weights, nu2o, atol=1e-12)

    def test_potential_definition_holds(self, q2x2, mu_half, mu_skew):
        sol = solve_schrodinger(q2x2, mu_half, mu_skew, tol=1e-14)
        assert np.allclose(np.exp(sol.u1), q2x2.values @ sol.nu2.weights, rtol=1e-12)
        assert np.allclose(np.exp(sol.u2), q2x2.values.T @ sol.nu1.weights, rtol=1e-12)

    def test_equal_mass_normalization(self, q2x2, mu_half, mu_skew):
        sol = solve_schrodinger(q2x2, mu_half, mu_skew, tol=1e-14)
        assert sol.nu1.total_mass == pytest.approx(sol.nu2.total_mass, abs=1e-10)

    def test_zero_mass_point_gets_zero_factor(self, sup2, q2x2, mu_half):
        atom = DiscreteMeasure(sup2, np.array([1.0, 0.0]), is_probability=True)
        sol = solve_schrodinger(q2x2, atom, mu_half, tol=1e-13)
        assert sol.nu1.weights[1] == 0.0
        assert sol.converged

    def test_non_convergence_flagged(self, grid_1d, gauss_kernel):
        x = grid_1d.points[:, 0]
        w1 = np.exp(-(x - 0.5) ** 2)
        w2 = np.exp(-(x + 0.5) ** 2)
        mu1 = DiscreteMeasure(grid_1d, w1 / w1.sum(), is_probability=True)
        mu2 = DiscreteMeasure(grid_1d, w2 / w2.sum(), is_probability=True)
        k = GaussianHeatKernel(source=grid_1d, target=grid_1d, t=1.0, eps=0.01)
        sol = solve_schrodinger(k, mu1, mu2, tol=1e-14, max_iters=3)
        assert not sol.converged
        assert sol.iterations == 3

    def test_residual_monotone_nonincreasing(self, grid_1d, gauss_kernel):
        x = grid_1d.points[:, 0]
        w1 = np.exp(-(x - 0.4) ** 2 / 0.3)
        w2 = np.exp(-(x + 0.6) ** 2 / 0.5)
        mu1 = DiscreteMeasure(grid_1d, w1 / w1.sum(), is_probability=True)
        mu2 = DiscreteMeasure(grid_1d, w2 / w2.sum(), is_probability=True)
        # Sweeps are deterministic: a solve capped at i sweeps exits with the
        # residual of sweep i of the uncapped solve.
        k = solve_schrodinger(gauss_kernel, mu1, mu2, tol=1e-13).iterations
        hist = np.array([solve_schrodinger(gauss_kernel, mu1, mu2, tol=1e-13,
                                           max_iters=i).final_residual
                         for i in range(1, k + 1)])
        assert np.all(np.diff(hist) <= 1e-14)

    def test_log_and_plain_domain_agree(self, grid_1d, gauss_kernel):
        x = grid_1d.points[:, 0]
        w1 = np.exp(-x**2 / 0.5)
        w2 = np.exp(-(x - 0.3) ** 2 / 0.4)
        mu1 = DiscreteMeasure(grid_1d, w1 / w1.sum(), is_probability=True)
        mu2 = DiscreteMeasure(grid_1d, w2 / w2.sum(), is_probability=True)
        log_sol = solve_schrodinger(gauss_kernel, mu1, mu2, tol=1e-13)
        plain_nu1, plain_u1 = plain_domain_solve(gauss_kernel, mu1, mu2, tol=1e-13)
        assert np.allclose(log_sol.nu1.weights, plain_nu1, rtol=1e-8)
        assert np.allclose(log_sol.u1, plain_u1, atol=1e-8)

    def test_swap_symmetry(self, q2x2, mu_half, mu_skew, sup2):
        sol = solve_schrodinger(q2x2, mu_half, mu_skew, tol=1e-14)
        qt = DenseKernel(source=sup2, target=sup2, values=np.array(q2x2.values).T)
        swapped = solve_schrodinger(qt, mu_skew, mu_half, tol=1e-14)
        assert np.allclose(swapped.nu1.weights, sol.nu2.weights, atol=1e-11)
        assert np.allclose(swapped.nu2.weights, sol.nu1.weights, atol=1e-11)
        assert np.allclose(plan_matrix(swapped), plan_matrix(sol).T, atol=1e-11)
        assert np.allclose(swapped.u1, sol.u2, atol=1e-11)


@st.composite
def _scaling_instances(draw):
    """1-D instances with some zero-mass points, cold or warm started."""
    n = draw(st.integers(5, 60))
    radius = draw(st.sampled_from([1.0, 2.0, 4.0]))
    eps = 10.0 ** draw(st.floats(-2.0, math.log10(2.0)))
    g = make_grid(1, radius, n)
    weights = []
    for _ in range(2):
        w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
        w[sorted(draw(st.sets(st.integers(0, n - 1), max_size=n // 3)))] = 0.0
        weights.append(DiscreteMeasure(g, w / w.sum(), is_probability=True))
    init = None
    if draw(st.booleans()):
        init = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
        init[weights[1].weights == 0] = -np.inf
    return GaussianHeatKernel(source=g, target=g, eps=eps), *weights, init


def _underflow_instance(n, radius, eps):
    g = make_grid(1, radius, n)
    x = g.points[:, 0]
    w1 = np.exp(-(x - 0.5) ** 2)
    w1[::7] = 0.0
    w2 = np.exp(-(x + 0.5) ** 2)
    w2[3::11] = 0.0
    return (GaussianHeatKernel(source=g, target=g, eps=eps),
            DiscreteMeasure(g, w1 / w1.sum(), is_probability=True),
            DiscreteMeasure(g, w2 / w2.sum(), is_probability=True), None)


def _assert_matches_lse_reference(q, mu1, mu2, init, max_iters=2000):
    try:
        ref = lse_reference_solve(q, mu1, mu2, max_iters=max_iters, init_log_nu2=init)
    except ValueError:
        with pytest.raises(ValueError, match="factor masses beyond the float64 range"):
            solve_schrodinger(q, mu1, mu2, max_iters=max_iters, init_log_nu2=init)
        return
    sol = solve_schrodinger(q, mu1, mu2, max_iters=max_iters, init_log_nu2=init)
    assert sol.converged == ref.converged
    assert abs(sol.iterations - ref.iterations) <= 1
    logk = log_eval_kernel(q)
    ref_plan = np.exp(ref.log_nu1[:, None] + logk + ref.log_nu2[None, :])
    assert np.abs(plan_matrix(sol) - ref_plan).max() <= 1e-12
    assert np.abs((sol.u1[:, None] + sol.u2[None, :])
                  - (ref.u1[:, None] + ref.u2[None, :])).max() <= 1e-10


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_scaling_instances())
# exp(logk) underflows at eps = 0.01 on a radius-4 grid: scalings are absorbed
@example(_underflow_instance(60, 4.0, 0.01))
def test_stabilized_scaling_matches_lse_reference(instance):
    _assert_matches_lse_reference(*instance)


def test_absorption_paths_match_lse_reference(monkeypatch):
    # at eps = 0.003 both scalings leave SCALING_BOUNDS on the way, so each
    # half-sweep is redone in the log domain at least once after the first
    q, mu1, mu2, _ = _underflow_instance(30, 2.0, 0.003)
    sweeps, refits = [], []
    monkeypatch.setattr("schrobridge.solver.tv_distance",
                        lambda *args: sweeps.append(1) or tv_distance(*args))
    monkeypatch.setattr("schrobridge.solver._refit",
                        lambda *args: refits.append((args[3], len(sweeps))) or _refit(*args))
    assert solve_schrodinger(q, mu1, mu2, max_iters=3000).converged
    assert {axis for axis, _ in refits[1:]} == {0, 1}
    _assert_matches_lse_reference(q, mu1, mu2, None, max_iters=3000)
    # a solve that stops in the sweep whose first half was redone
    stop = next(done for axis, done in refits[1:] if axis == 0) + 1
    _assert_matches_lse_reference(q, mu1, mu2, None, max_iters=stop)


class TestGaugeInvariance:
    def test_rescale_leaves_plan_and_sum_unchanged(self, q2x2, mu_half, mu_skew):
        sol = solve_schrodinger(q2x2, mu_half, mu_skew, tol=1e-14)
        scaled = rescaled(sol, 7.3)
        assert np.allclose(plan_matrix(scaled), plan_matrix(sol), rtol=1e-13)
        s = sol.u1[:, None] + sol.u2[None, :]
        s2 = scaled.u1[:, None] + scaled.u2[None, :]
        assert np.allclose(s, s2, atol=1e-12)

    def test_renormalization_idempotent(self, q2x2, mu_half, mu_skew):
        sol = solve_schrodinger(q2x2, mu_half, mu_skew, tol=1e-14)
        # the solver has already equalized masses: re-applying the gauge is a no-op
        c = math.sqrt(sol.nu2.total_mass / sol.nu1.total_mass)
        assert c == pytest.approx(1.0, abs=1e-12)
        again = rescaled(sol, c)
        assert np.allclose(again.nu1.weights, sol.nu1.weights, rtol=1e-12)


class TestPlan:
    def test_marginals_match(self, grid_1d, gauss_kernel):
        x = grid_1d.points[:, 0]
        w1 = np.exp(-x**2 / 0.7) + 0.1
        w2 = np.exp(-(x - 0.5) ** 2 / 0.2) + 0.05
        mu1 = DiscreteMeasure(grid_1d, w1 / w1.sum(), is_probability=True)
        mu2 = DiscreteMeasure(grid_1d, w2 / w2.sum(), is_probability=True)
        sol = solve_schrodinger(gauss_kernel, mu1, mu2, tol=1e-12)
        plan = plan_matrix(sol)
        assert np.abs(plan.sum(axis=1) - mu1.weights).sum() <= 2e-12
        assert np.abs(plan.sum(axis=0) - mu2.weights).sum() <= 2e-12

    def test_product_support_measure(self, q2x2, mu_half):
        sol = solve_schrodinger(q2x2, mu_half, mu_half, tol=1e-14)
        plan = plan_matrix(sol)
        assert plan.size == 4
        assert plan.sum() == pytest.approx(1.0, abs=1e-12)

    def test_two_factorizations_agree(self, grid_1d, gauss_kernel):
        x = grid_1d.points[:, 0]
        w1 = np.exp(-x**2 / 0.7) + 0.02
        w2 = np.exp(-(x + 0.3) ** 2 / 0.6) + 0.02
        mu1 = DiscreteMeasure(grid_1d, w1 / w1.sum(), is_probability=True)
        mu2 = DiscreteMeasure(grid_1d, w2 / w2.sum(), is_probability=True)
        sol = solve_schrodinger(gauss_kernel, mu1, mu2, tol=1e-12)
        lhs = plan_matrix(sol)
        k = np.exp(log_eval_kernel(gauss_kernel))
        rhs = (k * np.exp(-sol.u1[:, None] - sol.u2[None, :])
               * mu1.weights[:, None] * mu2.weights[None, :])
        mask = lhs > 1e-300
        assert np.max(np.abs(lhs[mask] - rhs[mask]) / lhs[mask]) <= 1e-10


class TestTruncatedPotentials:
    def test_full_hat_equals_potential(self, q2x2, mu_half):
        sol = solve_schrodinger(q2x2, mu_half, mu_half, tol=1e-14)
        u1m, u2m = truncated_potentials(sol, 1)
        assert np.allclose(u1m, sol.u1, atol=1e-14)
        assert np.allclose(u2m, sol.u2, atol=1e-14)
        assert u1m[0] == pytest.approx(math.log(3 / math.sqrt(6)), abs=1e-12)

    def test_monotone_in_m(self):
        g = make_grid(1, 2.5, 31)
        x = g.points[:, 0]
        w1 = np.exp(-x**2) + 0.05
        w2 = np.exp(-(x - 0.8) ** 2 / 0.4) + 0.05
        mu1 = DiscreteMeasure(g, w1 / w1.sum(), is_probability=True)
        mu2 = DiscreteMeasure(g, w2 / w2.sum(), is_probability=True)
        k = GaussianHeatKernel(source=g, target=g, t=1.0, eps=1.0)
        sol = solve_schrodinger(k, mu1, mu2, tol=1e-13)
        prev = None
        for m in (1, 2, 3):
            u1m, u2m = truncated_potentials(sol, m)
            total = u1m[:, None] + u2m[None, :]
            if prev is not None:
                assert np.all(total >= prev - 1e-12)
            prev = total

    def test_below_mass_raises(self, q2x2, mu_half):
        sol = solve_schrodinger(q2x2, mu_half, mu_half, tol=1e-14)
        for m in (0, math.nan):
            with pytest.raises(ValueError, match="below m_index"):
                truncated_potentials(sol, m)


class TestBeurlingBounds:
    def test_2x2_arithmetic(self, q2x2, mu_half):
        sol = solve_schrodinger(q2x2, mu_half, mu_half, tol=1e-14)
        rep = check_beurling_bounds(sol, 1.0)
        assert rep.lower == pytest.approx(1 / math.sqrt(2))
        assert rep.upper == pytest.approx(2.0)
        assert math.exp(sol.u1[0]) == pytest.approx(3 / math.sqrt(6), abs=1e-12)

    def test_constant_kernel_tight(self, sup2, mu_half, mu_skew):
        c = 3.7
        q = DenseKernel(source=sup2, target=sup2, values=np.full((2, 2), c))
        sol = solve_schrodinger(q, mu_half, mu_skew, tol=1e-14)
        rep = check_beurling_bounds(sol, 1.0)
        assert rep.lower == pytest.approx(math.sqrt(c))
        assert rep.upper == pytest.approx(math.sqrt(c))
        assert np.allclose(np.exp(sol.u1), math.sqrt(c), rtol=1e-12)

    def test_gaussian_grid_positive_slack(self, grid_1d, gauss_kernel):
        x = grid_1d.points[:, 0]
        w1 = np.exp(-x**2 / 0.8) + 0.1
        mu1 = DiscreteMeasure(grid_1d, w1 / w1.sum(), is_probability=True)
        mu2 = DiscreteMeasure(grid_1d, np.full(grid_1d.n_points, 1 / grid_1d.n_points),
                              is_probability=True)
        sol = solve_schrodinger(gauss_kernel, mu1, mu2, tol=1e-12)
        rep = check_beurling_bounds(sol, 2.0)
        assert rep.worst_slack > 0

    def test_random_instances_never_violate(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            q, mu1, mu2 = random_instance(rng)
            sol = solve_schrodinger(q, mu1, mu2, tol=1e-12, max_iters=20000)
            check_beurling_bounds(sol, mu1.support.bounding_radius)


class TestProductIdentity:
    def test_2x2_exact(self, q2x2, mu_half):
        sol = solve_schrodinger(q2x2, mu_half, mu_half, tol=1e-14)
        rep = check_product_identity(sol, 1, [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert rep.worst_slack <= 1e-12

    def test_constant_kernel_unit(self, sup2, mu_half, mu_skew):
        q = DenseKernel(source=sup2, target=sup2, values=np.ones((2, 2)))
        sol = solve_schrodinger(q, mu_half, mu_skew, tol=1e-14)
        u1m, u2m = truncated_potentials(sol, 1)
        assert np.allclose(np.exp(u1m[:, None] + u2m[None, :]), 1.0, atol=1e-12)
        check_product_identity(sol, 1, [(0, 1)])

    def test_gaussian_grid_random_pairs(self, grid_1d, gauss_kernel):
        x = grid_1d.points[:, 0]
        w1 = np.exp(-x**2 / 0.9) + 0.05
        w2 = np.exp(-(x - 0.4) ** 2 / 0.5) + 0.05
        mu1 = DiscreteMeasure(grid_1d, w1 / w1.sum(), is_probability=True)
        mu2 = DiscreteMeasure(grid_1d, w2 / w2.sum(), is_probability=True)
        sol = solve_schrodinger(gauss_kernel, mu1, mu2, tol=1e-13)
        rng = np.random.default_rng(5)
        pairs = [(int(rng.integers(grid_1d.n_points)),
                  int(rng.integers(grid_1d.n_points))) for _ in range(20)]
        rep = check_product_identity(sol, 2, pairs)
        assert rep.worst_slack <= 1e-8


class TestLevelBounds:
    def test_2x2_arithmetic(self, q2x2, mu_half):
        sol = solve_schrodinger(q2x2, mu_half, mu_half, tol=1e-14)
        rep = check_level_bounds(sol, 1)
        assert rep.lower == pytest.approx(0.5, abs=1e-12)
        assert rep.upper == pytest.approx(1.0, abs=1e-12)
        assert rep.detail["product_of_masses"] == pytest.approx(2 / 3, abs=1e-12)

    def test_constant_kernel_all_ones(self, sup2, mu_half, mu_skew):
        q = DenseKernel(source=sup2, target=sup2, values=np.ones((2, 2)))
        sol = solve_schrodinger(q, mu_half, mu_skew, tol=1e-14)
        rep = check_level_bounds(sol, 1)
        assert rep.lower == pytest.approx(1.0, abs=1e-12)
        assert rep.upper == pytest.approx(1.0, abs=1e-12)
        assert rep.detail["product_of_masses"] == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_grid_holds(self, grid_1d, gauss_kernel):
        x = grid_1d.points[:, 0]
        w1 = np.exp(-x**2) + 0.1
        w2 = np.exp(-(x + 0.2) ** 2 / 0.3) + 0.1
        mu1 = DiscreteMeasure(grid_1d, w1 / w1.sum(), is_probability=True)
        mu2 = DiscreteMeasure(grid_1d, w2 / w2.sum(), is_probability=True)
        sol = solve_schrodinger(gauss_kernel, mu1, mu2, tol=1e-12)
        rep = check_level_bounds(sol, 2)
        assert rep.worst_slack >= 0
