import math

import numpy as np
import pytest

from schrobridge import (
    Density,
    NonConvergenceError,
    check_convexity,
    fixed_point_step,
    free_energy_upper_bound,
    make_grid,
    solve_fixed_point,
    verify_moment_measure,
    zero_noise_continuation,
)
from schrobridge.control import objective_from_solution
from schrobridge.moment import (
    jensen_gap,
    lattice_gradient,
    potential_profile,
    recentered,
    uniform_density,
)
from conftest import gaussian_density


@pytest.fixture
def grid_r4():
    return make_grid(1, 4.0, 121)


@pytest.fixture
def std_normal(grid_r4):
    return gaussian_density(grid_r4, 1.0)


class TestFixedPointStep:
    def test_stationary_density_reproduced(self, grid_r4, std_normal):
        trace = solve_fixed_point(std_normal, 0.5, 4.0, tol=1e-10)
        p_star = trace.final
        image = fixed_point_step(p_star, std_normal, 0.5, 4.0)
        assert np.abs(image.values - p_star.values).max() <= 1e-8

    def test_output_is_probability_in_ball(self, grid_r4, std_normal):
        p = uniform_density(grid_r4)
        out = fixed_point_step(p, std_normal, 0.5, 4.0)
        assert out.is_probability
        assert float(out.values @ grid_r4.cell_volumes) == pytest.approx(1.0, abs=1e-12)
        assert out.support.radii().max() <= 4.0

    def test_symmetric_target_gives_even_iterates(self, grid_r4, std_normal):
        trace = solve_fixed_point(std_normal, 0.5, 4.0, tol=1e-9)
        assert trace.converged
        v = trace.final.values
        assert np.abs(v - v[::-1]).max() <= 1e-10

    def test_rejects_support_outside_ball(self, grid_r4, std_normal):
        p = uniform_density(grid_r4)
        with pytest.raises(ValueError, match="B_r"):
            fixed_point_step(p, std_normal, 0.5, 2.0)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_eps(self, grid_r4, std_normal, eps):
        # the heat kernel's own check is the only one
        with pytest.raises(ValueError, match="eps > 0"):
            fixed_point_step(uniform_density(grid_r4), std_normal, eps, 4.0)


class TestSolveFixedPoint:
    def test_converges_and_objective_below_uniform_bound(self, grid_r4, std_normal):
        trace = solve_fixed_point(std_normal, 0.5, 4.0, tol=1e-9)
        assert trace.converged
        bound = free_energy_upper_bound(std_normal, 0.5, 4.0, support=grid_r4)
        assert trace.objective <= bound

    def test_two_initializations_agree(self, grid_r4, std_normal):
        a = solve_fixed_point(std_normal, 0.5, 4.0, tol=1e-9)
        clipped = Density(grid_r4,
                          std_normal.values / (std_normal.values @ grid_r4.cell_volumes),
                          is_probability=True)
        b = solve_fixed_point(std_normal, 0.5, 4.0, tol=1e-9, init=clipped)
        assert np.abs(a.final.values - b.final.values).max() <= 1e-6

    def test_residual_meets_tolerance(self, grid_r4, std_normal):
        trace = solve_fixed_point(std_normal, 0.25, 4.0, tol=1e-9)
        assert trace.residual <= 1e-9

    def test_non_convergence_is_flagged(self, grid_r4, std_normal):
        trace = solve_fixed_point(std_normal, 1.0, 4.0, tol=1e-12, max_outer=2)
        assert not trace.converged

    def test_objective_of_last_solved_iterate(self, grid_r4, std_normal):
        # Two damped steps: iterates are (uniform, mix 1, mix 2), and the
        # last solve ran at mix 1, not at the returned mix 2.
        trace = solve_fixed_point(std_normal, 1.0, 4.0, tol=1e-12, max_outer=2)
        assert not trace.converged and len(trace.iterates) == 3
        last_solved = trace.iterates[1]
        assert trace.objective == objective_from_solution(
            trace.final_solution, last_solved, std_normal, 1.0)
        assert trace.objective != objective_from_solution(
            trace.final_solution, trace.final, std_normal, 1.0)

    def test_jensen_inequality_each_level(self, grid_r4, std_normal):
        trace = solve_fixed_point(std_normal, 0.5, 4.0, tol=1e-9)
        assert jensen_gap(trace) >= -1e-10

    def test_profile_is_midpoint_convex(self, grid_r4, std_normal):
        trace = solve_fixed_point(std_normal, 0.5, 4.0, tol=1e-9)
        profile = potential_profile(trace)
        defect = check_convexity(profile, grid_r4)
        assert defect <= 1e-8 * (1.0 + profile.max() - profile.min())

    def test_zero_init_with_damping_rejected(self, grid_r4, std_normal):
        vals = np.zeros(grid_r4.n_points)
        vals[:3] = 1.0
        vals = vals / (vals @ grid_r4.cell_volumes)
        bad = Density(grid_r4, vals, is_probability=True)
        with pytest.raises(ValueError, match="damping"):
            solve_fixed_point(std_normal, 0.5, 4.0, init=bad, damping=0.5)


class TestZeroNoise:
    def test_schedule_of_length_one_matches_single_solve(self, grid_r4, std_normal):
        res = zero_noise_continuation(std_normal, 4.0, eps_schedule=[0.5], tol=1e-9)
        trace = solve_fixed_point(std_normal, 0.5, 4.0, tol=1e-9)
        assert np.abs(res.p0.values - trace.final.values).max() <= 1e-14

    def test_recentering_contract(self, grid_r4):
        centered = gaussian_density(grid_r4, 0.8)
        base = make_grid(1, 4.0, 121)
        from schrobridge import Support

        shifted = Density(
            Support(points=base.points + 0.35,
                    cell_volumes=base.cell_volumes,
                    bounding_radius=4.35),
            centered.values, is_probability=True)
        res_c = zero_noise_continuation(centered, 4.0, eps_schedule=[0.5, 0.25],
                                        tol=1e-9)
        res_s = zero_noise_continuation(shifted, 4.0, eps_schedule=[0.5, 0.25],
                                        tol=1e-9)
        assert res_s.recenter_shift[0] == pytest.approx(0.35, abs=1e-9)
        assert np.abs(res_c.p0.values - res_s.p0.values).max() <= 1e-8

    def test_schedule_must_decrease(self, std_normal):
        with pytest.raises(ValueError, match="decreasing"):
            zero_noise_continuation(std_normal, 4.0, eps_schedule=[0.5, 0.5])

    def test_partial_schedule_on_failure(self, grid_r4, std_normal):
        with pytest.raises(NonConvergenceError) as info:
            zero_noise_continuation(std_normal, 4.0, eps_schedule=[1.0, 0.5],
                                    tol=1e-13, max_outer=2)
        assert info.value.partial is not None

    def test_small_gaussian_instance_approaches_quadratic(self, grid_r4, std_normal):
        # short schedule for speed; the full-depth run lives in acceptance
        res = zero_noise_continuation(std_normal, 4.0,
                                      eps_schedule=[1.0, 0.5, 0.25, 0.125],
                                      tol=1e-9)
        x = grid_r4.points[:, 0]
        mask = np.abs(x) <= 2.0
        diff = res.u_bar - 0.5 * x**2
        diff = diff - diff[mask].mean()
        # tail gap scales like eps * x^2 / (2 (1 + eps)): ~0.15 at eps = 1/8
        assert np.abs(diff[mask]).max() <= 0.2
        assert res.convexity_defect <= 1e-8
        bl_drifts = [row["bl_drift"] for row in res.diagnostics[1:]]
        assert all(b > a for a, b in zip(bl_drifts[1:], bl_drifts[:-1]))
        # target-side convex profile dominates its barycenter value at
        # every noise level
        assert all(jensen_gap(tr) >= -1e-10 for tr in res.traces)


class TestVerifyMomentMeasure:
    def test_quadratic_potential_pushes_to_gaussian(self):
        # grad u = x pushes exp(-u) = N(0,1) onto itself; error falls with
        # grid refinement
        errors = []
        for n in (51, 101, 201):
            g = make_grid(1, 4.0, n)
            x = g.points[:, 0]
            u = 0.5 * x**2 + 0.5 * math.log(2 * math.pi)
            p1 = gaussian_density(g, 1.0)
            err, w2c = verify_moment_measure(u, g, p1)
            errors.append(err)
            assert w2c >= -1e-3
            assert abs(w2c) <= 0.05
        assert errors[2] < errors[0]
        assert errors[2] < 0.01

    def test_shifted_quadratic_barycenter(self):
        g = make_grid(1, 6.0, 201)
        x = g.points[:, 0]
        c = 1.2
        u = 0.5 * (x - c) ** 2
        logw = -u + np.log(g.cell_volumes)
        w = np.exp(logw - logw.max())
        w = w / w.sum()
        du = lattice_gradient(u, g)
        bary = float((w * du[:, 0]).sum())
        quad = float(w @ (x - c))
        # one-sided boundary stencils carry negligible weight here
        assert bary == pytest.approx(quad, abs=1e-6)
        # pushforward of N(c,1) under x - c is N(0,1): compare against centered
        err, _ = verify_moment_measure(u, g, gaussian_density(g, 1.0))
        assert err <= 0.02

    def test_nonfinite_potential_rejected(self):
        g = make_grid(1, 1.0, 8)
        u = np.zeros(8)
        u[3] = np.inf
        with pytest.raises(ValueError, match="finite"):
            verify_moment_measure(u, g, gaussian_density(g, 0.3))


class TestCheckConvexity:
    def test_quadratic_exactly_convex(self):
        for d, n in ((1, 33), (2, 9)):
            g = make_grid(d, 2.0, n)
            u = 0.5 * np.sum(g.points**2, axis=1)
            assert check_convexity(u, g) == 0.0

    def test_absolute_value_convex(self):
        g = make_grid(1, 2.0, 40)
        u = np.abs(g.points[:, 0])
        assert check_convexity(u, g) <= 1e-15

    def test_concave_bump_detected(self):
        g = make_grid(1, 2.0, 40)
        u = -g.points[:, 0] ** 2
        assert check_convexity(u, g) > 0.0

    def test_recentered_helper(self):
        g = make_grid(1, 3.0, 61)
        p = gaussian_density(g, 0.5, mean=0.7)
        q, shift = recentered(p)
        # truncation at the grid edge skews the quadrature barycenter slightly
        assert shift[0] == pytest.approx(0.7, abs=0.01)
        assert abs(q.barycenter()[0]) <= 1e-12

    def test_recentering_is_idempotent(self):
        g = make_grid(1, 3.0, 61)
        q, _ = recentered(gaussian_density(g, 0.5, mean=0.3))
        again, shift = recentered(q)
        assert again is q
        assert np.all(shift == 0.0)
