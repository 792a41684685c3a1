import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from schrobridge import (
    Density,
    FixedPointTrace,
    GaussianHeatKernel,
    NonConvergenceError,
    check_convexity,
    make_grid,
    solve_fixed_point,
    verify_moment_measure,
    zero_noise_continuation,
)
import schrobridge.moment
from schrobridge.control import objective_from_solution
from schrobridge.core import log_heat, same_support
from schrobridge.moment import (
    DEFAULT_DAMPING,
    DEFAULT_EPS_SCHEDULE,
    _restrict_to_ball,
    _step,
    lattice_gradient,
    recentered,
    uniform_density,
)
from schrobridge.solver import INNER_TOL
from conftest import fixed_point_step, free_energy_upper_bound, gaussian_density


def potential_profile(trace: FixedPointTrace):
    """The convex profile eps * u1 + |x|^2 / 2 of the trace's final solve."""
    sol = trace.final_solution
    pts = sol.mu1.support.points
    return trace.eps * sol.u1 + 0.5 * np.sum(pts**2, axis=1)


def u2_at(sol, y):
    """u2 of a heat-kernel solve at an off-grid point y: log of the heat kernel against nu1."""
    k = sol.kernel
    return float(logsumexp(log_heat(y[None, :], k.source.points, k.eps, k.t) + sol.log_nu1))


def jensen_gap(trace: FixedPointTrace) -> float:
    """integral of (eps*u2 + |y|^2/2) dP1 minus its value at the barycenter.

    Nonnegative for the convex target-side profile; evaluated off-grid at
    the exact barycenter through the analytic kernel.
    """
    sol = trace.final_solution
    p1w = sol.mu2.weights
    pts = sol.mu2.support.points
    profile = trace.eps * sol.u2 + 0.5 * np.sum(pts**2, axis=1)
    y0 = pts.T @ p1w / p1w.sum()
    u2_y0 = u2_at(sol, y0)
    at_y0 = trace.eps * u2_y0 + 0.5 * float(y0 @ y0)
    return float(profile @ p1w / p1w.sum()) - at_y0


def damped_reference_fixed_point(p1, eps, r, damping=DEFAULT_DAMPING, tol=1e-9,
                                 max_outer=200):
    """Reference: the damped loop ``solve_fixed_point`` ran before Anderson mixing.

    Same recentring, uniform start, warm start, convergence test and
    returned image; every step is
    log p <- (1 - damping) log p + damping log(step(p)), renormalized.
    Returns ``(final density, outer steps, converged)``.
    """
    p1, _ = recentered(p1)
    support = _restrict_to_ball(p1.support, r)
    p = uniform_density(support)
    kernel = GaussianHeatKernel(source=support, target=p1.support, t=1.0, eps=eps)
    target = p1.to_measure()
    warm = None
    for steps in range(1, max_outer + 1):
        log_image, sol = _step(p, target, kernel, warm)
        warm = sol.log_nu2
        image = Density(support, np.exp(log_image), is_probability=True)
        if np.abs(image.values - p.values).max() <= tol:
            return image, steps, True
        log_mix = (1.0 - damping) * np.log(p.values) + damping * log_image
        log_mix -= logsumexp(log_mix + np.log(support.cell_volumes))
        p = Density(support, np.exp(log_mix), is_probability=True)
    return p, max_outer, False


def _u_bar(p):
    u = -np.log(p.values)
    return u - u.min()


@st.composite
def _targets(draw):
    """A 1-D grid of its own size and radius, an off-centre Gaussian, an eps."""
    r = draw(st.sampled_from([2.0, 2.5, 3.0]))
    grid = make_grid(1, r, draw(st.integers(21, 61)))
    p1 = gaussian_density(grid, draw(st.floats(0.5, 1.5)), mean=draw(st.floats(-0.1, 0.1)))
    return p1, draw(st.sampled_from(DEFAULT_EPS_SCHEDULE[:4])), r


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

    def test_recenters_the_target(self):
        # an off-centre target: the caller's own p1 re-substitutes the
        # converged density, as solve_fixed_point recenters it
        g = make_grid(1, 3.0, 80)
        p1 = gaussian_density(g, 2.0, mean=0.07)
        trace = solve_fixed_point(p1, 1 / 8, 3.0, tol=1e-11)
        assert trace.converged
        image = fixed_point_step(trace.final, p1, 1 / 8, 3.0)
        assert np.abs(image.values - trace.final.values).max() <= 1e-8

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
        bound = free_energy_upper_bound(std_normal, 4.0, support=grid_r4)
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

    def test_zero_mass_target_rejected(self):
        p1 = Density(make_grid(1, 2.0, 21), np.zeros(21))
        with pytest.raises(ValueError, match="barycenter of a measure of zero total mass"):
            solve_fixed_point(p1, 0.5, 2.0)
        with pytest.raises(ValueError, match="barycenter of a measure of zero total mass"):
            zero_noise_continuation(p1, 2.0)

    def test_non_convergence_is_flagged(self, grid_r4, std_normal):
        trace = solve_fixed_point(std_normal, 1.0, 4.0, tol=1e-12, max_outer=2)
        assert not trace.converged

    def test_objective_of_last_solved_iterate(self, grid_r4, std_normal):
        # Two steps, damped then mixed: iterates are (uniform, x1, x2), and
        # the last solve ran at x1, not at the returned x2.
        trace = solve_fixed_point(std_normal, 1.0, 4.0, tol=1e-12, max_outer=2)
        assert not trace.converged and len(trace.iterates) == 3
        last_solved = trace.iterates[1]
        assert trace.objective == objective_from_solution(
            trace.final_solution, last_solved, std_normal)
        assert trace.objective != objective_from_solution(
            trace.final_solution, trace.final, std_normal)

    def test_jensen_inequality_each_level(self, grid_r4, std_normal):
        trace = solve_fixed_point(std_normal, 0.5, 4.0, tol=1e-9)
        assert jensen_gap(trace) >= -1e-10

    def test_profile_is_midpoint_convex(self, grid_r4, std_normal):
        trace = solve_fixed_point(std_normal, 0.5, 4.0, tol=1e-9)
        profile = potential_profile(trace)
        defect = check_convexity(profile, grid_r4)
        assert defect <= 1e-8 * (1.0 + profile.max() - profile.min())

    @pytest.mark.parametrize("p1_grid, r, init_grid", [
        # inside B_4, but not on the target's points
        (make_grid(1, 4.0, 41), 4.0, make_grid(1, 2.0, 11)),
        # the target's own points, one of which lies 1e-10 outside B_r
        (make_grid(1, 4.0, 40), 3.9 / (1 + 1e-10), make_grid(1, 4.0, 40)),
    ], ids=["other_points", "edge_outside_ball"])
    def test_init_off_the_ball_support_rejected_up_front(self, p1_grid, r, init_grid):
        with pytest.raises(ValueError, match="^init must"):
            solve_fixed_point(gaussian_density(p1_grid, 1.0), 0.5, r,
                              init=uniform_density(init_grid))

    def test_zero_init_with_damping_rejected(self, grid_r4, std_normal):
        vals = np.zeros(grid_r4.n_points)
        vals[:3] = 1.0
        vals = vals / (vals @ grid_r4.cell_volumes)
        bad = Density(grid_r4, vals, is_probability=True)
        with pytest.raises(ValueError, match="damping"):
            solve_fixed_point(std_normal, 0.5, 4.0, init=bad)


class TestAnderson:
    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(_targets())
    def test_matches_damped_reference_1d(self, instance):
        p1, eps, r = instance
        ref, ref_steps, ref_ok = damped_reference_fixed_point(
            p1, eps, r, tol=1e-11, max_outer=2000)
        trace = solve_fixed_point(p1, eps, r, tol=1e-11)
        assert ref_ok and trace.converged
        assert len(trace.iterates) - 1 <= min(ref_steps, 30)
        assert np.abs(_u_bar(trace.final) - _u_bar(ref)).max() <= 1e-7

    def test_matches_damped_reference_2d(self):
        g = make_grid(2, 2.0, 21)
        p1 = gaussian_density(g, 0.5)
        ref, ref_steps, ref_ok = damped_reference_fixed_point(p1, 0.25, 2.0, tol=1e-11)
        trace = solve_fixed_point(p1, 0.25, 2.0, tol=1e-11)
        assert ref_ok and trace.converged
        assert len(trace.iterates) - 1 <= ref_steps / 3
        assert np.abs(_u_bar(trace.final) - _u_bar(ref)).max() <= 1e-7

    @pytest.mark.parametrize("r, n, mean, var, eps", [
        (8.0, 201, 0.0, 1.0, 1.0),
        (4.0, 101, 0.02, 1.8, 1 / 4),
        (5.0, 41, 0.07, 1.75, 1.0),
        (4.0, 61, 0.1, 1.0, 1 / 32),
    ], ids=["centred_r8", "wide_r4", "wide_r5", "off_centre_eps_1_32"])
    def test_level_converges_within_30_steps(self, r, n, mean, var, eps):
        # On each of these the residual rises on some steps on the way in,
        # so a safeguard that resets the history when it rises stalls here.
        p1, _ = recentered(gaussian_density(make_grid(1, r, n), var, mean=mean))
        trace = solve_fixed_point(p1, eps, r)
        assert trace.converged and len(trace.iterates) - 1 <= 30
        image = fixed_point_step(trace.final, p1, eps, r)
        assert np.abs(image.values - trace.final.values).max() <= 1e-8


class TestZeroNoise:
    def test_schedule_of_length_one_matches_single_solve(self, grid_r4, std_normal):
        res = zero_noise_continuation(std_normal, 4.0, eps_schedule=[0.5], tol=1e-9)
        trace = solve_fixed_point(std_normal, 0.5, 4.0, tol=1e-9)
        assert np.abs(res.p0.values - trace.final.values).max() <= 1e-14

    def test_schedule_of_length_two_chains_two_single_solves(self, std_normal):
        res = zero_noise_continuation(std_normal, 4.0, eps_schedule=[0.5, 0.25], tol=1e-9)
        first = solve_fixed_point(std_normal, 0.5, 4.0, tol=1e-9)
        second = solve_fixed_point(std_normal, 0.25, 4.0, tol=1e-9, init=first.final)
        assert np.array_equal(res.p0.values, second.final.values)

    def test_later_levels_start_from_the_secant_predictor(self, std_normal, monkeypatch):
        inits, finals = [], []
        solve = schrobridge.moment.solve_fixed_point

        def spy(*args, **kwargs):
            inits.append(kwargs["init"])
            trace = solve(*args, **kwargs)
            finals.append(trace.final)
            return trace

        monkeypatch.setattr(schrobridge.moment, "solve_fixed_point", spy)
        schedule = [1.0, 0.5, 0.25, 0.125]
        zero_noise_continuation(std_normal, 4.0, eps_schedule=schedule, tol=1e-9)
        assert inits[0] is None and inits[1] is finals[0]
        for k in (2, 3):
            init, support = inits[k], finals[k - 1].support
            # a probability density on the ball's support, nowhere zero
            assert init.is_probability and same_support(init.support, support)
            assert np.all(init.values > 0)
            assert float(init.values @ support.cell_volumes) == pytest.approx(1.0, abs=1e-12)
            # log p extrapolated linearly in eps from the two levels before
            x0, x1 = np.log(finals[k - 2].values), np.log(finals[k - 1].values)
            e0, e1 = schedule[k - 2:k]
            x = x1 + (schedule[k] - e1) / (e1 - e0) * (x1 - x0)
            x -= logsumexp(x + np.log(support.cell_volumes))
            assert np.allclose(init.values, np.exp(x), rtol=1e-12, atol=0.0)

    def test_every_level_rests_on_an_inner_tol_solve(self, std_normal, monkeypatch):
        # the inner solves loosen once the outer residual is small; the solve
        # behind each returned level is redone at INNER_TOL
        solves, traces = [], []
        solve, fixed_point = (schrobridge.moment.solve_schrodinger,
                              schrobridge.moment.solve_fixed_point)

        def solve_spy(*args, **kwargs):
            solves.append((solve(*args, **kwargs), kwargs["tol"]))
            return solves[-1][0]

        def fixed_point_spy(*args, **kwargs):
            traces.append(fixed_point(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(schrobridge.moment, "solve_schrodinger", solve_spy)
        monkeypatch.setattr(schrobridge.moment, "solve_fixed_point", fixed_point_spy)
        zero_noise_continuation(std_normal, 4.0, eps_schedule=[1.0, 0.5, 0.25], tol=1e-9)
        assert max(tol for _, tol in solves) > INNER_TOL
        for trace in traces:
            sol = trace.final_solution
            assert [tol for s, tol in solves if s is sol] == [INNER_TOL]
            assert sol.converged and sol.final_residual <= INNER_TOL

    def test_forcing_cuts_the_inner_sweeps_of_acceptance_08(self, monkeypatch):
        # the acceptance-08 centred instance: with every inner solve at
        # INNER_TOL (no forcing, no predictor) its levels took 2506 sweeps
        all_inner_tol = 2506
        solves = []
        solve = schrobridge.moment.solve_schrodinger
        monkeypatch.setattr(schrobridge.moment, "solve_schrodinger", lambda *args, **kwargs:
                            solves.append(solve(*args, **kwargs)) or solves[-1])
        g = make_grid(1, 4.0, 201)
        res = zero_noise_continuation(gaussian_density(g, 1.0), 4.0, tol=1e-9)
        level_sums = [row["inner_sweeps"] for row in res.diagnostics]
        # each row counts all of its level's solves, the INNER_TOL redo included
        assert sum(level_sums) == sum(sol.iterations for sol in solves)
        assert sum(level_sums) <= 0.7 * all_inner_tol

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

    def test_each_level_verified_once(self, std_normal, monkeypatch):
        calls = []
        verify = schrobridge.moment.verify_moment_measure

        def counted(*args):
            calls.append(verify(*args))
            return calls[-1]

        monkeypatch.setattr(schrobridge.moment, "verify_moment_measure", counted)
        schedule = [0.5, 0.25]
        res = zero_noise_continuation(std_normal, 4.0, eps_schedule=schedule, tol=1e-9)
        assert len(calls) == len(schedule)
        # the last row holds the returned potential's numbers
        last = res.diagnostics[-1]
        assert (last["pushforward_error"], last["w2_check"]) == calls[-1]
        assert last["convexity_defect"] == check_convexity(res.u_bar, res.p0.support)

    def test_result_keeps_one_copy_of_each_number(self, std_normal):
        res = zero_noise_continuation(std_normal, 4.0, eps_schedule=[0.5], tol=1e-9)
        assert [f.name for f in dataclasses.fields(res)] == [
            "p0", "u_bar", "eps_schedule", "recenter_shift", "diagnostics"]

    def test_earlier_levels_are_released(self, std_normal, monkeypatch):
        # weak references to each level's trace, final solve and kernel
        refs, alive = [], []
        solve = schrobridge.moment.solve_fixed_point

        def spy(*args, **kwargs):
            gc.collect()
            alive.append([r() is not None for r in refs])
            trace = solve(*args, **kwargs)
            sol = trace.final_solution
            refs.extend(weakref.ref(obj) for obj in (trace, sol, sol.kernel))
            return trace

        monkeypatch.setattr(schrobridge.moment, "solve_fixed_point", spy)
        zero_noise_continuation(std_normal, 4.0, eps_schedule=[1.0, 0.5, 0.25], tol=1e-9)
        assert alive == [[], [False] * 3, [False] * 6]

    def test_off_centre_target_costs_at_most_twice_the_centred_steps(self):
        # the acceptance-08 shape: 201 points, r = 4, the default 8 levels
        g = make_grid(1, 4.0, 201)
        steps = [sum(row["outer_steps"] for row in zero_noise_continuation(
            gaussian_density(g, 1.0, mean=mean), 4.0).diagnostics)
                 for mean in (0.0, 0.05)]
        assert steps[1] <= 2 * steps[0]

    def test_schedule_must_decrease(self, std_normal):
        with pytest.raises(ValueError, match="decreasing"):
            zero_noise_continuation(std_normal, 4.0, eps_schedule=[0.5, 0.5])

    def test_partial_schedule_on_failure(self, grid_r4, std_normal):
        with pytest.raises(NonConvergenceError) as info:
            zero_noise_continuation(std_normal, 4.0, eps_schedule=[1.0, 0.5],
                                    tol=1e-13, max_outer=2)
        assert info.value.partial is not None
        assert list(info.value.partial) == ["diagnostics"]

    def test_small_gaussian_instance_approaches_quadratic(self, grid_r4, std_normal,
                                                          monkeypatch):
        traces = []
        solve = schrobridge.moment.solve_fixed_point

        def spy(*args, **kwargs):
            traces.append(solve(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(schrobridge.moment, "solve_fixed_point", spy)
        # short schedule for speed; the full-depth run lives in acceptance
        schedule = [1.0, 0.5, 0.25, 0.125]
        res = zero_noise_continuation(std_normal, 4.0, eps_schedule=schedule, tol=1e-9)
        x = grid_r4.points[:, 0]
        mask = np.abs(x) <= 2.0
        diff = res.u_bar - 0.5 * x**2
        diff = diff - diff[mask].mean()
        # tail gap scales like eps * x^2 / (2 (1 + eps)): ~0.15 at eps = 1/8
        assert np.abs(diff[mask]).max() <= 0.2
        assert res.diagnostics[-1]["convexity_defect"] <= 1e-8
        bl_drifts = [row["bl_drift"] for row in res.diagnostics[1:]]
        assert all(b > a for a, b in zip(bl_drifts[1:], bl_drifts[:-1]))
        # target-side convex profile dominates its barycenter value at
        # every noise level
        assert [tr.eps for tr in traces] == schedule
        assert all(jensen_gap(tr) >= -1e-10 for tr in traces)


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

    def test_two_dimensions_call_w2_distance_once(self, monkeypatch):
        g = make_grid(2, 3.0, 21)
        u = 0.5 * np.sum(g.points**2, axis=1)
        calls = []
        for name in ("w2_distance",):
            def counted(*args, _name=name, _f=getattr(schrobridge.moment, name)):
                calls.append(_name)
                return _f(*args)
            monkeypatch.setattr(schrobridge.moment, name, counted)
        first = verify_moment_measure(u, g, gaussian_density(g, 1.0))
        assert calls == ["w2_distance"]
        assert math.isfinite(first[1])
        assert verify_moment_measure(u, g, gaussian_density(g, 1.0)) == first

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(dim=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1))
    def test_brenier_gap_vanishes_on_exact_potentials(self, dim, seed):
        # u = x.Ax/2 with spectrum in [2, 5]: grad u = Ax is the Brenier map, and the
        # one-sided stencils on the rim of B_4 carry mass below exp(-16)
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        a = q @ np.diag(rng.uniform(2.0, 5.0, dim)) @ q.T
        g = make_grid(dim, 4.0, {1: 61, 2: 17}[dim])
        u = 0.5 * np.einsum("ij,jk,ik->i", g.points, a, g.points)
        _, gap = verify_moment_measure(u, g, gaussian_density(g, 1.0))
        assert -1e-12 <= gap <= 1e-12

    @pytest.mark.parametrize("dim, n", [(1, 101), (2, 31)])
    def test_brenier_gap_detects_a_concave_bump(self, dim, n):
        # u'' = 1 - 8 < 0 at the origin: grad u is not monotone there, so the pairing is not optimal
        g = make_grid(dim, 3.0, n)
        r2 = np.sum(g.points**2, axis=1)
        _, gap = verify_moment_measure(0.5 * r2 + 2.0 * np.exp(-r2 / 0.5), g,
                                       gaussian_density(g, 1.0))
        assert gap > 1e-2

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
