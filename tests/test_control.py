import math

import numpy as np
import pytest

from schrobridge import (
    DenseKernel,
    Density,
    control_value,
    dual_variables,
    free_energy_objective,
    free_energy_upper_bound,
    make_grid,
    solve_schrodinger,
)
from schrobridge.control import (
    control_value_gaussian_1d,
    report_from_solution,
    second_moment,
)
from conftest import gaussian_density


@pytest.fixture
def fine_grid():
    return make_grid(1, 5.0, 161)


class TestControlValue:
    def test_nonnegative_for_identical_laws(self, fine_grid):
        p = gaussian_density(fine_grid, 0.5)
        for eps in (4.0, 0.05):
            rep = control_value(p, p, eps=eps)
            assert rep.kl_form >= 0.0
            assert rep.value >= 0.0
        # identical marginals need little steering when the noise is small
        assert control_value(p, p, eps=0.05).value < 0.05

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_eps(self, fine_grid, eps):
        # the heat kernel's own check is the only one
        p = gaussian_density(fine_grid, 0.5)
        with pytest.raises(ValueError, match="eps > 0"):
            control_value(p, p, eps=eps)

    def test_three_forms_agree(self, fine_grid):
        p0 = gaussian_density(fine_grid, 0.25)
        p1 = gaussian_density(fine_grid, 0.5)
        rep = control_value(p0, p1, eps=1.0)
        scale = 1.0 + abs(rep.potential_form)
        assert rep.max_pairwise_gap <= 1e-6 * scale
        assert rep.converged

    def test_matches_gaussian_closed_form(self, fine_grid):
        # independent scalar oracle for centered 1-D Gaussians
        for s0, s1, eps in [(0.25, 0.5, 1.0), (0.5, 0.5, 0.5), (0.36, 1.0, 0.25)]:
            p0 = gaussian_density(fine_grid, s0)
            p1 = gaussian_density(fine_grid, s1)
            rep = control_value(p0, p1, eps=eps)
            oracle = control_value_gaussian_1d(s0, s1, eps)
            assert rep.value == pytest.approx(oracle, abs=5e-4)

    def test_finiteness_bound(self, fine_grid):
        # value <= S(P1) - integral log g dP0 dP1
        from schrobridge import entropy, log_eval_kernel, GaussianHeatKernel

        p0 = gaussian_density(fine_grid, 0.3)
        p1 = gaussian_density(fine_grid, 0.8)
        eps = 0.7
        rep = control_value(p0, p1, eps=eps)
        k = GaussianHeatKernel(source=fine_grid, target=fine_grid, t=1.0, eps=eps)
        logg = log_eval_kernel(k)
        w0 = p0.to_measure().weights
        w1 = p1.to_measure().weights
        bound = entropy(p1) - float(w0 @ logg @ w1)
        assert rep.value <= bound + 1e-10


class TestDualVariables:
    def test_constant_kernel_degenerate(self):
        g = make_grid(1, 1.0, 16)
        p1 = gaussian_density(g, 0.4)
        q = DenseKernel(source=g, target=g, values=np.ones((16, 16)))
        mu = p1.to_measure()
        sol = solve_schrodinger(q, mu, mu, tol=1e-14)
        f, phi0 = dual_variables(sol, p1)
        assert np.allclose(f, np.log(p1.values), atol=1e-12)
        assert np.allclose(phi0, 0.0, atol=1e-12)

    def test_relation_is_exact_on_grid(self, fine_grid):
        p0 = gaussian_density(fine_grid, 0.4)
        p1 = gaussian_density(fine_grid, 0.9)
        rep = control_value(p0, p1, eps=0.5)
        f, phi0 = dual_variables(rep.solution, p1)
        lhs = f[None, :] - phi0[:, None]
        rhs = (np.log(p1.values)[None, :] - rep.solution.u2[None, :]
               - rep.solution.u1[:, None])
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_dual_form_equals_potential_form(self, fine_grid):
        p0 = gaussian_density(fine_grid, 0.25)
        p1 = gaussian_density(fine_grid, 0.75)
        rep = control_value(p0, p1, eps=1.5)
        assert rep.dual_form == pytest.approx(rep.potential_form, abs=1e-10)

    def test_vanishing_density_with_mass_raises(self, fine_grid):
        p0 = gaussian_density(fine_grid, 0.4)
        p1 = gaussian_density(fine_grid, 0.9)
        rep = control_value(p0, p1, eps=0.5)
        bad_vals = p1.values.copy()
        bad_vals[80] = 0.0
        bad = Density(fine_grid, bad_vals / (bad_vals @ fine_grid.cell_volumes),
                      is_probability=True)
        with pytest.raises(ValueError, match="vanishes"):
            dual_variables(rep.solution, bad)


class TestFreeEnergy:
    def test_upper_bound_1d_analytic(self):
        # -log 2 + 1/6 for the unit interval ball
        bound = free_energy_upper_bound(None, eps=0.5, r=1.0)
        assert bound == pytest.approx(-math.log(2) + 1 / 6, abs=1e-12)
        assert bound == pytest.approx(-0.52648, abs=1e-5)

    def test_upper_bound_2d_analytic(self):
        g = make_grid(2, 1.0, 5)
        p1 = gaussian_density(g, 0.5)
        bound = free_energy_upper_bound(p1, eps=1.0, r=1.0)
        assert bound == pytest.approx(-math.log(math.pi) + 0.25, abs=1e-12)

    def test_bound_independent_of_eps_and_target(self):
        g = make_grid(1, 2.0, 30)
        pa = gaussian_density(g, 0.3)
        pb = gaussian_density(g, 1.5)
        vals = {free_energy_upper_bound(p, eps, 2.0, support=g)
                for p in (pa, pb) for eps in (0.1, 1.0, 10.0)}
        assert len(vals) == 1

    def test_uniform_candidate_realizes_grid_bound(self):
        g = make_grid(1, 1.0, 50)
        uni = Density(g, np.full(50, 1.0 / g.total_volume), is_probability=True)
        from schrobridge import entropy

        no_control = entropy(uni) + 0.5 * second_moment(uni)
        assert no_control == pytest.approx(
            free_energy_upper_bound(None, 1.0, 1.0, support=g), abs=1e-12)

    def test_objective_below_bound_for_uniform(self):
        g = make_grid(1, 1.0, 50)
        uni = Density(g, np.full(50, 1.0 / g.total_volume), is_probability=True)
        p1 = gaussian_density(g, 0.4)
        obj = free_energy_objective(uni, p1, eps=0.5, r=1.0)
        assert obj <= free_energy_upper_bound(p1, 0.5, 1.0, support=g) + 1e-12

    def test_support_outside_ball_rejected(self):
        g = make_grid(1, 2.0, 30)
        p = gaussian_density(g, 0.5)
        with pytest.raises(ValueError, match="outside"):
            free_energy_objective(p, p, eps=1.0, r=1.0)

    def test_control_term_scaling_with_eps(self):
        g = make_grid(1, 3.0, 61)
        p = gaussian_density(g, 0.5)
        p1 = gaussian_density(g, 1.0)
        from schrobridge import entropy

        base = entropy(p) + 0.5 * second_moment(p)
        # identical laws: the eps-weighted control term vanishes with eps
        same = [abs(free_energy_objective(p1, p1, eps, 3.0)
                    - entropy(p1) - 0.5 * second_moment(p1))
                for eps in (0.5, 0.1, 0.02)]
        assert same[2] < same[0]
        assert same[2] < 0.02
        # distinct laws: it approaches half the squared transport distance
        gap = abs(free_energy_objective(p, p1, 0.02, 3.0) - base)
        w2_half = 0.5 * (math.sqrt(0.5) - 1.0) ** 2
        assert gap == pytest.approx(w2_half, abs=0.02)


class TestKlForm:
    def test_kl_zero_iff_plan_is_reference_product(self):
        # with the kernel forced constant the plan is the product measure and
        # the reference-product relative entropy reduces to H(mu2 | Lebesgue)
        g = make_grid(1, 1.0, 12)
        p1 = gaussian_density(g, 0.4)
        mu = p1.to_measure()
        q = DenseKernel(source=g, target=g, values=np.ones((12, 12)))
        sol = solve_schrodinger(q, mu, mu, tol=1e-14)
        rep = report_from_solution(sol, p1)
        from schrobridge import entropy

        assert rep.kl_form == pytest.approx(entropy(p1), abs=1e-10)
        assert rep.max_pairwise_gap <= 1e-10

    def test_kl_vanishes_when_plan_equals_reference(self):
        # constant kernel 1/Vol with a uniform target makes the plan equal
        # the reference product measure exactly
        g = make_grid(1, 1.0, 12)
        uni = Density(g, np.full(12, 1.0 / g.total_volume), is_probability=True)
        mu = uni.to_measure()
        q = DenseKernel(source=g, target=g,
                        values=np.full((12, 12), 1.0 / g.total_volume))
        sol = solve_schrodinger(q, mu, mu, tol=1e-14)
        rep = report_from_solution(sol, uni)
        assert abs(rep.kl_form) <= 1e-12
