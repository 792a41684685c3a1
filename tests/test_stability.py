import math

import numpy as np
import pytest

from schrobridge import (
    DenseKernel,
    DiscreteMeasure,
    GaussianHeatKernel,
    bl_distance,
    make_family,
    make_grid,
    run_convergence,
    semiconvexity_constant,
    solve_schrodinger,
    truncated_potentials,
)
from schrobridge import stability
from schrobridge.stability import potential_sum_gap
from conftest import rescaled


@pytest.fixture
def base_instance():
    g = make_grid(1, 2.0, 41)
    x = g.points[:, 0]
    w1 = np.exp(-(x - 0.3) ** 2 / 0.5) + 0.2
    w2 = np.exp(-(x + 0.4) ** 2 / 0.3) + 0.1
    mu1 = DiscreteMeasure(g, w1 / w1.sum(), is_probability=True)
    mu2 = DiscreteMeasure(g, w2 / w2.sum(), is_probability=True)
    q = GaussianHeatKernel(source=g, target=g, t=1.0, eps=0.8)
    return q, mu1, mu2


PROBES = [(5, 17), (20, 20), (33, 8)]


class TestMakeFamily:
    def test_zero_amplitude_members_equal_base(self, base_instance):
        q, mu1, mu2 = base_instance
        fam = make_family(q, mu1, mu2, "kernel_perturbation",
                          index_set=[2, 4], amplitude=0.0)
        base = np.exp(q.logk)
        assert [n for n, _, _, _ in fam] == [2, 4]
        for _, qn, m1, m2 in fam:
            assert np.array_equal(np.exp(qn.logk), base)
            assert m1 is mu1 and m2 is mu2

    def test_small_eps_kernel_perturbation_is_exact_in_logs(self):
        g = make_grid(1, 4.0, 81)
        w = np.exp(-g.points[:, 0] ** 2)
        mu = DiscreteMeasure(g, w / w.sum(), is_probability=True)
        q = GaussianHeatKernel(source=g, target=g, t=1.0, eps=0.01)
        fam = make_family(q, mu, mu, "kernel_perturbation",
                          index_set=[4, 16], amplitude=1.0)
        x = g.points[:, 0]
        psi = np.outer(np.sin(x), np.cos(x))  # the family's profile in 1-D
        for n, qn, _, _ in fam:
            assert np.array_equal(qn.logk, q.logk + (1.0 / n) * psi)

    def test_kernel_gap_shrinks_with_index(self, base_instance):
        q, mu1, mu2 = base_instance
        fam = make_family(q, mu1, mu2, "kernel_perturbation",
                          index_set=[4, 8, 16], amplitude=1.0)
        gaps = [np.abs(np.exp(qn.logk) - np.exp(q.logk)).max() for _, qn, _, _ in fam]
        assert gaps[0] > gaps[1] > gaps[2] > 0

    def test_empirical_input_ladder_decreases(self, base_instance):
        q, mu1, mu2 = base_instance
        fam = make_family(q, mu1, mu2, "marginal_empirical",
                          index_set=[100, 1000, 10000], seed=11)
        vals = [bl_distance(m1, mu1) for _, _, m1, _ in fam]
        assert vals[0] > vals[1] > vals[2]

    def test_mollification_approaches_base(self, base_instance):
        q, mu1, mu2 = base_instance
        fam = make_family(q, mu1, mu2, "marginal_mollification",
                          index_set=[2, 8, 32], bandwidth=0.5)
        vals = [bl_distance(m1, mu1) for _, _, m1, _ in fam]
        assert vals[0] > vals[2]
        assert vals[2] < 1e-3

    def test_members_stay_probabilities(self, base_instance):
        q, mu1, mu2 = base_instance
        for kind, params in (("marginal_mollification", {"index_set": [2, 4]}),
                             ("marginal_empirical", {"index_set": [50], "seed": 3})):
            for _, _, m1, m2 in make_family(q, mu1, mu2, kind, **params):
                assert m1.is_probability and m2.is_probability

    @pytest.mark.parametrize("index_set", [[2.5, 4.9], [4, math.nan], [math.inf]])
    def test_non_integer_indices_rejected(self, base_instance, index_set):
        q, mu1, mu2 = base_instance
        with pytest.raises(ValueError, match="integers"):
            make_family(q, mu1, mu2, "kernel_perturbation", index_set=index_set)

    @pytest.mark.parametrize("index_set", [[64, 32, 16, 8, 4], [4, 4, 8]],
                             ids=["descending", "duplicate"])
    def test_indices_out_of_order_rejected(self, base_instance, index_set):
        q, mu1, mu2 = base_instance
        with pytest.raises(ValueError, match="index_set must be strictly increasing"):
            make_family(q, mu1, mu2, "kernel_perturbation", index_set=index_set)

    @pytest.mark.parametrize("amplitude", [math.nan, math.inf])
    def test_non_finite_amplitude_rejected(self, base_instance, amplitude):
        q, mu1, mu2 = base_instance
        with pytest.raises(ValueError, match="amplitude must be finite"):
            make_family(q, mu1, mu2, "kernel_perturbation",
                        index_set=[2], amplitude=amplitude)

    def test_unknown_kind_rejected(self, base_instance):
        q, mu1, mu2 = base_instance
        with pytest.raises(ValueError, match="kind"):
            make_family(q, mu1, mu2, "bogus")


class TestRunConvergence:
    def test_zero_perturbation_gaps_at_solver_tolerance(self, base_instance, monkeypatch):
        q, mu1, mu2 = base_instance
        fam = make_family(q, mu1, mu2, "kernel_perturbation",
                          index_set=[1, 2], amplitude=0.0)
        monkeypatch.setattr(stability, "PROBE_SHIFT", 0.0)
        rep = run_convergence(base_instance, fam, PROBES, m=2, r_prime=1.8)
        for row in rep.rows:
            assert row.plan_bl <= 2e-12
            assert row.product_gap <= 2e-12
            assert row.potential_gap <= 2e-12
            assert row.supnorm_gap <= 2e-12

    def test_kernel_ladder_trends_down(self, base_instance):
        q, mu1, mu2 = base_instance
        fam = make_family(q, mu1, mu2, "kernel_perturbation",
                          index_set=[4, 8, 16, 32, 64], amplitude=1.0)
        rep = run_convergence(base_instance, fam, PROBES, m=2, r_prime=1.8)
        summary = rep.summary()
        for metric in ("plan_bl", "product_gap", "potential_gap", "supnorm_gap"):
            first, last, ratio = rep.trend(metric)
            assert ratio <= 0.25, metric
            assert summary[metric]["decreasing"]

    def test_empirical_family_stability_comparable_to_input(self, base_instance):
        q, mu1, mu2 = base_instance
        fam = make_family(q, mu1, mu2, "marginal_empirical",
                          index_set=[10000], seed=21)
        _, _, m1, m2 = fam[0]
        input_noise = max(bl_distance(m1, mu1), bl_distance(m2, mu2))
        rep = run_convergence(base_instance, fam, PROBES, m=2)
        assert rep.rows[0].plan_bl <= 3.0 * input_noise

    def test_failed_member_recorded_not_fatal(self, base_instance, monkeypatch):
        q, mu1, mu2 = base_instance
        fam = make_family(q, mu1, mu2, "kernel_perturbation",
                          index_set=[4, 8], amplitude=1.0)
        monkeypatch.setattr(stability, "INNER_MAX_ITERS", 1)
        rep = run_convergence(base_instance, fam, PROBES, m=2)
        assert all(not row.solved for row in rep.rows)
        assert all(math.isnan(row.plan_bl) for row in rep.rows)

    def test_member_programming_error_propagates(self, base_instance, monkeypatch):
        q, mu1, mu2 = base_instance
        fam = make_family(q, mu1, mu2, "kernel_perturbation",
                          index_set=[4], amplitude=1.0)
        solve = stability.solve_schrodinger

        def broken_member_solve(kernel, *args, **kwargs):
            if kernel is not q:
                raise TypeError("bug in a member solve")
            return solve(kernel, *args, **kwargs)

        monkeypatch.setattr(stability, "solve_schrodinger", broken_member_solve)
        with pytest.raises(TypeError, match="bug in a member solve"):
            run_convergence(base_instance, fam, PROBES, m=2)

    @pytest.mark.parametrize("m", [0, 0.5, math.nan])
    def test_m_below_one_rejected_before_any_solve(self, base_instance, monkeypatch, m):
        q, mu1, mu2 = base_instance
        fam = make_family(q, mu1, mu2, "kernel_perturbation",
                          index_set=[4], amplitude=1.0)

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before m was checked")

        monkeypatch.setattr(stability, "solve_schrodinger", no_solve)
        with pytest.raises(ValueError, match="m >= 1"):
            run_convergence(base_instance, fam, PROBES, m=m)


class TestPotentialSumGauge:
    def test_sum_gap_invariant_under_rescaling(self, base_instance):
        q, mu1, mu2 = base_instance
        sol = solve_schrodinger(q, mu1, mu2, tol=1e-13)
        fam = make_family(q, mu1, mu2, "kernel_perturbation",
                          index_set=[8], amplitude=1.0)
        other = solve_schrodinger(*fam[0][1:], tol=1e-13)
        base_potentials = truncated_potentials(sol, 2)
        base_gap = potential_sum_gap(sol, base_potentials, other, 2, PROBES)
        jittered = rescaled(other, 3.7)
        new_gap = potential_sum_gap(sol, base_potentials, jittered, 2, PROBES)
        assert new_gap == pytest.approx(base_gap, abs=1e-12)


    def test_base_potentials_computed_once_per_ladder(self, base_instance, monkeypatch):
        q, mu1, mu2 = base_instance
        fam = make_family(q, mu1, mu2, "kernel_perturbation", index_set=[2, 4, 8])
        calls = []

        def counting(sol, m):
            calls.append(sol)
            return truncated_potentials(sol, m)

        monkeypatch.setattr(stability, "truncated_potentials", counting)
        rep = run_convergence(base_instance, fam, PROBES, m=2)
        assert all(row.solved for row in rep.rows)
        assert len(calls) == 1 + len(fam)
        assert len({id(sol) for sol in calls}) == len(calls)


class TestSemiconvexity:
    def test_heat_kernel_exact(self, base_instance):
        q, _, _ = base_instance
        assert semiconvexity_constant(q) == pytest.approx(1.0 / (2 * 0.8))

    def test_constant_kernel_zero(self):
        g = make_grid(1, 1.0, 11)
        q = DenseKernel(source=g, target=g, logk=np.log(np.full((11, 11), 2.5)))
        assert semiconvexity_constant(q) == 0.0

    def test_sine_product_kernel(self):
        g = make_grid(1, math.pi, 81)
        s = np.sin(g.points[:, 0])
        q = DenseKernel(source=g, target=g, logk=np.outer(s, s))
        assert semiconvexity_constant(q) == pytest.approx(0.5, abs=0.05)


class TestSupnormConvergence:
    def test_constant_family_zero(self, base_instance):
        q, mu1, mu2 = base_instance
        fam = make_family(q, mu1, mu2, "kernel_perturbation",
                          index_set=[1, 2], amplitude=0.0)
        rep = run_convergence(base_instance, fam, PROBES, m=2, r_prime=1.5)
        assert all(row.solved for row in rep.rows)
        assert all(row.supnorm_gap <= 2e-12 for row in rep.rows)

    def test_mollification_ladder(self, base_instance):
        q, mu1, mu2 = base_instance
        fam = make_family(q, mu1, mu2, "marginal_mollification",
                          index_set=[2, 4, 8, 16], bandwidth=0.5)
        rep = run_convergence(base_instance, fam, PROBES, m=2, r_prime=1.8)
        assert all(row.solved for row in rep.rows)
        gaps = [row.supnorm_gap for row in rep.rows]
        assert gaps[0] > gaps[-1]
        assert gaps[-1] <= 1e-3

    def test_gap_monotone_in_domain_size(self, base_instance):
        q, mu1, mu2 = base_instance
        fam = make_family(q, mu1, mu2, "marginal_mollification",
                          index_set=[2, 4], bandwidth=0.5)
        wide = run_convergence(base_instance, fam, PROBES, m=2, r_prime=0.95 * 2.0)
        narrow = run_convergence(base_instance, fam, PROBES, m=2, r_prime=0.5 * 2.0)
        assert all(row.solved for row in wide.rows + narrow.rows)
        for rw, rn in zip(wide.rows, narrow.rows):
            gw, gn = rw.supnorm_gap, rn.supnorm_gap
            assert gw >= gn - 1e-15
