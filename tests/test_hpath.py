import math

import numpy as np
import pytest

from schrobridge import (
    Density,
    DiscreteMeasure,
    Support,
    control_value,
    drift,
    endpoint_diagnostics,
    make_grid,
    sample_density,
    simulate,
)
from schrobridge.hpath import binned_plan, initial_chi_square
from schrobridge.solver import SchroedingerSolution
from conftest import gaussian_density


def _atom_solution(atoms, eps):
    """Synthetic solution whose terminal factor is equal mass on `atoms`."""
    src = make_grid(1, 2.0, 5)
    atoms = np.atleast_1d(np.asarray(atoms, dtype=float))
    tgt = Support(points=atoms[:, None], cell_volumes=np.ones(len(atoms)),
                  bounding_radius=float(np.abs(atoms).max()))
    from schrobridge import GaussianHeatKernel

    kernel = GaussianHeatKernel(source=src, target=tgt, t=1.0, eps=eps)
    mu1 = DiscreteMeasure(src, np.full(5, 0.2), is_probability=True)
    mu2 = DiscreteMeasure(tgt, np.full(len(atoms), 1.0 / len(atoms)),
                          is_probability=True)
    nu2 = DiscreteMeasure(tgt, np.ones(len(atoms)))
    nu1 = DiscreteMeasure(src, np.full(5, 0.2))
    return SchroedingerSolution(
        kernel=kernel, mu1=mu1, mu2=mu2, nu1=nu1, nu2=nu2,
        log_nu1=np.log(nu1.weights), log_nu2=np.zeros(len(atoms)),
        u1=np.zeros(5), u2=np.zeros(len(atoms)), scale_C=1.0,
        iterations=0, final_residual=0.0, converged=True)


@pytest.fixture
def bridge_setup():
    g = make_grid(1, 4.0, 101)
    p0 = gaussian_density(g, 0.36)
    p1 = gaussian_density(g, 0.8)
    rep = control_value(p0, p1, eps=0.5)
    return g, p0, p1, rep.solution


class TestDrift:
    def test_single_atom_is_bridge_to_point(self):
        sol = _atom_solution(1.5, eps=0.7)
        for t in (0.0, 0.3, 0.9):
            for x in (-1.0, 0.0, 2.0):
                expected = (1.5 - x) / (1.0 - t)
                got = drift(t, np.array([x]), sol, 0.7)
                assert got[0] == pytest.approx(expected, rel=1e-12)

    def test_symmetric_atoms_zero_at_midpoint(self):
        sol = _atom_solution([-1.0, 1.0], eps=0.5)
        assert drift(0.5, np.array([0.0]), sol, 0.5)[0] == pytest.approx(0.0, abs=1e-14)

    def test_matches_finite_difference_gradient(self, bridge_setup):
        g, p0, p1, sol = bridge_setup
        eps = 0.5
        rng = np.random.default_rng(17)
        y = g.points[:, 0]
        for _ in range(25):
            t = float(rng.uniform(0.0, 0.95))
            x = float(rng.uniform(-3.0, 3.0))
            bw = eps * (1.0 - t)

            def log_h(xv):
                lg = -0.5 * math.log(2 * math.pi * bw) - (y - xv) ** 2 / (2 * bw)
                m = (lg + sol.log_nu2).max()
                return m + math.log(np.exp(lg + sol.log_nu2 - m).sum())

            h = 1e-5
            fd = eps * (log_h(x + h) - log_h(x - h)) / (2 * h)
            got = drift(t, np.array([x]), sol, eps)[0]
            assert abs(fd - got) <= 1e-5 * max(1.0, abs(got))

    def test_rejects_terminal_time(self, bridge_setup):
        _, _, _, sol = bridge_setup
        with pytest.raises(ValueError, match="t >= 1"):
            drift(1.0, np.zeros(1), sol, 0.5)

    def test_far_field_falls_back_to_nearest_atom(self, bridge_setup):
        # all Gaussian terms underflow in the plain domain at this distance
        _, _, _, sol = bridge_setup
        x = np.array([300.0])
        got = drift(0.5, x, sol, 0.5)[0]
        nearest = sol.mu2.support.points[:, 0].max()
        assert np.isfinite(got)
        assert got == pytest.approx((nearest - 300.0) / 0.5, rel=1e-3)


class TestSampleDensity:
    def test_1d_inverse_cdf_matches_quantiles(self):
        g = make_grid(1, 3.0, 61)
        p = gaussian_density(g, 1.0)
        rng = np.random.default_rng(5)
        xs = sample_density(p, 200_000, rng)[:, 0]
        w = p.to_measure().weights
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            cum = np.cumsum(w)
            target = g.points[np.searchsorted(cum, q), 0]
            assert np.quantile(xs, q) == pytest.approx(target, abs=0.05)

    def test_2d_alias_with_jitter_stays_in_cells(self):
        g = make_grid(2, 1.5, 7)
        p = gaussian_density(g, 0.5)
        rng = np.random.default_rng(6)
        xs = sample_density(p, 5000, rng)
        h = g.cell_volumes[0] ** 0.5
        d2 = ((xs[:, None, :] - g.points[None, :, :]) ** 2).sum(-1)
        nearest = d2.min(axis=1)
        assert nearest.max() <= (h * h / 2) + 1e-12


class TestSimulate:
    def test_deterministic_given_seed(self, bridge_setup):
        g, p0, _, sol = bridge_setup
        a = simulate(p0, sol, 0.5, 500, 40, seed=99)
        b = simulate(p0, sol, 0.5, 500, 40, seed=99)
        assert np.array_equal(a.initial, b.initial)
        assert np.array_equal(a.terminal, b.terminal)
        assert a.times[0] == 0.0 and a.times[-1] == 1.0
        c = simulate(p0, sol, 0.5, 500, 40, seed=100)
        assert not np.array_equal(a.terminal, c.terminal)

    def test_full_path_storage_consistent(self, bridge_setup):
        g, p0, _, sol = bridge_setup
        a = simulate(p0, sol, 0.5, 200, 30, seed=3, keep_full_paths=True)
        b = simulate(p0, sol, 0.5, 200, 30, seed=3, keep_full_paths=False)
        assert a.paths.shape == (200, 31, 1)
        assert np.array_equal(a.paths[:, 0, :], a.initial)
        assert np.array_equal(a.paths[:, -1, :], a.terminal)
        assert np.array_equal(a.terminal, b.terminal)

    def test_bridge_to_atom_concentrates(self):
        eps = 0.01
        sol = _atom_solution(1.5, eps=eps)
        g = make_grid(1, 2.0, 5)
        p0 = Density(g, np.full(5, 1.0 / g.total_volume), is_probability=True)
        n_steps = 100
        ens = simulate(p0, sol, eps, 2000, n_steps, seed=1)
        spread = np.abs(ens.terminal[:, 0] - 1.5)
        assert np.quantile(spread, 0.95) <= 5 * math.sqrt(eps / n_steps) + 0.05

    def test_seed_mandatory(self, bridge_setup):
        g, p0, _, sol = bridge_setup
        with pytest.raises(ValueError, match="seed"):
            simulate(p0, sol, 0.5, 10, 10, seed=None)


class TestEndpointDiagnostics:
    def test_tv_decreases_along_n_paths_ladder(self, bridge_setup):
        g, p0, p1, sol = bridge_setup
        tvs = []
        for n in (200, 1000, 5000, 20000):
            ens = simulate(p0, sol, 0.5, n, 100, seed=42)
            diag = endpoint_diagnostics(ens, sol, p1, bins=25, n_bootstrap=0)
            tvs.append(diag.tv_joint)
        assert tvs[-1] < tvs[0]
        assert tvs[-1] < 0.1

    def test_bridge_to_atom_joint_structure(self):
        eps = 0.05
        sol = _atom_solution(1.0, eps=eps)
        g = make_grid(1, 2.0, 5)
        p0 = Density(g, np.full(5, 1.0 / g.total_volume), is_probability=True)
        ens = simulate(p0, sol, eps, 4000, 100, seed=8)
        # joint law is (initial law) x (atom): initial marginal uniform,
        # terminal concentrated at the atom
        assert np.abs(np.mean(ens.terminal[:, 0]) - 1.0) < 0.05
        hist0 = np.histogram(ens.initial[:, 0], bins=5, range=(-2, 2))[0]
        assert hist0.min() > 0.15 * len(ens.initial)

    def test_initial_chi_square_consistent(self, bridge_setup):
        g, p0, p1, sol = bridge_setup
        ens = simulate(p0, sol, 0.5, 20000, 50, seed=12)
        stat, dof = initial_chi_square(ens, p0)
        # pre-registered threshold: 99.9th percentile of chi2(dof)
        from scipy.stats import chi2

        assert stat <= chi2.ppf(0.999, dof)

    def test_binned_plan_marginals(self, bridge_setup):
        g, p0, p1, sol = bridge_setup
        bins = 20
        flat = binned_plan(sol, g.bounding_radius, bins)
        grid2 = flat.reshape(bins, bins)
        w0 = p0.to_measure().weights
        from schrobridge.hpath import _cell_bin_split, _bin_edges

        expected0 = np.zeros(bins)
        for k, f in _cell_bin_split(g, _bin_edges(g.bounding_radius, bins)):
            np.add.at(expected0, k, w0 * f)
        assert np.abs(grid2.sum(axis=1) - expected0).sum() <= 1e-9
