import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from schrobridge import (
    DenseKernel,
    Density,
    DiscreteMeasure,
    Support,
    control_value,
    drift,
    endpoint_diagnostics,
    GaussianHeatKernel,
    make_grid,
    sample_density,
    simulate,
)
from schrobridge.core import (
    W2_CLOUD_CAP,
    bl_distance,
    empirical_measure,
    relative_entropy,
    tv_distance,
    w2_distance,
    w2_distance_1d,
)
from schrobridge import hpath
from schrobridge.hpath import (
    EndpointReport,
    PathEnsemble,
    _bin_ids,
    _overlap_matrix,
    binned_plan,
)
from schrobridge.solver import SchroedingerSolution, plan_matrix
from conftest import gaussian_density, w2_distance_lp


def euler_maruyama_reference(sol: SchroedingerSolution, n_paths, n_steps, seed,
                             keep_full_paths=False) -> PathEnsemble:
    """Reference: the Euler-Maruyama loop ``simulate`` ran before exact sampling.

    X_0 from sol.mu1, then X_{k+1} = X_k + drift(t_k, X_k) dt + sqrt(s dt) xi_k
    with seeded noise, s = eps * t of sol's heat kernel; drift times are clamped to
    1 - 1/n_steps so the final jump avoids the bridge singularity. Identical
    inputs and seed give a bit-identical ensemble.
    """
    if n_steps < 2 or n_paths < 1:
        raise ValueError("need n_steps >= 2 and n_paths >= 1")
    if seed is None:
        raise ValueError("a seed is mandatory for simulation")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    d = sol.mu1.support.dim
    times = np.linspace(0.0, 1.0, n_steps + 1)
    dt = 1.0 / n_steps
    t_cap = 1.0 - dt
    x = sample_density(Density.from_measure(sol.mu1), n_paths, rng)
    initial = x.copy()
    paths = None
    if keep_full_paths:
        paths = np.empty((n_paths, n_steps + 1, d))
        paths[:, 0, :] = x
    scale = math.sqrt(sol.kernel.eps * sol.kernel.t * dt)
    for k in range(n_steps):
        t_eval = min(times[k], t_cap)
        x = x + drift(t_eval, x, sol) * dt + scale * rng.standard_normal((n_paths, d))
        if paths is not None:
            paths[:, k + 1, :] = x
    return PathEnsemble(times=times, initial=initial, terminal=x, seed=int(seed),
                        paths=paths)


def initial_chi_square(ens: PathEnsemble, sol: SchroedingerSolution):
    """Chi-square statistic of the initial states against sol.mu1, with dof.

    Bins the first time slice, 20 bins per axis over the support's
    bounding box, and compares counts with the exact step-density bin
    probabilities (cells split across bins by overlap). Returns
    (statistic, degrees_of_freedom).
    """
    bins = 20
    support = sol.mu1.support
    radius = support.bounding_radius
    counts = np.bincount(_bin_ids(ens.initial, radius, bins), minlength=bins**support.dim)
    probs = _overlap_matrix(support, radius, bins).T @ sol.mu1.weights
    probs = probs / probs.sum()
    keep = probs * ens.n_paths >= 5.0
    expected = probs[keep] * ens.n_paths
    stat = float(np.sum((counts[keep] - expected) ** 2 / expected))
    return stat, int(keep.sum() - 1)


# Oracles: the endpoint binning and bootstrap as they were before the
# overlap matrix and the count-vector resamples, kept verbatim.

def _bin_edges(radius, bins):
    return np.linspace(-radius, radius, bins + 1)


def _bin_index(coords, edges):
    return np.clip(np.searchsorted(edges, coords, side="right") - 1, 0, len(edges) - 2)


def reference_binned_joint(x0, x1, radius, bins):
    """Histogram of endpoint pairs on a bins^(2d) lattice over [-radius, radius]."""
    d = x0.shape[1]
    edges = _bin_edges(radius, bins)
    idx = np.zeros(len(x0), dtype=np.int64)
    for coords in np.hstack([x0, x1]).T:
        idx = idx * bins + _bin_index(coords, edges)
    flat = np.bincount(idx, minlength=bins ** (2 * d))
    return flat / flat.sum()


def reference_cell_bin_split(support: Support, edges):
    """Distribute cubic quadrature cells over histogram bins by overlap.

    Grid masses represent cells, not atoms; assigning a whole cell to the
    bin of its center biases comparisons against continuous samples.
    Returns [(flat_bin_index, fraction)] combos covering every cell.
    """
    pts = support.points
    d = support.dim
    widths = support.cell_volumes ** (1.0 / d)
    bw = edges[1] - edges[0]
    n_bins = len(edges) - 1
    combos = [(np.zeros(len(pts), dtype=np.int64), np.ones(len(pts)))]
    span = int(math.ceil(widths.max() / bw)) + 1
    for axis in range(d):
        lo = pts[:, axis] - 0.5 * widths
        hi = pts[:, axis] + 0.5 * widths
        base = np.floor((lo - edges[0]) / bw).astype(np.int64)
        entries = []
        for off in range(span + 1):
            k = base + off
            bin_lo = edges[0] + k * bw
            overlap = np.clip(np.minimum(hi, bin_lo + bw) - np.maximum(lo, bin_lo),
                              0.0, None)
            entries.append((np.clip(k, 0, n_bins - 1), overlap / (hi - lo)))
        combos = [(idx0 * n_bins + k, f0 * f)
                  for idx0, f0 in combos for k, f in entries]
    return [(idx, f) for idx, f in combos if f.max() > 0]


def reference_binned_plan(sol: SchroedingerSolution, radius, bins):
    """The solver's plan aggregated onto the endpoint binning by cell overlap."""
    d = sol.mu1.support.dim
    edges = _bin_edges(radius, bins)
    plan = plan_matrix(sol)
    src_combos = reference_cell_bin_split(sol.mu1.support, edges)
    tgt_combos = reference_cell_bin_split(sol.mu2.support, edges)
    flat = np.zeros(bins ** (2 * d))
    scale = bins**d
    for ks, fs in src_combos:
        for kt, ft in tgt_combos:
            w = plan * np.outer(fs, ft)
            idx = (ks[:, None] * scale + kt[None, :]).ravel()
            np.add.at(flat, idx, w.ravel())
    return flat / flat.sum()


def reference_endpoint_diagnostics(ens: PathEnsemble, sol: SchroedingerSolution, p1: Density,
                                   bins, n_bootstrap, plan_binning) -> EndpointReport:
    """endpoint_diagnostics with a measure built per resample, plans binned by ``plan_binning``."""
    rng = np.random.Generator(np.random.Philox(key=ens.seed + 0x9E3779B9))
    target = p1.to_measure()  # the probability law the solve took as mu2, not normalized again
    emp = empirical_measure(ens.terminal)
    bl_term = bl_distance(emp, target)

    k = min(ens.n_paths, W2_CLOUD_CAP)
    paths = rng.choice(ens.n_paths, size=k, replace=False)
    atoms = rng.choice(target.support.n_points, size=k, replace=True,
                       p=target.weights)
    w2_sub = w2_distance(ens.terminal[paths], target.support.points[atoms])

    w2_full = None
    if ens.dim == 1:
        w2_full = w2_distance_1d(emp, target)

    radius = max(sol.mu1.support.bounding_radius, sol.mu2.support.bounding_radius)
    plan_bins = plan_binning(sol, radius, bins)
    joint = reference_binned_joint(ens.initial, ens.terminal, radius, bins)
    tv = tv_distance(joint, plan_bins)
    kl = relative_entropy(joint, plan_bins)

    tv_samples = []
    w2_samples = []
    n = ens.n_paths
    for _ in range(n_bootstrap):
        take = rng.choice(n, size=n, replace=True)
        jb = reference_binned_joint(ens.initial[take], ens.terminal[take], radius, bins)
        tv_samples.append(tv_distance(jb, plan_bins))
        if ens.dim == 1:
            w2_samples.append(w2_distance_1d(empirical_measure(ens.terminal[take]), target))
    tv_err = float(np.std(tv_samples)) if tv_samples else math.nan
    w2_err = float(np.std(w2_samples)) if w2_samples else math.nan

    return EndpointReport(
        bl_terminal=bl_term, w2_subsample=w2_sub, w2_full_1d=w2_full,
        tv_joint=tv, kl_joint=kl, tv_joint_err=tv_err, w2_err=w2_err,
        n_paths=ens.n_paths, bins=bins)


def _atom_solution(atoms, eps):
    """Synthetic solution from the uniform law on make_grid(1, 2, 5) to equal mass on `atoms`."""
    src = make_grid(1, 2.0, 5)
    atoms = np.atleast_1d(np.asarray(atoms, dtype=float))
    tgt = Support(points=atoms[:, None], cell_volumes=np.ones(len(atoms)),
                  bounding_radius=float(np.abs(atoms).max()))
    from schrobridge import GaussianHeatKernel

    kernel = GaussianHeatKernel(source=src, target=tgt, t=1.0, eps=eps)
    mu1 = DiscreteMeasure(src, np.full(5, 0.2), is_probability=True)
    mu2 = DiscreteMeasure(tgt, np.full(len(atoms), 1.0 / len(atoms)),
                          is_probability=True)
    return SchroedingerSolution(
        kernel=kernel, mu1=mu1, mu2=mu2,
        log_nu1=np.log(np.full(5, 0.2)), log_nu2=np.zeros(len(atoms)),
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
                got = drift(t, np.array([x]), sol)
                assert got[0] == pytest.approx(expected, rel=1e-12)

    def test_symmetric_atoms_zero_at_midpoint(self):
        sol = _atom_solution([-1.0, 1.0], eps=0.5)
        assert drift(0.5, np.array([0.0]), sol)[0] == pytest.approx(0.0, abs=1e-14)

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
            got = drift(t, np.array([x]), sol)[0]
            assert abs(fd - got) <= 1e-5 * max(1.0, abs(got))

    def test_rejects_terminal_time(self, bridge_setup):
        _, _, _, sol = bridge_setup
        with pytest.raises(ValueError, match="t >= 1"):
            drift(1.0, np.zeros(1), sol)

    def test_far_field_falls_back_to_nearest_atom(self, bridge_setup):
        # all Gaussian terms underflow in the plain domain at this distance
        _, _, _, sol = bridge_setup
        x = np.array([300.0])
        got = drift(0.5, x, sol)[0]
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

    @pytest.mark.parametrize("d", [1, 2])
    def test_2d_alias_with_jitter_stays_in_cells(self, d):
        g = make_grid(d, 1.5, 7)
        p = gaussian_density(g, 0.5)
        rng = np.random.default_rng(6)
        xs = sample_density(p, 5000, rng)
        h = g.cell_volumes[0] ** (1.0 / d)
        d2 = ((xs[:, None, :] - g.points[None, :, :]) ** 2).sum(-1)
        nearest = d2.min(axis=1)
        assert nearest.max() <= d * (h / 2) ** 2 + 1e-12


class TestSimulate:
    def test_deterministic_given_seed(self, bridge_setup):
        g, p0, _, sol = bridge_setup
        a = simulate(sol, 500, 40, seed=99)
        b = simulate(sol, 500, 40, seed=99)
        assert np.array_equal(a.initial, b.initial)
        assert np.array_equal(a.terminal, b.terminal)
        assert a.times[0] == 0.0 and a.times[-1] == 1.0
        c = simulate(sol, 500, 40, seed=100)
        assert not np.array_equal(a.terminal, c.terminal)

    @pytest.mark.parametrize("dim, n", [(1, 201), (2, 9)])
    def test_terminals_do_not_depend_on_the_block_cap(self, monkeypatch, dim, n):
        g = make_grid(dim, 3.0, n)
        sol = control_value(gaussian_density(g, 0.36), gaussian_density(g, 1.0), eps=0.5).solution
        ref = simulate(sol, 1000, 2, seed=17)
        # a cap below one row of atoms (blocks of one path), blocks of 7 paths, which
        # do not divide 1000, and the former cap of 4,000,000 entries (one block)
        for cap in (g.n_points - 1, 7 * g.n_points + 3, 4_000_000):
            monkeypatch.setattr(hpath, "_DRIFT_CHUNK", cap)
            ens = simulate(sol, 1000, 2, seed=17)
            assert np.array_equal(ens.initial, ref.initial)
            assert np.array_equal(ens.terminal, ref.terminal)

    def test_working_memory_is_one_block(self):
        g = make_grid(1, 5.0, 201)
        sol = control_value(gaussian_density(g, 0.36), gaussian_density(g, 1.0), eps=0.5).solution
        simulate(sol, 10, 2, seed=1)  # lazily built state of the solution, outside the count
        tracemalloc.start()
        try:
            simulate(sol, 20_000, 200, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_000 * 201 * 8 / 4  # a quarter of one (paths x atoms) float64 array

    def test_full_path_storage_consistent(self, bridge_setup):
        g, p0, _, sol = bridge_setup
        a = simulate(sol, 200, 30, seed=3, keep_full_paths=True)
        b = simulate(sol, 200, 30, seed=3, keep_full_paths=False)
        assert a.paths.shape == (200, 31, 1)
        assert np.array_equal(a.paths[:, 0, :], a.initial)
        assert np.array_equal(a.paths[:, -1, :], a.terminal)
        assert np.array_equal(a.terminal, b.terminal)

    def test_bridge_to_atom_concentrates(self):
        eps = 0.01
        sol = _atom_solution(1.5, eps=eps)
        n_steps = 100
        ens = euler_maruyama_reference(sol, 2000, n_steps, seed=1)
        spread = np.abs(ens.terminal[:, 0] - 1.5)
        assert np.quantile(spread, 0.95) <= 5 * math.sqrt(eps / n_steps) + 0.05

    def test_law_matches_euler_maruyama_reference(self, bridge_setup):
        g, p0, p1, sol = bridge_setup
        n, bins, radius = 10_000, 25, g.bounding_radius
        plan = binned_plan(sol, radius, bins)
        target = p1.to_measure().normalized()
        rng = np.random.Generator(np.random.Philox(key=1))
        tv_floor = np.mean([tv_distance(rng.multinomial(n, plan) / n, plan)
                            for _ in range(20)])
        w2_floor = np.mean([w2_distance_1d(empirical_measure(sample_density(p1, n, rng)),
                                           target) for _ in range(5)])
        for sampler in (simulate, euler_maruyama_reference):
            ens = sampler(sol, n, 100, seed=6)
            tv = tv_distance(reference_binned_joint(ens.initial, ens.terminal, radius, bins), plan)
            w2 = w2_distance_1d(empirical_measure(ens.terminal), target)
            assert tv <= 1.3 * tv_floor, sampler.__name__
            assert w2 <= 3.0 * w2_floor, sampler.__name__

    def test_inner_times_are_brownian_bridges(self, bridge_setup):
        g, p0, _, sol = bridge_setup
        eps, n, n_steps = 0.5, 20_000, 10
        ens = simulate(sol, n, n_steps, seed=4, keep_full_paths=True)
        k = n_steps // 2
        t = ens.times[k]
        assert t == 0.5
        x0, x1 = ens.initial[:, 0], ens.terminal[:, 0]
        z = (ens.paths[:, k, 0] - (1 - t) * x0 - t * x1) / math.sqrt(eps * t * (1 - t))
        assert abs(z.mean()) <= 4.0 / math.sqrt(n)
        assert abs(z.var() - 1.0) <= 4.0 * math.sqrt(2.0 / n)

    def test_terminal_points_lie_in_atom_cells(self):
        eps = 0.3
        atoms = np.array([-1.2, 0.3, 1.6])  # unit cells, pairwise disjoint
        sol = _atom_solution(atoms, eps=eps)
        ens = simulate(sol, 3000, 10, seed=2)
        inside = np.abs(ens.terminal[:, 0, None] - atoms[None, :]) <= 0.5
        assert np.all(inside.sum(axis=1) == 1)
        assert np.all(inside.any(axis=0))

    def test_seed_mandatory(self, bridge_setup):
        g, p0, _, sol = bridge_setup
        with pytest.raises(ValueError, match="seed"):
            simulate(sol, 10, 10, seed=None)


class TestEndpointDiagnostics:
    def test_tv_decreases_along_n_paths_ladder(self, bridge_setup, monkeypatch):
        g, p0, p1, sol = bridge_setup
        monkeypatch.setattr(hpath, "N_BOOTSTRAP", 0)
        tvs = []
        for n in (200, 1000, 5000, 20000):
            ens = simulate(sol, n, 100, seed=42)
            diag = endpoint_diagnostics(ens, sol, bins=25)
            tvs.append(diag.tv_joint)
        assert tvs[-1] < tvs[0]
        assert tvs[-1] < 0.1

    def test_bridge_to_atom_joint_structure(self):
        eps = 0.05
        sol = _atom_solution(1.0, eps=eps)
        ens = simulate(sol, 4000, 100, seed=8)
        # joint law is (initial law) x (atom): initial marginal uniform,
        # terminal concentrated at the atom
        assert np.abs(np.mean(ens.terminal[:, 0]) - 1.0) < 0.05
        hist0 = np.histogram(ens.initial[:, 0], bins=5, range=(-2, 2))[0]
        assert hist0.min() > 0.15 * len(ens.initial)

    def test_initial_chi_square_consistent(self, bridge_setup):
        g, p0, p1, sol = bridge_setup
        ens = simulate(sol, 20000, 50, seed=12)
        stat, dof = initial_chi_square(ens, sol)
        # pre-registered threshold: 99.9th percentile of chi2(dof)
        from scipy.stats import chi2

        assert stat <= chi2.ppf(0.999, dof)

    def test_1d_subsample_quantile_matches_lp(self, monkeypatch):
        # the bench's shape: 200 of 4000 paths against 200 draws from the 201-atom target
        g = make_grid(1, 5.0, 201)
        sol = control_value(gaussian_density(g, 0.36), gaussian_density(g, 1.0), eps=0.5).solution
        ens = simulate(sol, 4000, 2, seed=7)
        rng = np.random.Generator(np.random.Philox(key=ens.seed + 0x9E3779B9))
        target = sol.mu2.normalized()
        x = ens.terminal[rng.choice(4000, size=200, replace=False)]
        p = target.weights / target.weights.sum()
        y = g.points[rng.choice(201, size=200, replace=True, p=p)]
        monkeypatch.setattr(hpath, "N_BOOTSTRAP", 0)
        got = endpoint_diagnostics(ens, sol).w2_subsample
        assert got == w2_distance(x, y)
        sub, tgt_small = empirical_measure(x), empirical_measure(y)
        assert got == pytest.approx(w2_distance_1d(sub, tgt_small), rel=1e-14, abs=0)
        assert got == pytest.approx(w2_distance_lp(sub, tgt_small), rel=1e-9, abs=0)

    def test_binned_plan_marginals(self, bridge_setup):
        g, p0, p1, sol = bridge_setup
        bins = 20
        flat = binned_plan(sol, g.bounding_radius, bins)
        grid2 = flat.reshape(bins, bins)
        expected0 = _overlap_matrix(g, g.bounding_radius, bins).T @ p0.to_measure().weights
        assert np.abs(grid2.sum(axis=1) - expected0).sum() <= 1e-9


def _heat_solution_2d():
    g = make_grid(2, 2.0, 9)
    p0 = gaussian_density(g, 0.3)
    p1 = gaussian_density(g, 0.6, mean=[0.2, -0.1])
    return p0, p1, control_value(p0, p1, eps=0.5).solution


class TestBandwidthFromKernel:
    def test_only_eps_times_t_matters(self, bridge_setup):
        g, p0, _, sol = bridge_setup
        sol_a = dataclasses.replace(
            sol, kernel=GaussianHeatKernel(source=g, target=g, t=0.5, eps=1.0))
        sol_b = dataclasses.replace(
            sol, kernel=GaussianHeatKernel(source=g, target=g, t=1.0, eps=0.5))
        a = simulate(sol_a, 300, 8, seed=5, keep_full_paths=True)
        b = simulate(sol_b, 300, 8, seed=5, keep_full_paths=True)
        for field in ("initial", "terminal", "paths"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        x = np.linspace(-3.0, 3.0, 13)[:, None]
        for t in (0.0, 0.4, 0.9):
            assert np.array_equal(drift(t, x, sol_a), drift(t, x, sol_b))

    def test_bandwidth_is_the_kernels(self, bridge_setup):
        # eps * t halved gives a different bridge from the same plan factors
        g, p0, _, sol = bridge_setup
        half = dataclasses.replace(
            sol, kernel=GaussianHeatKernel(source=g, target=g, t=0.5, eps=0.5))
        x = np.array([[1.0]])
        assert not np.array_equal(drift(0.3, x, sol), drift(0.3, x, half))

    def test_dense_kernel_raises_type_error(self, bridge_setup):
        g, p0, _, sol = bridge_setup
        dense = dataclasses.replace(sol, kernel=DenseKernel(g, g, sol.kernel.logk))
        with pytest.raises(TypeError, match="heat kernel"):
            simulate(dense, 10, 4, seed=1)
        with pytest.raises(TypeError, match="heat kernel"):
            drift(0.5, np.zeros(1), dense)


class TestBinningMatchesReference:
    """The overlap matrix and count-vector bootstrap against the verbatim oracles."""

    @staticmethod
    def _check(ens, sol, p1, bins):
        radius = max(sol.mu1.support.bounding_radius, sol.mu2.support.bounding_radius)
        np.testing.assert_allclose(binned_plan(sol, radius, bins),
                                   reference_binned_plan(sol, radius, bins), rtol=1e-12, atol=0)
        got = dataclasses.asdict(endpoint_diagnostics(ens, sol, bins=bins))
        # the old bootstrap on the new plan binning: identical resamples
        same = dataclasses.asdict(reference_endpoint_diagnostics(
            ens, sol, p1, bins, 20, plan_binning=binned_plan))
        old = dataclasses.asdict(reference_endpoint_diagnostics(
            ens, sol, p1, bins, 20, plan_binning=reference_binned_plan))
        for key in ("bl_terminal", "w2_subsample", "w2_full_1d", "tv_joint", "kl_joint",
                    "tv_joint_err", "n_paths", "bins"):
            assert got[key] == same[key], key
        for ref in (same, old):
            for key, value in got.items():
                assert value == pytest.approx(ref[key], rel=1e-12, abs=0, nan_ok=True), key

    def test_1d(self, bridge_setup):
        g, p0, p1, sol = bridge_setup
        ens = simulate(sol, 3000, 10, seed=21)
        for bins in (7, 50):
            self._check(ens, sol, p1, bins)

    def test_2d(self):
        p0, p1, sol = _heat_solution_2d()
        ens = simulate(sol, 150, 10, seed=22)
        for bins in (4, 12):
            self._check(ens, sol, p1, bins)

    def test_overlap_matrix_and_chi_square_2d(self):
        p0, _, sol = _heat_solution_2d()
        g, bins = p0.support, 20
        dense = np.zeros((g.n_points, bins**2))
        for k, f in reference_cell_bin_split(g, _bin_edges(g.bounding_radius, bins)):
            np.add.at(dense, (np.arange(g.n_points), k), f)
        np.testing.assert_allclose(_overlap_matrix(g, g.bounding_radius, bins),
                                   dense, rtol=1e-12, atol=0)
        ens = simulate(sol, 20000, 4, seed=23)
        stat, dof = initial_chi_square(ens, sol)
        from scipy.stats import chi2

        assert 0 < dof and stat <= chi2.ppf(0.999, dof)


class TestSharedEdges:
    """``_bin_ids`` and ``_overlap_matrix`` bin on the same edges."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_whole_cell_lands_in_the_bin_of_its_centre(self, dim):
        # cells of width 0.5 from -3 to 3; bins of width 1 over [-1.5, 1.5],
        # so every cell lies wholly in one bin, many beyond +-radius
        g = make_grid(dim, 3.0, 12)
        radius, bins = 1.5, 3
        share = _overlap_matrix(g, radius, bins)
        expected = np.zeros_like(share)
        expected[np.arange(g.n_points), _bin_ids(g.points, radius, bins)] = 1.0
        assert np.any(np.abs(g.points) > radius + 1.0)
        np.testing.assert_array_equal(share, expected)

    @pytest.mark.parametrize("dim, radius, bins", [(1, 2.0, 7), (2, 2.0, 7), (2, 3.7, 50)])
    def test_rows_sum_to_one(self, dim, radius, bins):
        g = make_grid(dim, 3.0, 21)
        share = _overlap_matrix(g, radius, bins)
        assert share.shape == (g.n_points, bins**dim)
        assert np.abs(share.sum(axis=1) - 1.0).max() <= 1e-15
