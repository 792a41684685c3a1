"""End-to-end acceptance suite.

Each test exercises one shipped criterion at its stated tolerance and
prints a single PASS/FAIL line (visible with ``pytest -s`` or ``-rA``).
The reference instances are frozen here, seeds included.
"""
import json
import math
import os

import numpy as np
import pytest

from schrobridge import (
    Density,
    DiscreteMeasure,
    GaussianHeatKernel,
    check_beurling_bounds,
    check_product_identity,
    control_value,
    endpoint_diagnostics,
    free_energy_upper_bound,
    make_family,
    make_grid,
    run_convergence,
    sample_density,
    semiconvexity_constant,
    simulate,
    solve_fixed_point,
    solve_schrodinger,
    truncated_potentials,
    w2_distance_1d,
    zero_noise_continuation,
)
from schrobridge.cli import main
from schrobridge.core import empirical_measure
from schrobridge.io import save_density_csv, save_measure_csv
from conftest import gaussian_density, random_instance, two_point_support


def _report(num, label, ok, detail=""):
    print(f"ACCEPTANCE {num} [{label}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. Schrodinger-system residuals
# ---------------------------------------------------------------------------

def test_acceptance_01_system_residual():
    from schrobridge import DenseKernel

    sup = two_point_support()
    q = DenseKernel(source=sup, target=sup, values=np.array([[2.0, 1.0], [1.0, 2.0]]))
    mu = DiscreteMeasure(sup, np.array([0.5, 0.5]), is_probability=True)
    sol = solve_schrodinger(q, mu, mu, tol=1e-14, max_iters=10000)

    nu2_oracle = np.ones(2)
    for _ in range(10**4):
        nu1_oracle = mu.weights / (np.array(q.values) @ nu2_oracle)
        nu2_oracle = mu.weights / (np.array(q.values).T @ nu1_oracle)
    c = math.sqrt(nu2_oracle.sum() / nu1_oracle.sum())
    nu1_oracle, nu2_oracle = nu1_oracle * c, nu2_oracle / c

    closed = np.full(2, 1.0 / math.sqrt(6.0))
    ok_small = (np.abs(sol.nu1.weights - closed).max() <= 1e-10
                and np.abs(sol.nu2.weights - closed).max() <= 1e-10
                and np.abs(sol.nu1.weights - nu1_oracle).max() <= 1e-10
                and np.abs(sol.nu2.weights - nu2_oracle).max() <= 1e-10)

    g = make_grid(1, 4.0, 1000)
    x = g.points[:, 0]
    w1 = np.exp(-(x - 0.5) ** 2 / 0.6)
    w2 = np.exp(-(x + 0.7) ** 2 / 0.4) + 0.05 * np.exp(-(x - 1.5) ** 2 / 0.1)
    mu1 = DiscreteMeasure(g, w1 / w1.sum(), is_probability=True)
    mu2 = DiscreteMeasure(g, w2 / w2.sum(), is_probability=True)
    big = solve_schrodinger(
        GaussianHeatKernel(source=g, target=g, t=1.0, eps=0.25),
        mu1, mu2, tol=1e-10, max_iters=5000)
    ok_big = big.converged and big.final_residual <= 1e-10

    _report(1, "system residual", ok_small and ok_big,
            f"2x2 max dev {np.abs(sol.nu1.weights - closed).max():.2e}, "
            f"1000-pt grid residual {big.final_residual:.2e} "
            f"in {big.iterations} sweeps")


# ---------------------------------------------------------------------------
# 2. Control-value identity chain
# ---------------------------------------------------------------------------

def test_acceptance_02_identity_chain():
    g161 = make_grid(1, 5.0, 161)
    x = g161.points[:, 0]
    bimodal = np.exp(-(x - 1.2) ** 2 / 0.3) + 0.7 * np.exp(-(x + 1.0) ** 2 / 0.5)
    bimodal = Density(g161, bimodal / (bimodal @ g161.cell_volumes),
                      is_probability=True)
    g2d = make_grid(2, 3.0, 13)
    instances = [
        (gaussian_density(g161, 0.25), gaussian_density(g161, 0.5), 1.0),
        (gaussian_density(g161, 0.25), gaussian_density(g161, 0.5), 0.25),
        (bimodal, gaussian_density(g161, 1.0), 0.5),
        (gaussian_density(g161, 0.4, mean=-0.8), gaussian_density(g161, 0.6, mean=0.9), 0.75),
        (gaussian_density(g2d, 0.5), gaussian_density(g2d, 1.0), 1.0),
    ]
    worst = 0.0
    for p0, p1, eps in instances:
        rep = control_value(p0, p1, eps)
        scale = 1.0 + abs(rep.potential_form)
        worst = max(worst, rep.max_pairwise_gap / scale)
    _report(2, "identity chain", worst <= 1e-6,
            f"worst relative gap {worst:.2e} over {len(instances)} instances")


# ---------------------------------------------------------------------------
# 3. Two-sided potential bounds on random instances
# ---------------------------------------------------------------------------

def test_acceptance_03_potential_bounds():
    rng = np.random.default_rng(31415)
    violations = 0
    for _ in range(100):
        q, mu1, mu2 = random_instance(rng)
        sol = solve_schrodinger(q, mu1, mu2, tol=1e-12, max_iters=50000)
        try:
            check_beurling_bounds(sol, mu1.support.bounding_radius)
        except RuntimeError:
            violations += 1
    _report(3, "two-sided potential bounds", violations == 0,
            f"{violations} violations over 100 random instances")


# ---------------------------------------------------------------------------
# 4. Product identity and truncation monotonicity
# ---------------------------------------------------------------------------

def test_acceptance_04_product_identity():
    rng = np.random.default_rng(27182)
    worst_rel = 0.0
    monotone_ok = True
    for _ in range(10):
        q, mu1, mu2 = random_instance(rng, n_min=8, n_max=30, radius=2.5)
        sol = solve_schrodinger(q, mu1, mu2, tol=1e-13, max_iters=50000)
        n, m = mu1.support.n_points, mu2.support.n_points
        pairs = [(int(rng.integers(n)), int(rng.integers(m))) for _ in range(20)]
        rep = check_product_identity(sol, 3, pairs)
        worst_rel = max(worst_rel, rep.worst_slack)
        prev = None
        for level in (1, 2, 3):
            u1m, u2m = truncated_potentials(sol, level)
            totals = np.array([u1m[i] + u2m[j] for i, j in pairs])
            if prev is not None and np.any(totals < prev - 1e-12):
                monotone_ok = False
            prev = totals
    _report(4, "product identity", worst_rel <= 1e-8 and monotone_ok,
            f"worst relative error {worst_rel:.2e}, monotone={monotone_ok}")


# ---------------------------------------------------------------------------
# 5. Bridge endpoint laws
# ---------------------------------------------------------------------------

def test_acceptance_05_bridge_endpoints():
    eps, n_paths, n_steps, seed = 0.5, 10**5, 200, 20240801
    g = make_grid(1, 5.0, 201)
    p0 = gaussian_density(g, 0.36)
    p1 = gaussian_density(g, 1.0)
    rep = control_value(p0, p1, eps)
    ens = simulate(p0, rep.solution, n_paths, n_steps, seed)
    diag = endpoint_diagnostics(ens, rep.solution, p1, bins=50)

    target = p1.to_measure().normalized()
    floors = []
    for offset in (1, 2, 3):
        rng = np.random.Generator(np.random.Philox(key=seed + offset))
        direct = sample_density(p1, n_paths, rng)
        floors.append(w2_distance_1d(empirical_measure(direct), target))
    floor = float(np.mean(floors))

    ok_w2 = diag.w2_full_1d <= 3.0 * floor
    ok_tv = diag.tv_joint <= 0.05
    _report(5, "bridge endpoints", ok_w2 and ok_tv,
            f"W2 {diag.w2_full_1d:.4f} vs 3x floor {3 * floor:.4f}; "
            f"joint TV {diag.tv_joint:.4f} (err {diag.tv_joint_err:.4f})")


# ---------------------------------------------------------------------------
# 6. Plan / product / potential stability ladders
# ---------------------------------------------------------------------------

def _stability_base():
    g = make_grid(1, 2.0, 41)
    x = g.points[:, 0]
    w1 = np.exp(-(x - 0.3) ** 2 / 0.5) + 0.2
    w2 = np.exp(-(x + 0.4) ** 2 / 0.3) + 0.1
    mu1 = DiscreteMeasure(g, w1 / w1.sum(), is_probability=True)
    mu2 = DiscreteMeasure(g, w2 / w2.sum(), is_probability=True)
    q = GaussianHeatKernel(source=g, target=g, t=1.0, eps=0.8)
    return q, mu1, mu2


def test_acceptance_06_stability_ladders():
    base = _stability_base()
    q, mu1, mu2 = base
    probes = [(5, 17), (20, 20), (33, 8)]
    fam = make_family(q, mu1, mu2, "kernel_perturbation",
                      {"index_set": [4, 8, 16, 32, 64], "amplitude": 1.0})
    rep = run_convergence(base, fam, probes, m=2)
    ratios = {metric: rep.trend(metric)[2]
              for metric in ("plan_bl", "product_gap", "potential_gap")}
    ok_trend = all(r <= 0.25 for r in ratios.values())

    zero = make_family(q, mu1, mu2, "kernel_perturbation",
                       {"index_set": [4, 64], "amplitude": 0.0})
    zrep = run_convergence(base, zero, probes, m=2, probe_shift=0.0, tol=1e-12)
    ok_zero = all(max(r.plan_bl, r.product_gap, r.potential_gap) <= 2e-12
                  for r in zrep.rows)
    _report(6, "stability ladders", ok_trend and ok_zero,
            "decay ratios " + ", ".join(f"{k}={v:.3f}" for k, v in ratios.items())
            + f"; zero-perturbation ok={ok_zero}")


# ---------------------------------------------------------------------------
# 7. Sup-norm stability under mollification
# ---------------------------------------------------------------------------

def test_acceptance_07_supnorm_stability():
    base = _stability_base()
    q, mu1, mu2 = base
    c_r = semiconvexity_constant(q)
    fam = make_family(q, mu1, mu2, "marginal_mollification",
                      {"index_set": [2, 4, 8, 16], "bandwidth": 0.5})
    rep = run_convergence(base, fam, [(5, 17), (20, 20), (33, 8)], m=2, r_prime=1.8)
    final_gap = rep.rows[-1].supnorm_gap
    ok = (all(row.solved for row in rep.rows)
          and c_r == pytest.approx(1.0 / (2 * 0.8)) and final_gap <= 1e-3
          and rep.rows[0].supnorm_gap > final_gap)
    _report(7, "sup-norm stability", ok,
            f"semiconvexity constant {c_r:.4f}, finest gap {final_gap:.2e}")


# ---------------------------------------------------------------------------
# 8. Moment measure with Gaussian ground truth
# ---------------------------------------------------------------------------

def test_acceptance_08_moment_measure_gaussian():
    g = make_grid(1, 4.0, 201)
    p1 = gaussian_density(g, 1.0)
    schedule = [2.0 ** (-k) for k in range(8)]
    res = zero_noise_continuation(p1, 4.0, eps_schedule=schedule, tol=1e-9)
    x = g.points[:, 0]
    mask = np.abs(x) <= 2.0
    diff = (res.u_bar - 0.5 * x**2)[mask]
    sup_gap = 0.5 * (diff.max() - diff.min())   # optimal additive gauge
    bound = free_energy_upper_bound(p1, 1.0, 4.0, support=g)
    objectives_ok = all(row["objective"] <= bound for row in res.diagnostics)
    ok = (sup_gap <= 0.05 and res.pushforward_error <= 0.02
          and res.convexity_defect <= 1e-6 and objectives_ok)
    _report(8, "moment measure vs Gaussian target", ok,
            f"sup gap {sup_gap:.4f}, pushforward {res.pushforward_error:.4f}, "
            f"convexity defect {res.convexity_defect:.2e}, "
            f"objectives below bound: {objectives_ok}")


# ---------------------------------------------------------------------------
# 9. Fixed-point self-consistency
# ---------------------------------------------------------------------------

def test_acceptance_09_fixed_point_consistency():
    from schrobridge import fixed_point_step

    g1 = make_grid(1, 4.0, 121)
    x = g1.points[:, 0]
    bimodal = np.exp(-(x - 1.0) ** 2 / 0.4) + np.exp(-(x + 1.0) ** 2 / 0.4)
    bimodal = Density(g1, bimodal / (bimodal @ g1.cell_volumes), is_probability=True)
    g2 = make_grid(2, 2.0, 15)
    shipped = [
        (gaussian_density(g1, 1.0), 0.5, 4.0),
        (bimodal, 0.5, 4.0),
        (gaussian_density(g2, 0.5), 1.0, 2.0),
    ]
    worst_resub = 0.0
    worst_inits = 0.0
    for p1, eps, r in shipped:
        trace = solve_fixed_point(p1, eps, r, tol=1e-9)
        assert trace.converged
        p_star = trace.final
        image = fixed_point_step(p_star, p1, eps, r)
        worst_resub = max(worst_resub,
                          float(np.abs(image.values - p_star.values).max()))
        clipped = Density(p_star.support,
                          np.maximum(p1.values, 1e-300)
                          / (np.maximum(p1.values, 1e-300)
                             @ p1.support.cell_volumes),
                          is_probability=True)
        other = solve_fixed_point(p1, eps, r, tol=1e-9, init=clipped)
        worst_inits = max(worst_inits,
                          float(np.abs(other.final.values - p_star.values).max()))
    ok = worst_resub <= 1e-8 and worst_inits <= 1e-6
    _report(9, "fixed-point self-consistency", ok,
            f"worst re-substitution {worst_resub:.2e}, "
            f"worst init disagreement {worst_inits:.2e}")


# ---------------------------------------------------------------------------
# 10. Byte-identical artifact reproducibility
# ---------------------------------------------------------------------------

def _artifacts(out_dir):
    blobs = {}
    for name in sorted(os.listdir(out_dir)):
        if name == "manifest.json":
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            blobs[name] = fh.read()
    return blobs


def test_acceptance_10_reproducibility(tmp_path):
    g = make_grid(1, 3.0, 41)
    mpath = tmp_path / "m.csv"
    dpath = tmp_path / "d.csv"
    save_measure_csv(mpath, gaussian_density(g, 0.5).to_measure())
    save_density_csv(dpath, gaussian_density(g, 0.5))

    runs = {
        "solve": ["solve", "--config", str(tmp_path / "solve.cfg")],
        "control": ["control", "--config", str(tmp_path / "control.cfg")],
        "bridge": ["bridge", "--config", str(tmp_path / "bridge.cfg"),
                   "--seed", "17", "--full-paths"],
        "moment": ["moment", "--config", str(tmp_path / "moment.cfg")],
        "stability": ["stability", "--config", str(tmp_path / "stab.cfg"),
                      "--seed", "5"],
    }
    with open(tmp_path / "solve.cfg", "w") as fh:
        fh.write(f"mu1 = {mpath}\nmu2 = {mpath}\nkernel = gaussian:1\neps = 0.5\n")
    with open(tmp_path / "control.cfg", "w") as fh:
        fh.write(f"p0 = {dpath}\np1 = {dpath}\neps = 0.5,0.25\n")
    with open(tmp_path / "bridge.cfg", "w") as fh:
        fh.write(f"p0 = {dpath}\np1 = {dpath}\neps = 0.5\nn_paths = 60\nn_steps = 20\n")
    with open(tmp_path / "moment.cfg", "w") as fh:
        fh.write(f"p1 = {dpath}\nr = 3.0\nschedule = 0.5,0.25\n")
    with open(tmp_path / "stab.cfg", "w") as fh:
        fh.write(f"mu1 = {mpath}\nmu2 = {mpath}\nkernel = gaussian:1\neps = 1.0\n"
                 "family = marginal_empirical\nindex_set = 50,200\n")

    mismatches = []
    for name, argv in runs.items():
        out1 = tmp_path / f"{name}_1"
        out2 = tmp_path / f"{name}_2"
        assert main(argv + ["--out", str(out1)]) == 0, name
        assert main(argv + ["--out", str(out2)]) == 0, name
        if _artifacts(out1) != _artifacts(out2):
            mismatches.append(name)
    _report(10, "reproducibility", not mismatches,
            f"byte-identical artifacts for {sorted(runs)}; mismatches: {mismatches}")
