import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from schrobridge import (
    DenseKernel,
    Density,
    DiscreteMeasure,
    GaussianHeatKernel,
    OracleTooLargeError,
    Support,
    log_eval_kernel,
    make_grid,
    truncated_potentials,
)
from schrobridge.core import logsumexp, pairwise_sq_dists
from schrobridge.io import write_csv
from schrobridge.moment import _step, recentered
from schrobridge.solver import SchroedingerSolution, _hat


def gaussian_density(grid, var, mean=0.0):
    """Discretized (truncated, renormalized) Gaussian on a grid."""
    d2 = np.sum((grid.points - np.atleast_1d(mean)[None, :]) ** 2, axis=1)
    v = np.exp(-d2 / (2.0 * var))
    v = v / (v @ grid.cell_volumes)
    return Density(grid, v, is_probability=True)


def _save_table(path, support: Support, value_name, values):
    header = [f"x_{k + 1}" for k in range(support.dim)] + [value_name, "cell_volume"]
    write_csv(path, header, [[*support.points.T, values, support.cell_volumes]])


def save_measure_csv(path, mu: DiscreteMeasure):
    _save_table(path, mu.support, "weight", mu.weights)


def save_density_csv(path, p: Density):
    _save_table(path, p.support, "density", p.values)


def two_point_support():
    return Support(points=np.array([[0.0], [1.0]]), cell_volumes=np.ones(2),
                   bounding_radius=1.0)


@pytest.fixture
def sup2():
    return two_point_support()


@pytest.fixture
def q2x2(sup2):
    return DenseKernel(source=sup2, target=sup2,
                       logk=np.log(np.array([[2.0, 1.0], [1.0, 2.0]])))


@pytest.fixture
def mu_half(sup2):
    return DiscreteMeasure(sup2, np.array([0.5, 0.5]), is_probability=True)


@pytest.fixture
def mu_skew(sup2):
    return DiscreteMeasure(sup2, np.array([0.75, 0.25]), is_probability=True)


@pytest.fixture
def grid_1d():
    return make_grid(1, 2.0, 41)


@pytest.fixture
def gauss_kernel(grid_1d):
    return GaussianHeatKernel(source=grid_1d, target=grid_1d, t=1.0, eps=0.8)


def random_instance(rng, n_min=5, n_max=40, radius=None):
    """Random kernel + probability marginals on a random 1-D grid."""
    n = int(rng.integers(n_min, n_max + 1))
    radius = radius if radius is not None else float(rng.uniform(0.5, 3.0))
    grid = make_grid(1, radius, n)
    logq = rng.normal(scale=rng.uniform(0.1, 1.5), size=(n, n))
    q = DenseKernel(source=grid, target=grid, logk=logq)
    w1 = rng.dirichlet(np.ones(n))
    w2 = rng.dirichlet(np.ones(n))
    mu1 = DiscreteMeasure(grid, w1 / w1.sum(), is_probability=True)
    mu2 = DiscreteMeasure(grid, w2 / w2.sum(), is_probability=True)
    return q, mu1, mu2


# ---------------------------------------------------------------------------
# Oracles: the paper's certified bounds, the free gauge, the uniform-candidate
# free-energy bound, one fixed-point map application and the weighted
# transport LP; no run calls them
# ---------------------------------------------------------------------------

W2_ORACLE_CAP = 400


def w2_distance_lp(mu1: DiscreteMeasure, mu2: DiscreteMeasure) -> float:
    """Exact 2-Wasserstein distance via the transport LP (scipy, imported here).

    Verification oracle only: refuses combined supports above
    ``W2_ORACLE_CAP`` points (callers must subsample).
    """
    from scipy import sparse
    from scipy.optimize import linprog

    n, m = mu1.support.n_points, mu2.support.n_points
    if n + m > W2_ORACLE_CAP:
        raise OracleTooLargeError(
            f"oracle too large: {n}+{m} support points exceed cap {W2_ORACLE_CAP}")
    if mu1.support.dim != mu2.support.dim:
        raise ValueError("dimension mismatch")
    a = mu1.weights / mu1.weights.sum()
    b = mu2.weights / mu2.weights.sum()
    cost = pairwise_sq_dists(mu1.support.points, mu2.support.points).ravel()
    a_eq = sparse.vstack([sparse.kron(sparse.eye(n), np.ones((1, m))),
                          sparse.kron(np.ones((1, n)), sparse.eye(m))], format="csr")
    res = linprog(
        cost, A_eq=a_eq, b_eq=np.concatenate([a, b]), bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return math.sqrt(max(res.fun, 0.0))


def rescaled(sol: SchroedingerSolution, c) -> SchroedingerSolution:
    """Apply the free gauge (nu1, nu2) -> (c nu1, nu2 / c).

    The plan and the sum u1(x) + u2(y) are invariant under this map.
    """
    if c <= 0:
        raise ValueError("scale must be positive")
    log_c = math.log(c)
    return replace(sol, log_nu1=sol.log_nu1 + log_c, log_nu2=sol.log_nu2 - log_c,
                   u1=sol.u1 - log_c, u2=sol.u2 + log_c, scale_C=sol.scale_C * c)


@dataclass(frozen=True)
class BoundReport:
    lower: float
    upper: float
    worst_slack: float
    detail: dict


def check_beurling_bounds(sol: SchroedingerSolution, r) -> BoundReport:
    """Two-sided kernel bounds on the potentials of probability marginals.

    With m = min q and M = max q over the supports (both inside B_r),
    every point must satisfy m/sqrt(M) <= exp(u_i) <= M/sqrt(m). A
    violation beyond a relative log-slack of 1e-9 indicates a solver or
    normalization bug and raises.
    """
    for sup in (sol.mu1.support, sol.mu2.support):
        if sup.radii().max() > r * (1 + 1e-9):
            raise ValueError("supports must lie inside B_r")
    logk = log_eval_kernel(sol.kernel)
    log_m, log_big_m = float(logk.min()), float(logk.max())
    log_lower = log_m - 0.5 * log_big_m
    log_upper = log_big_m - 0.5 * log_m
    slack = 1e-9 * max(1.0, abs(log_lower), abs(log_upper))
    worst = math.inf
    offender = None
    for name, u in (("u1", sol.u1), ("u2", sol.u2)):
        lo = float((u - log_lower).min())
        hi = float((log_upper - u).min())
        worst = min(worst, lo, hi)
        if lo < -slack or hi < -slack:
            idx = int(np.argmin(np.minimum(u - log_lower, log_upper - u)))
            offender = (name, idx)
    if offender is not None:
        raise RuntimeError(
            f"kernel bound violated at {offender[0]}[{offender[1]}] "
            f"(worst log-slack {worst:.3e})")
    return BoundReport(
        lower=math.exp(log_lower), upper=math.exp(log_upper),
        worst_slack=worst,
        detail={"m_qr": math.exp(log_m), "M_qr": math.exp(log_big_m)})


def check_product_identity(sol: SchroedingerSolution, m, sample_pairs) -> BoundReport:
    """Product identity and two-sided bound for truncated potential sums.

    For sampled index pairs (i1, i2), exp(u_{1|m}(x_{i1}) + u_{2|m}(y_{i2}))
    must equal the plan integral of q(x_{i1}, y) q(x, y_{i2}) / q(x, y)
    over the truncated region (to 1e-8 relative, in logs), and must lie
    between the min / max of that ratio times the truncated plan mass
    (lower) and the max alone (upper).
    """
    u1m, u2m = truncated_potentials(sol, m)
    logk = log_eval_kernel(sol.kernel)
    log_plan = sol.log_plan()
    with np.errstate(divide="ignore"):
        logphi_s = np.log(_hat(sol.mu1.support.radii(), m))
        logphi_t = np.log(_hat(sol.mu2.support.radii(), m))
    log_phi2 = logphi_s[:, None] + logphi_t[None, :]
    log_mass = logsumexp(log_plan + log_phi2)
    supp_s = ~np.isinf(logphi_s)
    supp_t = ~np.isinf(logphi_t)
    worst_rel = 0.0
    details = []
    for i1, i2 in sample_pairs:
        log_ratio = logk[i1, :][None, :] + logk[:, i2][:, None] - logk
        lhs = u1m[i1] + u2m[i2]
        rhs = logsumexp(log_ratio + log_phi2 + log_plan)
        rel = abs(lhs - rhs) / max(1.0, abs(lhs))
        worst_rel = max(worst_rel, rel)
        if rel > 1e-8:
            raise RuntimeError(
                f"product identity mismatch at pair ({i1}, {i2}): "
                f"log lhs {lhs:.12g} vs log rhs {rhs:.12g}")
        ratio_sub = log_ratio[np.ix_(supp_s, supp_t)]
        log_lo = float(ratio_sub.min()) + log_mass
        log_hi = float(ratio_sub.max())
        if lhs < log_lo - 1e-9 or lhs > log_hi + 1e-9:
            raise RuntimeError(
                f"truncated potential bound violated at pair ({i1}, {i2})")
        details.append((i1, i2, rel))
    return BoundReport(lower=math.nan, upper=math.nan, worst_slack=worst_rel,
                       detail={"pairs": details, "m": m})


def check_level_bounds(sol: SchroedingerSolution, m) -> BoundReport:
    """Sandwich bound on the product of truncated factor masses.

    mu(K_m x K_m) / max_{K_m} q  <=  (integral phi_m dnu1)(integral phi_m dnu2)
    <=  1 / min_{supp phi_m} q.
    """
    logk = log_eval_kernel(sol.kernel)
    log_plan = sol.log_plan()
    rad_s = sol.mu1.support.radii()
    rad_t = sol.mu2.support.radii()
    in_s = rad_s <= m + 1e-12
    in_t = rad_t <= m + 1e-12
    if not (in_s.any() and in_t.any()):
        raise ValueError("truncation below m_index: K_m misses the supports")
    phi_s = _hat(rad_s, m)
    phi_t = _hat(rad_t, m)
    mass_km = float(np.exp(logsumexp(log_plan[np.ix_(in_s, in_t)])))
    lower = mass_km / float(np.exp(logk[np.ix_(in_s, in_t)].max()))
    upper = 1.0 / float(np.exp(logk[np.ix_(phi_s > 0, phi_t > 0)].min()))
    mid = float(phi_s @ sol.nu1.weights) * float(phi_t @ sol.nu2.weights)
    slack = min(mid - lower, upper - mid)
    if slack < -1e-9 * max(1.0, upper):
        raise RuntimeError(
            f"level bound violated: {lower:.12g} <= {mid:.12g} <= {upper:.12g} fails")
    return BoundReport(lower=lower, upper=upper, worst_slack=slack,
                       detail={"product_of_masses": mid, "m": m})


def free_energy_upper_bound(p1: Density | None, r, support: Support | None = None) -> float:
    """Uniform-candidate bound -log Vol(B_r) + 0.5 * mean of |x|^2 over B_r.

    With a grid support the bound uses the grid's total cell volume and
    midpoint quadrature, making it exactly the objective of the uniform
    density on that grid with the control term dropped. Without a support
    the closed-form ball volume is used. Independent of p1 and of the noise
    level eps.
    """
    if support is not None:
        vol = support.total_volume
        mean_sq = float(
            np.sum(support.points**2, axis=1) @ support.cell_volumes) / vol
        return -math.log(vol) + 0.5 * mean_sq
    d = p1.support.dim if p1 is not None else 1
    vol = math.pi ** (d / 2) / math.gamma(d / 2 + 1) * r**d
    return -math.log(vol) + 0.5 * d * r * r / (d + 2)


def fixed_point_step(p: Density, p1: Density, eps, r) -> Density:
    """Apply the map p -> normalize(exp(-eps * u1 - |x|^2 / 2)) on B_r.

    u1 is the source potential of the heat-kernel Schrodinger solve with
    marginals (p, p1). The target is recentered to barycenter zero, as in
    ``solve_fixed_point``, so a density satisfying the stationarity
    equation for p1 is reproduced within solver tolerance.
    """
    if p.support.radii().max() > r * (1 + 1e-9):
        raise ValueError("iterate support must lie inside B_r")
    p1, _ = recentered(p1)
    kernel = GaussianHeatKernel(source=p.support, target=p1.support, t=1.0, eps=eps)
    log_image, _ = _step(p, p1.to_measure(), kernel)
    return Density(p.support, np.exp(log_image), is_probability=True)
