"""Stabilized iterative proportional fitting for the Schrodinger system.

Given a strictly positive kernel q and probability marginals mu1, mu2 on
finite supports, finds nonnegative measures nu1, nu2 with

    mu1_i = nu1_i * sum_j q_ij nu2_j,      mu2_j = nu2_j * sum_i q_ij nu1_i,

together with the log-potentials u_i = log(integral of q against the
opposite factor). The factor pair is unique up to the scaling
(C nu1, nu2 / C); solutions are gauged so that nu1 and nu2 carry equal
total mass (the compact-support normalization), which pins u1 and u2
individually and makes the two-sided kernel bounds on exp(u_i) valid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import logsumexp

from .core import (
    DiscreteMeasure,
    GaussianHeatKernel,
    KernelSpec,
    log_eval_kernel,
    log_heat,
    same_support,
    tv_distance,
)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 5000
# A scaling outside this range is absorbed into the log potentials.
SCALING_BOUNDS = (1e-100, 1e100)
_RANGE_MESSAGE = ("factor masses beyond the float64 range: the kernel is too sharp "
                  "(eps too small) for these marginals")


@dataclass(frozen=True)
class SchroedingerSolution:
    """Converged factor pair with potentials and diagnostics.

    Attributes
    ----------
    nu1, nu2 : DiscreteMeasure
        The (finite, generally non-probability) factor measures.
    log_nu1, log_nu2 : arrays
        Exact log weights; kept because weights may underflow for sharp
        kernels. ``nu_i.weights == exp(log_nu_i)`` up to underflow.
    u1, u2 : arrays
        Log-potentials: exp(u1[i]) = sum_j q_ij nu2_j and symmetrically.
    scale_C : float
        The factor applied as (C nu1, nu2 / C) to equalize total masses.
    iterations : int
        Completed IPFP sweeps.
    final_residual : float
        Max of the two marginal total-variation defects at exit.
    converged : bool
        False when the iteration budget ran out first.
    """

    kernel: KernelSpec
    mu1: DiscreteMeasure
    mu2: DiscreteMeasure
    nu1: DiscreteMeasure
    nu2: DiscreteMeasure
    log_nu1: np.ndarray
    log_nu2: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    scale_C: float
    iterations: int
    final_residual: float
    converged: bool

    def log_plan(self):
        """Log of the plan matrix nu1_i q_ij nu2_j."""
        return (
            self.log_nu1[:, None]
            + log_eval_kernel(self.kernel)
            + self.log_nu2[None, :]
        )


def _hat(radii, m):
    """Truncation profile: 1 on B_m, linear decay to 0 on B_{m+1} \\ B_m."""
    return np.clip(m + 1.0 - radii, 0.0, 1.0)


def _refit(logk, pot, w, axis, kt):
    """Log-domain half-sweep: fit the marginal weights `w` against `pot`.

    Returns the fitted log potential log(w) - log sum_axis exp(logk + pot)
    and leaves in `kt` the kernel with both potentials absorbed, whose sums
    along `axis` are w. Raises ValueError when a potential is not finite.
    """
    def other(v):
        return v[:, None] if axis == 1 else v[None, :]

    np.add(logk, pot[None, :] if axis == 1 else pot[:, None], out=kt)
    mx = kt.max(axis=axis)
    np.subtract(kt, other(mx), out=kt)
    np.exp(kt, out=kt)
    sums = kt.sum(axis=axis)
    with np.errstate(divide="ignore"):
        fitted = np.log(w) - (mx + np.log(sums))
    if np.isnan(fitted).any() or np.isinf(fitted[w > 0]).any():
        raise ValueError(_RANGE_MESSAGE)
    kt *= other(w / sums)
    return fitted


def _in_range(s):
    return SCALING_BOUNDS[0] <= s.min() and s.max() <= SCALING_BOUNDS[1]


def solve_schrodinger(
    q: KernelSpec,
    mu1: DiscreteMeasure,
    mu2: DiscreteMeasure,
    tol=DEFAULT_TOL,
    max_iters=DEFAULT_MAX_ITERS,
    init_log_nu2=None,
) -> SchroedingerSolution:
    """Solve the Schrodinger system by alternating marginal fitting.

    Stabilized scaling (Schmitzer, arXiv:1610.06519): the log factors are
    kept as a = alpha + log s1 and b = beta + log s2, and each half-sweep
    is one matvec of a scaling against the kernel with the log potentials
    absorbed, kt = exp(logk + alpha (+) beta). When a scaling leaves
    SCALING_BOUNDS (also when a matvec entry underflowed to zero), the
    scalings are absorbed and that half-sweep is redone in the log domain,
    which rebuilds kt; the first half-sweep is done that way too. Stops
    when the marginal total-variation defect of mu1 drops to ``tol``; if
    the sweep budget runs out the last iterate is returned flagged
    non-converged. Zero-mass marginal points receive zero factor weight:
    their rows and columns of kt are 0. Raises ValueError when the factor
    masses leave the float64 range, as for heat kernels at too small an eps.
    """
    if not (mu1.is_probability and mu2.is_probability):
        raise ValueError("marginals must be probability measures")
    if not same_support(q.source, mu1.support) or not same_support(q.target, mu2.support):
        raise ValueError("kernel supports do not match the marginals")
    if max_iters < 1 or not tol > 0:
        raise ValueError("need max_iters >= 1 and tol > 0")
    logk = log_eval_kernel(q)
    w1, w2 = mu1.weights, mu2.weights
    pos1, pos2 = w1 > 0, w2 > 0
    if init_log_nu2 is None:
        b = np.zeros(mu2.support.n_points)
    else:
        b = np.asarray(init_log_nu2, dtype=float)

    kt = np.empty_like(logk)
    # the first half-sweep, absorbed (rows of kt sum to mu1 before the
    # zero-mass columns are cleared)
    alpha = _refit(logk, b, w1, 1, kt)
    beta = np.where(pos2, b, -np.inf)
    kt[:, ~pos2] = 0.0
    s1 = np.ones(mu1.support.n_points)
    s2 = np.ones(mu2.support.n_points)
    # w / c overflows or divides by 0 only where the range check redoes the
    # half-sweep; the NaN potentials of zero-mass points are replaced below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for iterations in range(1, max_iters + 1):
            c2 = kt.T @ s1
            np.divide(w2, c2, out=s2, where=pos2)
            if not _in_range(s2):
                alpha += np.log(s1)
                beta = _refit(logk, alpha, w2, 0, kt)
                s1[:] = s2[:] = 1.0
                c2 = w2  # the column sums of the rebuilt kt
            c1 = kt @ s2
            residual = tv_distance(s1 * c1, w1)
            if residual <= tol or iterations == max_iters:
                break
            np.divide(w1, c1, out=s1, where=pos1)
            if not _in_range(s1):
                beta += np.log(s2)
                alpha = _refit(logk, beta, w1, 1, kt)
                s1[:] = s2[:] = 1.0

        a = alpha + np.log(s1)
        b = beta + np.log(s2)
        u1 = np.log(c1) - alpha
        u2 = np.log(c2) - beta
    # zero-mass points have zero rows or columns in kt: their potentials in the log domain
    if not pos1.all():
        u1[~pos1] = logsumexp(logk[~pos1] + b[None, :], axis=1)
    if not pos2.all():
        u2[~pos2] = logsumexp(logk[:, ~pos2] + a[:, None], axis=0)

    # Compact-support normalization: the exhaustion of a compact support
    # starts at the support itself, so equalize total masses.
    with np.errstate(over="ignore"):
        t1 = float(np.exp(a).sum())
        t2 = float(np.exp(b).sum())
    if not (0.0 < t1 < math.inf and 0.0 < t2 < math.inf):
        raise ValueError(_RANGE_MESSAGE)
    scale_c = math.sqrt(t2 / t1)
    log_c = 0.5 * (math.log(t2) - math.log(t1))
    a = a + log_c
    b = b - log_c
    u1 = u1 - log_c
    u2 = u2 + log_c

    return SchroedingerSolution(
        kernel=q,
        mu1=mu1,
        mu2=mu2,
        nu1=DiscreteMeasure(mu1.support, np.exp(a)),
        nu2=DiscreteMeasure(mu2.support, np.exp(b)),
        log_nu1=a,
        log_nu2=b,
        u1=u1,
        u2=u2,
        scale_C=scale_c,
        iterations=iterations,
        final_residual=float(residual),
        converged=residual <= tol,
    )


def rescaled(sol: SchroedingerSolution, c) -> SchroedingerSolution:
    """Apply the free gauge (nu1, nu2) -> (c nu1, nu2 / c).

    The plan and the sum u1(x) + u2(y) are invariant under this map.
    """
    if c <= 0:
        raise ValueError("scale must be positive")
    log_c = math.log(c)
    return replace(
        sol,
        nu1=DiscreteMeasure(sol.nu1.support, sol.nu1.weights * c),
        nu2=DiscreteMeasure(sol.nu2.support, sol.nu2.weights / c),
        log_nu1=sol.log_nu1 + log_c,
        log_nu2=sol.log_nu2 - log_c,
        u1=sol.u1 - log_c,
        u2=sol.u2 + log_c,
        scale_C=sol.scale_C * c,
    )


def plan_matrix(sol: SchroedingerSolution):
    """The coupling nu1_i q_ij nu2_j as an (n, m) array over the pairs (x_i, y_j).

    Both marginals match mu1, mu2 within the solution residual, and the
    matrix coincides with q * exp(-u1(x) - u2(y)) mu1(dx) mu2(dy).
    """
    return np.exp(sol.log_plan())


def truncated_potentials(sol: SchroedingerSolution, m):
    """Potentials of the ball-truncated factors, u_{i|m}.

    The truncation profile is 1 on the ball B_m, decays linearly to 0 on
    B_{m+1}, and vanishes outside; u_{i|m}[k] = log sum_j q(x_k, y_j)
    phi_m(y_j) nu_j[j]. Pointwise nondecreasing in m. On a finite grid the
    exhaustion starts at the whole support, so m_index = 1 is the least m.
    """
    if not m >= 1:
        raise ValueError("truncation below m_index")
    logk = log_eval_kernel(sol.kernel)
    with np.errstate(divide="ignore"):
        logphi_t = np.log(_hat(sol.mu2.support.radii(), m))
        logphi_s = np.log(_hat(sol.mu1.support.radii(), m))
    if np.all(np.isinf(logphi_t + sol.log_nu2)) or np.all(np.isinf(logphi_s + sol.log_nu1)):
        raise ValueError("truncation below m_index: no factor mass in B_{m+1}")
    u1m = logsumexp(logk + (sol.log_nu2 + logphi_t)[None, :], axis=1)
    u2m = logsumexp(logk + (sol.log_nu1 + logphi_s)[:, None], axis=0)
    return u1m, u2m


def potential_at(sol: SchroedingerSolution, points, side=1):
    """Evaluate u1 (side=1) or u2 (side=2) off-grid for heat kernels."""
    k = sol.kernel
    if not isinstance(k, GaussianHeatKernel):
        raise TypeError("off-grid potentials need an analytic kernel")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    grid, log_nu = (k.target, sol.log_nu2) if side == 1 else (k.source, sol.log_nu1)
    return logsumexp(log_heat(pts, grid.points, k.eps, k.t) + log_nu[None, :], axis=1)


# ---------------------------------------------------------------------------
# Certified bound checks
# ---------------------------------------------------------------------------

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
