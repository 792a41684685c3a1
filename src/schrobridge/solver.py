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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DiscreteMeasure,
    GaussianHeatKernel,
    KernelSpec,
    log_eval_kernel,
    logsumexp,
    same_support,
)

DEFAULT_TOL, DEFAULT_MAX_ITERS = 1e-10, 5000
# The tight budget of the solves inside control values, moment fixed points and ladders.
INNER_TOL, INNER_MAX_ITERS = 1e-12, 20000
# A scaling outside this range is absorbed into the log potentials.
SCALING_BOUNDS = (1e-100, 1e100)
# Overrelaxation: the plain sweeps per contraction fit, the safeguard's window
# in sweeps, and the largest contraction read as a linear rate (above it, a plateau).
FIT_SWEEPS, WINDOW, LAM_MAX = 4, 20, 1.0 - 1e-4
_RANGE_MESSAGE = ("factor masses beyond the float64 range: the kernel is too sharp "
                  "(eps too small) for these marginals")


@dataclass(frozen=True)
class SchroedingerSolution:
    """Converged factor pair with potentials and diagnostics.

    Attributes
    ----------
    log_nu1, log_nu2 : arrays
        Exact log weights of the factors; the weights may underflow for
        sharp kernels. The factor measures ``nu1``, ``nu2`` (finite,
        generally non-probability) are exp(log_nu_i), computed on first use.
    u1, u2 : arrays
        Log-potentials: exp(u1[i]) = sum_j q_ij nu2_j and symmetrically.
    scale_C : float
        The factor applied as (C nu1, nu2 / C) to equalize total masses.
    iterations : int
        Completed IPFP sweeps.
    final_residual : float
        Total-variation defect of mu1 at exit, after an exact fit of mu2.
    converged : bool
        False when the iteration budget ran out first.
    """

    kernel: KernelSpec
    mu1: DiscreteMeasure
    mu2: DiscreteMeasure
    log_nu1: np.ndarray
    log_nu2: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    scale_C: float
    iterations: int
    final_residual: float
    converged: bool

    @functools.cached_property
    def nu1(self) -> DiscreteMeasure:
        return DiscreteMeasure(self.mu1.support, np.exp(self.log_nu1))

    @functools.cached_property
    def nu2(self) -> DiscreteMeasure:
        return DiscreteMeasure(self.mu2.support, np.exp(self.log_nu2))

    def log_plan(self, rows=slice(None)):
        """Log of the plan matrix nu1_i q_ij nu2_j, on the source points ``rows``."""
        return self.log_nu1[rows, None] + log_eval_kernel(self.kernel)[rows] + self.log_nu2[None, :]


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


def solve_schrodinger(q: KernelSpec, mu1: DiscreteMeasure, mu2: DiscreteMeasure, tol=DEFAULT_TOL,
                      max_iters=DEFAULT_MAX_ITERS, init_log_nu2=None) -> SchroedingerSolution:
    """Solve the Schrodinger system by overrelaxed alternating marginal fitting.

    Stabilized scaling (Schmitzer, arXiv:1610.06519): a = alpha + log s1 and
    b = beta + log s2, and a half-sweep is one matvec of a scaling against
    kt = exp(logk + alpha (+) beta). A scaling that leaves SCALING_BOUNDS
    (or meets an underflowed matvec entry) is absorbed into alpha, beta and
    its half-sweep redone exactly in the log domain, as is the first one.

    Overrelaxation (Thibault et al., arXiv:1711.01851): a half-sweep sets
    s <- s^(1 - omega) (w / c)^omega. Sweeps start plain; once the defect's
    contraction lam over FIT_SWEEPS sweeps agrees within a factor 2 in
    1 - lam with the one before (and lam < LAM_MAX), omega = 2 / (1 +
    sqrt(1 - lam)). Safeguard (after Lehmann et al., arXiv:2012.12562): a
    window of WINDOW sweeps in which the defect does not fall sets omega = 1
    for good. While omega != 1 the stop test bounds the defects of both
    marginals at one state; when both are within ``tol`` the column fit is
    redone exactly (one matvec) and tested again. So the last half-sweep is
    always an exact column fit, ``final_residual`` is the total-variation
    defect of mu1 there, and a spent budget returns the last iterate
    flagged non-converged. ``init_log_nu2`` (shape (m,), no NaN or +inf)
    warm-starts log nu2. Zero-mass points get zero factor weight (zero rows
    and columns of kt). Raises ValueError when the factor masses leave the
    float64 range, as for heat kernels at too small an eps.
    """
    if not (mu1.is_probability and mu2.is_probability):
        raise ValueError("marginals must be probability measures")
    if not same_support(q.source, mu1.support) or not same_support(q.target, mu2.support):
        raise ValueError("kernel supports do not match the marginals")
    if max_iters < 1 or not tol > 0:
        raise ValueError("need max_iters >= 1 and tol > 0")
    logk = log_eval_kernel(q)
    ws = (mu1.weights, mu2.weights)
    pos = (ws[0] > 0, ws[1] > 0)
    b = np.zeros(len(ws[1])) if init_log_nu2 is None else np.asarray(init_log_nu2, dtype=float)
    if b.shape != ws[1].shape or np.isnan(b).any() or (b == np.inf).any():
        raise ValueError(f"init_log_nu2 must have shape {ws[1].shape} and no NaN or +inf")

    kt = np.empty_like(logk)
    # the first half-sweep, absorbed (rows of kt sum to mu1 before the
    # zero-mass columns are cleared)
    pot = [_refit(logk, b, ws[0], 1, kt), np.where(pos[1], b, -np.inf)]
    kt[:, ~pos[1]] = 0.0
    # per marginal: scaling, matvec sums, relaxed fit (1 at the zero-mass points where= skips)
    s, sums, fit = ([np.ones(len(w)) for w in ws] for _ in range(3))
    where = [True if p.all() else p for p in pos]

    def absorb(k):
        """Fold both scalings into the potentials; redo half-sweep k in the log domain."""
        pot[1 - k] += np.log(s[1 - k])
        pot[k] = _refit(logk, pot[1 - k], ws[k], 1 - k, kt)
        s[0][:] = s[1][:] = 1.0
        return ws[k]  # the sums of the rebuilt kt

    omega, gaps, start = 1.0, [], None  # start: the gaps index of the window's first sweep
    # w / c overflows or divides by 0 only where the range check redoes the
    # half-sweep; the NaN potentials of zero-mass points are replaced below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for iterations in range(1, max_iters + 1):
            om = 1.0 if omega == 1.0 or iterations == max_iters else omega
            c2, gap = np.dot(kt.T, s[0], out=sums[1]), None
            while True:  # the column half-sweep; a relaxed one that meets tol is redone exactly
                np.divide(ws[1], c2, out=s[1] if om == 1.0 else fit[1], where=where[1])
                if om != 1.0:  # s <- s^(1 - omega) (w / c)^omega
                    s[1] *= np.power(np.divide(fit[1], s[1], out=fit[1]), om, out=fit[1])
                if not (SCALING_BOUNDS[0] <= s[1].min() and s[1].max() <= SCALING_BOUNDS[1]):
                    c2 = absorb(1)
                c1 = np.dot(kt, s[1], out=sums[0])
                residual = 0.5 * float(np.abs(s[0] * c1 - ws[0]).sum())
                if om == 1.0:
                    break
                gap = max(residual, 0.5 * float(np.abs(s[1] * c2 - ws[1]).sum()))
                if gap > tol:
                    break
                om = 1.0
            if om == 1.0 and residual <= tol or iterations == max_iters:
                break
            np.divide(ws[0], c1, out=s[0] if omega == 1.0 else fit[0], where=where[0])
            if omega != 1.0:
                s[0] *= np.power(np.divide(fit[0], s[0], out=fit[0]), omega, out=fit[0])
            if not (SCALING_BOUNDS[0] <= s[0].min() and s[0].max() <= SCALING_BOUNDS[1]):
                absorb(0)
            gaps.append(residual if gap is None else gap)
            if start is None and len(gaps) > 2 * FIT_SWEEPS and len(gaps) % FIT_SWEEPS == 1:
                la, lb = ((gaps[-1 - i * FIT_SWEEPS] / gaps[-1 - (i + 1) * FIT_SWEEPS])
                          ** (1.0 / FIT_SWEEPS) for i in (0, 1))
                if la < LAM_MAX and 0.5 * (1.0 - lb) <= 1.0 - la <= 2.0 * (1.0 - lb):
                    omega, start = 2.0 / (1.0 + math.sqrt(1.0 - la)), len(gaps)
            elif omega != 1.0 and len(gaps) > start + WINDOW:
                if gaps[-1] >= gaps[start]:
                    omega = 1.0
                start += WINDOW

        a = pot[0] + np.log(s[0])
        b = pot[1] + np.log(s[1])
        u1 = np.log(c1) - pot[0]
        u2 = np.log(c2) - pot[1]
    # zero-mass points have zero rows or columns in kt: their potentials in the log domain
    if not pos[0].all():
        u1[~pos[0]] = logsumexp(logk[~pos[0]] + b[None, :], axis=1)
    if not pos[1].all():
        u2[~pos[1]] = logsumexp(logk[:, ~pos[1]] + a[:, None], axis=0)

    # Compact-support normalization: the exhaustion of a compact support
    # starts at the support itself, so equalize total masses.
    with np.errstate(over="ignore"):
        t1 = float(np.exp(a).sum())
        t2 = float(np.exp(b).sum())
    if not (0.0 < t1 < math.inf and 0.0 < t2 < math.inf):
        raise ValueError(_RANGE_MESSAGE)
    log_c = 0.5 * (math.log(t2) - math.log(t1))
    return SchroedingerSolution(
        kernel=q, mu1=mu1, mu2=mu2, log_nu1=a + log_c, log_nu2=b - log_c,
        u1=u1 - log_c, u2=u2 + log_c, scale_C=math.sqrt(t2 / t1), iterations=iterations,
        final_residual=float(residual), converged=residual <= tol)


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


def _bandwidth(sol: SchroedingerSolution):
    """eps * t of sol's heat kernel (the bridge's variance per unit time); TypeError otherwise."""
    if not isinstance(sol.kernel, GaussianHeatKernel):
        raise TypeError("eps * t needs a heat kernel")
    return sol.kernel.eps * sol.kernel.t
