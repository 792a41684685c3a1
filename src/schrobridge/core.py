"""Discrete measures, kernels, entropies, and weak-convergence metrics.

Shared vocabulary for the toolkit: finite point supports carrying midpoint
quadrature weights (cell volumes), nonnegative measures and densities over
them, strictly positive kernels (dense matrices or the analytic Gaussian
heat kernel), and the entropy / transport functionals every solver and
diagnostic relies on.

Conventions
-----------
* Lebesgue integrals are midpoint quadrature: ``integral f = sum f(x_i) * vol_i``.
* ``0 * log 0 = 0`` everywhere.
* Total-variation distance between two weight vectors is ``0.5 * sum |a - b|``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

DEFAULT_POINT_BUDGET = 10**6
W2_ORACLE_CAP = 400

#: Version tag of the fixed bounded-Lipschitz test-function dictionary.
#: Golden values recorded in tests are only valid for this version.
BL_DICTIONARY_VERSION = 1

_BL_LEVELS = 4            # Gaussian bump scales R, R/2, R/4, R/8
_BL_MAX_CENTERS = 5000    # per-level cap on bump centers (high-dim guard)
_BL_AFFINE_STEPS = 16     # offsets -R .. R in steps of R/8


class OracleTooLargeError(ValueError):
    """Exact transport oracle refused: combined support exceeds the cap."""


class NonConvergenceError(RuntimeError):
    """An iterative routine exhausted its budget before meeting tolerance."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


def _readonly(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Support:
    """Finite set of points in R^d with quadrature cell volumes.

    Parameters
    ----------
    points : (n, d) array
        Pairwise distinct coordinates.
    cell_volumes : (n,) array
        Strictly positive quadrature weight of each point, in units of
        Lebesgue measure.
    bounding_radius : float
        Radius r such that every point lies in the closed ball B_r.
    """

    points: np.ndarray
    cell_volumes: np.ndarray
    bounding_radius: float

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        vols = np.asarray(self.cell_volumes, dtype=float).ravel()
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("support needs at least one point")
        if vols.shape[0] != pts.shape[0]:
            raise ValueError("cell_volumes length does not match points")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(vols))):
            raise ValueError("support points and cell volumes must be finite")
        if not np.all(vols > 0):
            raise ValueError("all cell volumes must be positive")
        if np.unique(pts, axis=0).shape[0] != pts.shape[0]:
            raise ValueError("support points must be pairwise distinct")
        radii = np.linalg.norm(pts, axis=1)
        if radii.max() > self.bounding_radius * (1 + 1e-9) + 1e-12:
            raise ValueError("a point lies outside the stated bounding radius")
        object.__setattr__(self, "points", _readonly(pts))
        object.__setattr__(self, "cell_volumes", _readonly(vols))

    @property
    def n_points(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    @property
    def total_volume(self):
        return float(self.cell_volumes.sum())

    def radii(self):
        """Euclidean norm of every point."""
        return np.linalg.norm(self.points, axis=1)


def same_support(a: Support, b: Support) -> bool:
    return a is b or (
        a.dim == b.dim
        and a.n_points == b.n_points
        and np.array_equal(a.points, b.points)
        and np.array_equal(a.cell_volumes, b.cell_volumes)
    )


@dataclass(frozen=True)
class DiscreteMeasure:
    """Nonnegative weights over a Support (a finite Borel measure)."""

    support: Support
    weights: np.ndarray
    is_probability: bool = False

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).ravel()
        if w.shape[0] != self.support.n_points:
            raise ValueError("weights length does not match support")
        if not np.all(np.isfinite(w) & (w >= 0)):
            raise ValueError("weights must be finite and nonnegative")
        if self.is_probability and abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("probability measure must have unit mass within 1e-12")
        object.__setattr__(self, "weights", _readonly(w))

    @property
    def total_mass(self):
        return float(self.weights.sum())

    def barycenter(self):
        return self.support.points.T @ self.weights / self.total_mass

    def normalized(self) -> "DiscreteMeasure":
        return DiscreteMeasure(self.support, self.weights / self.weights.sum(),
                               is_probability=True)


@dataclass(frozen=True)
class Density:
    """Nonnegative values per unit Lebesgue measure over a Support."""

    support: Support
    values: np.ndarray
    is_probability: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        if v.shape[0] != self.support.n_points:
            raise ValueError("values length does not match support")
        if not np.all(np.isfinite(v) & (v >= 0)):
            raise ValueError("density values must be finite and nonnegative")
        if self.is_probability:
            mass = float(v @ self.support.cell_volumes)
            if abs(mass - 1.0) > 1e-10:
                raise ValueError("probability density must integrate to 1 within 1e-10")
        object.__setattr__(self, "values", _readonly(v))

    def to_measure(self) -> DiscreteMeasure:
        w = self.values * self.support.cell_volumes
        return DiscreteMeasure(self.support, w, is_probability=self.is_probability)

    @classmethod
    def from_measure(cls, m: DiscreteMeasure) -> "Density":
        return cls(m.support, m.weights / m.support.cell_volumes,
                   is_probability=m.is_probability)

    def barycenter(self):
        return self.to_measure().barycenter()


@dataclass(frozen=True)
class KernelSpec:
    """Strictly positive kernel over a (source, target) support pair.

    Every kernel exposes ``logk``, its log entries log q(x_i, y_j): the one
    representation solvers and checks read, computed once and read-only.
    """

    source: Support
    target: Support


@dataclass(frozen=True)
class GaussianHeatKernel(KernelSpec):
    """Analytic heat kernel (2*pi*eps*t)^(-d/2) exp(-|y-x|^2 / (2*eps*t))."""

    t: float = 1.0
    eps: float = 1.0

    def __post_init__(self):
        if not (0 < self.t < math.inf and 0 < self.eps < math.inf):
            raise ValueError("heat kernel needs finite t > 0 and eps > 0")
        if self.source.dim != self.target.dim:
            raise ValueError("source and target dimensions differ")

    @functools.cached_property
    def logk(self):
        return _readonly(log_heat(self.source.points, self.target.points, self.eps, self.t))


@dataclass(frozen=True)
class DenseKernel(KernelSpec):
    """Explicit strictly positive matrix indexed by source x target points.

    Built from ``values`` or, by ``from_log``, from log entries (then
    ``values = exp(logk)`` may underflow to 0); valid when ``logk`` is finite.
    """

    values: np.ndarray = None

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if v.shape != (self.source.n_points, self.target.n_points):
            raise ValueError("kernel matrix shape does not match supports")
        object.__setattr__(self, "values", _readonly(v))
        with np.errstate(divide="ignore", invalid="ignore"):
            if not np.all(np.isfinite(self.logk)):
                raise ValueError("kernel values must be strictly positive and finite")

    @functools.cached_property
    def logk(self):
        return _readonly(np.log(self.values))

    @classmethod
    def from_log(cls, source: Support, target: Support, logk) -> "DenseKernel":
        """Kernel with log entries ``logk``, taken as they are."""
        k = cls.__new__(cls)
        k.__dict__["logk"] = _readonly(np.atleast_2d(logk))
        k.__init__(source, target, np.exp(k.logk))
        return k


# ---------------------------------------------------------------------------
# Grids and kernel evaluation
# ---------------------------------------------------------------------------

def _lattice(axis, dim):
    """The points of axis^dim as rows, the last coordinate varying fastest."""
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def make_grid(dim, radius, points_per_axis):
    """Regular midpoint lattice over [-radius, radius]^d clipped to B_radius.

    Every retained point carries cell volume (2*radius/points_per_axis)^d,
    so in one dimension the total volume is exactly 2*radius.
    """
    if dim < 1 or radius <= 0 or points_per_axis < 2:
        raise ValueError("need dim >= 1, radius > 0, points_per_axis >= 2")
    if dim * math.log(points_per_axis) > math.log(DEFAULT_POINT_BUDGET):
        raise ValueError(f"grid of {points_per_axis}^{dim} points exceeds "
                         f"the point budget {DEFAULT_POINT_BUDGET}")
    h = 2.0 * radius / points_per_axis
    pts = _lattice(-radius + h * (np.arange(points_per_axis) + 0.5), dim)
    keep = np.linalg.norm(pts, axis=1) <= radius * (1 + 1e-12)
    pts = pts[keep]
    vols = np.full(pts.shape[0], h**dim)
    return Support(points=pts, cell_volumes=vols, bounding_radius=radius)


def pairwise_sq_dists(x, y):
    """Squared Euclidean distances between rows of x (n,d) and y (m,d)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    d2 = (
        np.sum(x * x, axis=1)[:, None]
        + np.sum(y * y, axis=1)[None, :]
        - 2.0 * (x @ y.T)
    )
    return np.maximum(d2, 0.0)


def log_heat(x, y, eps, t):
    """Heat kernel logs -d/2 log(2 pi eps t) - |y - x|^2 / (2 eps t), rows x by rows y."""
    d = np.shape(x)[-1]
    return -0.5 * d * math.log(2 * math.pi * eps * t) - pairwise_sq_dists(x, y) / (2 * eps * t)


def log_eval_kernel(k: KernelSpec):
    """Exact log kernel entries (``k.logk``); safe for arbitrarily small heat times."""
    return k.logk


def product_support(sx: Support, sy: Support) -> Support:
    """Support of the product space: points (x_i, y_j), volumes vol_i * vol_j."""
    n, m = sx.n_points, sy.n_points
    px = np.repeat(sx.points, m, axis=0)
    py = np.tile(sy.points, (n, 1))
    pts = np.concatenate([px, py], axis=1)
    vols = np.outer(sx.cell_volumes, sy.cell_volumes).ravel()
    radius = math.hypot(sx.bounding_radius, sy.bounding_radius)
    return Support(points=pts, cell_volumes=vols, bounding_radius=radius)


def empirical_measure(points, weights=None) -> DiscreteMeasure:
    """Probability measure on the distinct rows of ``points``, unit cell volumes.

    Repeated rows pool their mass: row counts over the row total, or the
    sum of ``weights`` (which must already total one) when given.
    """
    pts = np.atleast_2d(points)
    if weights is None:
        pts, counts = np.unique(pts, axis=0, return_counts=True)
        mass = counts / counts.sum()
    else:
        pts, inverse = np.unique(pts, axis=0, return_inverse=True)
        mass = np.bincount(inverse.ravel(), weights=weights)
    sup = Support(points=pts, cell_volumes=np.ones(len(pts)),
                  bounding_radius=float(np.linalg.norm(pts, axis=1).max()))
    return DiscreteMeasure(sup, mass, is_probability=True)


def subsample_to_cap(points, k, rng, weights=None) -> DiscreteMeasure:
    """``empirical_measure(points, weights)`` with at most k atoms, for the W2 oracle.

    Beyond k points, ``rng`` draws k: uniformly without replacement, or
    with replacement in proportion to ``weights`` when given.
    """
    n = len(points)
    if n <= k:
        return empirical_measure(points, weights)
    p = None if weights is None else weights / weights.sum()
    return empirical_measure(points[rng.choice(n, size=k, replace=p is not None, p=p)])


def lattice_neighbors(support: Support):
    """Neighbor table of a regular, possibly ball-clipped, lattice.

    Returns ``(steps, dirs, fwd, bwd)``: the spacing along each axis; the
    integer directions, first the d axis unit vectors, then e_a + e_b and
    e_a - e_b for every axis pair a < b; and (len(dirs), n) arrays holding
    the id of the neighbor x + e (fwd) and x - e (bwd) of every point x,
    or -1 where there is none.
    """
    pts = support.points
    n, d = pts.shape
    idx = np.zeros((n, d), dtype=np.int64)
    steps = np.zeros(d)
    mins = pts.min(axis=0)
    for k in range(d):
        coords = np.unique(pts[:, k])
        h = float(np.diff(coords).min()) if len(coords) > 1 else 1.0
        j = np.round((pts[:, k] - mins[k]) / h)
        if np.max(np.abs(mins[k] + j * h - pts[:, k])) > 1e-8 * max(1.0, h):
            raise ValueError("support is not a regular lattice")
        idx[:, k] = j.astype(np.int64)
        steps[k] = h
    eye = np.eye(d, dtype=np.int64)
    dirs = np.array(list(eye) + [eye[a] + s * eye[b] for a in range(d)
                                 for b in range(a + 1, d) for s in (1, -1)])
    # Mixed-radix keys with one spare cell on each side of every axis, so
    # that key(x + e) = key(x) + key(e) for every neighbor shift e.
    radix = np.cumprod(np.concatenate([[1], idx.max(axis=0)[:-1] + 3]))
    keys = (idx + 1) @ radix
    order = np.argsort(keys)
    sorted_keys = keys[order]

    def ids(shifted):
        pos = np.minimum(np.searchsorted(sorted_keys, shifted), n - 1)
        return np.where(sorted_keys[pos] == shifted, order[pos], -1)

    shifts = (dirs @ radix)[:, None]
    return steps, dirs, ids(keys + shifts), ids(keys - shifts)


# ---------------------------------------------------------------------------
# Entropies
# ---------------------------------------------------------------------------

def entropy(p) -> float:
    """integral p log p over the support (negative differential entropy).

    Accepts a probability Density; ``None`` is the no-density sentinel and
    returns +inf.
    """
    if p is None:
        return math.inf
    v = p.values
    vol = p.support.cell_volumes
    mask = v > 0
    return float(np.sum(v[mask] * np.log(v[mask]) * vol[mask]))


def relative_entropy(m: DiscreteMeasure, n: DiscreteMeasure) -> float:
    """H(m | n) = sum m_i log(m_i / n_i); +inf unless m << n."""
    if m.support.n_points != n.support.n_points:
        raise ValueError("measures must share a support")
    a, b = m.weights, n.weights
    pos = a > 0
    if np.any(b[pos] == 0):
        return math.inf
    return float(np.sum(a[pos] * np.log(a[pos] / b[pos])))


def tv_distance(a, b) -> float:
    """Total-variation distance 0.5 * sum |a - b| of two weight vectors."""
    return 0.5 * float(np.abs(np.asarray(a) - np.asarray(b)).sum())


# ---------------------------------------------------------------------------
# Quadratic Wasserstein oracles
# ---------------------------------------------------------------------------

def w2_distance(mu1: DiscreteMeasure, mu2: DiscreteMeasure, cap=W2_ORACLE_CAP) -> float:
    """Exact 2-Wasserstein distance via the transport linear program.

    Verification oracle only: refuses combined supports above ``cap``
    points (callers must subsample).
    """
    n, m = mu1.support.n_points, mu2.support.n_points
    if n + m > cap:
        raise OracleTooLargeError(
            f"oracle too large: {n}+{m} support points exceed cap {cap}")
    if mu1.support.dim != mu2.support.dim:
        raise ValueError("dimension mismatch")
    a = mu1.weights / mu1.weights.sum()
    b = mu2.weights / mu2.weights.sum()
    cost = pairwise_sq_dists(mu1.support.points, mu2.support.points).ravel()
    rows = np.concatenate([np.repeat(np.arange(n), m), n + np.tile(np.arange(m), n)])
    cols = np.concatenate([np.arange(n * m), np.arange(n * m)])
    a_eq = sparse.coo_matrix(
        (np.ones(2 * n * m), (rows, cols)), shape=(n + m, n * m)).tocsr()
    res = linprog(
        cost, A_eq=a_eq, b_eq=np.concatenate([a, b]), bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return math.sqrt(max(res.fun, 0.0))


def w2_distance_1d(mu1: DiscreteMeasure, mu2: DiscreteMeasure) -> float:
    """Exact 1-D quadratic Wasserstein distance via quantile functions.

    Independent of the linear-program oracle and with no size cap; used to
    cross-check it and to compare large empirical ensembles.
    """
    if mu1.support.dim != 1 or mu2.support.dim != 1:
        raise ValueError("quantile formula is one-dimensional only")

    def sorted_cdf(mu):
        x = mu.support.points[:, 0]
        order = np.argsort(x, kind="stable")
        w = mu.weights[order]
        keep = w > 0
        return x[order][keep], np.cumsum(w[keep]) / w.sum()

    x1, c1 = sorted_cdf(mu1)
    x2, c2 = sorted_cdf(mu2)
    levels = np.union1d(c1, c2)
    levels = levels[(levels > 0) & (levels <= 1.0)]
    prev = np.concatenate([[0.0], levels[:-1]])
    mid = 0.5 * (prev + levels)
    q1 = x1[np.minimum(np.searchsorted(c1, mid, side="left"), len(x1) - 1)]
    q2 = x2[np.minimum(np.searchsorted(c2, mid, side="left"), len(x2) - 1)]
    cost = float(np.sum((q1 - q2) ** 2 * (levels - prev)))
    return math.sqrt(max(cost, 0.0))


# ---------------------------------------------------------------------------
# Bounded-Lipschitz distance over a fixed, versioned test dictionary
# ---------------------------------------------------------------------------

@functools.cache
def _bl_dictionary(dim, radius):
    """Clipped affine + dyadic Gaussian bump dictionary (version 1).

    All functions lie in the unit bounded-Lipschitz ball. The dictionary
    depends only on (dim, radius) with radius a power of two, so recorded
    values are stable across runs. Returns read-only (directions, offsets,
    bumps); each bump level is (axis, scale, amplitude), its centers being
    ``_lattice(axis, dim)``.
    """
    directions = [np.eye(dim)[k] for k in range(dim)]
    if dim > 1:
        directions.append(np.ones(dim) / math.sqrt(dim))
    offsets = np.linspace(-radius, radius, _BL_AFFINE_STEPS + 1)
    bumps = []
    for level in range(_BL_LEVELS):
        s = radius / 2**level
        axis = np.arange(-radius, radius + s / 2, s)
        if len(axis) ** dim > _BL_MAX_CENTERS and level > 0:
            continue
        bumps.append((_readonly(axis), s, min(1.0, s)))
    return _readonly(directions), _readonly(offsets), tuple(bumps)


def _bl_radius(*points):
    r = max(1.0, *(float(np.abs(p).max()) for p in points))
    return 2.0 ** math.ceil(math.log2(r))


def _dictionary_integrals(mu: DiscreteMeasure, dictionary):
    """integral f dmu for every dictionary function, as one flat vector."""
    directions, offsets, bumps = dictionary
    pts, w = mu.support.points, mu.weights
    vals = [np.array([w.sum()])]                       # constant function 1
    proj = pts @ directions.T                          # (n, k)
    clipped = np.clip(proj[:, :, None] - offsets[None, None, :], -1.0, 1.0)
    vals.append(np.tensordot(w, clipped, axes=(0, 0)).ravel())
    for axis, s, amp in bumps:
        d2 = pairwise_sq_dists(pts, _lattice(axis, mu.support.dim))
        f = amp * np.exp(-d2 / (2 * s * s))
        vals.append(w @ f)
    return np.concatenate(vals)


def bl_distance(mu1: DiscreteMeasure, mu2: DiscreteMeasure) -> float:
    """Bounded-Lipschitz distance proxy over the fixed test dictionary.

    Maximizes |integral f d(mu1 - mu2)| over the version-1 dictionary of
    clipped affine functions and dyadic Gaussian bumps. Deterministic;
    lower-bounds the true BL distance and metrizes weak convergence in the
    dense-dictionary limit. Accepts general finite measures.
    """
    if mu1.support.dim != mu2.support.dim:
        raise ValueError("dimension mismatch")
    dictionary = _bl_dictionary(mu1.support.dim,
                                _bl_radius(mu1.support.points, mu2.support.points))
    gaps = _dictionary_integrals(mu1, dictionary) - _dictionary_integrals(mu2, dictionary)
    return float(np.abs(gaps).max())


def product_bl_distance(source: Support, target: Support, w1, w2) -> float:
    """``bl_distance`` of two measures on the product of two supports.

    ``w1`` and ``w2`` are (n, m) weight matrices over the pairs (x_i, y_j),
    such as plan matrices. Equals ``bl_distance`` of the measures on
    ``product_support(source, target)`` up to rounding, without building
    that support: the dictionary is integrated against w1 - w2 once, a
    clipped affine term projects x and y separately, and a Gaussian bump
    on the product is a source bump times a target bump.
    """
    w = np.asarray(w1, dtype=float) - np.asarray(w2, dtype=float)
    if w.shape != (source.n_points, target.n_points):
        raise ValueError("weight matrices do not match the supports")
    x, y = source.points, target.points
    dx = source.dim
    directions, offsets, bumps = _bl_dictionary(dx + target.dim, _bl_radius(x, y))
    vals = [np.array([w.sum()])]
    for u in directions:
        proj = (x @ u[:dx])[:, None] + (y @ u[dx:])[None, :]
        vals.append(np.tensordot(w, np.clip(proj[:, :, None] - offsets, -1.0, 1.0)))
    for axis, s, amp in bumps:
        gx = np.exp(-pairwise_sq_dists(x, _lattice(axis, dx)) / (2 * s * s))
        gy = np.exp(-pairwise_sq_dists(y, _lattice(axis, target.dim)) / (2 * s * s))
        vals.append(amp * (gx.T @ w @ gy).ravel())
    return float(np.abs(np.concatenate(vals)).max())
