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
import weakref
from dataclasses import dataclass

import numpy as np

DEFAULT_POINT_BUDGET = 10**6
W2_CLOUD_CAP = 200
#: Largest |total mass - 1| of a law flagged ``is_probability``: the solver's
#: total-variation stop test needs marginals that agree to this level.
UNIT_MASS_TOL = 1e-12

_BL_LEVELS = 4            # Gaussian bump scales R, R/2, R/4, R/8
_BL_MAX_CENTERS = 5000    # per-level cap on bump centers (high-dim guard)
_BL_AFFINE_STEPS = 16     # offsets -R .. R in steps of R/8
_TABLES = {}              # (support ids, radius) -> dictionary tables, dropped with a support


class OracleTooLargeError(ValueError):
    """Exact assignment refused: a cloud holds more than ``W2_CLOUD_CAP`` points."""


class NonConvergenceError(RuntimeError):
    """An iterative routine exhausted its budget before meeting tolerance."""


def _readonly(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _check_unit_mass(weights):
    if abs(weights.sum() - 1.0) > UNIT_MASS_TOL:
        raise ValueError(f"probability law must have unit mass within {UNIT_MASS_TOL:g}")


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Support:
    """Finite set of points in R^d with quadrature cell volumes.

    Immutable (read-only arrays), compared and hashed by identity;
    ``same_support`` compares values.

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
        rows = pts[np.lexsort(pts.T)]
        if np.any(np.all(rows[1:] == rows[:-1], axis=1)):
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
    return a is b or (np.array_equal(a.points, b.points)
                      and np.array_equal(a.cell_volumes, b.cell_volumes))


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
        if self.is_probability:
            _check_unit_mass(w)
        object.__setattr__(self, "weights", _readonly(w))

    @property
    def total_mass(self):
        return float(self.weights.sum())

    def barycenter(self):
        if not self.total_mass > 0:
            raise ValueError("cannot take the barycenter of a measure of zero total mass")
        return self.support.points.T @ self.weights / self.total_mass

    def normalized(self) -> "DiscreteMeasure":
        total = self.total_mass
        if not total > 0:
            raise ValueError("cannot normalize a measure of zero total mass")
        return DiscreteMeasure(self.support, self.weights / total, is_probability=True)


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
            _check_unit_mass(v * self.support.cell_volumes)  # the weights of to_measure()
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
    """Explicit kernel given by its log entries, indexed by source x target points.

    ``logk`` is taken as it is, so entries far below the float underflow
    are kept; it must be finite (the kernel strictly positive and finite).
    """

    logk: np.ndarray

    def __post_init__(self):
        logk = _readonly(np.atleast_2d(self.logk))
        if logk.shape != (self.source.n_points, self.target.n_points):
            raise ValueError("kernel matrix shape does not match supports")
        if not np.all(np.isfinite(logk)):
            raise ValueError("kernel values must be strictly positive and finite")
        object.__setattr__(self, "logk", logk)


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
    d2 = np.sum(x * x, axis=1)[:, None] + np.sum(y * y, axis=1)[None, :] - 2.0 * (x @ y.T)
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
        gaps = np.diff(np.sort(pts[:, k]))
        gaps = gaps[gaps > 0]
        h = float(gaps.min()) if gaps.size else 1.0
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

def logsumexp(a, axis=None):
    """log(sum(exp(a))) over ``axis``, as scipy.special.logsumexp 1.17 computes it."""
    top = np.max(a, axis=axis, keepdims=True)
    ties = a == top
    count = np.sum(ties, axis=axis, keepdims=True, dtype=float)
    shift = np.where(np.isfinite(top), top, 0.0)  # an all -inf slice sums to 0
    rest = np.sum(np.exp(np.where(ties, -np.inf, a) - shift), axis=axis, keepdims=True)
    return (np.log1p(rest / count) + np.log(count) + top).squeeze(axis)[()]


def entropy(p) -> float:
    """integral p log p over the support (negative differential entropy).

    Accepts a probability Density.
    """
    v = p.values
    vol = p.support.cell_volumes
    mask = v > 0
    return float(np.sum(v[mask] * np.log(v[mask]) * vol[mask]))


def relative_entropy(a, b) -> float:
    """H(a | b) = sum a_i log(a_i / b_i) of two weight vectors; +inf unless a << b."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    pos = a > 0
    if np.any(b[pos] == 0):
        return math.inf
    return float(np.sum(a[pos] * np.log(a[pos] / b[pos])))


def tv_distance(a, b) -> float:
    """Total-variation distance 0.5 * sum |a - b| of two weight vectors."""
    return 0.5 * float(np.abs(np.asarray(a) - np.asarray(b)).sum())


# ---------------------------------------------------------------------------
# Quadratic Wasserstein distances
# ---------------------------------------------------------------------------

def _assignment(c):
    """Row matched to each column of the square cost matrix ``c`` at least total cost.

    Shortest augmenting paths (Jonker & Volgenant, Computing 38, 1987): each
    row enters by a Dijkstra search over the reduced costs c - u - v, whose
    dual potentials u, v certify that the matching is optimal.
    """
    n = len(c)
    u, v = np.zeros(n), np.zeros(n + 1)
    row_of = np.full(n + 1, -1)
    for i in range(n):
        row_of[n], j0 = i, n
        dist, via = np.full(n, np.inf), np.full(n, n)
        done = np.zeros(n + 1, dtype=bool)
        while row_of[j0] >= 0:
            done[j0] = True
            i0, free = row_of[j0], ~done[:n]
            reduced = c[i0] - u[i0] - v[:n]
            better = free & (reduced < dist)
            dist[better], via[better] = reduced[better], j0
            j1 = int(np.argmin(np.where(free, dist, np.inf)))
            delta = dist[j1]
            u[row_of[done]] += delta
            v[done] -= delta
            dist[free] -= delta
            j0 = j1
        while j0 != n:  # flip the matches along the augmenting path
            row_of[j0], j0 = row_of[via[j0]], via[j0]
    return row_of[:n]


def w2_distance(x, y) -> float:
    """Exact 2-Wasserstein distance between the uniform laws on two equal-size point clouds.

    ``x`` and ``y`` are (k, d) arrays whose rows are atoms of mass 1/k. In
    1-D the sorted clouds are matched; in d >= 2 an exact assignment, which
    refuses more than ``W2_CLOUD_CAP`` points per cloud, matches them.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape != y.shape or len(x) == 0:
        raise ValueError("need two nonempty (k, d) point clouds of the same shape")
    if x.shape[1] == 1:
        cost = (np.sort(x[:, 0]) - np.sort(y[:, 0])) ** 2
    elif len(x) > W2_CLOUD_CAP:
        raise OracleTooLargeError(f"assignment too large: {len(x)} points > {W2_CLOUD_CAP}")
    else:
        c = np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=2)
        cost = c[_assignment(c), np.arange(len(x))]
    return math.sqrt(max(float(cost.mean()), 0.0))


def w2_distance_1d(mu1: DiscreteMeasure, mu2: DiscreteMeasure) -> float:
    """Exact 1-D quadratic Wasserstein distance via quantile functions.

    Weighted and with no size cap; used to compare large empirical
    ensembles with a target law.
    """
    if mu1.support.dim != 1 or mu2.support.dim != 1:
        raise ValueError("quantile formula is one-dimensional only")

    def sorted_cdf(mu):
        x = mu.support.points[:, 0]
        order = np.argsort(x, kind="stable")
        w = mu.weights[order]
        keep = w > 0
        c = np.cumsum(w[keep]) / w.sum()
        c[-1:] = 1.0  # a rounded-up top level would fail `levels <= 1` below
        return x[order][keep], c

    x1, c1 = sorted_cdf(mu1)
    x2, c2 = sorted_cdf(mu2)
    levels = np.sort(np.concatenate([c1, c2]))
    levels = levels[(levels > 0) & (levels <= 1.0) & np.append(True, levels[1:] != levels[:-1])]
    prev = np.concatenate([[0.0], levels[:-1]])
    mid = 0.5 * (prev + levels)
    q1 = x1[np.minimum(np.searchsorted(c1, mid, side="left"), len(x1) - 1)]
    q2 = x2[np.minimum(np.searchsorted(c2, mid, side="left"), len(x2) - 1)]
    cost = float(np.sum((q1 - q2) ** 2 * (levels - prev)))
    return math.sqrt(max(cost, 0.0))


# ---------------------------------------------------------------------------
# Bounded-Lipschitz distance over a fixed, versioned test dictionary
# ---------------------------------------------------------------------------

def _bl_radius(*points):
    r = max(1.0, *(float(np.abs(p).max()) for p in points))
    return 2.0 ** math.ceil(math.log2(r))


def _dictionary_tables(factors, radius):
    """Clipped affine + dyadic Gaussian bump dictionary (version 1), on a product.

    All functions lie in the unit bounded-Lipschitz ball. The dictionary
    depends only on (dim, radius) with radius a power of two, so recorded
    values are stable across runs.

    It is evaluated on the product of the ``factors`` supports. Returns
    read-only (affine, bumps): for each direction, the factors it meets
    and its clipped projections (one array axis per met factor, offsets
    last); for each bump level, one bump matrix per factor (amplitude on
    the first). Kept by the identity of the supports, which are immutable,
    for as long as all of them live: a ladder of plans on one pair of
    supports evaluates the dictionary once, a support used once frees it.
    """
    key = (tuple(map(id, factors)), radius)
    if key in _TABLES:
        return _TABLES[key]
    dim = sum(f.dim for f in factors)
    directions = list(np.eye(dim))
    if dim > 1:
        directions.append(np.ones(dim) / math.sqrt(dim))
    offsets = np.linspace(-radius, radius, _BL_AFFINE_STEPS + 1)
    splits = np.cumsum([f.dim for f in factors])[:-1]
    affine = []
    for u in directions:
        parts = np.split(u, splits)
        met = tuple(k for k, part in enumerate(parts) if np.any(part))
        proj = functools.reduce(np.add.outer, [factors[k].points @ parts[k] for k in met])
        clipped = proj[..., None] - offsets
        affine.append((met, np.clip(clipped, -1.0, 1.0, out=clipped)))
    bump_mats = []
    for level in range(_BL_LEVELS):
        s = radius / 2**level
        axis = np.arange(-radius, radius + s / 2, s)
        if len(axis) ** dim > _BL_MAX_CENTERS and level > 0:
            continue
        g = [np.exp(-pairwise_sq_dists(f.points, _lattice(axis, f.dim)) / (2 * s * s))
             for f in factors]
        bump_mats.append((min(1.0, s) * g[0], *g[1:]))
    for table in [t for _, t in affine] + [g for mats in bump_mats for g in mats]:
        table.setflags(write=False)
    tables = _TABLES[key] = tuple(affine), tuple(bump_mats)
    for f in set(factors):
        weakref.finalize(f, _TABLES.pop, key, None)
    return tables


def _dictionary_integrals(w, tables):
    """integral f dw for every dictionary function, as one flat vector.

    ``w`` weighs the product of the supports ``tables`` was built on, one
    array axis per factor. An affine term sums w over the factors its
    direction misses; a bump contracts w with its factor matrices in turn.
    """
    affine, bump_mats = tables
    vals = [np.array([w.sum()])]                       # constant function 1
    for met, clipped in affine:
        wk = w.sum(axis=tuple(k for k in range(w.ndim) if k not in met))
        vals.append(np.tensordot(wk, clipped, len(met)))
    for mats in bump_mats:
        v = w
        for g in mats:
            v = np.moveaxis(v, 0, -1) @ g
        vals.append(v.ravel())
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
    radius = _bl_radius(mu1.support.points, mu2.support.points)
    gaps = (_dictionary_integrals(mu1.weights, _dictionary_tables((mu1.support,), radius))
            - _dictionary_integrals(mu2.weights, _dictionary_tables((mu2.support,), radius)))
    return float(np.abs(gaps).max())


def product_bl_distance(source: Support, target: Support, w1, w2) -> float:
    """``bl_distance`` of two measures on the product of two supports.

    ``w1`` and ``w2`` are (n, m) weight matrices over the pairs (x_i, y_j),
    such as plan matrices. Equals ``bl_distance`` on ``product_support(source,
    target)`` up to rounding, from one dictionary integral of w1 - w2.
    """
    w = np.asarray(w1, dtype=float) - np.asarray(w2, dtype=float)
    if w.shape != (source.n_points, target.n_points):
        raise ValueError("weight matrices do not match the supports")
    tables = _dictionary_tables((source, target), _bl_radius(source.points, target.points))
    return float(np.abs(_dictionary_integrals(w, tables)).max())
