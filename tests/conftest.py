import numpy as np
import pytest

from schrobridge import (
    DenseKernel,
    Density,
    DiscreteMeasure,
    GaussianHeatKernel,
    Support,
    make_grid,
)
from schrobridge.io import write_csv


def gaussian_density(grid, var, mean=0.0):
    """Discretized (truncated, renormalized) Gaussian on a grid."""
    d2 = np.sum((grid.points - np.atleast_1d(mean)[None, :]) ** 2, axis=1)
    v = np.exp(-d2 / (2.0 * var))
    v = v / (v @ grid.cell_volumes)
    return Density(grid, v, is_probability=True)


def _save_table(path, support: Support, value_name, values):
    header = [f"x_{k + 1}" for k in range(support.dim)] + [value_name, "cell_volume"]
    write_csv(path, header, np.column_stack([support.points, values, support.cell_volumes]))


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
