import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schrobridge import (
    DenseKernel,
    Density,
    DiscreteMeasure,
    GaussianHeatKernel,
    OracleTooLargeError,
    Support,
    bl_distance,
    entropy,
    make_grid,
    product_bl_distance,
    product_support,
    relative_entropy,
    w2_distance,
    w2_distance_1d,
)
from schrobridge.core import empirical_measure, lattice_neighbors, log_eval_kernel
from conftest import gaussian_density


class TestMakeGrid:
    def test_1d_four_points(self):
        g = make_grid(1, 1.0, 4)
        assert np.allclose(g.points.ravel(), [-0.75, -0.25, 0.25, 0.75])
        assert np.allclose(g.cell_volumes, 0.5)
        assert g.bounding_radius == 1.0

    def test_2d_all_inside_unit_ball(self):
        g = make_grid(2, 1.0, 2)
        assert g.n_points == 4
        assert np.allclose(np.abs(g.points), 0.5)

    def test_total_volume(self):
        g = make_grid(1, 2.0, 100)
        assert g.n_points == 100
        assert g.total_volume == pytest.approx(4.0)

    def test_point_budget(self):
        with pytest.raises(ValueError, match="budget"):
            make_grid(4, 1.0, 100)

    def test_ball_clipping(self):
        g = make_grid(2, 1.0, 9)
        assert np.all(np.linalg.norm(g.points, axis=1) <= 1.0 + 1e-12)
        assert g.n_points < 81


class TestSupportInvariants:
    def test_rejects_duplicate_points(self):
        with pytest.raises(ValueError, match="distinct"):
            Support(points=np.zeros((2, 1)), cell_volumes=np.ones(2),
                    bounding_radius=1.0)

    def test_rejects_nonpositive_volume(self):
        with pytest.raises(ValueError, match="positive"):
            Support(points=np.array([[0.0]]), cell_volumes=np.array([0.0]),
                    bounding_radius=1.0)

    def test_rejects_point_outside_radius(self):
        with pytest.raises(ValueError, match="radius"):
            Support(points=np.array([[2.0]]), cell_volumes=np.ones(1),
                    bounding_radius=1.0)


class TestNonFiniteRejected:
    def test_support_nan_point(self):
        with pytest.raises(ValueError, match="finite"):
            Support(points=np.array([[0.0], [np.nan]]), cell_volumes=np.ones(2),
                    bounding_radius=1.0)

    def test_measure_nan_weight(self, sup2):
        with pytest.raises(ValueError, match="finite"):
            DiscreteMeasure(sup2, np.array([np.nan, 1.0]))

    def test_density_nan_value(self, sup2):
        with pytest.raises(ValueError, match="finite"):
            Density(sup2, np.array([0.5, np.nan]))

    def test_dense_kernel_inf_entry(self, sup2):
        with pytest.raises(ValueError, match="finite"):
            DenseKernel(source=sup2, target=sup2,
                        values=np.array([[1.0, np.inf], [1.0, 1.0]]))


class TestLogKernel:
    def test_cached_and_read_only(self, gauss_kernel):
        logk = log_eval_kernel(gauss_kernel)
        assert logk is gauss_kernel.logk
        assert not logk.flags.writeable

    def test_dense_from_log_keeps_entries_below_underflow(self, sup2):
        logk = np.array([[0.0, -2000.0], [-2000.0, 0.0]])
        q = DenseKernel.from_log(sup2, sup2, logk)
        assert np.array_equal(q.logk, logk)
        assert q.values[0, 1] == 0.0
        with pytest.raises(ValueError, match="finite"):
            DenseKernel.from_log(sup2, sup2, np.array([[0.0, -np.inf], [0.0, 0.0]]))


class TestEmpiricalMeasure:
    def test_repeated_rows_pool_mass(self):
        mu = empirical_measure(np.array([[1.0], [0.0], [1.0], [1.0]]))
        assert np.array_equal(mu.support.points[:, 0], [0.0, 1.0])
        assert np.array_equal(mu.weights, [0.25, 0.75])
        weighted = empirical_measure(np.array([[1.0], [0.0], [1.0]]),
                                     np.array([0.5, 0.2, 0.3]))
        assert np.allclose(weighted.weights, [0.2, 0.8], atol=1e-15)


def dict_lookup_neighbors(support, offset):
    """Reference: the per-point dict lookup the vectorized table replaced."""
    pts = support.points
    mins = pts.min(axis=0)
    idx = np.zeros(pts.shape, dtype=np.int64)
    for k in range(pts.shape[1]):
        coords = np.unique(pts[:, k])
        h = float(np.diff(coords).min()) if len(coords) > 1 else 1.0
        idx[:, k] = np.round((pts[:, k] - mins[k]) / h).astype(np.int64)
    lookup = {tuple(row): i for i, row in enumerate(idx)}
    return np.array([lookup.get(tuple(row + offset), -1) for row in idx])


class TestLatticeNeighbors:
    @pytest.mark.parametrize("grid", [make_grid(2, 1.5, 13), make_grid(1, 2.0, 9)],
                             ids=["ball_clipped_2d", "1d"])
    def test_matches_dict_lookup(self, grid):
        steps, dirs, fwd, bwd = lattice_neighbors(grid)
        d = grid.dim
        assert len(dirs) == d * d
        assert np.allclose(steps, grid.cell_volumes[0] ** (1.0 / d))
        for e, f, b in zip(dirs, fwd, bwd):
            assert np.array_equal(f, dict_lookup_neighbors(grid, e))
            assert np.array_equal(b, dict_lookup_neighbors(grid, -e))

    def test_rejects_irregular_points(self):
        s = Support(points=np.array([[0.0], [1.0], [2.5]]), cell_volumes=np.ones(3),
                    bounding_radius=2.5)
        with pytest.raises(ValueError, match="regular lattice"):
            lattice_neighbors(s)


class TestMeasureInvariants:
    def test_probability_mass_check(self, sup2):
        with pytest.raises(ValueError, match="unit mass"):
            DiscreteMeasure(sup2, np.array([0.5, 0.6]), is_probability=True)

    def test_negative_weights_rejected(self, sup2):
        with pytest.raises(ValueError, match="nonnegative"):
            DiscreteMeasure(sup2, np.array([-0.1, 1.1]))

    def test_density_measure_roundtrip(self):
        g = make_grid(1, 1.0, 8)
        p = gaussian_density(g, 0.3)
        back = Density.from_measure(p.to_measure())
        assert np.allclose(back.values, p.values)


class TestEvalKernel:
    def test_gaussian_at_zero(self):
        g = Support(points=np.array([[0.0]]), cell_volumes=np.ones(1),
                    bounding_radius=0.0)
        k = GaussianHeatKernel(source=g, target=g, t=1.0, eps=1.0)
        assert np.exp(k.logk)[0, 0] == pytest.approx((2 * math.pi) ** -0.5, abs=1e-12)

    def test_dense_passthrough(self, q2x2):
        assert np.allclose(np.exp(q2x2.logk), [[2.0, 1.0], [1.0, 2.0]], rtol=1e-15, atol=0)

    def test_gaussian_unit_distance(self):
        s = Support(points=np.array([[0.0], [1.0]]), cell_volumes=np.ones(2),
                    bounding_radius=1.0)
        k = GaussianHeatKernel(source=s, target=s, t=0.5, eps=2.0)
        # (2 pi eps t)^(-1/2) exp(-1 / (2 eps t)) with eps*t = 1
        expected = (2 * math.pi) ** -0.5 * math.exp(-0.5)
        assert np.exp(k.logk)[0, 1] == pytest.approx(expected, rel=1e-12)
        assert np.exp(k.logk)[0, 1] == pytest.approx(0.2419707, rel=1e-6)

    def test_symmetry_and_translation_invariance(self):
        rng = np.random.default_rng(3)
        pts = np.sort(rng.uniform(-1, 1, size=7))[:, None]
        s = Support(points=pts, cell_volumes=np.ones(7), bounding_radius=1.0)
        k = GaussianHeatKernel(source=s, target=s, t=0.7, eps=0.9)
        mat = np.exp(k.logk)
        assert np.allclose(mat, mat.T)
        shifted = Support(points=pts + 5.0, cell_volumes=np.ones(7),
                          bounding_radius=7.0)
        k_shift = GaussianHeatKernel(source=shifted, target=shifted, t=0.7, eps=0.9)
        assert np.allclose(np.exp(k_shift.logk), mat)

    def test_underflow_stays_exact_in_logs(self):
        s = Support(points=np.array([[0.0], [100.0]]), cell_volumes=np.ones(2),
                    bounding_radius=100.0)
        k = GaussianHeatKernel(source=s, target=s, t=1.0, eps=1e-3)
        # exp of the off-diagonal log entry underflows to 0; the log stays exact
        expected = -0.5 * math.log(2 * math.pi * 1e-3) - 100.0 ** 2 / (2 * 1e-3)
        assert k.logk[0, 1] == pytest.approx(expected, rel=1e-15)
        assert np.exp(k.logk)[0, 1] == 0.0


class TestEntropy:
    def test_uniform_on_ball(self):
        g = make_grid(1, 1.0, 64)
        p = Density(g, np.full(64, 0.5), is_probability=True)
        assert entropy(p) == pytest.approx(-math.log(2), abs=1e-12)

    def test_uniform_unit_interval(self):
        pts = (np.arange(10) + 0.5)[:, None] / 10
        g = Support(points=pts, cell_volumes=np.full(10, 0.1), bounding_radius=1.0)
        p = Density(g, np.ones(10), is_probability=True)
        assert entropy(p) == pytest.approx(0.0, abs=1e-12)

    def test_standard_gaussian_matches_analytic(self):
        # quadrature oracle vs -(1 + log 2 pi)/2
        g = make_grid(1, 5.0, 400)
        p = gaussian_density(g, 1.0)
        assert entropy(p) == pytest.approx(-0.5 * (1 + math.log(2 * math.pi)), abs=1e-3)

    def test_no_density_sentinel(self):
        assert entropy(None) == math.inf

    def test_jensen_lower_bound_random(self):
        rng = np.random.default_rng(11)
        g = make_grid(1, 1.5, 30)
        for _ in range(20):
            v = rng.dirichlet(np.ones(30)) / g.cell_volumes
            p = Density(g, v / (v @ g.cell_volumes), is_probability=True)
            assert entropy(p) >= -math.log(g.total_volume) - 1e-12


class TestRelativeEntropy:
    def test_identical_is_zero(self, sup2, mu_half):
        assert relative_entropy(mu_half, mu_half) == 0.0

    def test_atom_vs_uniform(self, sup2, mu_half):
        m = DiscreteMeasure(sup2, np.array([1.0, 0.0]), is_probability=True)
        assert relative_entropy(m, mu_half) == pytest.approx(math.log(2), rel=1e-12)

    def test_direct_arithmetic(self, sup2, mu_half, mu_skew):
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert relative_entropy(mu_skew, mu_half) == pytest.approx(expected, rel=1e-12)
        assert relative_entropy(mu_skew, mu_half) == pytest.approx(0.13081, abs=1e-5)

    def test_infinite_when_not_absolutely_continuous(self, sup2, mu_half):
        m = DiscreteMeasure(sup2, np.array([1.0, 0.0]), is_probability=True)
        assert relative_entropy(mu_half, m) == math.inf

    def test_nonnegative_on_random_pairs(self, sup2):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = rng.dirichlet(np.ones(2))
            b = rng.dirichlet(np.ones(2))
            m = DiscreteMeasure(sup2, a / a.sum(), is_probability=True)
            n = DiscreteMeasure(sup2, b / b.sum(), is_probability=True)
            assert relative_entropy(m, n) >= -1e-12


class TestW2:
    def test_diracs(self):
        for a, b in [(-1.0, 2.0), (0.0, 0.3)]:
            s1 = Support(points=np.array([[a]]), cell_volumes=np.ones(1),
                         bounding_radius=abs(a))
            s2 = Support(points=np.array([[b]]), cell_volumes=np.ones(1),
                         bounding_radius=abs(b))
            m1 = DiscreteMeasure(s1, np.array([1.0]), is_probability=True)
            m2 = DiscreteMeasure(s2, np.array([1.0]), is_probability=True)
            assert w2_distance(m1, m2) == pytest.approx(abs(a - b), abs=1e-9)

    def test_identity(self, sup2, mu_skew):
        assert w2_distance(mu_skew, mu_skew) == pytest.approx(0.0, abs=1e-9)

    def test_two_point_derived_value(self, sup2, mu_half):
        # enumerating couplings of ((1/2,1/2),(1,0)): optimal moves 1/2 across
        m2 = DiscreteMeasure(sup2, np.array([1.0, 0.0]), is_probability=True)
        assert w2_distance(mu_half, m2) == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_cap_enforced(self):
        g = make_grid(1, 1.0, 300)
        m = DiscreteMeasure(g, np.full(300, 1 / 300), is_probability=True)
        with pytest.raises(OracleTooLargeError, match="oracle too large"):
            w2_distance(m, m)

    def test_triangle_inequality_random(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            n = int(rng.integers(3, 11))
            pts = rng.uniform(-2, 2, size=(n, 1))
            pts += np.arange(n)[:, None] * 1e-9  # enforce distinctness
            s = Support(points=pts, cell_volumes=np.ones(n),
                        bounding_radius=float(np.abs(pts).max()))
            ms = []
            for _ in range(3):
                w = rng.dirichlet(np.ones(n))
                ms.append(DiscreteMeasure(s, w / w.sum(), is_probability=True))
            d01 = w2_distance(ms[0], ms[1])
            d12 = w2_distance(ms[1], ms[2])
            d02 = w2_distance(ms[0], ms[2])
            assert d02 <= d01 + d12 + 1e-9

    def test_quantile_formula_matches_lp(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n, m = int(rng.integers(2, 30)), int(rng.integers(2, 30))
            s1 = Support(points=np.sort(rng.uniform(-3, 3, n))[:, None] + 1e-9 * np.arange(n)[:, None],
                         cell_volumes=np.ones(n), bounding_radius=4.0)
            s2 = Support(points=np.sort(rng.uniform(-3, 3, m))[:, None] + 1e-9 * np.arange(m)[:, None],
                         cell_volumes=np.ones(m), bounding_radius=4.0)
            m1 = DiscreteMeasure(s1, (lambda w: w / w.sum())(rng.dirichlet(np.ones(n))),
                                 is_probability=True)
            m2 = DiscreteMeasure(s2, (lambda w: w / w.sum())(rng.dirichlet(np.ones(m))),
                                 is_probability=True)
            assert w2_distance_1d(m1, m2) == pytest.approx(w2_distance(m1, m2), abs=1e-7)


class TestBLDistance:
    def test_identity(self, sup2, mu_skew):
        assert bl_distance(mu_skew, mu_skew) == 0.0

    def test_dirac_continuity(self):
        vals = []
        for t in (0.4, 0.2, 0.1, 0.05):
            s0 = Support(points=np.array([[0.0]]), cell_volumes=np.ones(1),
                         bounding_radius=0.0)
            st = Support(points=np.array([[t]]), cell_volumes=np.ones(1),
                         bounding_radius=t)
            d0 = DiscreteMeasure(s0, np.ones(1), is_probability=True)
            dt = DiscreteMeasure(st, np.ones(1), is_probability=True)
            vals.append(bl_distance(d0, dt))
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals == [pytest.approx(t) for t in (0.4, 0.2, 0.1, 0.05)]

    def test_two_point_golden_value(self, sup2, mu_half):
        # recorded for dictionary version 1
        m = DiscreteMeasure(sup2, np.array([1.0, 0.0]), is_probability=True)
        val = bl_distance(m, mu_half)
        assert 0 < val <= 1
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_empirical_convergence(self):
        g = make_grid(1, 2.0, 50)
        p = gaussian_density(g, 0.5)
        target = p.to_measure()
        rng = np.random.default_rng(123)
        vals = []
        for n in (100, 1000, 10000):
            idx = rng.choice(g.n_points, size=n, p=target.weights)
            counts = np.bincount(idx, minlength=g.n_points).astype(float)
            emp = DiscreteMeasure(g, counts / n, is_probability=True)
            vals.append(bl_distance(emp, target))
        assert vals[2] < vals[0]
        assert vals[2] < 0.02


# (source, target) grids: 1-D pairs with different bounding radii, and
# ball-clipped 2-D grids, whose 4-D product dictionary drops the bump levels
# with more than _BL_MAX_CENTERS centers.
PRODUCT_GRIDS = [
    ((1, 2.0, 9), (1, 2.0, 9)),
    ((1, 0.5, 5), (1, 3.0, 7)),
    ((2, 1.0, 6), (2, 1.5, 5)),
    ((1, 1.0, 6), (2, 1.0, 5)),
]


class TestProductBLDistance:
    @pytest.mark.parametrize("source_grid, target_grid", PRODUCT_GRIDS)
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_bl_distance_on_product_support(self, source_grid, target_grid, seed):
        source, target = make_grid(*source_grid), make_grid(*target_grid)
        product = product_support(source, target)
        rng = np.random.default_rng(seed)
        w1, w2 = (rng.dirichlet(np.ones(product.n_points)).reshape(
            source.n_points, target.n_points) for _ in range(2))
        expected = bl_distance(DiscreteMeasure(product, w1.ravel()),
                               DiscreteMeasure(product, w2.ravel()))
        assert product_bl_distance(source, target, w1, w2) == pytest.approx(
            expected, abs=1e-12)
        assert product_bl_distance(source, target, w1, w1) == 0.0

    def test_shape_mismatch_rejected(self):
        g = make_grid(1, 1.0, 4)
        with pytest.raises(ValueError, match="do not match"):
            product_bl_distance(g, g, np.ones((4, 3)), np.ones((4, 3)))
