import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from schrobridge import (
    DenseKernel,
    Density,
    DiscreteMeasure,
    GaussianHeatKernel,
    OracleTooLargeError,
    Support,
    bl_distance,
    entropy,
    make_family,
    make_grid,
    product_bl_distance,
    product_support,
    relative_entropy,
    run_convergence,
    w2_distance,
    w2_distance_1d,
)
from schrobridge import core
from schrobridge.core import (
    UNIT_MASS_TOL,
    _dictionary_tables,
    empirical_measure,
    lattice_neighbors,
    log_eval_kernel,
    logsumexp,
    same_support,
)
from conftest import gaussian_density, w2_distance_lp


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
                        logk=np.log(np.array([[1.0, np.inf], [1.0, 1.0]])))


class TestLogKernel:
    def test_cached_and_read_only(self, gauss_kernel):
        logk = log_eval_kernel(gauss_kernel)
        assert logk is gauss_kernel.logk
        assert not logk.flags.writeable

    def test_dense_from_log_keeps_entries_below_underflow(self, sup2):
        logk = np.array([[0.0, -2000.0], [-2000.0, 0.0]])
        q = DenseKernel(sup2, sup2, logk)
        assert np.array_equal(q.logk, logk)
        with pytest.raises(ValueError, match="finite"):
            DenseKernel(sup2, sup2, np.array([[0.0, -np.inf], [0.0, 0.0]]))


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

    def test_zero_mass_not_normalized(self, sup2):
        with pytest.raises(ValueError, match="zero total mass"):
            DiscreteMeasure(sup2, np.zeros(2)).normalized()

    def test_density_measure_roundtrip(self):
        g = make_grid(1, 1.0, 8)
        p = gaussian_density(g, 0.3)
        back = Density.from_measure(p.to_measure())
        assert np.allclose(back.values, p.values)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(dim=st.sampled_from([1, 2]), n=st.integers(2, 9),
           offset=st.floats(-2.0, 2.0), data=st.data())
    def test_density_and_its_measure_share_the_unit_mass_rule(self, dim, n, offset, data):
        # masses within twice the tolerance of 1, on both sides
        g = make_grid(dim, 2.0, n)
        v = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=g.n_points,
                                        max_size=g.n_points)))
        v = v / (v @ g.cell_volumes) * (1.0 + offset * UNIT_MASS_TOL)
        try:
            p = Density(g, v, is_probability=True)
        except ValueError:
            with pytest.raises(ValueError, match="unit mass"):
                DiscreteMeasure(g, v * g.cell_volumes, is_probability=True)
            return
        assert p.to_measure().is_probability


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

    def test_jensen_lower_bound_random(self):
        rng = np.random.default_rng(11)
        g = make_grid(1, 1.5, 30)
        for _ in range(20):
            v = rng.dirichlet(np.ones(30)) / g.cell_volumes
            p = Density(g, v / (v @ g.cell_volumes), is_probability=True)
            assert entropy(p) >= -math.log(g.total_volume) - 1e-12


class TestRelativeEntropy:
    HALF = np.array([0.5, 0.5])

    def test_identical_is_zero(self):
        assert relative_entropy(self.HALF, self.HALF) == 0.0

    def test_atom_vs_uniform(self):
        assert relative_entropy([1.0, 0.0], self.HALF) == pytest.approx(math.log(2), rel=1e-12)

    def test_direct_arithmetic(self, mu_half, mu_skew):
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        kl = relative_entropy(mu_skew.weights, mu_half.weights)
        assert kl == pytest.approx(expected, rel=1e-12)
        assert kl == pytest.approx(0.13081, abs=1e-5)

    def test_infinite_when_not_absolutely_continuous(self):
        assert relative_entropy(self.HALF, [1.0, 0.0]) == math.inf

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            assert relative_entropy(rng.dirichlet(np.ones(2)),
                                    rng.dirichlet(np.ones(2))) >= -1e-12


class TestW2:
    def test_diracs(self):
        for a, b in [(-1.0, 2.0), (0.0, 0.3)]:
            s1 = Support(points=np.array([[a]]), cell_volumes=np.ones(1),
                         bounding_radius=abs(a))
            s2 = Support(points=np.array([[b]]), cell_volumes=np.ones(1),
                         bounding_radius=abs(b))
            m1 = DiscreteMeasure(s1, np.array([1.0]), is_probability=True)
            m2 = DiscreteMeasure(s2, np.array([1.0]), is_probability=True)
            assert w2_distance_lp(m1, m2) == pytest.approx(abs(a - b), abs=1e-9)

    def test_identity(self, sup2, mu_skew):
        assert w2_distance_lp(mu_skew, mu_skew) == pytest.approx(0.0, abs=1e-9)

    def test_two_point_derived_value(self, sup2, mu_half):
        # enumerating couplings of ((1/2,1/2),(1,0)): optimal moves 1/2 across
        m2 = DiscreteMeasure(sup2, np.array([1.0, 0.0]), is_probability=True)
        assert w2_distance_lp(mu_half, m2) == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_cap_enforced(self):
        g = make_grid(1, 1.0, 300)
        m = DiscreteMeasure(g, np.full(300, 1 / 300), is_probability=True)
        with pytest.raises(OracleTooLargeError, match="oracle too large"):
            w2_distance_lp(m, m)

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
            d01 = w2_distance_lp(ms[0], ms[1])
            d12 = w2_distance_lp(ms[1], ms[2])
            d02 = w2_distance_lp(ms[0], ms[2])
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
            assert w2_distance_1d(m1, m2) == pytest.approx(w2_distance_lp(m1, m2), abs=1e-7)

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(n=st.integers(2, 200), seed=st.integers(0, 2**32 - 1))
    def test_quantile_formula_on_equal_size_clouds(self, n, seed):
        # uniform weights whose cumulative sum ends off 1 by rounding keep the top cell
        a, b = np.random.default_rng(seed).uniform(-3, 3, size=(2, n))
        exact = math.sqrt(np.mean((np.sort(a) - np.sort(b)) ** 2))
        m1, m2 = empirical_measure(a[:, None]), empirical_measure(b[:, None])
        assert w2_distance_1d(m1, m2) == pytest.approx(exact, rel=1e-9)
        assert w2_distance(a[:, None], b[:, None]) == pytest.approx(exact, rel=1e-9)

    def test_assignment_cap_enforced(self):
        x = np.zeros((201, 2))
        with pytest.raises(OracleTooLargeError, match="assignment too large: 201 points > 200"):
            w2_distance(x, x)
        assert w2_distance(np.zeros((201, 1)), np.ones((201, 1))) == 1.0  # 1-D sorts, uncapped

    @pytest.mark.parametrize("x, y", [(np.zeros((0, 2)), np.zeros((0, 2))),
                                      (np.zeros((3, 2)), np.zeros((4, 2))),
                                      (np.zeros((3, 2)), np.zeros((3, 1))),
                                      (np.zeros(3), np.zeros(3))],
                             ids=["empty", "sizes_differ", "dims_differ", "flat"])
    def test_rejects_malformed_clouds(self, x, y):
        with pytest.raises(ValueError, match="same shape"):
            w2_distance(x, y)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(1, 60), d=st.integers(1, 3), lattice=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_lp_oracle(self, n, d, lattice, seed):
        # on a coarse integer lattice points repeat and many costs tie exactly
        rng = np.random.default_rng(seed)
        if lattice:
            x, y = rng.integers(-2, 3, size=(2, n, d)).astype(float)
        else:
            x, y = rng.normal(size=(2, n, d))
            y[: n // 3] = x[: n // 3]
        want = w2_distance_lp(empirical_measure(x), empirical_measure(y))
        # squared, as the LP reports it; on coincident clouds its optimum is off 0 by up
        # to its 1e-10 feasibility tolerance
        assert w2_distance(x, y) ** 2 == pytest.approx(want**2, rel=1e-9, abs=1e-10)


class TestLogsumexp:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
           seed=st.integers(0, 2**32 - 1), axis=st.sampled_from([None, 0, 1]),
           scale=st.sampled_from([1e-3, 1.0, 30.0]), offset=st.sampled_from([0.0, 1e3, -1e3]),
           ties=st.booleans(), spike=st.booleans(), dead_row=st.booleans(),
           dead_col=st.booleans())
    def test_matches_scipy_bit_for_bit(self, shape, seed, axis, scale, offset, ties, spike,
                                       dead_row, dead_col):
        rng = np.random.default_rng(seed)
        a = offset + scale * rng.normal(size=shape)
        if ties:  # repeated maxima
            a = np.round(a)
        if spike:  # maxima at 0 far above the rest: log1p of a tiny sum
            a = np.where(a == a.max(), 0.0, a - a.max() - 20.0)
        a[rng.random(shape) < 0.25] = -np.inf
        if dead_row:
            a[rng.integers(shape[0])] = -np.inf
        if dead_col:
            a[:, rng.integers(shape[1])] = -np.inf
        got, want = logsumexp(a, axis=axis), scipy_logsumexp(a, axis=axis)
        assert type(got) is type(want)
        assert np.array_equal(got, want)


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


# (source, target) grids: 1-D pairs with different bounding radii,
# ball-clipped 2-D grids, whose 4-D product dictionary drops the bump levels
# with more than _BL_MAX_CENTERS centers, and mixed 1-D x 2-D pairs in both
# orders, where an axis direction meets only one of the two factors.
PRODUCT_GRIDS = [
    ((1, 2.0, 9), (1, 2.0, 9)),
    ((1, 0.5, 5), (1, 3.0, 7)),
    ((2, 1.0, 6), (2, 1.5, 5)),
    ((1, 1.0, 6), (2, 1.0, 5)),
    ((2, 1.0, 5), (1, 1.0, 6)),
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


def _two_plans(source, target, seed=3):
    rng = np.random.default_rng(seed)
    return [rng.dirichlet(np.ones(source.n_points * target.n_points)).reshape(
        source.n_points, target.n_points) for _ in range(2)]


class _CountingTables(dict):
    """The dictionary table cache, counting the table sets stored (built) in it."""

    builds = 0

    def __setitem__(self, key, value):
        self.builds += 1
        super().__setitem__(key, value)


class TestDictionaryTableCache:
    """The dictionary tables live as long as their supports; no value depends on the cache."""

    def test_equal_supports_give_the_values_of_one_shared_support(self):
        g = make_grid(1, 2.0, 15)
        twin = Support(points=g.points.copy(), cell_volumes=g.cell_volumes.copy(),
                       bounding_radius=g.bounding_radius)
        assert twin != g and same_support(twin, g)
        w1, w2 = _two_plans(g, g)
        shared = product_bl_distance(g, g, w1, w2)
        assert product_bl_distance(g, twin, w1, w2).hex() == shared.hex()
        assert product_bl_distance(twin, twin, w1, w2).hex() == shared.hex()
        mu, nu = DiscreteMeasure(g, w1.sum(axis=1)), DiscreteMeasure(g, w2.sum(axis=1))
        assert (bl_distance(DiscreteMeasure(twin, mu.weights), nu).hex()
                == bl_distance(mu, nu).hex())

    def test_repeated_and_cleared_calls_agree_bit_for_bit(self, monkeypatch):
        tables = _CountingTables()
        monkeypatch.setattr(core, "_TABLES", tables)
        source, target = make_grid(1, 2.0, 11), make_grid(2, 1.0, 6)
        w1, w2 = _two_plans(source, target)
        first = product_bl_distance(source, target, w1, w2).hex()
        again = [product_bl_distance(source, target, w1, w2).hex() for _ in range(3)]
        assert again == [first] * 3 and tables.builds == 1
        # a rebuild, on equal supports after the first ones are freed, gives the same bits
        del source, target
        gc.collect()
        assert len(tables) == 0
        source, target = make_grid(1, 2.0, 11), make_grid(2, 1.0, 6)
        assert product_bl_distance(source, target, w1, w2).hex() == first
        assert tables.builds == 2

    def test_stability_ladder_builds_the_tables_once(self, monkeypatch):
        tables = _CountingTables()
        monkeypatch.setattr(core, "_TABLES", tables)
        g = make_grid(1, 2.0, 21)
        mu = DiscreteMeasure(g, np.full(g.n_points, 1.0 / g.n_points), is_probability=True)
        q = GaussianHeatKernel(source=g, target=g, t=1.0, eps=0.8)
        family = make_family(q, mu, mu, "kernel_perturbation", index_set=(4, 8, 16))
        rep = run_convergence((q, mu, mu), family, [(3, 5)], m=2)
        assert all(row.solved for row in rep.rows) and tables.builds == 1

    def test_tables_are_read_only(self):
        g = make_grid(1, 1.0, 6)
        affine, bumps = _dictionary_tables((g, g), 1.0)
        for table in [t for _, t in affine] + [m for mats in bumps for m in mats]:
            with pytest.raises(ValueError, match="read-only"):
                table[...] = 0.0

    def test_cache_is_bounded(self):
        """A table set lives exactly as long as every support it was built on."""
        source, target = make_grid(1, 1.0, 4), make_grid(1, 1.0, 5)
        w = np.full(4, 0.25)
        bl_distance(DiscreteMeasure(source, w), DiscreteMeasure(source, w))
        product_bl_distance(source, target, np.full((4, 5), 0.05), np.full((4, 5), 0.05))
        single = weakref.ref(_dictionary_tables((source,), 1.0)[1][0][0])
        product = weakref.ref(_dictionary_tables((source, target), 1.0)[1][0][1])
        gc.collect()
        assert single() is not None and product() is not None  # live supports keep theirs
        del target  # dropping one support of the product frees the product's tables
        gc.collect()
        assert single() is not None and product() is None
        del source
        gc.collect()
        assert single() is None
