import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentforge.chebyshev import cheb_t_table
from momentforge.distributions import (
    DiscreteDistribution,
    Grid,
    MomentVector,
    cheb_moments,
    moment_error_gamma,
    multi_indices,
    multi_moment_normalizer,
    w1_distance,
)
from momentforge.recovery import (
    RecoveryConfig,
    DenseBasis,
    KroneckerBasis,
    NufftBasis,
    _DctBasis,
    default_grid_size,
    fit_simplex,
    lp_grid_size,
    recover_distribution,
    simplex_project,
    solve_moment_lp,
    solve_weighted_qp,
)


def brute_force_simplex_projection(v):
    """Enumerate every support pattern and keep the feasible nearest point."""
    v = np.asarray(v, dtype=float)
    best = None
    best_dist = np.inf
    for size in range(1, v.size + 1):
        for subset in itertools.combinations(range(v.size), size):
            z = np.zeros_like(v)
            sel = np.asarray(subset)
            z[sel] = v[sel] - (v[sel].sum() - 1.0) / size
            if z[sel].min() < -1e-12:
                continue
            dist = np.linalg.norm(np.maximum(z, 0.0) - v)
            if dist < best_dist:
                best_dist = dist
                best = np.maximum(z, 0.0)
    return best


def brute_force_simplex_fit(rows, weights, target):
    """Best objective over every support pattern: each pattern's
    equality-constrained KKT system, kept when its solution is feasible."""
    g = rows.shape[1]
    best = np.inf
    for size in range(1, g + 1):
        for subset in itertools.combinations(range(g), size):
            sel = rows[:, list(subset)]
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = 2.0 * sel.T @ (weights[:, None] * sel)
            kkt[:size, size] = 1.0
            kkt[size, :size] = 1.0
            rhs = np.append(2.0 * sel.T @ (weights * target), 1.0)
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:size]
            if sol.min() < -1e-12:
                continue
            z = np.zeros(g)
            z[list(subset)] = np.maximum(sol, 0.0)
            resid = rows @ (z / z.sum()) - target
            best = min(best, float(weights @ (resid * resid)))
    return best


def frank_wolfe_gap(rows, weights, target, z):
    """max_i (grad . z - grad_i) of sum_j w_j ((rows z)_j - m_j)^2 at z."""
    grad = 2.0 * rows.T @ (weights * (rows @ z - target))
    return float(grad @ z - grad.min())


def assert_map_matches_table(basis, table, rng, rel=1e-10):
    """apply, apply_adjoint and every column(i) of a fast map within `rel`
    (relative, in the max norm) of the float64 table."""
    k, size = table.shape
    assert (basis.k, basis.size) == (k, size)
    z = rng.dirichlet(np.ones(size))
    v = rng.normal(size=k)
    for got, want in ((basis.apply(z), table @ z), (basis.apply_adjoint(v), table.T @ v)):
        assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))
    for i in range(size):
        col = basis.column(i)
        assert col.dtype == np.float64
        assert np.max(np.abs(col - table[:, i])) <= rel * np.max(np.abs(table[:, i]))


def random_distribution(rng, points):
    support = rng.uniform(-1, 1, points)
    weights = rng.dirichlet(np.ones(points))
    return DiscreteDistribution(support, weights)


class TestSimplexProjection:
    def test_symmetric_pair(self):
        assert simplex_project([0.6, 0.6]) == pytest.approx([0.5, 0.5])

    def test_kkt_by_inspection(self):
        assert simplex_project([2.0, 0.0]) == pytest.approx([1.0, 0.0])

    def test_already_feasible(self):
        z = np.array([0.2, 0.3, 0.5])
        assert simplex_project(z) == pytest.approx(z)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            simplex_project([])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    def test_matches_active_set_enumeration(self, seed, dim):
        v = np.random.default_rng(seed).normal(0, 2, dim)
        got = simplex_project(v)
        want = brute_force_simplex_projection(v)
        assert got == pytest.approx(want, abs=1e-9)
        assert got.min() >= 0
        assert got.sum() == pytest.approx(1.0, abs=1e-12)


class TestBases:
    @pytest.mark.parametrize("g,k", [(64, 12), (129, 40), (200, 199)])
    def test_dct_matches_dense(self, g, k):
        grid = Grid.chebyshev(g)
        dense = DenseBasis(cheb_t_table(k, grid.points)[1:])
        fast = _DctBasis(g, k)
        rng = np.random.default_rng(3)
        z = rng.dirichlet(np.ones(g))
        v = rng.normal(size=k)
        assert fast.apply(z) == pytest.approx(dense.apply(z), abs=1e-10)
        assert fast.apply_adjoint(v) == pytest.approx(dense.apply_adjoint(v), abs=1e-10)

    @pytest.mark.parametrize(
        "make,points",
        [
            (lambda k, x: DenseBasis(cheb_t_table(k, x)[1:]), Grid.uniform(20).points),
            (lambda k, x: _DctBasis(x.size, k), Grid.chebyshev(200).points),
            (lambda k, x: NufftBasis(x, k), Grid.uniform(100).points),
        ],
        ids=["dense", "dct", "nufft"],
    )
    def test_column_is_float64_table_column(self, make, points):
        k = 40
        basis = make(k, points)
        table = cheb_t_table(k, points)[1:]
        for i in range(points.size):
            col = basis.column(i)
            assert col.dtype == np.float64
            assert np.max(np.abs(col - table[:, i])) <= 1e-12

    @pytest.mark.parametrize("h", [1, 2, 5, 50, 1024])
    def test_nufft_matches_dense(self, h):
        # uniform grids hold -1, 0 and +1, where theta = arccos x sits on
        # the periodic wrap (0, pi) and at its middle
        points = Grid.uniform(h).points
        k = 2 * h
        table = cheb_t_table(k, points)[1:]
        assert_map_matches_table(NufftBasis(points, k), table, np.random.default_rng(h))

    @pytest.mark.parametrize("d,h", [(2, 3), (2, 12), (3, 2), (3, 6)])
    def test_kronecker_matches_dense(self, d, h):
        grid = Grid.tensor_uniform(h, d)
        m = 2 * h
        axis_tables = [cheb_t_table(m, grid.points[:, axis]) for axis in range(d)]
        table = np.array(
            [
                multi_moment_normalizer(K, d) * np.prod([axis_tables[a][K[a]] for a in range(d)], 0)
                for K in multi_indices(m, d)
            ]
        )
        basis = KroneckerBasis(grid.axis_points, m, d)
        assert_map_matches_table(basis, table, np.random.default_rng(10 * d + h))

    def test_nufft_fit_matches_dense_fit(self):
        # the NUFFT basis prices with rounding of its own; the fit must
        # still reach the dense table's optimum, on targets that are the
        # moments of a random distribution over the grid, with and without
        # noise, for every degree up to the DP pipeline's k = 2h
        for seed in range(100):
            rng = np.random.default_rng(seed)
            points = Grid.uniform(int(rng.integers(1, 30))).points
            k = int(rng.integers(1, points.size))
            rows = cheb_t_table(k, points)[1:]
            j = np.arange(1, k + 1)
            weights = 1.0 / (j * j)
            consistent = rows @ rng.dirichlet(np.ones(points.size))
            for target in (consistent, consistent + rng.normal(0, 0.05, k)):
                dense = fit_simplex(DenseBasis(rows), weights, target)
                fast = fit_simplex(NufftBasis(points, k), weights, target)
                assert dense.converged and fast.converged
                assert abs(fast.objective - dense.objective) <= 1e-15
                assert frank_wolfe_gap(rows, weights, target, fast.weights) <= 1e-11


class TestExactFit:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 6), st.booleans())
    def test_matches_support_enumeration(self, seed, k, g, consistent):
        rng = np.random.default_rng(seed)
        rows = cheb_t_table(k, np.sort(rng.uniform(-1, 1, g)))[1:]
        weights = rng.uniform(0.1, 1.0, k)
        if consistent:
            target = rows @ rng.dirichlet(np.ones(g))
        else:
            target = rng.normal(0, 1.5, k)
        solution = fit_simplex(DenseBasis(rows), weights, target)
        assert solution.converged
        assert abs(solution.objective - brute_force_simplex_fit(rows, weights, target)) <= 1e-12
        assert solution.weights.min() >= 0
        assert abs(solution.weights.sum() - 1.0) <= 1e-12


    def test_rounding_level_cycle_stops(self):
        # moments of random grid subsets on ill-conditioned uniform-grid
        # tables: once f is at rounding level a Wolfe step can fail to
        # lower it, and these draws cycled to the 3 g step cap before the
        # fit stopped on a step that does not lower f
        for seed in (15, 18, 64, 78, 224, 238):
            rng = np.random.default_rng(seed)
            points = Grid.uniform(int(rng.integers(1, 30))).points
            k = int(rng.integers(1, points.size))
            rows = cheb_t_table(k, points)[1:]
            weights = 1.0 / np.arange(1, k + 1) ** 2
            atoms = int(rng.integers(1, points.size + 1))
            z = np.zeros(points.size)
            z[rng.choice(points.size, atoms, replace=False)] = rng.dirichlet(np.ones(atoms))
            for basis in (DenseBasis(rows), NufftBasis(points, k)):
                assert fit_simplex(basis, weights, rows @ z).converged


class TestWeightedQp:
    def test_point_mass_at_grid_node(self):
        cfg = RecoveryConfig(k=4)
        node_index = 2
        node = cfg.grid.points[node_index]
        moments = cheb_moments(DiscreteDistribution.point_mass(node), 4)
        solution = solve_weighted_qp(moments, cfg)
        assert solution.objective <= 1e-12
        assert solution.weights[node_index] >= 1 - 1e-6

    def test_zero_moments_single_node(self):
        cfg = RecoveryConfig(k=1)
        moments = MomentVector(np.zeros(1))
        solution = solve_weighted_qp(moments, cfg)
        assert solution.objective <= 1e-12

    def test_zero_moments_symmetric_grid(self):
        cfg = RecoveryConfig(k=1, g=8)
        solution = solve_weighted_qp(MomentVector(np.zeros(1)), cfg)
        assert solution.objective <= 1e-12

    def test_exact_moments_of_grid_supported(self):
        rng = np.random.default_rng(11)
        cfg = RecoveryConfig(k=8)
        picks = rng.choice(cfg.g, size=3, replace=False)
        weights = rng.dirichlet(np.ones(3))
        p = DiscreteDistribution(cfg.grid.points[picks], weights)
        solution = solve_weighted_qp(cheb_moments(p, 8), cfg)
        assert solution.objective <= 1e-10

    def test_trace_monotone(self):
        rng = np.random.default_rng(5)
        moments = cheb_moments(random_distribution(rng, 5), 12)
        noisy = MomentVector(moments.values + rng.normal(0, 0.02, 12))
        cfg = RecoveryConfig(k=12, keep_trace=True)
        solution = solve_weighted_qp(noisy, cfg)
        assert solution.trace is not None
        assert np.all(np.diff(solution.trace) <= 1e-15)


class TestRecoverDistribution:
    def test_mass_lands_near_top_node(self):
        result = recover_distribution(MomentVector(np.array([1.0])), cfg=RecoveryConfig(k=1, g=8))
        top = result.distribution.support[np.argmax(result.distribution.weights)]
        assert top == pytest.approx(math.cos(math.pi / 16))
        assert result.distribution.weights.max() >= 1 - 1e-6

    def test_three_point_distribution_bound(self):
        # proven chain: 36/k plus the sqrt(2 pi k)/g node-rounding term
        rng = np.random.default_rng(2)
        p = random_distribution(rng, 3)
        k = 16
        result = recover_distribution(cheb_moments(p, k))
        bound = (36 + math.sqrt(2 * math.pi)) / k + 1e-6
        assert w1_distance(p, result.distribution) <= bound

    @pytest.mark.parametrize("k", [8, 16])
    def test_exact_recovery_rate(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(5):
            p = random_distribution(rng, 5)
            result = recover_distribution(cheb_moments(p, k))
            assert w1_distance(p, result.distribution) <= 40.0 / k

    def test_posterior_gamma_triangle_chain(self):
        rng = np.random.default_rng(9)
        p = random_distribution(rng, 5)
        k = 12
        exact = cheb_moments(p, k)
        noisy = MomentVector(exact.values + rng.normal(0, 0.01, k))
        result = recover_distribution(noisy)
        input_error = moment_error_gamma(noisy, exact).gamma
        achieved = cheb_moments(result.distribution, k)
        output_error = moment_error_gamma(achieved, exact).gamma
        assert output_error <= 2 * input_error + 1e-6

    def test_noisy_moment_rate(self):
        rng = np.random.default_rng(21)
        k = 16
        for _ in range(5):
            p = random_distribution(rng, 4)
            exact = cheb_moments(p, k)
            scale = rng.uniform(0.005, 0.05)
            j = np.arange(1, k + 1)
            noise = rng.normal(0, scale, k) * np.sqrt(j)
            noisy = MomentVector(exact.values + noise)
            gamma = moment_error_gamma(noisy, exact).gamma
            result = recover_distribution(noisy)
            assert w1_distance(p, result.distribution) <= 40.0 * (1.0 / k + gamma)

    def test_report_fields(self):
        p = DiscreteDistribution.point_mass(0.2)
        result = recover_distribution(cheb_moments(p, 8))
        assert result.k == 8
        assert result.g == default_grid_size(8)
        assert result.w1_bound == pytest.approx(36.0 / 8 + result.gamma)
        assert result.converged


class TestMomentLp:
    def test_huge_tolerance_is_feasible(self):
        moments = MomentVector(np.array([0.3, -0.1]))
        solution = solve_moment_lp(moments, np.full(2, 1e6))
        assert solution.feasible
        assert solution.max_violation == 0.0
        assert np.all(solution.weights >= 0.0)
        assert solution.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_grid_supported_target(self):
        cfg = RecoveryConfig(k=6, g=lp_grid_size(6))
        rng = np.random.default_rng(4)
        picks = rng.choice(cfg.g, size=4, replace=False)
        p = DiscreteDistribution(cfg.grid.points[picks], rng.dirichlet(np.ones(4)))
        moments = cheb_moments(p, 6)
        solution = solve_moment_lp(moments, np.full(6, 1e-6), cfg)
        assert solution.feasible
        assert solution.max_violation <= 1e-9

    @pytest.mark.parametrize("k", [6, 12, 24])
    @pytest.mark.parametrize("tol", [1e-6, 1e-11])
    def test_tight_boxes_on_grid_supported_targets(self, k, tol):
        cfg = RecoveryConfig(k=k, g=lp_grid_size(k))
        rng = np.random.default_rng(40 + k)
        picks = rng.choice(cfg.g, size=4, replace=False)
        p = DiscreteDistribution(cfg.grid.points[picks], rng.dirichlet(np.ones(4)))
        moments = cheb_moments(p, k)
        solution = solve_moment_lp(moments, np.full(k, tol), cfg)
        assert solution.feasible
        # certificate recomputed from the Chebyshev table, not the fit's map
        achieved = cheb_t_table(k, cfg.grid.points)[1:] @ solution.weights
        assert np.all(np.abs(achieved - moments.values) <= tol + 1e-9)

    def test_infeasible_flagged(self):
        # no distribution has first moment 1 and second moment -1
        moments = MomentVector(np.array([1.0, -1.0]))
        cfg = RecoveryConfig(k=2, g=8)
        solution = solve_moment_lp(moments, np.full(2, 1e-4), cfg)
        assert not solution.feasible
        assert solution.max_violation > 1e-9

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            solve_moment_lp(MomentVector(np.array([0.0])), np.array([0.0]))


class TestConfig:
    def test_default_grid_size(self):
        cfg = RecoveryConfig(k=16)
        assert cfg.g == math.ceil(16**1.5)

    def test_grid_must_cover_degree(self):
        with pytest.raises(ValueError):
            RecoveryConfig(k=8, g=4)

    def test_lp_grid_size_formula(self):
        assert lp_grid_size(16) == math.ceil(16**1.5 * math.sqrt(1 + math.log(16)))
