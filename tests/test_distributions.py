import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from oracles import arccos_round, cheb_t_multi

from momentforge.chebyshev import cheb_t
from momentforge.distributions import (
    DiscreteDistribution,
    Grid,
    MomentVector,
    cheb_moments,
    grid_round_indices,
    moment_error_gamma,
    multi_index_array,
    multi_moment_normalizers,
    round_to_grid,
    w1_distance,
)
from momentforge.recovery import KroneckerBasis


def transport_lp_w1(p, q):
    """Independent oracle: solve the coupling linear program directly."""
    cost = np.abs(p.support[:, None] - q.support[None, :]).ravel()
    s, t = p.size, q.size
    a_eq = []
    for i in range(s):
        row = np.zeros((s, t))
        row[i, :] = 1.0
        a_eq.append(row.ravel())
    for j in range(t):
        row = np.zeros((s, t))
        row[:, j] = 1.0
        a_eq.append(row.ravel())
    b_eq = np.concatenate([p.weights, q.weights])
    res = linprog(cost, A_eq=np.asarray(a_eq), b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success
    return res.fun


def random_distribution(rng, max_points=6):
    size = rng.integers(1, max_points + 1)
    support = rng.uniform(-1, 1, size)
    weights = rng.dirichlet(np.ones(size))
    return DiscreteDistribution(support, weights)


class TestDiscreteDistribution:
    def test_validates_weight_sum(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([0.0]), np.array([0.5]))

    def test_validates_nonnegative(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([0.0, 0.5]), np.array([1.5, -0.5]))

    def test_validates_support_range(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([1.5]), np.array([1.0]))

    def test_pruning_renormalizes(self):
        dist = DiscreteDistribution(np.array([0.0, 0.5]), np.array([1.0 - 1e-16, 1e-16]))
        pruned = dist.pruned()
        assert pruned.size == 1
        assert pruned.weights[0] == 1.0

    def test_immutability(self):
        dist = DiscreteDistribution.point_mass(0.25)
        with pytest.raises(ValueError):
            dist.support[0] = 0.5


class TestMoments:
    def test_point_mass_by_hand(self):
        p = DiscreteDistribution.point_mass(0.5)
        moments = cheb_moments(p, 3)
        # T_3(0.5) = 4/8 - 3/2 = -1
        assert moments.values == pytest.approx([0.5, -0.5, -1.0], abs=1e-15)

    def test_two_endpoints(self):
        p = DiscreteDistribution(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        moments = cheb_moments(p, 8)
        expected = [0.0 if j % 2 else 1.0 for j in range(1, 9)]
        assert moments.values == pytest.approx(expected, abs=1e-15)

    def test_point_mass_at_zero(self):
        moments = cheb_moments(DiscreteDistribution.point_mass(0.0), 4)
        assert moments.values == pytest.approx([0.0, -1.0, 0.0, 1.0], abs=1e-15)

    def test_matches_scalar_evaluation(self):
        rng = np.random.default_rng(5)
        p = random_distribution(rng)
        moments = cheb_moments(p, 6)
        for j in range(1, 7):
            direct = sum(w * cheb_t(j, x) for x, w in zip(p.support, p.weights))
            assert moments.values[j - 1] == pytest.approx(direct, abs=1e-12)

    def test_plain_moments_bounded(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = random_distribution(rng)
            assert np.max(np.abs(cheb_moments(p, 12).values)) <= 1 + 1e-12

    def test_rejects_four_dimensions(self):
        p = DiscreteDistribution(np.zeros((1, 4)), np.array([1.0]))
        with pytest.raises(ValueError, match="d in"):
            cheb_moments(p, 2)


def tensor_moment(moments, K, m):
    """The entry of index K in `cheb_moments(p, m)`: its row of
    `multi_index_array(m, len(K))`, the C-order position less one."""
    return moments.values[np.ravel_multi_index(K, (m + 1,) * len(K)) - 1]


class TestMomentsMulti:
    def test_point_mass_at_corner(self):
        p = DiscreteDistribution(np.array([[1.0, 1.0]]), np.array([1.0]))
        moments = cheb_moments(p, 2)
        assert tensor_moment(moments, (2, 2), 2) == pytest.approx(1.0)

    def test_symmetry_cancels(self):
        p = DiscreteDistribution(np.array([[-1.0, -1.0], [1.0, 1.0]]), np.array([0.5, 0.5]))
        moments = cheb_moments(p, 2)
        assert tensor_moment(moments, (1, 0), 2) == pytest.approx(0.0, abs=1e-15)

    def test_componentwise_hand_values(self):
        p = DiscreteDistribution(np.array([[0.5, 0.0]]), np.array([1.0]))
        moments = cheb_moments(p, 2)
        # T_1(0.5) * T_2(0) = 0.5 * (-1)
        assert tensor_moment(moments, (1, 2), 2) == pytest.approx(-0.5)

    @pytest.mark.parametrize("d,h", [(2, 3), (2, 8), (3, 2), (3, 4)])
    def test_matches_kronecker_apply(self, d, h):
        # on a tensor grid the plain moments are the Kronecker map's
        # normalized moments of the grid weights, unscaled
        grid = Grid.uniform(h, d)
        m = 2 * h
        weights = np.random.default_rng(10 * d + h).dirichlet(np.ones(grid.size))
        moments = cheb_moments(DiscreteDistribution(grid.points, weights), m)
        basis = KroneckerBasis(grid.axis_points, m, d)
        expected = basis.apply(weights) / multi_moment_normalizers(basis.indices)
        assert np.max(np.abs(moments.values - expected)) <= 1e-13

    @pytest.mark.parametrize("m,d", [(3, 2), (2, 3)])
    def test_matches_pointwise_loop(self, m, d):
        # off-grid points, each index of multi_index_array against the sum
        # of pointwise tensor products, the loop the contraction replaced
        rng = np.random.default_rng(m + d)
        p = DiscreteDistribution(rng.uniform(-1, 1, (5, d)), rng.dirichlet(np.ones(5)))
        ref = [
            sum(w * cheb_t_multi(K, x) for x, w in zip(p.support, p.weights))
            for K in multi_index_array(m, d)
        ]
        assert np.max(np.abs(cheb_moments(p, m).values - ref)) <= 1e-14

    @pytest.mark.parametrize("m,d", [(1, 2), (5, 2), (4, 3), (16, 3)])
    def test_index_array_matches_tuple_loop(self, m, d):
        # the array and its vectorized scales against a loop over tuples
        indices = multi_index_array(m, d)
        ref = [K for K in itertools.product(range(m + 1), repeat=d)][1:]
        assert indices.dtype.kind == "i" and indices.shape == ((m + 1) ** d - 1, d)
        assert [tuple(row) for row in indices.tolist()] == ref
        scales = multi_moment_normalizers(indices)
        nnz = [sum(1 for v in K if v != 0) for K in ref]
        assert scales.tolist() == [math.sqrt(2.0**c / math.pi**d) for c in nnz]


class TestW1:
    def test_endpoint_masses(self):
        p = DiscreteDistribution.point_mass(-1.0)
        q = DiscreteDistribution.point_mass(1.0)
        assert w1_distance(p, q) == pytest.approx(2.0)

    def test_split_mass(self):
        p = DiscreteDistribution.point_mass(0.0)
        q = DiscreteDistribution(np.array([-0.5, 0.5]), np.array([0.5, 0.5]))
        assert w1_distance(p, q) == pytest.approx(0.5)

    def test_identical_supports(self):
        p = DiscreteDistribution(np.array([0.1, -0.4]), np.array([0.25, 0.75]))
        assert w1_distance(p, p) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_transport_lp(self, seed):
        rng = np.random.default_rng(seed)
        p = random_distribution(rng)
        q = random_distribution(rng)
        assert w1_distance(p, q) == pytest.approx(transport_lp_w1(p, q), abs=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        p, q, r = (random_distribution(rng) for _ in range(3))
        assert w1_distance(p, q) == pytest.approx(w1_distance(q, p), abs=1e-12)
        assert w1_distance(p, q) <= w1_distance(p, r) + w1_distance(r, q) + 1e-9
        assert w1_distance(p, q) >= 0


class TestMomentErrorGamma:
    def test_identical_vectors(self):
        m = MomentVector(np.array([0.1, 0.2, 0.3]))
        report = moment_error_gamma(m, m)
        assert report.gamma == 0.0
        assert report.w1_bound == pytest.approx(12.0)
        assert report.w1_bound_optimistic == pytest.approx(2 * math.pi / 3)

    def test_single_moment(self):
        a = MomentVector(np.array([0.5]))
        b = MomentVector(np.array([0.6]))
        assert moment_error_gamma(a, b).gamma == pytest.approx(0.1)

    def test_three_equal_diffs(self):
        a = MomentVector(np.zeros(3))
        b = MomentVector(np.full(3, 0.3))
        expected = 0.3 * math.sqrt(1 + 0.25 + 1 / 9)
        assert moment_error_gamma(a, b).gamma == pytest.approx(expected)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 64), st.floats(1e-6, 0.5))
    def test_pointwise_sufficient_condition(self, k, bound):
        # per-moment differences at bound * sqrt(j / (1 + log k)) keep the
        # aggregate at or below bound
        j = np.arange(1, k + 1)
        diffs = bound * np.sqrt(j / (1 + math.log(k)))
        a = MomentVector(np.zeros(k))
        b = MomentVector(diffs)
        assert moment_error_gamma(a, b).gamma <= bound + 1e-12


class TestGrids:
    def test_uniform_grid_shape(self):
        grid = Grid.uniform(2)
        assert grid.points == pytest.approx([-1, -0.5, 0, 0.5, 1])
        assert grid.half_steps == 2

    def test_round_basic(self):
        grid = Grid.uniform(2)
        assert round_to_grid(np.array([0.26]), grid)[0] == pytest.approx(0.5)

    def test_round_exact_point(self):
        grid = Grid.uniform(2)
        assert round_to_grid(np.array([-0.5]), grid)[0] == -0.5

    def test_round_tie_goes_down(self):
        grid = Grid.uniform(2)
        assert round_to_grid(np.array([0.25]), grid)[0] == 0.0
        assert round_to_grid(np.array([-0.25]), grid)[0] == -0.5

    def test_round_moves_at_most_half_spacing(self):
        rng = np.random.default_rng(23)
        grid = Grid.uniform(7)
        xs = rng.uniform(-1, 1, 2000)
        rounded = round_to_grid(xs, grid)
        assert np.max(np.abs(rounded - xs)) <= 0.5 / grid.half_steps + 1e-12

    @pytest.mark.parametrize(
        "grid",
        [Grid.uniform(5), Grid.uniform(3, 2), Grid.uniform(2, 3)],
        ids=["uniform", "tensor-d2", "tensor-d3"],
    )
    def test_round_indices_match_values(self, grid):
        # against the nearest axis value found by brute force on each
        # coordinate, on random points and on the grid's own points
        shape = 100 if grid.d == 1 else (100, grid.d)
        xs = np.concatenate([np.random.default_rng(1).uniform(-1, 1, shape), grid.points])
        axis = Grid.uniform(grid.half_steps).points
        nearest = axis[np.argmin(np.abs(xs[..., None] - axis), axis=-1)]
        idx = grid_round_indices(xs, grid)
        assert np.array_equal(grid.points[idx], nearest)
        assert np.array_equal(round_to_grid(xs, grid), nearest)

    def test_tensor_rounding_checks_dimension(self):
        with pytest.raises(ValueError):
            grid_round_indices(np.zeros((4, 3)), Grid.uniform(2, 2))

    @pytest.mark.parametrize("shape", [(4, 2), (4, 1), ()])
    def test_uniform_rounding_checks_dimension(self, shape):
        # a 1-D grid takes (n,) points only: no index per coordinate of
        # (n, d) points, and no (n, 1) column
        with pytest.raises(ValueError, match=r"\(n,\)"):
            grid_round_indices(np.zeros(shape), Grid.uniform(2))
        with pytest.raises(ValueError, match=r"\(n,\)"):
            round_to_grid(np.zeros(shape), Grid.uniform(2))

    def test_chebyshev_nodes_are_not_rounded(self):
        with pytest.raises(ValueError, match="uniform"):
            grid_round_indices(np.zeros(3), Grid.chebyshev(5))

    def test_tensor_round_per_coordinate(self):
        grid = Grid.uniform(2, 2)
        pts = np.array([[0.26, -0.26], [0.25, 0.75]])
        rounded = round_to_grid(pts, grid)
        assert rounded[0] == pytest.approx([0.5, -0.5])
        assert rounded[1] == pytest.approx([0.0, 0.5])


class TestArccosRound:
    def test_node_maps_to_itself(self):
        grid = Grid.chebyshev(5)
        for node in grid.points:
            assert arccos_round(np.array([node]), grid)[0] == node

    def test_endpoint_goes_to_first_node(self):
        grid = Grid.chebyshev(2)
        assert arccos_round(np.array([1.0]), grid)[0] == pytest.approx(math.cos(math.pi / 4))

    def test_tie_takes_smaller_index(self):
        grid = Grid.chebyshev(2)
        # arccos(0) = pi/2 is equidistant from pi/4 and 3pi/4
        assert arccos_round(np.array([0.0]), grid)[0] == pytest.approx(math.cos(math.pi / 4))

    def test_arc_distance_bound(self):
        rng = np.random.default_rng(31)
        for g in (3, 8, 41):
            grid = Grid.chebyshev(g)
            xs = rng.uniform(-1, 1, 10_000)
            ys = arccos_round(xs, grid)
            assert np.max(np.abs(np.arccos(xs) - np.arccos(ys))) <= math.pi / (2 * g) + 1e-12


class TestRoundingTransportBound:
    @pytest.mark.parametrize("en", [3, 10, 57])
    def test_w1_of_rounding(self, en):
        rng = np.random.default_rng(en)
        data = rng.uniform(-1, 1, 500)
        grid = Grid.uniform(en)
        rounded = round_to_grid(data, grid)
        p = DiscreteDistribution.uniform_over(data)
        p_rounded = DiscreteDistribution.uniform_over(rounded)
        assert w1_distance(p, p_rounded) <= 1.0 / (2 * en) + 1e-12
