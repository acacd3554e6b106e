import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtri
from scipy.stats import norm as scipy_norm

from momentforge import dpsynth
from momentforge._normal import seeded_standard_normals
from momentforge.chebyshev import cheb_t_table
from momentforge.distributions import (
    DiscreteDistribution,
    Grid,
    cheb_moments,
    cheb_moments_multi,
    multi_index_array,
    multi_moment_normalizers,
    round_to_grid,
    w1_distance,
)
from momentforge.dpsynth import (
    NoisyMoments,
    PrivacyBudget,
    dp_synthesize,
    dp_synthesize_multi,
    expected_error_curve,
    gaussian_mechanism_delta,
    gaussian_noise_vector,
    high_probability_bound,
    norm_inverse_sum,
    norm_inverse_sum_bound,
    sensitivity_sq_bound,
    synthesize_from_noisy_moments,
)


def scaled_moment_release(data, k):
    """The vector whose sensitivity the bound controls: entries
    j^{-1/2} * mean of normalized T_j over the dataset."""
    p = DiscreteDistribution.uniform_over(np.asarray(data, dtype=float))
    normalized = cheb_moments(p, k).values * math.sqrt(2.0 / math.pi)
    return normalized / np.sqrt(np.arange(1, k + 1))


def scaled_tensor_release(points, m):
    """The tensor release whitened by its noise schedule: entries
    ||K||^{-1/2} * mean of the normalized T_K over the (n, d) points."""
    release = exact_tensor_release(points, m)
    return release.values / np.sqrt(np.linalg.norm(release.indices, axis=1))


def tensor_sensitivity_sq_bound(n, m, d):
    """D^2 = 2^(d+1) norm_inverse_sum(m, d) / (pi^d n^2), the squared l2
    sensitivity the tensor noise schedule is calibrated to."""
    return 2.0 ** (d + 1) * norm_inverse_sum(m, d) / (math.pi**d * n**2)


def exact_release(data, k):
    """The zero-variance 1-D release of the dataset's own moments."""
    p = DiscreteDistribution.uniform_over(data)
    values = cheb_moments(p, k).values * math.sqrt(2.0 / math.pi)
    return NoisyMoments(values=values, variances=np.zeros(k), indices=multi_index_array(k, 1))


def exact_tensor_release(points, m):
    """The zero-variance tensor release of the (n, d) points' own moments."""
    d = points.shape[1]
    indices = multi_index_array(m, d)
    p = DiscreteDistribution.uniform_over(points)
    values = cheb_moments_multi(p, m).values * multi_moment_normalizers(indices, d)
    return NoisyMoments(values=values, variances=np.zeros(indices.shape[0]), indices=indices)


class TestSensitivity:
    def test_single_point_single_moment(self):
        assert sensitivity_sq_bound(1, 1) == pytest.approx(8 / math.pi)

    def test_formula_evaluation(self):
        expected = 8 * (1 + math.log(10)) / (math.pi * 100**2)
        assert sensitivity_sq_bound(100, 10) == pytest.approx(expected)

    def test_inverse_square_scaling(self):
        assert sensitivity_sq_bound(64, 12) == pytest.approx(sensitivity_sq_bound(32, 12) / 4)

    def test_bounds_neighboring_datasets(self):
        rng = np.random.default_rng(3)
        n, k = 40, 16
        bound = math.sqrt(sensitivity_sq_bound(n, k))
        for _ in range(25):
            data = rng.uniform(-1, 1, n)
            other = data.copy()
            other[rng.integers(0, n)] = rng.uniform(-1, 1)
            diff = scaled_moment_release(data, k) - scaled_moment_release(other, k)
            assert np.linalg.norm(diff) <= bound + 1e-12

    @pytest.mark.parametrize("d,m", [(2, 9), (3, 5)])
    def test_tensor_bound_neighboring_datasets(self, d, m):
        rng = np.random.default_rng(30 + d)
        n = 40
        bound = math.sqrt(tensor_sensitivity_sq_bound(n, m, d))
        for _ in range(25):
            data = rng.uniform(-1, 1, (n, d))
            other = data.copy()
            other[rng.integers(0, n)] = rng.uniform(-1, 1, d)
            diff = scaled_tensor_release(data, m) - scaled_tensor_release(other, m)
            assert np.linalg.norm(diff) <= bound + 1e-12

    @pytest.mark.parametrize("d,m_max", [(2, 32), (3, 16)])
    def test_tensor_bound_corner_pairs(self, d, m_max):
        # two corners of [-1, 1]^d as the one differing point: the worst
        # pairs on the grid, whose D^2 rises towards the bound from below;
        # also at the pipeline's largest documented degree,
        # m = ceil(2 (eps n)^{1/d}) at eps = 0.5 and n = 10^5 (448 and 74)
        corners = np.array(np.meshgrid(*([[-1.0, 1.0]] * d), indexing="ij")).reshape(d, -1).T
        largest = math.ceil(2.0 * (0.5 * 10**5) ** (1.0 / d))
        for m in [*range(2, m_max + 1), largest]:
            bound_sq = tensor_sensitivity_sq_bound(1, m, d)
            release = np.array([scaled_tensor_release(c[None, :], m) for c in corners])
            for a in range(len(corners)):
                for b in range(a + 1, len(corners)):
                    diff_sq = float(np.sum((release[a] - release[b]) ** 2))
                    assert diff_sq <= bound_sq * (1.0 + 1e-12), (m, corners[a], corners[b])


class TestNoise:
    def test_seed_determinism(self):
        a, va = gaussian_noise_vector(multi_index_array(16, 1), 0.5, seed=123)
        b, vb = gaussian_noise_vector(multi_index_array(16, 1), 0.5, seed=123)
        assert np.array_equal(a, b)
        assert np.array_equal(va, vb)
        c, _ = gaussian_noise_vector(multi_index_array(16, 1), 0.5, seed=124)
        assert not np.array_equal(a, c)

    def test_zero_variance_gives_zeros(self):
        draws, variances = gaussian_noise_vector(multi_index_array(8, 1), 0.0, seed=1)
        assert np.all(draws == 0)
        assert np.all(variances == 0)

    def test_variance_schedule(self):
        sigma2 = 0.3
        _, variances = gaussian_noise_vector(multi_index_array(5, 1), sigma2, seed=0)
        assert variances == pytest.approx(sigma2 * np.arange(1, 6))

    def test_multi_index_variances(self):
        _, variances = gaussian_noise_vector([(1, 0), (2, 2)], 2.0, seed=0)
        assert variances == pytest.approx([2.0, 2.0 * math.sqrt(8)])

    def test_multi_index_array_matches_tuple_loop(self):
        # an index array and its tuples give the same bytes as the
        # per-tuple sqrt(sum of squares) loop
        indices = multi_index_array(16, 3)
        tuples = [tuple(K) for K in indices.tolist()]
        sigma2 = 0.37
        want = sigma2 * np.array([math.sqrt(sum(v * v for v in K)) for K in tuples])
        for given_indices in (indices, tuples):
            draws, variances = gaussian_noise_vector(given_indices, sigma2, seed=5)
            assert variances.tobytes() == want.tobytes()
            assert draws.tobytes() == (seeded_standard_normals(5, want.size) * np.sqrt(want)).tobytes()

    def test_empirical_variance_degree_four(self):
        # one million draws at index 4: chi-square concentration keeps the
        # sample variance within 2% of 4 sigma^2
        sigma2 = 0.7
        draws = seeded_standard_normals(77, 1_000_000) * math.sqrt(4 * sigma2)
        assert np.var(draws) == pytest.approx(4 * sigma2, rel=0.02)
        # and across mechanism seeds the per-index draws follow the schedule
        samples = np.array(
            [gaussian_noise_vector(multi_index_array(4, 1), sigma2, seed=s)[0][3] for s in range(4000)]
        )
        assert np.var(samples) == pytest.approx(4 * sigma2, rel=0.1)

    def test_inverse_cdf_matches_reference(self):
        u = np.linspace(1e-12, 1 - 1e-12, 4001)
        assert ndtri(u) == pytest.approx(scipy_norm.ppf(u), abs=1e-9)


class TestBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            PrivacyBudget(epsilon=0.0, delta=0.1)
        with pytest.raises(ValueError):
            PrivacyBudget(epsilon=0.5, delta=1.0)

    def test_sigma2_formula(self):
        budget = PrivacyBudget(epsilon=0.5, delta=1e-6)
        n, k = 1000, 1000
        expected = (16 / math.pi) * (1 + math.log(k)) * math.log(1.25e6) / (0.25 * n**2)
        assert budget.sigma2(n, multi_index_array(k, 1)) == pytest.approx(expected)

    def test_sigma2_is_twice_sensitivity_rule(self):
        budget = PrivacyBudget(epsilon=0.3, delta=1e-5)
        n, k = 500, 300
        gaussian_rule = 2 * sensitivity_sq_bound(n, k) * math.log(1.25 / budget.delta) / budget.epsilon**2
        assert budget.sigma2(n, multi_index_array(k, 1)) == pytest.approx(gaussian_rule)


class TestPrivacyGuarantee:
    """The exact delta of the Gaussian mechanism (Balle and Wang 2018)
    that each release's noise gives, against its budget."""

    NS = (2, 128, 8192, 10**5)
    EPSILONS = (0.05, 0.5, 1.0)

    @staticmethod
    def deltas(n):
        return (1e-12, 1.0 / n**2, 0.1, 0.99)

    @pytest.mark.parametrize(
        "sigma,sensitivity,epsilon",
        [(1.0, 1.0, 0.5), (0.3, 1.0, 1.0), (2.0, 0.5, 0.05), (1.0, 2.0, 0.0)],
    )
    def test_matches_hockey_stick_integral(self, sigma, sensitivity, epsilon):
        # delta(eps) = integral of max(p - e^eps q, 0) for p = N(D, sigma^2), q = N(0, sigma^2)
        def excess(x):
            p = scipy_norm.pdf(x, sensitivity, sigma)
            q = scipy_norm.pdf(x, 0.0, sigma)
            return max(p - math.exp(epsilon) * q, 0.0)

        # the integrand is positive above x0 = D/2 + eps sigma^2/D
        x0 = sensitivity / 2.0 + epsilon * sigma**2 / sensitivity
        want = quad(excess, x0, np.inf, epsabs=1e-14, epsrel=1e-12)[0]
        got = gaussian_mechanism_delta(sigma, sensitivity, epsilon)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-15)

    def test_rejects_nonpositive_scales(self):
        with pytest.raises(ValueError):
            gaussian_mechanism_delta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            gaussian_mechanism_delta(1.0, 0.0, 0.5)

    @pytest.mark.parametrize("n", NS)
    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_one_d_release_meets_budget(self, n, epsilon):
        k = max(1, math.ceil(2.0 * epsilon * n))
        sensitivity = math.sqrt(sensitivity_sq_bound(n, k))
        for delta in self.deltas(n):
            sigma = math.sqrt(PrivacyBudget(epsilon, delta).sigma2(n, multi_index_array(k, 1)))
            assert 0.0 <= gaussian_mechanism_delta(sigma, sensitivity, epsilon) <= delta

    @pytest.mark.parametrize("n", NS)
    @pytest.mark.parametrize("epsilon", EPSILONS)
    @pytest.mark.parametrize("d", [2, 3])
    def test_tensor_release_meets_budget(self, n, epsilon, d):
        m = math.ceil(2.0 * (epsilon * n) ** (1.0 / d))
        sensitivity = math.sqrt(2.0 * 2.0**d * norm_inverse_sum(m, d) / (math.pi**d * n**2))
        for delta in self.deltas(n):
            sigma = math.sqrt(PrivacyBudget(epsilon, delta).sigma2(n, multi_index_array(m, d)))
            assert 0.0 <= gaussian_mechanism_delta(sigma, sensitivity, epsilon) <= delta


class TestErrorCurves:
    def test_doubling_n_roughly_halves(self):
        a = expected_error_curve(1024, 0.5, 1e-6)
        b = expected_error_curve(2048, 0.5, 1e-6)
        assert 0.4 < b / a < 0.65

    def test_formula_value(self):
        n, eps = 1024, 0.5
        delta = 1.0 / n**2
        expected = math.log(eps * n) * math.sqrt(math.log(1 / delta)) / (eps * n)
        assert expected_error_curve(n, eps, delta) == pytest.approx(expected)

    def test_delta_monotonicity(self):
        # looser delta shrinks the bound
        tight = expected_error_curve(512, 0.5, 1e-8)
        loose = expected_error_curve(512, 0.5, 1e-2)
        assert loose < tight

    def test_hp_bound_exceeds_mean_curve(self):
        n, eps, delta = 1024, 0.5, 1e-6
        assert high_probability_bound(n, eps, delta, 0.05) > 0


class TestPipeline1D:
    def test_noiseless_grid_aligned_recovery(self):
        rng = np.random.default_rng(5)
        budget = PrivacyBudget(epsilon=0.5, delta=0.01)
        n = 40
        grid = Grid.uniform(math.ceil(budget.epsilon * n))
        data = grid.points[rng.integers(0, grid.size, n)]
        k = math.ceil(2 * budget.epsilon * n)
        dist, solution = synthesize_from_noisy_moments(exact_release(data, k))
        p = DiscreteDistribution.uniform_over(data)
        assert w1_distance(p, dist) <= 36.0 / k + 1e-6
        assert math.sqrt(solution.objective) <= 1e-7

    def test_report_parameters(self):
        budget = PrivacyBudget(epsilon=0.5, delta=0.01)
        data = np.linspace(-1, 1, 30)
        result = dp_synthesize(data, budget, seed=7)
        en = budget.epsilon * 30
        assert result.report.k == math.ceil(2 * en)
        assert result.report.r == 2 * math.ceil(en) + 1
        assert result.report.sigma2 == pytest.approx(budget.sigma2(30, multi_index_array(result.report.k, 1)))
        assert result.report.rounding_bound == pytest.approx(1 / (2 * math.ceil(en)))

    def test_mechanism_seed_determinism(self):
        budget = PrivacyBudget(epsilon=0.5, delta=0.01)
        data = np.random.default_rng(1).uniform(-1, 1, 64)
        a = dp_synthesize(data, budget, seed=42)
        b = dp_synthesize(data, budget, seed=42)
        assert np.array_equal(a.distribution.support, b.distribution.support)
        assert np.array_equal(a.distribution.weights, b.distribution.weights)
        assert np.array_equal(a.noisy_moments.values, b.noisy_moments.values)

    def test_replay_from_noisy_moments_only(self):
        # the released object is a function of (noisy moments, public
        # parameters): replay without the raw data, bitwise-identical
        budget = PrivacyBudget(epsilon=0.5, delta=0.01)
        data = np.random.default_rng(2).uniform(-1, 1, 50)
        result = dp_synthesize(data, budget, seed=9)
        replay = NoisyMoments(
            values=result.noisy_moments.values.copy(),
            variances=result.noisy_moments.variances.copy(),
            indices=result.noisy_moments.indices.copy(),
        )
        dist, _ = synthesize_from_noisy_moments(replay)
        assert np.array_equal(dist.support, result.distribution.support)
        assert np.array_equal(dist.weights, result.distribution.weights)

    def test_clamping_counted(self):
        budget = PrivacyBudget(epsilon=0.5, delta=0.01)
        data = np.concatenate([np.linspace(-0.5, 0.5, 28), [1.7, -2.0]])
        result = dp_synthesize(data, budget, seed=3)
        assert result.report.clamped == 2

    def test_degenerate_grid_rejected(self):
        budget = PrivacyBudget(epsilon=0.01, delta=0.01)
        with pytest.raises(ValueError):
            dp_synthesize(np.array([0.1, 0.2]), budget, seed=0)

    def test_eps_n_of_one_rejected_before_the_fit(self, monkeypatch):
        def no_fit(*args):
            raise AssertionError("the fit ran")

        budget = PrivacyBudget(epsilon=0.5, delta=0.01)
        with monkeypatch.context() as patch:
            patch.setattr(dpsynth, "_fit_grid", no_fit)
            with pytest.raises(ValueError, match="epsilon \\* n must exceed 1"):
                dp_synthesize(np.array([0.1, 0.2]), budget, seed=0)
        assert dp_synthesize(np.array([0.1, 0.2, 0.3]), budget, seed=0).report.n == 3

    def test_nufft_fit_converges_exactly(self):
        # eps n = 1000 gives a k x r map of 2000 x 2001 entries, applied as
        # a NUFFT with rounding of its own; the fit must still certify the
        # optimum of the dense float64 table on its own
        budget = PrivacyBudget(epsilon=0.5, delta=1e-4)
        data = np.random.default_rng(6).uniform(-1, 1, 2000)
        result = dp_synthesize(data, budget, seed=5)
        k, r = result.report.k, result.report.r
        assert (k, r) == (2000, 2001)
        assert result.report.converged
        grid = Grid.uniform(math.ceil(budget.epsilon * 2000))
        z = np.zeros(r)
        z[np.searchsorted(grid.points, result.distribution.support)] = result.distribution.weights
        rows = cheb_t_table(k, grid.points)[1:]
        target = result.noisy_moments.values * math.sqrt(math.pi / 2.0)
        weights = 1.0 / np.arange(1, k + 1) ** 2
        grad = 2.0 * rows.T @ (weights * (rows @ z - target))
        assert grad @ z - grad.min() <= 1e-12

    def test_noise_schedule_empirical(self):
        # variance of the released noise matches j * sigma^2 across seeds
        budget = PrivacyBudget(epsilon=0.5, delta=0.01)
        data = np.random.default_rng(4).uniform(-1, 1, 20)
        sigma2 = budget.sigma2(20, multi_index_array(20, 1))
        grid = Grid.uniform(10)
        p = DiscreteDistribution.uniform_over(round_to_grid(data, grid))
        exact = cheb_moments(p, 20).values * math.sqrt(2.0 / math.pi)
        draws = []
        for seed in range(4000):
            result = dp_synthesize(data, budget, seed=seed)
            draws.append(result.noisy_moments.values - exact)
        draws = np.asarray(draws)
        j = np.arange(1, 21)
        ratio = np.var(draws, axis=0) / (j * sigma2)
        assert np.all(np.abs(ratio - 1) < 0.2)


class TestNormSum:
    def test_hand_enumeration_d2_m2(self):
        expected = 2 * 1.0 + 2 * 0.5 + 1 / math.sqrt(2) + 2 / math.sqrt(5) + 1 / (2 * math.sqrt(2))
        assert norm_inverse_sum(2, 2) == pytest.approx(expected, abs=1e-12)

    def test_small_d3(self):
        expected = 3 + 3 / math.sqrt(2) + 1 / math.sqrt(3)
        assert norm_inverse_sum(1, 3) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_bound_over_algorithmic_range(self, d):
        # the pipeline always produces m >= 2 (m = ceil(2 (eps n)^{1/d}))
        for m in range(2, 41):
            assert norm_inverse_sum(m, d) <= norm_inverse_sum_bound(m, d)

    def test_bound_d2_holds_from_one(self):
        assert norm_inverse_sum(1, 2) <= norm_inverse_sum_bound(1, 2)


class TestPipelineMulti:
    def test_noiseless_grid_aligned_2d(self):
        rng = np.random.default_rng(8)
        budget = PrivacyBudget(epsilon=0.5, delta=0.01)
        n = 32
        root = (budget.epsilon * n) ** 0.5
        grid = Grid.tensor_uniform(math.ceil(root), 2)
        data = grid.points[rng.integers(0, grid.points.shape[0], n)]
        m = math.ceil(2 * root)
        dist, solution = synthesize_from_noisy_moments(exact_tensor_release(data, m))
        assert math.sqrt(solution.objective) <= 1e-8
        assert dist.d == 2

    def test_sigma2_uses_exact_norm_sum(self):
        budget = PrivacyBudget(epsilon=0.5, delta=0.01)
        rng = np.random.default_rng(9)
        data = rng.uniform(-1, 1, (32, 2))
        result = dp_synthesize(data, budget, seed=1)
        n = 32
        root = (budget.epsilon * n) ** 0.5
        m = math.ceil(2 * root)
        s = norm_inverse_sum(m, 2)
        expected = (4 * 2**2 / math.pi**2) * s * math.log(1.25 / budget.delta) / (n**2 * budget.epsilon**2)
        assert result.report.sigma2 == pytest.approx(expected)
        assert result.report.norm_sum == pytest.approx(s)
        assert result.report.rounding_bound == pytest.approx(2 / (2 * math.ceil(root)))

    def test_rejects_bad_dimension(self):
        budget = PrivacyBudget(epsilon=0.5, delta=0.01)
        with pytest.raises(ValueError):
            dp_synthesize(np.zeros((10, 4)), budget, seed=0)

    def test_release_indices_are_a_read_only_array(self):
        budget = PrivacyBudget(epsilon=0.5, delta=0.01)
        data = np.random.default_rng(11).uniform(-1, 1, (24, 3))
        noisy = dp_synthesize(data, budget, seed=4).noisy_moments
        m = math.ceil(2 * (budget.epsilon * 24) ** (1 / 3))
        assert noisy.indices.dtype == np.int64
        assert np.array_equal(noisy.indices, multi_index_array(m, 3))
        assert noisy.indices.shape == (noisy.k, 3)
        assert not noisy.indices.flags.writeable

    def test_multi_name_checks_the_shape_and_delegates(self):
        budget = PrivacyBudget(epsilon=0.5, delta=0.01)
        data = np.random.default_rng(15).uniform(-1.1, 1.1, (40, 2))
        a, b = dp_synthesize(data, budget, seed=8), dp_synthesize_multi(data, budget, seed=8)
        assert a.distribution.weights.tobytes() == b.distribution.weights.tobytes()
        assert a.noisy_moments.values.tobytes() == b.noisy_moments.values.tobytes()
        assert repr(a.report) == repr(b.report)  # NaN bounds: compare the text
        for flat in (data[:, 0], data[:, :1]):
            with pytest.raises(ValueError, match="d in"):
                dp_synthesize_multi(flat, budget, seed=8)

    def test_column_vector_is_not_one_d_data(self):
        budget = PrivacyBudget(epsilon=0.5, delta=0.01)
        with pytest.raises(ValueError, match="d in"):
            dp_synthesize(np.zeros((10, 1)), budget, seed=0)

    def test_noise_variance_schedule(self):
        budget = PrivacyBudget(epsilon=0.5, delta=0.01)
        rng = np.random.default_rng(10)
        data = rng.uniform(-1, 1, (24, 2))
        result = dp_synthesize(data, budget, seed=2)
        sigma2 = result.report.sigma2
        for K, var in zip(result.noisy_moments.indices, result.noisy_moments.variances):
            assert var == pytest.approx(sigma2 * math.sqrt(sum(v * v for v in K)))


class TestReplay:
    """`synthesize_from_noisy_moments` is the one fit of both pipelines: a
    release rebuilt from its values, variances and indices alone fixes its
    own grid and replays bit for bit."""

    @pytest.mark.parametrize(
        "d,n", [(1, 50), (1, 51), (1, 1024), (2, 64), (2, 1024), (3, 64), (3, 1024)]
    )
    def test_replay_matches_pipeline(self, d, n):
        budget = PrivacyBudget(epsilon=0.5, delta=1.0 / n**2)
        rng = np.random.default_rng([n, d])
        data = rng.uniform(-1, 1, n) if d == 1 else rng.uniform(-1, 1, (n, d))
        result = dp_synthesize(data, budget, seed=n)
        released = result.noisy_moments
        replay = NoisyMoments(
            values=released.values.copy(),
            variances=released.variances.copy(),
            indices=released.indices.copy(),
        )
        dist, solution = synthesize_from_noisy_moments(replay)
        assert dist.support.tobytes() == result.distribution.support.tobytes()
        assert dist.weights.tobytes() == result.distribution.weights.tobytes()
        assert solution.objective == result.report.objective
        assert solution.iterations == result.report.iterations

    def test_one_d_release_carries_rows_one_to_k(self):
        budget = PrivacyBudget(epsilon=0.5, delta=0.01)
        noisy = dp_synthesize(np.random.default_rng(13).uniform(-1, 1, 50), budget, seed=3).noisy_moments
        assert noisy.indices.dtype == np.int64
        assert np.array_equal(noisy.indices, np.arange(1, 51)[:, None])
        assert np.array_equal(noisy.indices, multi_index_array(50, 1))
        assert not noisy.indices.flags.writeable

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_one_d_replay_rejects_other_indices(self, shift):
        # rows 0..k-1 or 2..k+1 in place of 1..k: not multi_index_array(m, 1)
        budget = PrivacyBudget(epsilon=0.5, delta=0.01)
        noisy = dp_synthesize(np.random.default_rng(14).uniform(-1, 1, 40), budget, seed=2).noisy_moments
        other = NoisyMoments(values=noisy.values, variances=noisy.variances, indices=noisy.indices + shift)
        with pytest.raises(ValueError):
            synthesize_from_noisy_moments(other)

    def test_release_shape_checks(self):
        with pytest.raises(ValueError, match="one row per value"):
            NoisyMoments(values=np.ones(3), variances=np.zeros(3), indices=np.arange(1, 4))
        with pytest.raises(ValueError, match="one row per value"):
            NoisyMoments(values=np.ones(3), variances=np.zeros(3), indices=multi_index_array(2, 1))
        with pytest.raises(ValueError, match="finite"):
            NoisyMoments(values=[0.1, np.nan], variances=np.zeros(2), indices=multi_index_array(2, 1))

    def test_tensor_replay_rejects_other_indices(self):
        budget = PrivacyBudget(epsilon=0.5, delta=0.01)
        data = np.random.default_rng(12).uniform(-1, 1, (32, 2))
        noisy = dp_synthesize(data, budget, seed=6).noisy_moments
        reordered = NoisyMoments(
            values=noisy.values[::-1], variances=noisy.variances[::-1], indices=noisy.indices[::-1]
        )
        with pytest.raises(ValueError):
            synthesize_from_noisy_moments(reordered)
