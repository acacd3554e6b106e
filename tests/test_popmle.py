import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from momentforge.chebyshev import cheb_interpolation_coeffs, coefficient_decay_functional
from momentforge.distributions import DiscreteDistribution
from momentforge.popmle import (
    cheb_to_bernstein,
    cheb_to_bernstein_exact,
    fingerprint,
    naive_estimator,
    npmle_em,
    unit_interval_distribution,
    unit_support,
    w1_unit_interval,
)


def cheb_fraction(m, x):
    """T_m at a Fraction, by the recurrence in exact arithmetic."""
    prev, cur = Fraction(1), x
    if m == 0:
        return prev
    for _ in range(m - 1):
        prev, cur = cur, 2 * x * cur - prev
    return cur


class TestFingerprint:
    def test_counting(self):
        fp = fingerprint([0, 2, 2], t=2)
        assert fp.fractions == pytest.approx([1 / 3, 0.0, 2 / 3])
        assert fp.n_coins == 3

    def test_all_zero(self):
        fp = fingerprint([0, 0, 0, 0], t=3)
        assert fp.fractions == pytest.approx([1, 0, 0, 0])

    def test_matches_independent_tally(self):
        rng = np.random.default_rng(2)
        obs = rng.integers(0, 6, 500)
        fp = fingerprint(obs, t=5)
        tally = {s: int(np.sum(obs == s)) for s in range(6)}
        assert [int(c) for c in fp.counts] == [tally[s] for s in range(6)]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            fingerprint([0, 7], t=5)

    def test_integer_and_whole_float_observations_agree(self):
        obs = np.random.default_rng(4).integers(0, 9, 300)
        counts = fingerprint(obs, t=8).counts
        assert np.array_equal(fingerprint(obs.astype(float), t=8).counts, counts)
        assert np.array_equal(fingerprint(obs.astype(np.uint8), t=8).counts, counts)

    # the range check reads the values, so no float reaches an int64 cast
    # that NumPy would warn about
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "obs,message",
        [
            ([0.0, 1e30], "outside"),
            ([0.0, np.inf], "outside"),
            ([0.0, -1e30], "outside"),
            ([0.0, -np.inf], "outside"),
            ([0.0, np.nan], "integers"),
            ([0.0, 2.5], "integers"),
            (np.array([0, 6]), "outside"),
            (np.array([-1, 2]), "outside"),
        ],
    )
    def test_rejections_raise_no_warning(self, obs, message):
        with pytest.raises(ValueError, match=message):
            fingerprint(np.asarray(obs), t=5)


class TestEm:
    def test_all_heads_single_toss(self):
        fp = fingerprint([1, 1, 1, 1], t=1)
        result = npmle_em(fp, grid_size=11)
        assert unit_support(result.distribution) == pytest.approx([1.0])
        assert result.iterations == 0

    def test_all_tails(self):
        fp = fingerprint([0] * 6, t=3)
        result = npmle_em(fp, grid_size=11)
        assert unit_support(result.distribution) == pytest.approx([0.0])

    def test_monotone_log_likelihood(self):
        rng = np.random.default_rng(5)
        biases = rng.choice([0.2, 0.7], size=400)
        obs = rng.binomial(16, biases)
        result = npmle_em(fingerprint(obs, 16), grid_size=200, tol=1e-5)
        assert np.all(np.diff(result.trace) >= -1e-9)
        assert result.converged
        assert result.max_drift <= 1e-12

    def test_matches_exhaustive_grid_search(self):
        rng = np.random.default_rng(7)
        weights_true = np.array([0.3, 0.5, 0.2])
        biases = rng.choice([0.0, 0.5, 1.0], p=weights_true, size=100)
        obs = rng.binomial(2, biases)
        fp = fingerprint(obs, 2)
        result = npmle_em(fp, grid_size=3, tol=1e-12, max_iters=20000)
        # exhaustive search over the weight simplex in steps of 0.001
        pmf = np.array([[1, 0.25, 0], [0, 0.5, 0], [0, 0.25, 1.0]])
        counts = fp.counts
        best = -np.inf
        steps = np.arange(0, 1001)
        for i in steps:
            w0 = i / 1000
            w1 = (steps[: 1001 - i]) / 1000
            w2 = 1 - w0 - w1
            mix = np.outer(pmf[:, 0], np.full_like(w1, w0)) + np.outer(pmf[:, 1], w1) + np.outer(pmf[:, 2], w2)
            with np.errstate(divide="ignore"):
                ll = counts @ np.log(mix)
            finite = ll[np.isfinite(ll)]
            if finite.size:
                best = max(best, float(np.max(finite)))
        assert result.log_likelihood >= best - 1e-3
        assert result.log_likelihood <= best + 1e-3

    def test_likelihood_at_truth_not_better(self):
        rng = np.random.default_rng(11)
        grid_size = 101
        grid = np.arange(grid_size) / (grid_size - 1)
        true_w = np.zeros(grid_size)
        true_w[30] = 0.6
        true_w[80] = 0.4
        biases = rng.choice(grid, p=true_w, size=3000)
        t = 24
        obs = rng.binomial(t, biases)
        fp = fingerprint(obs, t)
        result = npmle_em(fp, grid_size=grid_size, tol=1e-10)
        # MLE optimality: the fitted value is at least the truth's likelihood
        from momentforge.popmle import _log_binomial_pmf_table

        pmf = np.exp(_log_binomial_pmf_table(t, grid))
        mix = pmf @ true_w
        active = fp.counts > 0
        truth_ll = float(fp.counts[active] @ np.log(mix[active]))
        assert result.log_likelihood >= truth_ll - 1e-6


class TestNaive:
    def test_extremes(self):
        dist = naive_estimator(np.array([0, 8]), t=8)
        assert unit_support(dist) == pytest.approx([0.0, 1.0])
        assert dist.weights == pytest.approx([0.5, 0.5])

    def test_constant_observations(self):
        dist = naive_estimator(np.full(50, 4), t=8)
        target = unit_interval_distribution(np.array([0.5]), np.array([1.0]))
        assert w1_unit_interval(dist, target) == 0.0

    def test_uniform_weights(self):
        obs = np.array([1, 2, 3, 5])
        dist = naive_estimator(obs, t=8)
        assert dist.weights == pytest.approx(np.full(4, 0.25))


class TestW1UnitInterval:
    def test_endpoints(self):
        p = unit_interval_distribution(np.array([0.0]), np.array([1.0]))
        q = unit_interval_distribution(np.array([1.0]), np.array([1.0]))
        assert w1_unit_interval(p, q) == pytest.approx(1.0)

    def test_halves_ambient_distance(self):
        from momentforge.distributions import w1_distance

        rng = np.random.default_rng(3)
        p = unit_interval_distribution(rng.uniform(0, 1, 5), rng.dirichlet(np.ones(5)))
        q = unit_interval_distribution(rng.uniform(0, 1, 4), rng.dirichlet(np.ones(4)))
        assert w1_unit_interval(p, q) == pytest.approx(0.5 * w1_distance(p, q))

    def test_against_transport_lp(self):
        from scipy.optimize import linprog

        rng = np.random.default_rng(13)
        xs = rng.uniform(0, 1, 4)
        ys = rng.uniform(0, 1, 5)
        pw = rng.dirichlet(np.ones(4))
        qw = rng.dirichlet(np.ones(5))
        cost = np.abs(xs[:, None] - ys[None, :]).ravel()
        a_eq = []
        for i in range(4):
            row = np.zeros((4, 5))
            row[i] = 1
            a_eq.append(row.ravel())
        for j in range(5):
            row = np.zeros((4, 5))
            row[:, j] = 1
            a_eq.append(row.ravel())
        res = linprog(cost, A_eq=np.asarray(a_eq), b_eq=np.concatenate([pw, qw]), method="highs")
        p = unit_interval_distribution(xs, pw)
        q = unit_interval_distribution(ys, qw)
        assert w1_unit_interval(p, q) == pytest.approx(res.fun, abs=1e-8)


class TestBernstein:
    def test_degree_one_by_hand(self):
        # T_1(2x - 1) = 2x - 1 = -B_0^1(x) + B_1^1(x)
        conv = cheb_to_bernstein(1, 1)
        assert conv.values == pytest.approx([-1.0, 1.0])

    def test_smallest_strict_pair(self):
        exact = cheb_to_bernstein_exact(2, 1)
        assert exact[0] == Fraction(-1)
        assert exact[-1] == Fraction(1)

    def test_shifted_identity_coefficients(self):
        # T_1(2x-1) expanded in degree-t Bernstein polynomials has
        # coefficients -1 + 2j/t
        for t in (2, 3, 7):
            exact = cheb_to_bernstein_exact(t, 1)
            for j, c in enumerate(exact):
                assert c == Fraction(2 * j, t) - 1

    @pytest.mark.parametrize("t,m", [(5, 1), (5, 4), (12, 7), (20, 19), (30, 11)])
    def test_exact_reconstruction(self, t, m):
        exact = cheb_to_bernstein_exact(t, m)
        # common denominator form: C(t,m,j) * B_j^t(x) has integer weight
        # num_j = C * comb(t, j) against x^j (1-x)^(t-j)
        nums = [c * math.comb(t, j) for j, c in enumerate(exact)]
        assert all(v.denominator == 1 for v in nums)
        for a in range(0, 101, 7):
            x = Fraction(a, 100)
            recon = sum(int(nums[j]) * x**j * (1 - x) ** (t - j) for j in range(t + 1))
            target = cheb_fraction(m, 2 * x - 1)
            assert recon == target

    def test_coefficient_bound_spot(self):
        for t, m in [(10, 3), (17, 16), (40, 25)]:
            conv = cheb_to_bernstein(t, m)
            assert np.max(np.abs(conv.values)) <= conv.coefficient_bound()

    def test_rejects_degenerate_degrees(self):
        with pytest.raises(ValueError):
            cheb_to_bernstein(5, 6)
        with pytest.raises(ValueError):
            cheb_to_bernstein(5, 0)


class TestShiftedDecay:
    def test_lipschitz_on_unit_interval(self):
        # pull f on [0,1] back to [-1,1] and bound the coefficient energy
        functions = [
            lambda y: np.abs(y - 0.4),
            lambda y: np.sin(3 * y) / 3,
            lambda y: np.minimum(y, 0.6),
        ]
        for fn in functions:
            pulled = lambda x: fn((x + 1) / 2)
            coeffs = cheb_interpolation_coeffs(pulled, 200)
            assert coefficient_decay_functional(coeffs) <= 2 * math.pi
