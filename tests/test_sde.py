import math

import numpy as np
import pytest

from oracles import exact_spectral_density, jacobi_eigenvalues

from momentforge.chebyshev import cheb_t_table
from momentforge.distributions import DiscreteDistribution, w1_distance
from momentforge.sde import (
    LinearOperator,
    SdeConfig,
    estimate_spectral_density,
    hutchinson_cheb_moments,
    power_method_bound,
    probe_schedule,
    schedule_matvec_cost,
    matvec_budget,
)


def random_symmetric(rng, n, norm_one=True):
    a = rng.normal(size=(n, n))
    a = 0.5 * (a + a.T)
    if norm_one:
        a /= np.max(np.abs(np.linalg.eigvalsh(a)))
    return a


def char_poly_sign(a, lam):
    sign, _ = np.linalg.slogdet(a - lam * np.eye(a.shape[0]))
    return sign


def bisect_eigenvalue(a, lo, hi, tol=1e-10):
    """Independent oracle: bisection on the determinant sign change."""
    s_lo = char_poly_sign(a, lo)
    assert s_lo != char_poly_sign(a, hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        s_mid = char_poly_sign(a, mid)
        if s_mid == s_lo or s_mid == 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestLinearOperator:
    def test_counts_single_and_block(self):
        op = LinearOperator.from_dense(np.eye(3))
        op.apply(np.ones(3))
        op.apply_block(np.ones((3, 5)))
        assert op.matvec_count == 6

    def test_scaled_shares_counter(self):
        op = LinearOperator.from_dense(2 * np.eye(3))
        half = op.scaled(0.5)
        out = half.apply(np.ones(3))
        assert out == pytest.approx(np.ones(3))
        assert op.matvec_count == 1
        assert half.matvec_count == 1

    def test_linearity_and_symmetry_spot_check(self):
        rng = np.random.default_rng(0)
        a = random_symmetric(rng, 8, norm_one=False)
        op = LinearOperator.from_dense(a)
        x, y = rng.normal(size=8), rng.normal(size=8)
        assert op.apply(2 * x + y) == pytest.approx(2 * op.apply(x) + op.apply(y), abs=1e-10)
        assert op.apply(x) @ y == pytest.approx(x @ op.apply(y), abs=1e-8)

    def test_diagonal_operator(self):
        op = LinearOperator.from_diagonal(np.array([1.0, -2.0]))
        assert op.apply(np.array([3.0, 3.0])) == pytest.approx([3.0, -6.0])


class TestPowerMethod:
    def test_identity_gives_two(self):
        op = LinearOperator.from_dense(np.eye(8))
        bound = power_method_bound(op, iters=10, seed=0)
        assert bound.value == pytest.approx(2.0)
        assert 1.0 <= bound.value <= 2.0 + 1e-12

    def test_diagonal_brackets_norm(self):
        op = LinearOperator.from_diagonal(np.array([3.0, 1.0]))
        bound = power_method_bound(op, iters=60, seed=1)
        assert 3.0 <= bound.value <= 6.0

    def test_homogeneous_scaling(self):
        rng = np.random.default_rng(5)
        a = random_symmetric(rng, 16, norm_one=False)
        s1 = power_method_bound(LinearOperator.from_dense(a), iters=25, seed=3).value
        s2 = power_method_bound(LinearOperator.from_dense(2 * a), iters=25, seed=3).value
        assert s2 == pytest.approx(2 * s1, rel=1e-12)

    def test_zero_operator_flagged(self):
        op = LinearOperator.from_dense(np.zeros((4, 4)))
        bound = power_method_bound(op, iters=5, seed=0)
        assert bound.is_zero
        assert bound.value == 1e-30

    def test_random_matrices_bracket(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            a = random_symmetric(rng, 32, norm_one=False)
            true_norm = np.max(np.abs(np.linalg.eigvalsh(a)))
            got = power_method_bound(
                LinearOperator.from_dense(a), iters=10 * math.ceil(math.log(32)) + 20, seed=trial
            ).value
            assert true_norm * (1 - 1e-6) <= got <= 2 * true_norm + 1e-12


class TestSchedule:
    def test_formula(self):
        n, k, gamma, alpha, c = 64, 8, 0.1, 0.01, 16.0
        schedule = probe_schedule(n, k, gamma, alpha, c)
        j = np.arange(1, 9)
        expected = np.ceil(1 + c * math.log(1 / alpha) ** 2 / (n * j * gamma**2))
        assert np.array_equal(schedule, expected.astype(int))
        assert np.all(np.diff(schedule) <= 0)

    def test_zero_constant_means_single_probe(self):
        schedule = probe_schedule(64, 8, 0.1, 0.01, 0.0)
        assert np.all(schedule == 1)
        assert schedule_matvec_cost(schedule) == 8


class TestHutchinson:
    def _cfg(self, seed=0, C=0.0):
        return SdeConfig(epsilon=0.5, delta=0.1, seed=seed, probe_constant=C, degree_constant=8)

    def test_identity_is_exact(self):
        op = LinearOperator.from_dense(np.eye(16))
        moments, used, _ = hutchinson_cheb_moments(op, self._cfg(), k=6)
        assert moments.values == pytest.approx(np.ones(6), abs=0)

    def test_sign_diagonal_even_moments(self):
        diag = np.array([1.0, -1.0] * 8)
        op = LinearOperator.from_diagonal(diag)
        moments, _, _ = hutchinson_cheb_moments(op, self._cfg(seed=4), k=8)
        assert moments.values[1::2] == pytest.approx(np.ones(4), abs=0)

    def test_matvec_accounting(self):
        rng = np.random.default_rng(6)
        op = LinearOperator.from_dense(random_symmetric(rng, 32))
        cfg = SdeConfig(epsilon=0.5, delta=0.1, seed=1, probe_constant=0.05, degree_constant=8)
        schedule = probe_schedule(32, 16, cfg.gamma, cfg.alpha, cfg.probe_constant)
        moments, used, reported = hutchinson_cheb_moments(op, cfg, k=16)
        assert np.array_equal(schedule, reported)
        assert used == schedule_matvec_cost(schedule)
        assert op.matvec_count == used

    def test_single_probe_costs_k(self):
        op = LinearOperator.from_dense(np.eye(8))
        cfg = self._cfg()
        moments, used, schedule = hutchinson_cheb_moments(op, cfg, k=12)
        assert np.all(schedule == 1)
        assert used == 12

    def test_unbiasedness(self):
        rng = np.random.default_rng(11)
        a = random_symmetric(rng, 8)
        op = LinearOperator.from_dense(a)
        k = 5
        exact = np.array([np.mean(cheb_t_table(k, np.linalg.eigvalsh(a))[j]) for j in range(1, k + 1)])
        cfg = SdeConfig(epsilon=0.5, delta=0.1, seed=21, probe_constant=0.0, degree_constant=8)
        probes = 100_000
        schedule = np.full(k, probes)
        moments, _, _ = hutchinson_cheb_moments(op, cfg, k=k, schedule=schedule)
        # standard error of the estimator on an 8x8 matrix
        for j in range(k):
            se = math.sqrt(2.0 / (probes * 8))
            assert abs(moments.values[j] - exact[j]) <= 3 * se + 1e-12

    def test_accuracy_event_on_rotated_spectrum(self):
        # per-degree accuracy sqrt(j) gamma holds in nearly all seeded
        # trials; a rotated diagonal keeps the spectrum known while making
        # the trace estimates genuinely stochastic
        rng = np.random.default_rng(13)
        n, k = 64, 8
        diag = rng.uniform(-1, 1, n)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        dense = q @ np.diag(diag) @ q.T
        op = LinearOperator.from_dense(dense)
        exact = np.array([np.mean(cheb_t_table(k, diag)[j]) for j in range(1, k + 1)])
        gamma = 1.0 / (k * math.sqrt(1 + math.log(k)))
        schedule = probe_schedule(n, k, gamma, 0.1 / k, 16.0)
        failures = 0
        trials = 30
        for seed in range(trials):
            cfg = SdeConfig(epsilon=0.5, delta=0.1, seed=seed, probe_constant=16.0, degree_constant=4)
            moments, _, _ = hutchinson_cheb_moments(op, cfg, k=k, schedule=schedule)
            j = np.arange(1, k + 1)
            if np.any(np.abs(moments.values - exact) > np.sqrt(j) * gamma):
                failures += 1
        assert failures == 0  # the schedule puts the event many sigmas deep

    def test_diagonal_probes_are_exact(self):
        # Rademacher probes square to one, so diagonal operators are
        # estimated with zero variance regardless of the schedule
        rng = np.random.default_rng(29)
        diag = rng.uniform(-1, 1, 32)
        op = LinearOperator.from_diagonal(diag)
        cfg = SdeConfig(epsilon=0.5, delta=0.1, seed=3, probe_constant=0.0, degree_constant=8)
        moments, _, _ = hutchinson_cheb_moments(op, cfg, k=10)
        exact = np.array([np.mean(cheb_t_table(10, diag)[j]) for j in range(1, 11)])
        assert moments.values == pytest.approx(exact, abs=1e-12)


class TestJacobi:
    def test_diagonal_matrix(self):
        eigs = jacobi_eigenvalues(np.diag([3.0, -1.0, 0.5]))
        assert eigs == pytest.approx([-1.0, 0.5, 3.0])

    def test_two_by_two_exchange(self):
        dist = exact_spectral_density(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert dist.support == pytest.approx([-1.0, 1.0])
        assert dist.weights == pytest.approx([0.5, 0.5])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            jacobi_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_matches_determinant_bisection(self):
        rng = np.random.default_rng(17)
        a = random_symmetric(rng, 50, norm_one=False)
        eigs = jacobi_eigenvalues(a)
        gaps = np.diff(eigs)
        picks = np.argsort(gaps)[-5:]  # well-separated eigenvalues
        for idx in picks:
            lam = eigs[idx]
            width = 0.45 * min(
                gaps[idx - 1] if idx > 0 else np.inf, gaps[idx] if idx < gaps.size else np.inf
            )
            width = min(width, 1e-3)
            oracle = bisect_eigenvalue(a, lam - width, lam + width)
            assert oracle == pytest.approx(lam, abs=1e-8)

    def test_matches_lapack_on_random(self):
        rng = np.random.default_rng(19)
        a = random_symmetric(rng, 40, norm_one=False)
        assert jacobi_eigenvalues(a) == pytest.approx(np.linalg.eigvalsh(a), abs=1e-9)


class TestEstimatePipeline:
    def test_dense_path_on_small_matrix(self):
        rng = np.random.default_rng(23)
        a = random_symmetric(rng, 32)
        op = LinearOperator.from_dense(a)
        result = estimate_spectral_density(op, epsilon=0.1, delta=0.1, seed=0)
        assert result.report.path == "dense"
        assert result.report.matvecs == 32
        oracle = exact_spectral_density(a)
        assert w1_distance(result.distribution, oracle) <= 1e-9

    def test_tiny_epsilon_forces_dense(self):
        a = np.diag([0.5, -0.5, 0.25, 0.0])
        op = LinearOperator.from_dense(a)
        result = estimate_spectral_density(op, epsilon=0.2, delta=0.1, seed=0)
        assert result.report.path == "dense"
        assert result.report.matvecs == 4

    def test_constant_spectrum_spike(self):
        c = 0.75
        n = 24
        op = LinearOperator.from_dense(c * np.eye(n))
        result = estimate_spectral_density(op, epsilon=0.25, delta=0.1, seed=2)
        spike = DiscreteDistribution.on_real_line(np.array([c]), np.array([1.0]))
        s = max(result.report.norm_bound, abs(c))
        assert w1_distance(result.distribution, spike) <= 0.25 * s + 1e-9

    def _hutchinson_run(self, scale=1.0, seed=5, norm_bound=1.0):
        rng = np.random.default_rng(31)
        n = 192
        diag = rng.uniform(-0.9, 0.9, n)
        op = LinearOperator.from_diagonal(scale * diag)
        return (
            estimate_spectral_density(
                op,
                epsilon=0.5,
                delta=0.2,
                seed=seed,
                norm_bound=norm_bound * scale,
                probe_constant=0.02,
                degree_constant=8.0,
            ),
            diag,
        )

    def test_hutchinson_path_accuracy(self):
        result, diag = self._hutchinson_run()
        assert result.report.path == "hutchinson"
        truth = DiscreteDistribution.on_real_line(np.sort(diag), np.full(diag.size, 1 / diag.size))
        # epsilon * S with the supplied norm bound S = 1
        assert w1_distance(result.distribution, truth) <= 0.5
        assert result.report.lp_feasible

    def test_hutchinson_homogeneity(self):
        base, _ = self._hutchinson_run(scale=1.0)
        doubled, _ = self._hutchinson_run(scale=2.0)
        assert np.array_equal(doubled.distribution.support, 2.0 * base.distribution.support)
        assert np.array_equal(doubled.distribution.weights, base.distribution.weights)

    def test_power_method_stream_independent_of_probes(self):
        # the probes draw from PCG64(seed); the power method must not start
        # from the same stream
        rng = np.random.default_rng(31)
        n, seed = 192, 5
        diag = rng.uniform(-0.9, 0.9, n)
        applied = []

        def matvec(v):
            if v.ndim == 1:
                applied.append(v.copy())
            return diag[:, None] * v if v.ndim == 2 else diag * v

        op = LinearOperator(n, matvec)
        result = estimate_spectral_density(
            op, epsilon=0.5, delta=0.2, seed=seed, probe_constant=0.02, degree_constant=8.0
        )
        assert result.report.path == "hutchinson"
        shared = np.random.Generator(np.random.PCG64(seed)).standard_normal(n)
        start = applied[0]
        assert abs(start @ shared) / np.linalg.norm(shared) < 0.5

    def test_budget_formula(self):
        assert matvec_budget(256, 0.1, 0.1) == pytest.approx(
            min(
                256.0,
                10.0 * (1 + math.log(10.0) ** 2 * math.log(1 / 0.01) ** 2 / (256 * 0.1)),
            )
        )
