import math

import numpy as np
import pytest

from oracles import exact_spectral_density, hutchinson_three_term, jacobi_eigenvalues

from momentforge import sde
from momentforge.chebyshev import cheb_t_table
from momentforge.distributions import DiscreteDistribution, w1_distance
from momentforge.sde import (
    LinearOperator,
    estimate_spectral_density,
    hutchinson_cheb_moments,
    power_iterations,
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
        op.apply_block(np.ones((3, 1)))
        op.apply_block(np.ones((3, 5)))
        assert op.matvec_count == 6

    def test_linearity_and_symmetry_spot_check(self):
        rng = np.random.default_rng(0)
        a = random_symmetric(rng, 8, norm_one=False)
        op = LinearOperator.from_dense(a)
        x, y = rng.normal(size=(8, 1)), rng.normal(size=(8, 1))
        assert op.apply_block(2 * x + y) == pytest.approx(2 * op.apply_block(x) + op.apply_block(y), abs=1e-10)
        assert np.vdot(op.apply_block(x), y) == pytest.approx(np.vdot(x, op.apply_block(y)), abs=1e-8)

    def test_diagonal_operator(self):
        op = LinearOperator.from_diagonal(np.array([1.0, -2.0]))
        assert op.apply_block(np.array([[3.0], [3.0]])) == pytest.approx(np.array([[3.0], [-6.0]]))

    def test_products_are_always_blocks(self):
        # a matvec is only ever given an (n, l) float array: by the power
        # method, the probes and both paths of the pipeline
        rng = np.random.default_rng(59)
        diag = rng.uniform(-0.9, 0.9, 192)
        shapes = []

        def strict(n):
            def matvec(v):
                if not (isinstance(v, np.ndarray) and v.dtype == float and v.ndim == 2 and v.shape[0] == n):
                    raise TypeError(f"matvec given {type(v).__name__} {np.shape(v)}")
                shapes.append(v.shape)
                return diag[:n, None] * v

            return LinearOperator(n, matvec)

        assert power_method_bound(strict(192), iters=5, seed=0) > 0.0
        hutchinson_cheb_moments(strict(192), np.array([3, 2, 2, 1]), 0)
        probe = estimate_spectral_density(
            strict(192), epsilon=0.5, delta=0.2, seed=5, probe_constant=0.02, degree_constant=8.0
        )
        dense = estimate_spectral_density(strict(16), epsilon=0.1, delta=0.1, seed=0)
        assert (probe.report.path, dense.report.path) == ("hutchinson", "dense")
        assert (192, 1) in shapes and (16, 16) in shapes


class TestPowerMethod:
    def test_identity_gives_two(self):
        op = LinearOperator.from_dense(np.eye(8))
        bound = power_method_bound(op, iters=10, seed=0)
        assert bound == pytest.approx(2.0)
        assert 1.0 <= bound <= 2.0 + 1e-12

    def test_diagonal_brackets_norm(self):
        op = LinearOperator.from_diagonal(np.array([3.0, 1.0]))
        bound = power_method_bound(op, iters=60, seed=1)
        assert 3.0 <= bound <= 6.0

    def test_homogeneous_scaling(self):
        rng = np.random.default_rng(5)
        a = random_symmetric(rng, 16, norm_one=False)
        s1 = power_method_bound(LinearOperator.from_dense(a), iters=25, seed=3)
        s2 = power_method_bound(LinearOperator.from_dense(2 * a), iters=25, seed=3)
        assert s2 == pytest.approx(2 * s1, rel=1e-12)

    def test_zero_operator_flagged(self):
        op = LinearOperator.from_dense(np.zeros((4, 4)))
        assert power_method_bound(op, iters=5, seed=0) == 1e-30

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_operator_refused(self, bad):
        # a NaN product once read as a zero operator (S at the 1e-30 floor),
        # so the pipeline spent every probe product before the fit refused
        # its moments; an inf entry raised a RuntimeWarning in the division
        diag = np.linspace(-0.9, 0.9, 192)
        diag[7] = bad
        op = LinearOperator.from_diagonal(diag)
        with pytest.raises(ValueError, match="products must be finite"):
            power_method_bound(op, iters=5, seed=0)
        assert op.matvec_count == 1
        op = LinearOperator.from_diagonal(diag)
        with pytest.raises(ValueError, match="products must be finite"):
            estimate_spectral_density(op, 0.5, 0.2, 5, probe_constant=0.02, degree_constant=8)
        assert op.matvec_count == 1

    def test_random_matrices_bracket(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            a = random_symmetric(rng, 32, norm_one=False)
            true_norm = np.max(np.abs(np.linalg.eigvalsh(a)))
            got = power_method_bound(
                LinearOperator.from_dense(a), iters=10 * math.ceil(math.log(32)) + 20, seed=trial
            )
            assert true_norm * (1 - 1e-6) <= got <= 2 * true_norm + 1e-12

    def test_iterations_formula(self):
        # 2 + ceil(log_3 M), M = 2 (n + 2 sqrt(n t) + 2 t) / (pi p^2)
        for n, alpha in ((2**20, 0.1 / 40), (2**20, 0.1 / 160), (4096, 0.2), (1, 0.5)):
            p = alpha / 2
            t = math.log(1 / p)
            m = 2 * (n + 2 * math.sqrt(n * t) + 2 * t) / (math.pi * p * p)
            assert power_iterations(n, alpha) == 2 + math.ceil(math.log(m) / math.log(3))
        assert [power_iterations(2**20, 0.1 / k) for k in (40, 80, 160)] == [27, 28, 29]

    @pytest.mark.parametrize("bulk", [0.45, 0.49])
    @pytest.mark.parametrize("alpha", [0.2, 0.01])
    def test_stated_failure_probability(self, bulk, alpha):
        # a hard spectrum: n - 1 equal eigenvalues just under half the top
        # one, -1, so an iterate still led by the bulk reads under norm / 2;
        # S <= 2 norm always, and norm <= S may fail on a share alpha of the
        # starts at most
        n, seeds = 4096, 400
        diag = np.full(n, bulk)
        diag[0] = -1.0
        op = LinearOperator.from_diagonal(diag)
        iters = power_iterations(n, alpha)
        values = np.array([power_method_bound(op, iters, seed) for seed in range(seeds)])
        assert np.all(values <= 2.0 + 1e-12)
        assert np.count_nonzero(values < 1.0) <= alpha * seeds


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
        assert schedule_matvec_cost(schedule) == 4


class TestHutchinson:
    def test_identity_is_exact(self):
        op = LinearOperator.from_dense(np.eye(16))
        moments = hutchinson_cheb_moments(op, np.ones(6, dtype=int), 0)
        assert moments.values == pytest.approx(np.ones(6), abs=0)

    def test_sign_diagonal_even_moments(self):
        diag = np.array([1.0, -1.0] * 8)
        op = LinearOperator.from_diagonal(diag)
        moments = hutchinson_cheb_moments(op, np.ones(8, dtype=int), 4)
        assert moments.values[1::2] == pytest.approx(np.ones(4), abs=0)

    def test_matvec_accounting(self):
        rng = np.random.default_rng(6)
        op = LinearOperator.from_dense(random_symmetric(rng, 32))
        # k, gamma and alpha as `estimate_spectral_density` derives them at
        # epsilon = 0.5, delta = 0.1, degree_constant = 8
        k = math.ceil(8 / 0.5)
        gamma = 1.0 / (k * math.sqrt(1.0 + math.log(k)))
        schedule = probe_schedule(32, k, gamma, 0.1 / k, 0.05)
        moments = hutchinson_cheb_moments(op, schedule, 1)
        assert moments.k == 16
        assert op.matvec_count == schedule_matvec_cost(schedule)

    def test_single_probe_costs_half_k(self):
        op = LinearOperator.from_dense(np.eye(8))
        hutchinson_cheb_moments(op, np.ones(12, dtype=int), 0)
        assert op.matvec_count == 6

    @pytest.mark.parametrize("k", [1, 2, 5, 16])
    @pytest.mark.parametrize("kind", ["dense", "diagonal"])
    def test_matches_three_term_oracle(self, kind, k):
        # the product identities give the estimates of the degree-by-degree
        # loop from half its products; a strictly decreasing schedule makes
        # each odd degree use more probes than the even degree after it
        rng = np.random.default_rng(37 + k)
        n = 24
        if kind == "dense":
            build, entries = LinearOperator.from_dense, random_symmetric(rng, n)
        else:
            build, entries = LinearOperator.from_diagonal, rng.uniform(-1, 1, n)
        schedule = np.arange(k + 3, 3, -1)
        op = build(entries)
        moments = hutchinson_cheb_moments(op, schedule, k)
        expected = hutchinson_three_term(build(entries), k, k, schedule)
        assert np.max(np.abs(moments.values - expected)) <= 1e-12
        assert schedule[0::2].sum() == op.matvec_count

    @pytest.mark.parametrize("kind", ["dense", "diagonal"])
    def test_norm_bound_matches_a_prescaled_operator(self, kind):
        # the recurrence multiplies A's products by 1/S and 2/S; since
        # doubling is exact, the moments equal bit for bit those of an
        # operator that returns (1/S)(A V), run with S = 1
        rng = np.random.default_rng(53)
        n, bound = 40, 2.7
        if kind == "dense":
            entries = random_symmetric(rng, n, norm_one=False)
            product = lambda v: entries @ v
            op = LinearOperator.from_dense(entries)
        else:
            entries = rng.uniform(-2, 2, n)
            product = lambda v: entries[:, None] * v
            op = LinearOperator.from_diagonal(entries)
        prescaled = LinearOperator(n, lambda v: (1.0 / bound) * product(v))
        schedule = np.array([9, 8, 8, 6, 5, 5, 3])
        moments = hutchinson_cheb_moments(op, schedule, 12, norm_bound=bound)
        expected = hutchinson_cheb_moments(prescaled, schedule, 12)
        assert np.array_equal(moments.values, expected.values)
        assert op.matvec_count == prescaled.matvec_count == schedule_matvec_cost(schedule)

    @pytest.mark.parametrize("bound", [0.0, -1.0, math.inf, math.nan])
    def test_bad_norm_bound_refused(self, bound):
        op = LinearOperator.from_diagonal(np.linspace(-1, 1, 64))
        with pytest.raises(ValueError, match="norm bound"):
            hutchinson_cheb_moments(op, np.ones(4, dtype=int), 0, norm_bound=bound)
        with pytest.raises(ValueError, match="norm bound"):
            estimate_spectral_density(op, epsilon=0.5, delta=0.2, seed=0, norm_bound=bound)
        assert op.matvec_count == 0

    def test_increasing_schedule_refused(self):
        op = LinearOperator.from_dense(np.eye(8))
        with pytest.raises(ValueError, match="nonincreasing"):
            hutchinson_cheb_moments(op, np.array([1, 2, 2]), 0)

    @pytest.mark.parametrize("schedule", [[], [0, 0], [2, 0]])
    def test_empty_or_zero_schedule_refused(self, schedule):
        op = LinearOperator.from_diagonal(np.ones(4))
        with pytest.raises(ValueError, match="nonempty, positive"):
            hutchinson_cheb_moments(op, np.array(schedule, dtype=int), 0)

    def test_unbiasedness(self):
        rng = np.random.default_rng(11)
        a = random_symmetric(rng, 8)
        op = LinearOperator.from_dense(a)
        k = 5
        exact = np.array([np.mean(cheb_t_table(k, np.linalg.eigvalsh(a))[j]) for j in range(1, k + 1)])
        probes = 100_000
        schedule = np.full(k, probes)
        moments = hutchinson_cheb_moments(op, schedule, 21)
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
            moments = hutchinson_cheb_moments(op, schedule, seed)
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
        moments = hutchinson_cheb_moments(op, np.ones(10, dtype=int), 3)
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

    def test_dense_read_uses_the_matrix_and_charges_n(self):
        # a dense operator hands its matrix to the read, which still charges
        # n products and matches the read through standard-basis products
        rng = np.random.default_rng(41)
        a = random_symmetric(rng, 16)
        products = []

        def matvec(v):
            products.append(v.shape)
            return a @ v

        dense = estimate_spectral_density(LinearOperator.from_dense(a), epsilon=0.1, delta=0.1, seed=0)
        read = estimate_spectral_density(LinearOperator(16, matvec), epsilon=0.1, delta=0.1, seed=0)
        assert dense.report.path == read.report.path == "dense"
        assert dense.report.matvecs == read.report.matvecs == 16
        assert products == [(16, 16)]
        assert np.array_equal(dense.distribution.support, read.distribution.support)

    def test_dense_read_leaves_the_callers_matrix_unchanged(self):
        # from_dense shares the caller's array, and the read must not write to it
        rng = np.random.default_rng(43)
        a = random_symmetric(rng, 24)
        before = a.copy()
        result = estimate_spectral_density(LinearOperator.from_dense(a), epsilon=0.1, delta=0.1, seed=0)
        assert result.report.path == "dense"
        assert np.array_equal(a, before)

    def test_dense_read_rejects_non_finite_entries(self):
        a = random_symmetric(np.random.default_rng(47), 12)
        a[3, 7] = a[7, 3] = np.nan
        with pytest.raises(ValueError):
            estimate_spectral_density(LinearOperator.from_dense(a), epsilon=0.1, delta=0.1, seed=0)

    def test_dense_read_of_a_nearly_symmetric_matrix(self):
        # the read takes one triangle, which is a symmetric matrix within
        # 1e-10 per entry of the symmetric part, so by Weyl's bound every
        # eigenvalue moves by at most n * 1e-10
        n = 32
        rng = np.random.default_rng(53)
        a = random_symmetric(rng, n)
        e = rng.uniform(-0.5e-10, 0.5e-10, (n, n))
        perturbed = a + (e - e.T)
        assert np.max(np.abs(perturbed - a)) <= 1e-10
        exact = estimate_spectral_density(LinearOperator.from_dense(a), epsilon=0.1, delta=0.1, seed=0)
        read = estimate_spectral_density(LinearOperator.from_dense(perturbed), epsilon=0.1, delta=0.1, seed=0)
        assert read.report.path == "dense"
        gaps = np.abs(read.distribution.support - exact.distribution.support)
        assert np.max(gaps) <= n * 1e-10

    def test_tiny_epsilon_forces_dense(self):
        a = np.diag([0.5, -0.5, 0.25, 0.0])
        op = LinearOperator.from_dense(a)
        result = estimate_spectral_density(op, epsilon=0.2, delta=0.1, seed=0)
        assert result.report.path == "dense"
        assert result.report.matvecs == 4

    def test_dense_path_builds_no_probe_schedule(self, monkeypatch):
        # epsilon <= 1/n decides the dense path before any probe is counted:
        # the schedule would hold k = ceil(80 / epsilon) entries
        def no_schedule(*args):
            raise AssertionError("probe_schedule ran on the dense path")

        monkeypatch.setattr(sde, "probe_schedule", no_schedule)
        op = LinearOperator.from_dense(np.diag([0.5, -0.25]))
        result = estimate_spectral_density(op, epsilon=1e-7, delta=0.1, seed=0)
        assert result.report.path == "dense"
        assert np.array_equal(result.distribution.support, [-0.25, 0.5])

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
            applied.append(v[:, 0].copy())  # the power method's products come first
            return diag[:, None] * v

        op = LinearOperator(n, matvec)
        result = estimate_spectral_density(
            op, epsilon=0.5, delta=0.2, seed=seed, probe_constant=0.02, degree_constant=8.0
        )
        assert result.report.path == "hutchinson"
        shared = np.random.Generator(np.random.PCG64(seed)).standard_normal(n)
        start = applied[0]
        assert abs(start @ shared) / np.linalg.norm(shared) < 0.5

    def test_path_choice_uses_halved_cost(self):
        # here the full schedule plus the power iterations would reach n, so
        # only the halved cost keeps the probe path the cheaper one
        n = 128
        diag = np.random.default_rng(43).uniform(-0.9, 0.9, n)
        op = LinearOperator.from_diagonal(diag)
        # k, gamma and alpha as `estimate_spectral_density` derives them at
        # epsilon = 0.5, delta = 0.2, degree_constant = 8
        k = math.ceil(8.0 / 0.5)
        gamma = 1.0 / (k * math.sqrt(1.0 + math.log(k)))
        schedule = probe_schedule(n, k, gamma, 0.2 / k, 0.25)
        power_iters = power_iterations(n, 0.2 / k)
        assert power_iters == 16
        assert schedule.sum() + power_iters >= n > schedule[0::2].sum() + power_iters
        result = estimate_spectral_density(
            op, epsilon=0.5, delta=0.2, seed=5, probe_constant=0.25, degree_constant=8.0
        )
        assert result.report.path == "hutchinson"
        assert result.report.matvecs == schedule[0::2].sum() + power_iters == op.matvec_count

    def test_report_counts_the_products_taken(self):
        # on a zero operator the power method stops after its first product,
        # and the report counts that one, not the iterations it was allowed
        op = LinearOperator.from_diagonal(np.zeros(192))
        result = estimate_spectral_density(
            op, epsilon=0.5, delta=0.2, seed=5, probe_constant=0.02, degree_constant=8.0
        )
        assert result.report.path == "hutchinson"
        assert result.report.matvecs == op.matvec_count

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"epsilon": 0.0}, "epsilon must lie in"),
            ({"epsilon": 1.0}, "epsilon must lie in"),
            ({"epsilon": math.nan}, "epsilon must lie in"),
            ({"delta": 0.0}, "delta must lie in"),
            ({"delta": 1.0}, "delta must lie in"),
            ({"delta": math.nan}, "delta must lie in"),
            ({"probe_constant": -1.0}, "probe constant must be nonnegative and finite"),
            ({"probe_constant": math.nan}, "probe constant must be nonnegative and finite"),
            ({"probe_constant": math.inf}, "probe constant must be nonnegative and finite"),
            ({"degree_constant": 0.0}, "degree constant must be positive and finite"),
            ({"degree_constant": -8.0}, "degree constant must be positive and finite"),
            ({"degree_constant": math.nan}, "degree constant must be positive and finite"),
            ({"degree_constant": math.inf}, "degree constant must be positive and finite"),
        ],
    )
    def test_bad_parameters_refused(self, bad, message):
        op = LinearOperator.from_diagonal(np.linspace(-1, 1, 192))
        args = {"epsilon": 0.5, "delta": 0.2, "probe_constant": 0.02, "degree_constant": 8.0} | bad
        with pytest.raises(ValueError, match=message):
            estimate_spectral_density(op, seed=0, **args)
        assert op.matvec_count == 0

    def test_budget_formula(self):
        assert matvec_budget(256, 0.1, 0.1) == pytest.approx(
            min(
                256.0,
                10.0 * (1 + math.log(10.0) ** 2 * math.log(1 / 0.01) ** 2 / (256 * 0.1)),
            )
        )
