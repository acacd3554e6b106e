"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with the measured values and the elapsed time (budgets are printed for
reference, not asserted -- they are hardware-dependent). All numeric
tolerances are asserted exactly as stated.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from oracles import exact_spectral_density

from momentforge.chebyshev import (
    cheb_interpolation_coeffs,
    cheb_series_eval,
    coefficient_decay_functional,
    jackson_damped_coeffs,
)
from momentforge.distributions import (
    DiscreteDistribution,
    Grid,
    cheb_moments,
    cheb_moments_multi,
    multi_index_array,
    multi_moment_normalizers,
    w1_distance,
)
from momentforge.dpsynth import (
    NoisyMoments,
    PrivacyBudget,
    dp_synthesize,
    expected_error_curve,
    high_probability_bound,
    norm_inverse_sum,
    norm_inverse_sum_bound,
    synthesize_from_noisy_moments,
)
from momentforge.experiments import (
    GENERATORS,
    mean_w1_by_n,
    rate_slope_check,
    run_dp_scaling,
    sample_generator,
    trial_seeds,
)
from momentforge.popmle import (
    cheb_to_bernstein_exact,
    fingerprint,
    naive_estimator,
    npmle_em,
    unit_interval_distribution,
    w1_unit_interval,
)
from momentforge.recovery import recover_distribution
from momentforge.sde import (
    LinearOperator,
    estimate_spectral_density,
    hutchinson_cheb_moments,
    probe_schedule,
)

BASE_SEED = 0


def report(criterion, ok, detail, elapsed, budget):
    flag = "PASS" if ok else "FAIL"
    print(f"\n{flag} criterion {criterion}: {detail} [{elapsed:.1f}s, budget {budget}]")


# --------------------------------------------------------------------------
# 1. coefficient-decay equality and bound


def test_criterion_1_decay_functional():
    t0 = time.time()
    identity = cheb_interpolation_coeffs(lambda x: x, 64)
    value = coefficient_decay_functional(identity)
    equality_ok = abs(value - math.pi / 2) <= 1e-8

    smooth = [
        lambda x: np.sin(x),
        lambda x: 0.5 * x**2,
        lambda x: np.tanh(2 * x) / 2,
        lambda x: np.sin(np.pi * x) / np.pi,
        lambda x: 0.5 * np.cos(2 * x),
    ]
    bound_ok = True
    worst = 0.0
    for fn in smooth:
        coeffs = cheb_interpolation_coeffs(fn, 128)
        functional = coefficient_decay_functional(coeffs)
        worst = max(worst, functional)
        bound_ok = bound_ok and functional <= math.pi / 2 + 1e-3

    ok = equality_ok and bound_ok
    report(
        1,
        ok,
        f"identity functional {value:.10f} vs pi/2 {math.pi / 2:.10f}; "
        f"max smooth functional {worst:.6f} <= pi/2 + 1e-3",
        time.time() - t0,
        "< 1 s",
    )
    assert equality_ok
    assert bound_ok


# --------------------------------------------------------------------------
# 2. uniform error of the damped truncated series


def test_criterion_2_damped_series_bound():
    t0 = time.time()
    grid = np.linspace(-1.0, 1.0, 10_000)
    functions = {
        "|x|": np.abs,
        "|x-0.3|": lambda x: np.abs(x - 0.3),
        "max(0,x)": lambda x: np.maximum(x, 0.0),
    }
    worst_margin = np.inf
    ok = True
    for name, fn in functions.items():
        for k in (8, 16, 32, 64):
            damped = jackson_damped_coeffs(fn, k)
            err = float(np.max(np.abs(fn(grid) - cheb_series_eval(damped.values, grid))))
            ok = ok and err <= 18.0 / k
            worst_margin = min(worst_margin, 18.0 / k - err)
    report(
        2,
        ok,
        f"all 12 cases under 18/k; smallest margin {worst_margin:.4f}",
        time.time() - t0,
        "< 5 s",
    )
    assert ok


# --------------------------------------------------------------------------
# 3. exact-moment recovery rate, with the distance routine cross-validated


def _transport_lp(p, q):
    cost = np.abs(p.support[:, None] - q.support[None, :]).ravel()
    s, t = p.size, q.size
    rows = []
    for i in range(s):
        row = np.zeros((s, t))
        row[i, :] = 1.0
        rows.append(row.ravel())
    for j in range(t):
        row = np.zeros((s, t))
        row[:, j] = 1.0
        rows.append(row.ravel())
    res = linprog(cost, A_eq=np.asarray(rows), b_eq=np.concatenate([p.weights, q.weights]), method="highs")
    assert res.success
    return res.fun


def test_criterion_3_exact_recovery():
    t0 = time.time()
    rng = np.random.default_rng(BASE_SEED + 3)

    # the exact distance routine against the coupling linear program
    oracle_ok = True
    for _ in range(12):
        p = DiscreteDistribution(rng.uniform(-1, 1, 6), rng.dirichlet(np.ones(6)))
        q = DiscreteDistribution(rng.uniform(-1, 1, 5), rng.dirichlet(np.ones(5)))
        oracle_ok = oracle_ok and abs(w1_distance(p, q) - _transport_lp(p, q)) <= 1e-8

    worst = 0.0
    ok = True
    for k in (8, 16, 32, 64):
        for _ in range(20):
            p = DiscreteDistribution(rng.uniform(-1, 1, 5), rng.dirichlet(np.ones(5)))
            result = recover_distribution(cheb_moments(p, k))
            ratio = w1_distance(p, result.distribution) * k / 40.0
            worst = max(worst, ratio)
            ok = ok and ratio <= 1.0
    ok = ok and oracle_ok
    report(
        3,
        ok,
        f"distance oracle agreement and W1 <= 40/k over 80 runs; worst W1*k/40 = {worst:.3f}",
        time.time() - t0,
        "< 2 min",
    )
    assert oracle_ok
    assert ok


# --------------------------------------------------------------------------
# 4. private-synthesis scaling study


N_VALUES = [128, 256, 512, 1024, 2048, 4096, 8192]


@pytest.fixture(scope="module")
def scaling_rows():
    rows = {}
    t0 = time.time()
    for name in GENERATORS:
        # two worker processes; the rows are those of jobs=1, sorted by (n, trial)
        rows[name] = run_dp_scaling(name, N_VALUES, 10, 0.5, BASE_SEED, jobs=2)
    rows["elapsed"] = time.time() - t0
    return rows


def test_criterion_4a_mean_error_under_curve(scaling_rows):
    t0 = time.time()
    ok = True
    worst = 0.0
    for name in GENERATORS:
        ns, means = mean_w1_by_n(scaling_rows[name])
        for n, mean in zip(ns, means):
            ratio = mean / (5.0 * expected_error_curve(n, 0.5, 1.0 / n**2))
            worst = max(worst, ratio)
            ok = ok and ratio <= 1.0
    report(
        "4a",
        ok,
        f"mean W1 <= 5x curve at every n for all generators; worst fraction {worst:.3f} "
        f"(sweep took {scaling_rows['elapsed']:.0f}s)",
        time.time() - t0 + scaling_rows["elapsed"],
        "< 15 min (whole study)",
    )
    assert ok


@pytest.mark.parametrize("name", GENERATORS)
def test_criterion_4b_loglog_slope(scaling_rows, name):
    """The error falls faster than n^(-1/2): the log-log slope of mean W1 over
    n = 2^7..2^13 lies in [-1.3, 0.7 * s], where s = -0.761 is the slope of
    `expected_error_curve` over the same n (see `rate_slope_check`). Over
    this range the check cannot tell the O~(1/n) rate from n^(-1/2)/log n;
    criterion 4a carries the level.

    `trial_seeds` gives all three generators the same data and noise seeds,
    so one unlucky draw (n = 128, trial 6: W1 0.85 / 0.54 / 1.05) raises all
    three means at that n together, and the three slopes are not
    independent evidence."""
    t0 = time.time()
    ns, means = mean_w1_by_n(scaling_rows[name])
    check = rate_slope_check(ns, means, 0.5)
    detail = f"{name} log-log slope {check.slope:.4f} vs {check.window}"
    report("4b", check.ok, detail, time.time() - t0, "(in study)")
    assert check.ok, f"{name} slope {check.slope:.4f} outside {check.window}"


@pytest.mark.parametrize(
    "curve, verdict",
    [
        (lambda n: 3.0 * expected_error_curve(n, 0.5, 1.0 / n**2), "pass"),
        (lambda n: 2.0 / n, "pass"),
        (lambda n: 2.0 / (math.sqrt(n) * math.log(n)), "pass"),
        (lambda n: 2.0 / math.sqrt(n), "slow"),
        (lambda n: 0.1, "slow"),
        (lambda n: 2.0 * n**-1.5, "fast"),
    ],
    ids=["curve", "1/n", "n^-1/2/log n", "n^-1/2", "flat", "n^-1.5"],
)
def test_criterion_4b_check_power(curve, verdict):
    """The 4b check on exact mean curves over the study's n: it passes the
    reference curve and 1/n, rejects n^(-1/2) and a flat curve at the slow
    end, and n^(-1.5) at the fast end. It also passes n^(-1/2)/log n
    (slope -0.648), which is not O~(1/n): the check's blind spot over this
    range of n, recorded here as it is."""
    check = rate_slope_check(N_VALUES, [curve(n) for n in N_VALUES], 0.5)
    assert check.curve_slope == pytest.approx(-0.761, abs=5e-4)
    assert check.ok is (verdict == "pass")
    if verdict == "slow":
        assert check.slope > check.slow_end
    if verdict == "fast":
        assert check.slope < check.slow_end


# --------------------------------------------------------------------------
# 5. high-probability tail at n = 2^10


def test_criterion_5_high_probability_tail():
    t0 = time.time()
    n = 1024
    budget = PrivacyBudget(epsilon=0.5, delta=1.0 / n**2)
    w1s = []
    for trial in range(100):
        data_seed, noise_seed = trial_seeds(BASE_SEED + 5, n, trial)
        data = sample_generator("gaussian", n, data_seed)
        result = dp_synthesize(data, budget, noise_seed)
        w1s.append(w1_distance(DiscreteDistribution.uniform_over(data), result.distribution))
    p95 = float(np.percentile(w1s, 95))
    bound = 5.0 * high_probability_bound(n, 0.5, 1.0 / n**2, beta=0.05)
    ok = p95 <= bound
    report(
        5,
        ok,
        f"95th percentile W1 {p95:.4f} <= 5 x tail bound {bound:.4f} over 100 trials",
        time.time() - t0,
        "< 10 min",
    )
    assert ok


# --------------------------------------------------------------------------
# 6. stochastic moment estimates on operators with known moments


def test_criterion_6_hutchinson_accuracy():
    t0 = time.time()
    n, k = 64, 32
    delta = 0.1
    rng = np.random.default_rng(BASE_SEED + 6)
    diag = rng.uniform(-1, 1, n)
    op = LinearOperator.from_diagonal(diag)
    from momentforge.chebyshev import cheb_t_table

    exact = np.array([np.mean(cheb_t_table(k, diag)[j]) for j in range(1, k + 1)])
    gamma = 1.0 / (k * math.sqrt(1.0 + math.log(k)))
    alpha = delta / k
    schedule = probe_schedule(n, k, gamma, alpha, 16.0)
    j = np.arange(1, k + 1)
    trials = 200
    failures = np.zeros(k, dtype=int)
    for seed in range(trials):
        moments, _ = hutchinson_cheb_moments(op, schedule, seed)
        failures += (np.abs(moments.values - exact) > np.sqrt(j) * gamma).astype(int)
    allowed = alpha * trials
    ok = bool(np.all(failures <= allowed))
    report(
        6,
        ok,
        f"per-degree failures max {failures.max()} of {trials} trials (allowed {allowed:.2f}); "
        f"probe schedule l_1 = {schedule[0]}",
        time.time() - t0,
        "< 2 min",
    )
    assert ok


# --------------------------------------------------------------------------
# 7. spectral density end-to-end at n = 256


def test_criterion_7_sde_end_to_end():
    t0 = time.time()
    n = 256
    delta = 0.1
    rng = np.random.default_rng(BASE_SEED + 7)
    hits = 0
    runs = 0
    budget_ok = True
    for seed in range(20):
        a = rng.normal(size=(n, n))
        a = 0.5 * (a + a.T)
        a /= np.max(np.abs(np.linalg.eigvalsh(a)))
        oracle = exact_spectral_density(a)
        for eps in (0.2, 0.1, 0.05):
            op = LinearOperator.from_dense(a)
            result = estimate_spectral_density(op, eps, delta, seed)
            s = result.report.norm_bound
            w1 = w1_distance(result.distribution, oracle)
            runs += 1
            if w1 <= eps * max(s, 1.0):
                hits += 1
            k = result.report.k
            cap = min(
                n,
                3.0 * k * (1.0 + 16.0 * math.log(k / delta) ** 2 * math.log(k) * k / n),
            )
            budget_ok = budget_ok and result.report.matvecs <= cap
    ok = hits >= 0.9 * runs and budget_ok
    report(
        7,
        ok,
        f"W1 <= eps*S in {hits}/{runs} runs (need >= {math.ceil(0.9 * runs)}); matvec budget respected: {budget_ok}",
        time.time() - t0,
        "< 10 min",
    )
    assert hits >= 0.9 * runs
    assert budget_ok


# --------------------------------------------------------------------------
# 8. shifted-basis conversion coefficients


def _shifted_cheb_scaled_int(m, a, denom=100):
    """50^m * T_m((a - 50)/50) as an exact integer (for a in 0..100)."""
    p, q = a - denom // 2, denom // 2
    prev, cur = 1, p
    if m == 0:
        return 1
    for _ in range(m - 1):
        prev, cur = cur, 2 * p * cur - q * q * prev
    return cur


def test_criterion_8_bernstein_conversion():
    t0 = time.time()
    bound_ok = True
    for t in range(2, 41):
        for m in range(1, t):
            values = cheb_to_bernstein_exact(t, m)
            cap = (t + 1) * math.exp(m**2 / t)
            if any(abs(float(c)) > cap for c in values):
                bound_ok = False

    recon_ok = True
    for t in range(2, 31):
        for m in range(1, t):
            exact = cheb_to_bernstein_exact(t, m)
            nums = [int(c * math.comb(t, j)) for j, c in enumerate(exact)]
            for a in range(0, 101, 10):
                lhs = sum(nums[j] * a**j * (100 - a) ** (t - j) for j in range(t + 1))
                # compare against 100^t * T_m((a-50)/50) = 100^t * V / 50^m
                rhs = _shifted_cheb_scaled_int(m, a) * 100**t
                if lhs * 50**m != rhs:
                    recon_ok = False

    ok = bound_ok and recon_ok
    report(
        8,
        ok,
        "coefficient bound exhaustive (t <= 40) and exact basis reconstruction (t <= 30)",
        time.time() - t0,
        "< 1 min",
    )
    assert bound_ok
    assert recon_ok


# --------------------------------------------------------------------------
# 9. population-MLE behavior


def _paired_population_trial(trial, t, n_coins=100_000):
    rng = np.random.default_rng(BASE_SEED + 9_000 + trial)
    atoms = np.sort(rng.uniform(0.1, 0.9, 3))
    weights = rng.dirichlet(np.ones(3))
    truth = unit_interval_distribution(atoms, weights)
    biases = rng.choice(atoms, p=weights, size=n_coins)
    observations = rng.binomial(t, biases)
    return truth, observations


def test_criterion_9_population_mle():
    t0 = time.time()
    trials = 10
    wins = 0
    comparisons = 0
    mean_errors = {}
    monotone_ll = True
    for t in (8, 16, 32):
        errors = []
        for trial in range(trials):
            truth, obs = _paired_population_trial(trial, t)
            fp = fingerprint(obs, t)
            result = npmle_em(fp, grid_size=1000)
            monotone_ll = monotone_ll and bool(np.all(np.diff(result.trace) >= -1e-9))
            mle_err = w1_unit_interval(result.distribution, truth)
            naive_err = w1_unit_interval(naive_estimator(obs, t), truth)
            errors.append(mle_err)
            comparisons += 1
            if mle_err <= naive_err:
                wins += 1
        mean_errors[t] = float(np.mean(errors))
    win_ok = wins >= 0.8 * comparisons
    monotone_err = mean_errors[8] >= mean_errors[16] >= mean_errors[32]
    ok = win_ok and monotone_err and monotone_ll
    report(
        9,
        ok,
        f"MLE beat naive in {wins}/{comparisons}; mean errors "
        f"{mean_errors[8]:.4f} >= {mean_errors[16]:.4f} >= {mean_errors[32]:.4f}; "
        f"log-likelihood monotone: {monotone_ll}",
        time.time() - t0,
        "< 10 min",
    )
    assert monotone_ll
    assert win_ok
    assert monotone_err


# --------------------------------------------------------------------------
# 10. tensor pipeline plumbing


def test_criterion_10_multivariate():
    t0 = time.time()
    # Algorithm-realizable degrees start at m = 2 (m = ceil(2 (eps n)^{1/d})
    # with eps n >= 1); the closed-form cap fails only at the never-produced
    # m = 1, d = 3 corner (see the decisions ledger).
    sum_ok = True
    for d in (2, 3):
        for m in range(2, 41):
            if norm_inverse_sum(m, d) > norm_inverse_sum_bound(m, d):
                sum_ok = False

    rng = np.random.default_rng(BASE_SEED + 10)
    budget = PrivacyBudget(epsilon=0.5, delta=0.01)
    n = 32
    root = (budget.epsilon * n) ** 0.5
    grid = Grid.tensor_uniform(math.ceil(root), 2)
    data = grid.points[rng.integers(0, grid.points.shape[0], n)]
    # the noiseless fit: replay the exact release of the data's own moments
    m = math.ceil(2.0 * root)
    indices = multi_index_array(m, 2)
    moments = cheb_moments_multi(DiscreteDistribution.uniform_over(data), m).values
    exact = NoisyMoments(
        values=moments * multi_moment_normalizers(indices, 2),
        variances=np.zeros(indices.shape[0]),
        indices=indices,
    )
    _, solution = synthesize_from_noisy_moments(exact)
    gamma = math.sqrt(max(solution.objective, 0.0))
    gamma_ok = gamma <= 1e-8

    ok = sum_ok and gamma_ok
    report(
        10,
        ok,
        f"norm-sum bound holds for m in 2..40, d in {{2,3}}; noiseless tensor "
        f"recovery gamma {gamma:.2e} <= 1e-8",
        time.time() - t0,
        "< 2 min",
    )
    assert sum_ok
    assert gamma_ok
