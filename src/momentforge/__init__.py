"""Distribution recovery from noisy Chebyshev moments, and the pipelines
built on it: private synthetic data, spectral density estimation, and
mixing-distribution estimation for populations of binomial parameters."""

__version__ = "0.1.0"

from .chebyshev import (
    ChebCoefficients,
    JacksonDamping,
    cheb_interpolation_coeffs,
    cheb_series_eval,
    cheb_t,
    chebyshev_nodes,
    coefficient_decay_functional,
    jackson_damped_coeffs,
    jackson_damping,
    jackson_kernel_coeffs,
)
from .distributions import (
    DiscreteDistribution,
    Grid,
    MomentErrorReport,
    MomentVector,
    cheb_moments,
    cheb_moments_multi,
    moment_error_gamma,
    round_to_grid,
    w1_distance,
)
from .dpsynth import (
    NoisyMoments,
    PrivacyBudget,
    dp_synthesize,
    expected_error_curve,
    gaussian_mechanism_delta,
    gaussian_noise_vector,
    high_probability_bound,
    norm_inverse_sum,
    norm_inverse_sum_bound,
    sensitivity_sq_bound,
)
from .popmle import (
    BernsteinConversion,
    Fingerprint,
    cheb_to_bernstein,
    fingerprint,
    naive_estimator,
    npmle_em,
    w1_unit_interval,
)
from .recovery import (
    LPSolution,
    QPSolution,
    RecoveryResult,
    recover_distribution,
    simplex_project,
    solve_moment_lp,
    solve_weighted_qp,
)
from .sde import (
    LinearOperator,
    estimate_spectral_density,
    hutchinson_cheb_moments,
    power_method_bound,
    probe_schedule,
)
