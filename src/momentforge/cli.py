"""Command-line entry point: one binary, one subcommand per pipeline.

Exit codes: 0 success, 1 usage, 2 I/O or malformed input file, 3 validation,
4 solver-not-converged. Every JSON report embeds the run manifest (resolved
parameters, seed, input digests, tool version); identical manifests produce
byte-identical outputs. The MOMENTFORGE_SEED environment variable supplies
a default seed, else it is 0; a value that is not an integer exits 3. The
sde subcommand exits 3 on a matrix with a non-finite entry or one that is
not symmetric within 1e-8; dp-synth when `--dim` differs from the data
file's column count; experiment-dp when `--nmin` is below 2 or `--nmax`
below `--nmin`, or when some n in the sweep has epsilon * n at most 1,
which the pipeline rejects (n = 2 at the default epsilon 0.5).

The dp-synth report has two parts. `release` holds only what the noisy
moments and public parameters determine, so it can be published with the
synthetic distribution. `diagnostics` holds the private rest: the clamp
count, `w1_vs_input` (with `--evaluate`, 1-D data only: the exact W1 is
1-D) and the manifest, whose seed is the noise's secret key and whose
digest is the data file's. An unseeded dp-synth run draws its
seed from `secrets` rather than using 0, and records it there.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import secrets
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .chebyshev import (
    cheb_interpolation_coeffs,
    cheb_series_eval,
    coefficient_decay_functional,
    jackson_damped_coeffs,
)
from .distributions import (
    DiscreteDistribution,
    w1_distance,
)
from .dpsynth import PrivacyBudget, dp_synthesize
from .experiments import (
    GENERATORS,
    doubling_sizes,
    mean_w1_by_n,
    run_dp_scaling,
    write_scaling_csv,
)
from .fileio import (
    CsvFormatError,
    load_dataset_csv,
    load_matrix,
    load_moments_csv,
    save_distribution_csv,
    sha256_file,
    write_json_report,
)
from .popmle import fingerprint, naive_estimator, npmle_em, w1_unit_interval
from .recovery import recover_distribution
from .sde import LinearOperator, estimate_spectral_density

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_SOLVER = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _default_seed(subcommand):
    env = os.environ.get("MOMENTFORGE_SEED")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"MOMENTFORGE_SEED must be an integer, got {env!r}") from None
    # a public default key would let anyone subtract the release's noise
    return secrets.randbits(63) if subcommand == "dp-synth" else 0


_INPUT_ARGS = ("moments", "data", "matrix", "obs", "truth")
_FILE_ARGS = _INPUT_ARGS + ("out", "report")


def _manifest(subcommand, args):
    # files appear by name and input digest, never by directory, so where a
    # run's files live changes neither its result nor its report
    params = {
        k: os.path.basename(v) if k in _FILE_ARGS and v else v
        for k, v in vars(args).items()
        if k not in ("func",)
    }
    digests = {k: sha256_file(getattr(args, k)) for k in _INPUT_ARGS if getattr(args, k, None)}
    return {
        "subcommand": subcommand,
        "parameters": {k: (v if not isinstance(v, float) or math.isfinite(v) else str(v)) for k, v in params.items()},
        "seed": getattr(args, "seed", None),
        "inputs": digests,
        "version": __version__,
    }


def _cmd_recover(args):
    moments = load_moments_csv(args.moments)
    if args.k is not None and args.k != moments.k:
        raise ValueError("requested degree does not match the moments file")
    result = recover_distribution(moments)
    save_distribution_csv(result.distribution, args.out)
    if args.report:
        payload = {
            "k": result.k,
            "g": result.g,
            "gamma": result.gamma,
            "w1_bound": result.w1_bound,
            "w1_bound_optimistic": result.w1_bound_optimistic,
            "objective": result.objective,
            "iterations": result.iterations,
            "converged": result.converged,
            "manifest": _manifest("recover", args),
        }
        write_json_report(payload, args.report)
    return EXIT_OK if result.converged else EXIT_SOLVER


def _cmd_dp_synth(args):
    data = load_dataset_csv(args.data)
    columns = 1 if data.ndim == 1 else data.shape[1]
    if columns != args.dim:
        raise ValueError(f"--dim {args.dim} does not match the data file's {columns} columns")
    result = dp_synthesize(data, PrivacyBudget(epsilon=args.epsilon, delta=args.delta), args.seed)
    save_distribution_csv(result.distribution, args.out)
    if args.report:
        release = asdict(result.report)
        diagnostics = {"clamped": release.pop("clamped")}
        if args.evaluate and args.dim == 1:
            clipped = np.clip(np.asarray(data, dtype=float), -1.0, 1.0)
            diagnostics["w1_vs_input"] = w1_distance(
                DiscreteDistribution.uniform_over(clipped), result.distribution
            )
        diagnostics["manifest"] = _manifest("dp-synth", args)
        write_json_report({"release": release, "diagnostics": diagnostics}, args.report)
    return EXIT_OK if result.report.converged else EXIT_SOLVER


def _cmd_sde(args):
    dense = load_matrix(args.matrix)
    if not np.all(np.isfinite(dense)):
        raise ValueError("matrix entries must be finite")
    if np.max(np.abs(dense - dense.T)) > 1e-8:
        raise ValueError("matrix is not symmetric within 1e-8")
    op = LinearOperator.from_dense(dense)
    result = estimate_spectral_density(op, args.eps, args.delta, args.seed)
    save_distribution_csv(result.distribution, args.out)
    if args.report:
        payload = asdict(result.report)
        payload["manifest"] = _manifest("sde", args)
        write_json_report(payload, args.report)
    return EXIT_OK if result.report.lp_feasible else EXIT_SOLVER


def _cmd_popmle(args):
    observations = np.asarray(load_dataset_csv(args.obs, dtype=np.int64))
    if observations.ndim != 1:
        raise ValueError("observations file must hold a single column")
    fp = fingerprint(observations, args.t)
    result = npmle_em(fp, grid_size=args.grid)
    save_distribution_csv(result.distribution, args.out)
    if args.report:
        payload = {
            "t": args.t,
            "grid": args.grid,
            "n_coins": fp.n_coins,
            "log_likelihood": result.log_likelihood,
            "log_likelihood_trace": [float(v) for v in result.trace],
            "iterations": result.iterations,
            "converged": result.converged,
        }
        if args.truth:
            from .fileio import load_distribution_csv

            truth = load_distribution_csv(args.truth)
            payload["w1_vs_truth"] = w1_unit_interval(result.distribution, truth)
            payload["w1_naive_vs_truth"] = w1_unit_interval(
                naive_estimator(observations, args.t), truth
            )
        payload["manifest"] = _manifest("popmle", args)
        write_json_report(payload, args.report)
    return EXIT_OK if result.converged else EXIT_SOLVER


def _cmd_experiment_dp(args):
    n_values = doubling_sizes(args.nmin, args.nmax)
    rows = run_dp_scaling(
        args.dist, n_values, args.trials, args.epsilon, args.seed, jobs=args.jobs
    )
    write_scaling_csv(rows, args.out)
    if args.report:
        ns, means = mean_w1_by_n(rows)
        payload = {
            "generator": args.dist,
            "n_values": ns,
            "mean_w1": means,
            "manifest": _manifest("experiment-dp", args),
        }
        write_json_report(payload, args.report)
    return EXIT_OK


_VERIFY_SUITES = ("decay", "jackson", "orthogonality")


def _verify_decay(out):
    value = coefficient_decay_functional(cheb_interpolation_coeffs(lambda x: x, 64))
    target = math.pi / 2.0
    ok = abs(value - target) <= 1e-8
    out(f"decay: functional for the identity map = {value:.12f}, pi/2 = {target:.12f} "
        f"-> {'PASS' if ok else 'FAIL'}")
    return ok


def _verify_jackson(out):
    grid = np.linspace(-1.0, 1.0, 10_000)
    ok = True
    for label, fn in (
        ("abs", np.abs),
        ("abs-shift", lambda x: np.abs(x - 0.3)),
        ("relu", lambda x: np.maximum(x, 0.0)),
    ):
        for k in (8, 16, 32, 64):
            damped = jackson_damped_coeffs(fn, k)
            err = float(np.max(np.abs(fn(grid) - cheb_series_eval(damped.values, grid))))
            good = err <= 18.0 / k
            ok = ok and good
            out(f"jackson: {label} k={k} max error {err:.6f} vs bound {18.0 / k:.6f} "
                f"-> {'PASS' if good else 'FAIL'}")
    return ok


def _verify_orthogonality(out):
    ok = True
    for i, j in ((0, 0), (1, 1), (4, 4), (0, 1), (2, 5), (3, 7)):
        nodes_count = 2 * max(i, j) + 8
        theta = (2 * np.arange(1, nodes_count + 1) - 1) * np.pi / (2 * nodes_count)
        quad = np.pi / nodes_count * np.sum(np.cos(i * theta) * np.cos(j * theta))
        if i != j:
            target = 0.0
        else:
            target = np.pi if i == 0 else np.pi / 2.0
        good = abs(quad - target) <= 1e-9
        ok = ok and good
        out(f"orthogonality: <T_{i}, T_{j}> = {quad:.12f}, target {target:.12f} "
            f"-> {'PASS' if good else 'FAIL'}")
    return ok


def _cmd_verify(args):
    suites = _VERIFY_SUITES if args.suite == "all" else (args.suite,)
    runners = {"decay": _verify_decay, "jackson": _verify_jackson, "orthogonality": _verify_orthogonality}
    ok = True
    for suite in suites:
        ok = runners[suite](print) and ok
    return EXIT_OK if ok else EXIT_VALIDATION


@functools.cache
def build_parser():
    """The argument parser, built once per process. `--seed` defaults to
    None; `main` fills in `_default_seed` on each call."""
    parser = _Parser(prog="momentforge", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("recover", help="distribution from a moments CSV")
    p.add_argument("--moments", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("dp-synth", help="private synthetic distribution from a dataset CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--dim", type=int, default=1, choices=(1, 2, 3))
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--evaluate", action="store_true")
    p.set_defaults(func=_cmd_dp_synth)

    p = sub.add_parser("sde", help="spectral density of a symmetric matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_sde)

    p = sub.add_parser("popmle", help="mixing-distribution MLE from count observations")
    p.add_argument("--obs", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--grid", type=int, default=1000)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--truth", default=None)
    p.set_defaults(func=_cmd_popmle)

    p = sub.add_parser("experiment-dp", help="scaling sweep of the private pipeline")
    p.add_argument("--dist", required=True, choices=GENERATORS)
    p.add_argument("--nmin", type=int, default=128)
    p.add_argument("--nmax", type=int, default=8192)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_experiment_dp)

    p = sub.add_parser("verify", help="run the built-in numeric check suites")
    p.add_argument("--suite", default="all", choices=_VERIFY_SUITES + ("all",))
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if getattr(args, "seed", 0) is None:
            args.seed = _default_seed(args.subcommand)  # per call: the cached parser holds no seed
        return args.func(args)
    except CsvFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
