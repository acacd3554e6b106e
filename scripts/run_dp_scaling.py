#!/usr/bin/env python3
"""Reproduce the private-synthesis scaling study and print the fit.

Example:
    python scripts/run_dp_scaling.py --dist gaussian --out gaussian.csv
"""

import argparse
import sys

from momentforge.cli import EXIT_VALIDATION
from momentforge.dpsynth import expected_error_curve
from momentforge.experiments import (
    GENERATORS,
    doubling_sizes,
    mean_w1_by_n,
    rate_slope_check,
    run_dp_scaling,
    write_scaling_csv,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dist", default="gaussian", choices=GENERATORS)
    parser.add_argument("--nmin", type=int, default=128)
    parser.add_argument("--nmax", type=int, default=8192)
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--epsilon", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    try:
        n_values = doubling_sizes(args.nmin, args.nmax)
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    rows = run_dp_scaling(args.dist, n_values, args.trials, args.epsilon, args.seed, jobs=args.jobs)

    if args.out:
        write_scaling_csv(rows, args.out)

    ns, means = mean_w1_by_n(rows)
    print(f"{'n':>6} {'mean W1':>10} {'bound':>10} {'ratio':>7}")
    for n, mean in zip(ns, means):
        curve = expected_error_curve(n, args.epsilon, 1.0 / n**2)
        print(f"{n:>6} {mean:>10.5f} {curve:>10.5f} {mean / curve:>7.2f}")
    check = rate_slope_check(ns, means, args.epsilon)
    print(f"log-log slope: {check.slope:.4f}")
    print(f"criterion 4b window: {check.window}: {'PASS' if check.ok else 'FAIL'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
