#!/usr/bin/env python3
"""Estimate the parameter thresholds of the preset problem.

Runs the CLI's ``sweep`` command on the preset on the unit square: it samples
random directions to bound the two-root threshold from above, checks the
sampled fibers for degenerate tangencies at each grid lambda, scans the grid
for the largest lambda with positive Minus-branch energy, and estimates the
discrete embedding constant.  Writes ``sweep_report.json`` and
``sweep_samples.csv`` under --out.  Exits 1 when the lambda* scan is
undetermined.
"""
import argparse
import sys

from doublephase.cli import Config, run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nx", type=int, default=8)
    ap.add_argument("--ny", type=int, default=8)
    ap.add_argument("--samples", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--lambda-grid", default="0.05,0.1,0.2,0.4,0.8",
        help="ascending comma-separated lambda values",
    )
    ap.add_argument("--out", default="out/threshold_sweep")
    args = ap.parse_args()

    config = Config(
        p=1.5, q=1.8, kappa=0.5, q1=4.0, lam=0.1,
        mu="x", alpha="1", beta="1", zeta="1",
        nx=args.nx, ny=args.ny, sweep_samples=args.samples, sweep_seed=args.seed,
        lambda_grid=tuple(float(v) for v in args.lambda_grid.split(",")),
    )
    return run("sweep", config, args.out)


if __name__ == "__main__":
    sys.exit(main())
