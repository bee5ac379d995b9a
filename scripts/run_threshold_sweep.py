#!/usr/bin/env python3
"""Estimate the parameter thresholds of the preset problem.

Samples random directions to bound the two-root threshold from above, scans
a lambda grid for the largest value with positive Minus-branch energy,
checks sampled fibers for degenerate tangencies, and estimates the discrete
embedding constant.  Exits 1 when the lambda* scan is undetermined.
"""
import argparse
import sys

from doublephase import ProblemData, build_rect_mesh, estimate_lambda_star, estimate_sobolev_constant
from doublephase.sweep import SweepUndetermined, lambda_tilde_from, nzero_evidence, sample_fibers


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
    args = ap.parse_args()

    data = ProblemData(
        p=1.5, q=1.8, kappa=0.5, q1=4.0, lam=0.1,
        mu="x", alpha="1", beta="1", zeta="1",
    )
    mesh = build_rect_mesh(args.nx, args.ny)
    grid = [float(v) for v in args.lambda_grid.split(",")]

    fibers = sample_fibers(mesh, data, args.samples, args.seed)
    lam_tilde = lambda_tilde_from(fibers)
    print(f"lambda_tilde_est = {lam_tilde:.6f}  (sample-min upper bound, {args.samples} samples)")

    for lam in (0.1 * lam_tilde, 0.5 * lam_tilde, lam_tilde):
        ev = nzero_evidence(fibers, lam)
        print(
            f"degenerate-branch scan at lambda={lam:.4f}: "
            f"{len(ev.tangencies)} tangencies, {ev.n_two_root} two-root, {ev.n_no_root} no-root"
        )

    try:
        lam_star = estimate_lambda_star(mesh, data, grid)
        print(f"lambda_star_est = {lam_star:.6f}  (grid {grid})")
    except (SweepUndetermined, ValueError) as exc:
        print(f"lambda_star scan: {exc}")
        lam_star = None

    sobolev = estimate_sobolev_constant(mesh, data, args.samples, args.seed)
    print(f"sobolev_S_est = {sobolev:.6f}  (upper bound on the discrete constant)")
    return 0 if lam_star is not None else 1


if __name__ == "__main__":
    sys.exit(main())
