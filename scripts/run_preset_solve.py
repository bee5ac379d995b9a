#!/usr/bin/env python3
"""Solve the reference preset and print both branch solutions.

Runs the CLI's ``solve`` command on the preset at a chosen parameter value on
the unit square: it prints energies, convergence and iteration counts, and
writes the solution profiles plus a JSON report under --out.  Exits with the
command's status (0 when the two solutions have the expected sign pattern).
"""
import argparse
import sys

from doublephase import SolverOptions
from doublephase.cli import Config, run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lam", type=float, default=0.1)
    ap.add_argument("--nx", type=int, default=16)
    ap.add_argument("--ny", type=int, default=16)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="out/preset_solve")
    args = ap.parse_args()

    config = Config(
        p=1.5, q=1.8, kappa=0.5, q1=4.0, lam=args.lam,
        mu="x", alpha="1", beta="1", zeta="1",
        nx=args.nx, ny=args.ny, solver=SolverOptions(seed=args.seed),
    )
    return run("solve", config, args.out)


if __name__ == "__main__":
    sys.exit(main())
