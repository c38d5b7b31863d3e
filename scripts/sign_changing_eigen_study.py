#!/usr/bin/env python3
"""Eigenvalue study for the sign-changing radial coefficient on the unit disk.

Builds the piecewise coefficient (+bump_height inside the bump ball, negative
outside), sweeps grid resolutions, and reports the certified
(Collatz-Wielandt) eigenvalue bracket, the eigenfunction minimum, and the
residual at the bracket midpoint.
The bump height defaults to half the admissible ceiling, so the principal
eigenvalue should come out strictly positive at every resolution.
"""

import argparse
import time

import numpy as np

from infeig.eigen import estimate_principal_eigenvalue
from infeig.geometry import Disk, build_grid
from infeig.operators import VectorField
from infeig.oracles import SignChangingParams, positive_bump_bound, sign_changing_coefficient
from infeig.steady import SolverConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bump-radius", type=float, default=0.2)
    ap.add_argument("--band-width", type=float, default=0.05)
    ap.add_argument("--well-depth", type=float, default=1.0)
    ap.add_argument("--rate", type=float, default=5.0)
    ap.add_argument("--bump-scale", type=float, default=0.5,
                    help="bump height as a fraction of the admissible ceiling")
    ap.add_argument("--resolutions", default="16:2,24:2,32:2",
                    help="comma-separated n:s pairs, h = 1/n")
    ap.add_argument("--bisect-tol", type=float, default=1e-4,
                    help="target width of the Collatz-Wielandt eigenvalue bracket")
    args = ap.parse_args()

    ceiling = positive_bump_bound(1.0, args.bump_radius, args.well_depth, args.rate)
    params = SignChangingParams(
        outer_radius=1.0,
        bump_radius=args.bump_radius,
        band_width=args.band_width,
        well_depth=args.well_depth,
        bump_height=args.bump_scale * ceiling,
        rate=args.rate,
    )
    print(f"bump ceiling = {ceiling:.6f}, using bump height = {params.bump_height:.6f}")
    print(f"{'h':>8} {'s':>3} {'nodes':>7} {'lambda_lo':>12} {'lambda_hi':>12} "
          f"{'residual':>10} {'min phi':>9} {'time':>7}")

    cfg = SolverConfig()
    for token in args.resolutions.split(","):
        n, s = (int(v) for v in token.split(":"))
        grid = build_grid(Disk((0.0, 0.0), 1.0), 1.0 / n, s)
        c = sign_changing_coefficient(params, grid)
        start = time.perf_counter()
        est = estimate_principal_eigenvalue(grid, VectorField.zero(grid), c, cfg, args.bisect_tol)
        elapsed = time.perf_counter() - start
        print(f"{'1/%d' % n:>8} {s:>3} {grid.n_active:>7} {est.lambda_lo:>12.6f} "
              f"{est.lambda_hi:>12.6f} {est.eigen_residual:>10.2e} "
              f"{float(np.min(est.eigenfunction.values)):>9.4f} {elapsed:>6.1f}s")


if __name__ == "__main__":
    main()
