#!/usr/bin/env python3
"""Median cost of one ``residual_values`` call and of one explicit step.

Builds the README example config (the unit disk, its c, its h0 and its first
mpcheck seed) at the given spacing and ring factor, with an optional
constant drift, and prints the grid's sizes (N, the ring's K arms and its
scale groups, whose count sets the kernel's passes, and the ghost count),
the core count and the numpy and scipy versions.  Then it times --repeats
rounds of three loops of --steps each: ``residual_values`` on h0, a
``run_evolution`` march from h0, and an ``evolve_until`` march of the
mpcheck seed at the mpcheck lambda that does not stop early; both marches
step at 0.9 times the CFL step.  The README ``mpcheck`` itself settles both
seeds by the eigen bound and marches neither, so the last loop times the
path that ``mpcheck`` takes for a seed the bound cannot settle.  It prints
the median over the rounds of the time per call and per step:

    PYTHONPATH=src python scripts/step_cost.py --h 0.015625 --drift 0.7 -0.3
"""

import argparse
import os
import statistics
from time import perf_counter

import numpy as np
import scipy

from artifact_digest import README_CONFIG
from infeig import config
from infeig.evolution import cfl_bound, evolve_until, run_evolution
from infeig.operators import ScalarField, SteadyProblem, residual_values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--h", default="0.0625", help="grid spacing grid.h (default 0.0625)")
    parser.add_argument("--s", default="2", help="stencil ring factor grid.s (default 2)")
    parser.add_argument("--drift", nargs=2, metavar=("BX", "BY"), help="constant drift b (default none)")
    parser.add_argument("--steps", type=int, default=200, help="calls and steps per round (default 200)")
    parser.add_argument("--repeats", type=int, default=7, help="rounds (default 7)")
    args = parser.parse_args()

    overrides = [f"grid.h={args.h}", f"grid.s={args.s}"]
    if args.drift:
        overrides += [f"coeff.bx={args.drift[0]}", f"coeff.by={args.drift[1]}"]
    cfg = config.load_config(config.parse_config_text(README_CONFIG, overrides))
    grid = cfg.build_grid()
    problem = SteadyProblem(grid, cfg.drift_field(grid), cfg.scalar_field(grid, cfg.c),
                            cfg.scalar_field(grid, cfg.g), cfg.lam)
    h0 = cfg.scalar_field(grid, cfg.h0)
    seed = cfg.scalar_field(grid, cfg.mp_seeds[0])
    mp_problem = SteadyProblem(grid, problem.b, problem.c, ScalarField.constant(grid, 0.0), cfg.mp_lambda)
    mp_T = (args.steps - 0.5) * 0.9 * cfl_bound(mp_problem)
    coefficients = (grid, problem.b.values, problem.c.values, problem.g.values, problem.lam)
    dt = 0.9 * cfl_bound(problem)
    T = (args.steps - 0.5) * dt  # args.steps steps, the last one clipped

    print(f"N {grid.n_active}  K {grid.ring_index.shape[1]}  groups {len(grid.ring_groups)}  ghosts {grid.n_ghost}  "
          f"cores {len(os.sched_getaffinity(0))}  numpy {np.__version__}  scipy {scipy.__version__}")
    print(f"h {grid.h}  s {grid.s}  drift {bool(problem.b.values.any())}  "
          f"steps {args.steps}  repeats {args.repeats}")
    calls, steps, seed_steps = [], [], []
    for _ in range(args.repeats):
        start = perf_counter()
        for _ in range(args.steps):
            residual_values(*coefficients, h0.values)
        calls.append((perf_counter() - start) / args.steps)
        start = perf_counter()
        run_evolution(h0, problem, T, output_interval=T, dt=dt)
        steps.append((perf_counter() - start) / args.steps)
        start = perf_counter()
        evolve_until([seed], mp_problem, mp_T, stop_below=0.0, stop_above=np.inf)
        seed_steps.append((perf_counter() - start) / args.steps)
    print(f"residual_values  {1e6 * statistics.median(calls):.1f} us per call (median)")
    print(f"run_evolution    {1e6 * statistics.median(steps):.1f} us per step (median)")
    print(f"evolve_until     {1e6 * statistics.median(seed_steps):.1f} us per step of a seed (median)")


if __name__ == "__main__":
    main()
