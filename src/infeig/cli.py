"""Command-line front end.

    infeig <solve|eigen|evolve|mpcheck|verify> --config <path>
           [--out <dir>] [--set key=value ...]

Exit status: 0 all good, 2 config parse error, 3 solver non-convergence or
divergence, 4 verification failure.  Data files are byte-stable across
reruns; ``run_meta.json`` carries the timestamp.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import ConfigError, RunConfig, load_config, parse_config_text
from .eigen import check_maximum_principle, check_seeds, estimate_principal_eigenvalue
from .errors import InfeigError
from .evolution import check_decay_bound, run_evolution
from .expr import ExprError
from .geometry import CLASS_NAMES, GeometryError, grid_metadata
from .operators import ScalarField, SteadyProblem, apply_operator
from .output import node_columns, write_csv, write_json, write_run_meta
from .steady import Diverged, SolverError, solve_general_rhs
from .verify import run_verification


def _emit_grid(out_dir: str, grid) -> None:
    write_json(os.path.join(out_dir, "grid.json"), grid_metadata(grid))
    write_csv(os.path.join(out_dir, "nodes.csv"), ("index", "x", "y", "class"),
              node_columns(grid, CLASS_NAMES[grid.node_class]))


def _where_lambda_lies(cfg: RunConfig, grid, b, c) -> str:
    """Where lambda lies against the eigen bracket, for a solve that diverged.
    The ends are rounded quotients, so a lambda within 1e-12 max(1, |lambda|)
    of one counts as inside, as lambda = -c does for a constant c."""
    try:
        est = estimate_principal_eigenvalue(grid, b, c, cfg.solver, cfg.bisect_tol)
    except InfeigError as e:
        return f"no eigen bracket to compare lambda with: {e}"
    lo, hi, slack = est.lambda_lo, est.lambda_hi, 1e-12 * max(1.0, abs(cfg.lam))
    if cfg.lam > hi + slack:
        where = "above", "lambda > lambda_bar_h, where no solution is expected"
    elif cfg.lam < lo - slack:
        where = "below", "lambda < lambda_bar_h, where a solution exists, so this is a solver failure"
    else:
        where = "inside", "undecided, the bracket cannot tell lambda from lambda_bar_h"
    return f"lambda = {cfg.lam!r} lies {where[0]} the eigen bracket [{lo!r}, {hi!r}]: {where[1]}"


def _cmd_solve(cfg: RunConfig, grid, b, c, out_dir: str) -> int:
    problem = SteadyProblem(grid, b, c, cfg.scalar_field(grid, cfg.g), cfg.lam)
    try:
        u = solve_general_rhs(problem, cfg.solver)
    except Diverged as e:
        raise SolverError(f"{e}; {_where_lambda_lies(cfg, grid, b, c)}") from e
    residual = apply_operator(problem, u)
    write_csv(os.path.join(out_dir, "solution.csv"), ("index", "x", "y", "u"),
              node_columns(grid, u.values))
    write_json(os.path.join(out_dir, "residual.json"), {
        "residual_sup": float(np.max(np.abs(residual.values))),
        "lambda": cfg.lam,
        "sup_norm": u.sup_norm,
        "n_active": grid.n_active,
    })
    return 0


def _cmd_eigen(cfg: RunConfig, grid, b, c, out_dir: str) -> int:
    est = estimate_principal_eigenvalue(grid, b, c, cfg.solver, cfg.bisect_tol)
    write_json(os.path.join(out_dir, "eigen.json"), est.to_dict())
    write_csv(os.path.join(out_dir, "eigenfunction.csv"), ("index", "x", "y", "phi"),
              node_columns(grid, est.eigenfunction.values))
    return 0


def _cmd_evolve(cfg: RunConfig, grid, b, c, out_dir: str) -> int:
    """Source-free evolution h_t = lap(h) + b.Dh + (c + lambda) h from h0,
    with the weighted decay check against the (shifted) eigenvalue."""
    problem = SteadyProblem(grid, b, c, ScalarField.constant(grid, 0.0), cfg.lam)
    h0 = cfg.scalar_field(grid, cfg.h0)
    est = estimate_principal_eigenvalue(grid, b, c, cfg.solver, cfg.bisect_tol)
    rate = est.lambda_bar - cfg.lam  # eigenvalue of the shifted operator
    trace = run_evolution(
        h0, problem, cfg.evolve_T, output_interval=cfg.output_interval,
        weight=est.eigenfunction, rate=rate,
    )
    decay = check_decay_bound(trace, tol=1e-2)
    write_csv(os.path.join(out_dir, "trace.csv"), ("t", "sup_norm", "weighted_ratio"),
              (trace.times, trace.sup_norm, trace.weighted_ratio))
    write_json(os.path.join(out_dir, "summary.json"), {
        "fitted_rate": trace.fitted_rate,
        "dt": trace.dt,
        "T": trace.T,
        "cfl_margin": trace.cfl_margin,
        "lambda": cfg.lam,
        "lambda_bar": est.lambda_bar,
        "pass": decay.passed,
        "slack": decay.slack,
    })
    return 0 if decay.passed else 4


def _cmd_mpcheck(cfg: RunConfig, grid, b, c, out_dir: str) -> int:
    seeds = cfg.seed_fields(grid)
    try:
        check_seeds(seeds, cfg.mp_decay_threshold, cfg.mp_blowup)
    except ValueError as e:
        raise ConfigError(f"mpcheck.seeds: {e}") from None
    est = estimate_principal_eigenvalue(grid, b, c, cfg.solver, cfg.bisect_tol)
    report = check_maximum_principle(
        grid, b, c, cfg.mp_lambda, seeds,
        t_max=cfg.mp_t_max,
        decay_threshold=cfg.mp_decay_threshold,
        blowup_threshold=cfg.mp_blowup,
        lambda_bar=est.lambda_bar,
        estimate=est,
    )
    write_json(os.path.join(out_dir, "mpcheck.json"), report.to_dict())
    return 0


def _cmd_verify(out_dir: str) -> int:
    results = run_verification()
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}  slack={r.slack:.3e}  ({r.seconds:.2f}s)")
    write_json(os.path.join(out_dir, "verify.json"), {
        "passed": all(r.passed for r in results),
        "checks": [
            {"name": r.name, "passed": r.passed, "slack": r.slack, "seconds": r.seconds}
            for r in results
        ],
    })
    return 0 if all(r.passed for r in results) else 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="infeig",
        description="Principal Neumann eigenvalue and steady/evolution solvers "
        "for the normalized infinity-Laplacian with drift and zero-order terms.",
    )
    parser.add_argument("subcommand", choices=["solve", "eigen", "evolve", "mpcheck", "verify"])
    parser.add_argument("--config", help="path to a key=value config file")
    parser.add_argument("--out", default=None, help="output directory (default: config output.dir)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key")
    args = parser.parse_args(argv)

    try:
        if args.subcommand == "verify":
            out_dir = args.out or "."
            os.makedirs(out_dir, exist_ok=True)
            return _cmd_verify(out_dir)

        if not args.config:
            print("error: --config is required for this subcommand", file=sys.stderr)
            return 2
        with open(args.config) as f:
            text = f.read()
        cfg = load_config(parse_config_text(text, args.overrides))
        out_dir = args.out or cfg.out_dir
        os.makedirs(out_dir, exist_ok=True)
        write_run_meta(out_dir, args.subcommand, cfg.raw)
        grid = cfg.build_grid()
        command = {"solve": _cmd_solve, "eigen": _cmd_eigen, "evolve": _cmd_evolve, "mpcheck": _cmd_mpcheck}
        code = command[args.subcommand](cfg, grid, cfg.drift_field(grid), cfg.scalar_field(grid, cfg.c), out_dir)
        _emit_grid(out_dir, grid)  # after the command: a run that raises writes no grid.json
        return code
    except (ConfigError, ExprError, GeometryError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InfeigError as e:
        # solver non-convergence, divergence, bracket/probe failures, CFL
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
