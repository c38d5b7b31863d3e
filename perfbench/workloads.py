"""Workloads, operations and correctness gates of the benchmark.

Every workload starts from the README disk config (unit disk, s = 2,
c = piecewise(r, 0.2, 0.325, -1.0)).  An operation (op) is one CLI call,
``infeig.cli.main([...])``, or one call to the public Python API.  Each op
has a gate that is computed outside the timed region, only from the op's
artifacts (or returned value) and public functions; an op fails when it exits
nonzero, raises, or fails its gate.

Seed 0 runs the unperturbed cases.  Any other seed moves the centre
of the initial bumps (h0 and the first mpcheck seed) by at most 0.05 in each
coordinate.  That leaves the grid, the step count and the eigen problem
unchanged, so the work per op stays the same across seeds.  The eigen and
solve ops have no such free input and are the same for every seed: moving
the coercive right-hand side's centre changes the policy iterations it
takes (96 against 231 factorizations at h = 1/32).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

import numpy as np

from infeig import cli, config, evolution, operators, oracles

README_CONFIG = """\
domain.type = disk
domain.radius = 1
grid.h = 0.0625
grid.s = 2
coeff.c = piecewise(r, 0.2, 0.325, -1.0)
coeff.g = -1
lambda = 0
eigen.bisect_tol = 1e-4
evolve.T = 30
coeff.h0 = exp(-50*r^2)
mpcheck.lambda = 0.5
mpcheck.seeds = exp(-50*r^2) ; 1
"""

H16, H32, H64 = "0.0625", "0.03125", "0.015625"

# T = 0.25 is 587 CFL steps at h = 1/64, about 2.5 s on a 2-core x86 machine,
# so that one run holds several samples.
STEP_T = "0.25"


@dataclass
class Op:
    kind: str    # eigen | solve | evolve | mpcheck | step
    label: str
    config: str  # full config text


def initial_bump(seed: int) -> str:
    """exp(-50 r^2), centred off the origin by the seed unless it is 0."""
    if seed == 0:
        return "exp(-50*r^2)"
    rng = random.Random(seed)
    x0, y0 = round(rng.uniform(-0.05, 0.05), 6), round(rng.uniform(-0.05, 0.05), 6)
    return f"exp(-50*((x - ({x0!r}))^2 + (y - ({y0!r}))^2))"


def config_text(overrides: dict) -> str:
    """README config with later assignments, which win."""
    return README_CONFIG + "".join(f"{key} = {value}\n" for key, value in overrides.items())


def workload_ops(name: str, seed: int) -> list:
    """The fixed op list of one pass over the workload."""
    bump = initial_bump(seed)
    if name == "eigen-disk16":
        return [Op("eigen", "eigen h=1/16", config_text({"grid.h": H16}))]
    if name == "solve-disk32":
        return [
            Op("solve", "coercive solve h=1/32",
               config_text({"grid.h": H32, "coeff.c": "-1", "coeff.g": "-exp(-5*r^2)"})),
            Op("solve", "README solve h=1/32", config_text({"grid.h": H32})),
        ]
    if name == "step-disk64":
        return [Op("step", "run_evolution h=1/64", config_text({
            "grid.h": H64, "coeff.bx": "0.7", "coeff.by": "-0.3", "coeff.g": "0",
            "coeff.h0": bump, "evolve.T": STEP_T}))]
    if name == "mp-disk16":
        return [
            Op("evolve", "evolve h=1/16", config_text({"grid.h": H16, "coeff.h0": bump})),
            Op("mpcheck", "mpcheck h=1/16", config_text({"grid.h": H16, "mpcheck.seeds": f"{bump} ; 1"})),
        ]
    raise KeyError(name)


class Prepared:
    """Config text to a ready grid and coefficient fields.

    Built once per op and run, outside the timed region, for the API op and
    the gates; its construction is also what setup_s times.
    """

    def __init__(self, text: str):
        self.cfg = config.load_config(config.parse_config_text(text))
        self.grid = self.cfg.build_grid()
        self.b = self.cfg.drift_field(self.grid)
        self.c = self.cfg.scalar_field(self.grid, self.cfg.c)
        self.g = self.cfg.scalar_field(self.grid, self.cfg.g)
        self.h0 = self.cfg.scalar_field(self.grid, self.cfg.h0)

    def problem(self) -> operators.SteadyProblem:
        return operators.SteadyProblem(self.grid, self.b, self.c, self.g, self.cfg.lam)

    def context(self) -> dict:
        return {"N": self.grid.n_active, "K": int(self.grid.ring_index.shape[1]),
                "ghosts": self.grid.n_ghost, "h": self.cfg.h, "s": self.cfg.s}


def write_op_config(op: Op, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "op.cfg")
    with open(path, "w") as f:
        f.write(op.config)
    return path


def run_op(op: Op, prep: Prepared, cfg_path: str, out_dir: str):
    """The timed call.  Returns the CLI exit code, or the EvolutionTrace."""
    if op.kind == "step":
        return evolution.run_evolution(prep.h0, prep.problem(), prep.cfg.evolve_T)
    return cli.main([op.kind, "--config", cfg_path, "--out", out_dir])


def step_count(trace) -> int:
    """Explicit steps behind an EvolutionTrace, counted as run_evolution does."""
    return int(np.ceil(trace.T / trace.dt - 1e-12))


# ---------------------------------------------------------------- gates


def _column(path: str, col: int) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=col, ndmin=1)


def _load_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def collatz_wielandt(prep: Prepared, phi: np.ndarray) -> tuple:
    """[min q, max q] with q = -L_h(phi)/phi; it holds lambda_bar_h for phi > 0."""
    zero = np.zeros(prep.grid.n_active)
    q = -operators.residual_values(prep.grid, prep.b.values, prep.c.values, zero, 0.0, phi) / phi
    return float(q.min()), float(q.max())


def gate_eigen(prep: Prepared, out_dir: str) -> list:
    est = _load_json(os.path.join(out_dir, "eigen.json"))
    phi = _column(os.path.join(out_dir, "eigenfunction.csv"), 3)
    lo, hi = est["lambda_lo"], est["lambda_hi"]
    problems = []
    if not hi - lo <= prep.cfg.bisect_tol:
        problems.append(f"bracket width {hi - lo:.3e} > bisect_tol {prep.cfg.bisect_tol:.1e}")
    if not phi.min() > 0.0:
        problems.append(f"eigenfunction not positive (min {phi.min():.3e})")
        return problems
    q_lo, q_hi = collatz_wielandt(prep, phi)
    if q_hi < lo or q_lo > hi:
        problems.append(f"bracket [{lo:.6f}, {hi:.6f}] misses the Collatz-Wielandt bracket "
                        f"[{q_lo:.6f}, {q_hi:.6f}]")
    return problems


def gate_solve(prep: Prepared, out_dir: str) -> list:
    u = _column(os.path.join(out_dir, "solution.csv"), 3)
    solver = prep.cfg.solver
    bound = max(solver.tol, solver.rel_tol * max(1.0, float(np.max(np.abs(u)))))
    fast = float(np.max(np.abs(operators.residual_values(
        prep.grid, prep.b.values, prep.c.values, prep.g.values, prep.cfg.lam, u))))
    dense = oracles.dense_residual_reference(prep.problem(), operators.ScalarField(prep.grid, u))
    dense = float(np.max(np.abs(dense.values)))
    problems = []
    for name, r in (("residual", fast), ("dense reference residual", dense)):
        if not r <= bound:
            problems.append(f"{name} {r:.3e} > certificate {bound:.3e}")
    return problems


def gate_step(prep: Prepared, trace) -> list:
    problems = []
    if not trace.cfl_margin <= 1.0:
        problems.append(f"cfl_margin {trace.cfl_margin} > 1")
    final = trace.final_state.values
    if not final.min() >= 0.0:
        problems.append(f"state went negative (min {final.min():.3e})")
    growth = float(np.max(prep.c.values + prep.cfg.lam))
    bound = float(np.max(np.abs(prep.h0.values))) * np.exp(growth * trace.times) * (1.0 + 1e-12)
    if np.any(trace.sup_norm > bound):
        problems.append("sup norm exceeds |h0| exp(max(c + lam) t)")
    return problems


def gate_evolve(prep: Prepared, out_dir: str) -> list:
    summary = _load_json(os.path.join(out_dir, "summary.json"))
    problems = []
    if summary["pass"] is not True:
        problems.append(f"decay check failed (slack {summary['slack']})")
    if not summary["cfl_margin"] <= 1.0:
        problems.append(f"cfl_margin {summary['cfl_margin']} > 1")
    return problems


def gate_mpcheck(prep: Prepared, out_dir: str) -> list:
    report = _load_json(os.path.join(out_dir, "mpcheck.json"))
    verdicts = [s["verdict"] for s in report["seeds"]]
    if len(verdicts) != len(prep.cfg.mp_seeds) or any(v != "MP-holds" for v in verdicts):
        return [f"expected MP-holds for all {len(prep.cfg.mp_seeds)} seeds at lambda "
                f"{report['lambda']}, got {verdicts}"]
    return []


ARTIFACT_GATES = {"eigen": gate_eigen, "solve": gate_solve, "evolve": gate_evolve, "mpcheck": gate_mpcheck}


def gate(op: Op, prep: Prepared, out_dir: str, result) -> list:
    """Reasons the op failed; empty when it passed."""
    if op.kind == "step":
        return gate_step(prep, result)
    if result != 0:
        return [f"exit code {result}"]
    return ARTIFACT_GATES[op.kind](prep, out_dir)
