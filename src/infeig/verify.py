"""Built-in verification battery for the ``verify`` subcommand.

Each check is small enough to run on a fresh checkout in seconds and
exercises one contracted property against an independent reference: exact
values on polynomials and constants, symmetry identities of the operator,
differential agreement with the dense nodal reference, solver uniqueness and
positivity, the residual of the coercive solve at h = 1/64, the refusal of a
solve at the eigenvalue, the eigenvalue laws for constant coefficients, the
eigenvalue with drift against a reference value and the monotone iteration,
the eigenvalue on a 1D grid at h = 1/1024, the bump-bound limit behavior, and
the evolution decay identities.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .eigen import estimate_principal_eigenvalue
from .evolution import check_decay_bound, run_evolution
from .geometry import Disk, Interval, build_grid
from .operators import (
    ScalarField,
    SteadyProblem,
    VectorField,
    apply_operator,
    drift_values,
    gradient_projector,
    inf_laplacian_values,
)
from .oracles import (
    SignChangingParams,
    dense_residual_reference,
    positive_bump_bound,
    sign_changing_coefficient,
)
from .steady import Diverged, SolverConfig, monotone_iteration, solve_coercive, solve_general_rhs


@dataclass
class CheckResult:
    name: str
    passed: bool
    slack: float      # how far inside (negative) or outside (positive) the bound
    seconds: float


def _problem(grid, c, g, lam=0.0, b=None):
    """The steady problem with constant or nodal c and g; zero drift unless b is given."""
    return SteadyProblem(
        grid,
        b if b is not None else VectorField.zero(grid),
        ScalarField(grid, c) if isinstance(c, np.ndarray) else ScalarField.constant(grid, c),
        ScalarField(grid, g) if isinstance(g, np.ndarray) else ScalarField.constant(grid, g),
        lam,
    )


def _projector_properties(rng):
    worst = 0.0
    for _ in range(200):
        p = rng.normal(size=2)
        while np.linalg.norm(p) < 1e-6:
            p = rng.normal(size=2)
        m = gradient_projector(p)
        worst = max(worst, float(np.abs(m - m.T).max()))
        worst = max(worst, float(np.abs(m @ m - m).max()))
        worst = max(worst, float(np.abs(gradient_projector(-2.5 * p) - m).max()))
        eig = np.linalg.eigvalsh(m)
        worst = max(worst, float(max(-eig.min(), eig.max() - 1.0)))
    return worst - 1e-12


def _quadratic_exactness():
    grid = build_grid(Interval(0.0, 1.0), 1.0 / 64.0, 1)
    lap = inf_laplacian_values(grid, grid.nodes[:, 0] ** 2)
    interior = grid.node_class == 0
    return float(np.abs(lap[interior] - 2.0).max())


def _constants_kill_operator():
    grid = build_grid(Disk((0.0, 0.0), 1.0), 0.25, 1)
    prob = _problem(grid, -1.5, 2.0, b=VectorField.constant(grid, (0.7, -0.2)))
    res = apply_operator(prob, ScalarField.constant(grid, 3.0))
    return float(np.abs(res.values - (-1.5 * 3.0 - 2.0)).max()) - 1e-13


def _odd_symmetry(rng):
    grid = build_grid(Disk((0.0, 0.0), 1.0), 0.125, 2)
    u = rng.normal(size=grid.n_active)
    a = inf_laplacian_values(grid, u)
    b = inf_laplacian_values(grid, -u)
    return 0.0 if np.array_equal(b, -a) else 1.0


def _homogeneity(rng):
    grid = build_grid(Disk((0.0, 0.0), 1.0), 0.125, 1)
    u = rng.normal(size=grid.n_active)
    a = inf_laplacian_values(grid, u)
    t = 37.5
    rel = np.abs(inf_laplacian_values(grid, t * u) - t * a).max() / max(1.0, np.abs(t * a).max())
    return float(rel) - 1e-12


def _dense_reference(rng):
    worst = 0.0
    for grid in (
        build_grid(Interval(0.0, 1.0), 0.1, 1),
        build_grid(Disk((0.0, 0.0), 1.0), 0.25, 2),
    ):
        b = VectorField(grid, rng.normal(size=(grid.n_active, grid.dim)))
        c = ScalarField(grid, rng.normal(size=grid.n_active))
        g = ScalarField(grid, rng.normal(size=grid.n_active))
        u = ScalarField(grid, rng.normal(size=grid.n_active))
        prob = SteadyProblem(grid, b, c, g, 0.4)
        fast = apply_operator(prob, u)
        dense = dense_residual_reference(prob, u)
        worst = max(worst, float(np.abs(fast.values - dense.values).max()))
    return worst - 1e-12


def _monotone_perturbation(rng):
    grid = build_grid(Disk((0.0, 0.0), 1.0), 0.25, 1)
    b = VectorField.constant(grid, (0.5, -1.0))
    u = rng.normal(size=grid.n_active)
    base = inf_laplacian_values(grid, u) + drift_values(grid, b.values, u)
    worst = 0.0
    for j in rng.choice(grid.n_active, size=12, replace=False):
        bumped = u.copy()
        bumped[j] += 0.3
        new = inf_laplacian_values(grid, bumped) + drift_values(grid, b.values, bumped)
        mask = np.arange(grid.n_active) != j
        worst = max(worst, float((base[mask] - new[mask]).max()))
    return worst - 1e-12


def _uniqueness(rng):
    """The coarse start against a random one; a constant start ties every arm."""
    grid = build_grid(Interval(0.0, 1.0), 1.0 / 32.0, 1)
    prob = _problem(grid, -1.0, -np.exp(-5.0 * np.abs(grid.nodes[:, 0] - 0.5)))
    cfg = SolverConfig()
    u1 = solve_coercive(prob, cfg)
    u2 = solve_coercive(prob, cfg, initial=ScalarField(grid, rng.uniform(-1.0, 1.0, grid.n_active)))
    return float(np.abs(u1.values - u2.values).max()) - 2.0 * cfg.tol


def _coercive_h64():
    """The coercive case c = -1, g = -exp(-5 r^2) on the unit disk at h = 1/64,
    s = 2 (N = 13085): the residual of solve_coercive's result against tol."""
    grid = build_grid(Disk((0.0, 0.0), 1.0), 1.0 / 64.0, 2)
    prob = _problem(grid, -1.0, -np.exp(-5.0 * np.linalg.norm(grid.nodes, axis=1) ** 2))
    cfg = SolverConfig()
    u = solve_coercive(prob, cfg)
    return float(np.abs(apply_operator(prob, u).values).max()) - cfg.tol


def _solve_refuses_at_threshold():
    """c = 0, lam = 0 = lam_bar, g = -1 on the unit disk at h = 1/8, with the
    CLI's solver settings: the lam-matrix is singular, no solution exists, and
    solve_general_rhs must raise Diverged rather than return a huge field."""
    grid = build_grid(Disk((0.0, 0.0), 1.0), 0.125, 1)
    try:
        solve_general_rhs(_problem(grid, 0.0, -1.0), SolverConfig())
    except Diverged:
        return 0.0
    return 1.0


def _manufactured():
    worst = -np.inf
    errs = {}
    for n in (16, 32):
        grid = build_grid(Interval(0.0, 1.0), 1.0 / n, 1)
        x = grid.nodes[:, 0]
        exact = x**2 * (3.0 - 2.0 * x)
        g = (6.0 - 12.0 * x) - exact
        u = solve_coercive(_problem(grid, -1.0, g), SolverConfig())
        errs[n] = float(np.abs(u.values - exact).max())
        worst = max(worst, errs[n] - 3.0 / n)
    return worst


def _eigen_constants():
    cfg = SolverConfig()
    worst = 0.0
    grid = build_grid(Interval(0.0, 1.0), 1.0 / 16.0, 1)
    est = estimate_principal_eigenvalue(grid, VectorField.zero(grid), ScalarField.constant(grid, -3.0), cfg)
    worst = max(worst, abs(est.lambda_bar - 3.0))
    disk = build_grid(Disk((0.0, 0.0), 1.0), 0.125, 1)
    est2 = estimate_principal_eigenvalue(disk, VectorField.zero(disk), ScalarField.constant(disk, 0.0), cfg)
    worst = max(worst, abs(est2.lambda_bar))
    return worst - 1e-4


def _eigen_shift():
    cfg = SolverConfig()
    grid = build_grid(Interval(0.0, 1.0), 1.0 / 16.0, 1)
    b = VectorField.zero(grid)
    c = ScalarField(grid, -1.0 + 0.5 * np.sin(3.0 * grid.nodes[:, 0]))
    base = estimate_principal_eigenvalue(grid, b, c, cfg).lambda_bar
    shifted = estimate_principal_eigenvalue(
        grid, b, ScalarField(grid, c.values - 2.0), cfg
    ).lambda_bar
    return abs(shifted - (base + 2.0)) - 2e-4


def _eigen_drift():
    """Sign-changing c with drift at h = 1/16: the bracket must hold 0.761279
    (closed to width 1e-11 it is 0.76127855), and the monotone iteration, an
    independent argument, must converge 0.02 below its lower end."""
    cfg = SolverConfig()
    grid = build_grid(Disk((0.0, 0.0), 1.0), 0.0625, 2)
    params = SignChangingParams(1.0, 0.2, 0.05, 1.0, 0.5 * positive_bump_bound(1.0, 0.2, 1.0, 5.0), 5.0)
    c = sign_changing_coefficient(params, grid)
    b = VectorField.constant(grid, (0.7, -0.3))
    est = estimate_principal_eigenvalue(grid, b, c, cfg)
    below = monotone_iteration(grid, b, c, est.lambda_lo - 0.02, ScalarField.constant(grid, -1.0), cfg)
    if not below.converged or not float(np.min(est.eigenfunction.values)) > 0.0:
        return 1.0
    reference = 0.761279
    return max(est.lambda_hi - est.lambda_lo - 1e-4, est.lambda_lo - reference, reference - est.lambda_hi)


def _eigen_interval_h1024():
    """The README c as c(|x|) on [-1, 1] at h = 1/1024, s = 1: the bracket must
    hold 0.719935 (closed to width 4e-9 it is 0.71993534)."""
    grid = build_grid(Interval(-1.0, 1.0), 1.0 / 1024.0, 1)
    c = ScalarField(grid, np.where(np.abs(grid.nodes[:, 0]) <= 0.2, 0.325, -1.0))
    est = estimate_principal_eigenvalue(grid, VectorField.zero(grid), c, SolverConfig())
    reference = 0.719935
    return max(est.lambda_hi - est.lambda_lo - 1e-4, est.lambda_lo - reference, reference - est.lambda_hi)


def _bump_bound():
    v = positive_bump_bound(1.0, 0.2, 1.0, 5.0)
    ok = abs(v - 0.65078598721269449) <= 1e-12
    grow = [positive_bump_bound(1.0, r, 1.0, 1.0 / r) for r in (0.1, 0.05, 0.025)]
    shrink = [positive_bump_bound(1.0, 0.2, d, 5.0) for d in (1.0, 0.1, 0.01)]
    ok = ok and grow[0] < grow[1] < grow[2] and shrink[0] > shrink[1] > shrink[2]
    return 0.0 if ok else 1.0


def _sign_coefficient():
    params = SignChangingParams(1.0, 0.2, 0.05, 1.0, 0.3, 5.0)
    grid = build_grid(Disk((0.0, 0.0), 1.0), 0.0625, 2)
    c = sign_changing_coefficient(params, grid)
    r = np.linalg.norm(grid.nodes, axis=1)
    ok = np.all(c.values[r <= 0.2] == 0.3)
    ok = ok and np.all(c.values[(r > 0.2) & (r <= 0.95)] == -1.0)
    ok = ok and np.all(c.values[r > 0.95] < 0.0)
    return 0.0 if ok else 1.0


def _evolution_decay():
    grid = build_grid(Interval(0.0, 1.0), 1.0 / 16.0, 1)
    prob = _problem(grid, -1.0, 0.0)
    ones = ScalarField.constant(grid, 1.0)
    # dt below the CFL step so the Euler-in-time error stays under 1e-3 at T=5
    trace = run_evolution(
        ScalarField.constant(grid, 2.0), prob, 5.0, dt=1e-4, weight=ones, rate=1.0
    )
    rel = abs(trace.sup_norm[-1] - 2.0 * np.exp(-5.0)) / (2.0 * np.exp(-5.0))
    decay = check_decay_bound(trace, tol=1e-8)
    return max(rel - 1e-3, decay.slack - 1e-8)


def _strong_positivity():
    grid = build_grid(Disk((0.0, 0.0), 1.0), 0.125, 1)
    r2 = np.sum(grid.nodes**2, axis=1)
    g = ScalarField(grid, -np.exp(-8.0 * r2))
    out = monotone_iteration(
        grid, VectorField.zero(grid), ScalarField.constant(grid, 0.0), -0.5, g, SolverConfig()
    )
    if not out.converged:
        return 1.0
    return 1e-8 - float(np.min(out.u.values))


def run_verification() -> list:
    """Run the battery; returns a list of CheckResult."""
    rng = np.random.default_rng(2024)
    checks = [
        ("projector-properties", lambda: _projector_properties(rng)),
        ("ring-1d-quadratic-exact", _quadratic_exactness),
        ("constants-kill-operator", _constants_kill_operator),
        ("odd-symmetry", lambda: _odd_symmetry(rng)),
        ("positive-homogeneity", lambda: _homogeneity(rng)),
        ("dense-reference-agreement", lambda: _dense_reference(rng)),
        ("monotone-perturbation", lambda: _monotone_perturbation(rng)),
        ("coercive-uniqueness", lambda: _uniqueness(rng)),
        ("coercive-h64", _coercive_h64),
        ("solve-refuses-at-threshold", _solve_refuses_at_threshold),
        ("manufactured-1d-convergence", _manufactured),
        ("eigen-constant-coefficients", _eigen_constants),
        ("eigen-shift-law", _eigen_shift),
        ("eigen-drift", _eigen_drift),
        ("eigen-interval-h1024", _eigen_interval_h1024),
        ("bump-bound-limits", _bump_bound),
        ("sign-changing-coefficient", _sign_coefficient),
        ("evolution-constant-decay", _evolution_decay),
        ("strong-positivity", _strong_positivity),
    ]
    results = []
    for name, fn in checks:
        start = time.perf_counter()
        try:
            slack = float(fn())
            passed = slack <= 0.0
        except Exception:
            slack = float("inf")
            passed = False
        results.append(CheckResult(name, passed, slack, time.perf_counter() - start))
    return results
