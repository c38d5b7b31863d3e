"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here; nothing is calibrated at runtime.  The
sign-changing-coefficient eigen solve is shared through a session fixture.
"""

import time

import numpy as np

from infeig import steady
from infeig.eigen import check_maximum_principle, estimate_principal_eigenvalue
from infeig.evolution import check_decay_bound, run_evolution
from infeig.geometry import Disk, Interval, build_grid
from infeig.operators import (
    ScalarField,
    SteadyProblem,
    VectorField,
    apply_operator,
    gradient_projector,
    inf_laplacian_values,
)
from infeig.oracles import (
    dense_residual_reference,
    lipschitz_constant,
    positive_bump_bound,
    sign_changing_coefficient,
)
from infeig.steady import monotone_iteration, solve_coercive

BISECT_TOL = 1e-4


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")


def test_criterion_1_constant_coefficient_eigenvalue(cfg):
    cases = []
    grids = [
        ("interval h=1/64", build_grid(Interval(0.0, 1.0), 1.0 / 64.0, 1)),
        ("disk h=1/32", build_grid(Disk((0.0, 0.0), 1.0), 1.0 / 32.0, 1)),
    ]
    for label, grid in grids:
        for c0 in (-3.0, 0.0, 2.0):
            start = time.perf_counter()
            est = estimate_principal_eigenvalue(
                grid, VectorField.zero(grid), ScalarField.constant(grid, c0), cfg, BISECT_TOL
            )
            elapsed = time.perf_counter() - start
            lam_err = abs(est.lambda_bar - (-c0))
            phi_err = float(np.abs(est.eigenfunction.values - 1.0).max())
            cases.append((label, c0, lam_err, phi_err, elapsed))
    ok = all(l <= BISECT_TOL and p <= 1e-6 and t < 30.0 for _, _, l, p, t in cases)
    worst = max(cases, key=lambda c: c[2])
    _report(
        1, "constant-coefficient eigenvalue", ok,
        f"worst |lam_bar + c0| = {worst[2]:.2e} ({worst[0]}, c0={worst[1]}), "
        f"max phi error = {max(c[3] for c in cases):.2e}, "
        f"max runtime = {max(c[4] for c in cases):.1f}s",
    )
    for label, c0, lam_err, phi_err, elapsed in cases:
        assert lam_err <= BISECT_TOL, (label, c0, lam_err)
        assert phi_err <= 1e-6, (label, c0, phi_err)
        assert elapsed < 30.0, (label, c0, elapsed)


def test_criterion_2_bound_and_shift_laws(cfg, sign_changing_setup):
    start = time.perf_counter()
    results = []

    # field 1: the sign-changing disk coefficient (estimate shared via fixture)
    grid_d = sign_changing_setup["grid"]
    c_d = sign_changing_setup["c"]
    base_d = sign_changing_setup["estimate"].lambda_bar
    results.append(("sign-changing bound", base_d <= float(np.abs(c_d.values).max()) + BISECT_TOL))
    b_d = VectorField.zero(grid_d)
    for s in (-2.0, 1.0, 5.0):
        shifted = estimate_principal_eigenvalue(
            grid_d, b_d, ScalarField(grid_d, c_d.values + s), cfg, BISECT_TOL
        ).lambda_bar
        results.append((f"sign-changing shift {s}", abs(shifted - (base_d - s)) <= 2.0 * BISECT_TOL))

    # field 2: smooth sign-varying c on the interval
    grid_i = build_grid(Interval(0.0, 1.0), 1.0 / 64.0, 1)
    c_i = ScalarField(grid_i, -1.0 + 0.5 * np.sin(3.0 * grid_i.nodes[:, 0]))
    b_i = VectorField.zero(grid_i)
    base_i = estimate_principal_eigenvalue(grid_i, b_i, c_i, cfg, BISECT_TOL).lambda_bar
    results.append(("sine bound", base_i <= float(np.abs(c_i.values).max()) + BISECT_TOL))
    for s in (-2.0, 1.0, 5.0):
        shifted = estimate_principal_eigenvalue(
            grid_i, b_i, ScalarField(grid_i, c_i.values + s), cfg, BISECT_TOL
        ).lambda_bar
        results.append((f"sine shift {s}", abs(shifted - (base_i - s)) <= 2.0 * BISECT_TOL))

    elapsed = time.perf_counter() - start
    ok = all(flag for _, flag in results) and elapsed < 300.0
    _report(2, "bound and shift laws", ok,
            f"{sum(f for _, f in results)}/{len(results)} checks, runtime {elapsed:.0f}s")
    assert elapsed < 300.0
    for name, flag in results:
        assert flag, name


def test_criterion_3_sign_changing_reproduction(sign_changing_setup, bump_params):
    start = time.perf_counter()
    c = sign_changing_setup["c"]
    est = sign_changing_setup["estimate"]
    sign_changes = float(c.values.max()) > 0.0 > float(c.values.min())
    positive = est.lambda_bar > BISECT_TOL

    grow = [positive_bump_bound(1.0, r, 1.0, 1.0 / r) for r in (0.1, 0.05, 0.025)]
    grows = grow[0] < grow[1] < grow[2]
    shrink = [positive_bump_bound(1.0, 0.2, d, 5.0) for d in (1.0, 0.1, 0.01)]
    shrinks = shrink[0] > shrink[1] > shrink[2]

    elapsed = time.perf_counter() - start
    ok = sign_changes and positive and grows and shrinks and elapsed < 300.0
    _report(3, "sign-changing coefficient with positive eigenvalue", ok,
            f"lambda_bar = {est.lambda_bar:.4f} > {BISECT_TOL}, c in "
            f"[{c.values.min():.3f}, {c.values.max():.3f}], bound limits reproduce")
    assert sign_changes and positive and grows and shrinks
    assert elapsed < 300.0


def test_criterion_4_maximum_principle_threshold(sign_changing_setup):
    start = time.perf_counter()
    grid = sign_changing_setup["grid"]
    c = sign_changing_setup["c"]
    est = sign_changing_setup["estimate"]
    b = VectorField.zero(grid)
    lam_bar = est.lambda_bar
    phi = est.eigenfunction
    r2 = np.sum(grid.nodes**2, axis=1)
    bump = ScalarField(grid, np.exp(-50.0 * r2))  # concentrated where c > 0

    below = check_maximum_principle(
        grid, b, c, lam_bar - 0.1, [bump, ScalarField.constant(grid, 1.0), phi],
        t_max=500.0, decay_threshold=1e-6, lambda_bar=lam_bar,
    )
    above = check_maximum_principle(
        grid, b, c, lam_bar + 0.1, [phi],
        t_max=500.0, decay_threshold=1e-9, blowup_threshold=1e3, lambda_bar=lam_bar,
    )
    elapsed = time.perf_counter() - start
    ok = below.holds and not above.holds and above.verdicts[0].sup_final >= 1e3 and elapsed < 300.0
    _report(4, "maximum-principle threshold", ok,
            f"lam_bar-0.1: all {len(below.verdicts)} seeds decay below 1e-6; "
            f"lam_bar+0.1: eigenfunction seed reaches {above.verdicts[0].sup_final:.0f} "
            f"at t={above.verdicts[0].t_reached:.1f}; runtime {elapsed:.0f}s")
    assert below.holds
    assert not above.holds and above.verdicts[0].sup_final >= 1e3
    assert elapsed < 300.0


def test_criterion_5_operator_correctness(rng):
    start = time.perf_counter()
    checks = []

    worst = 0.0
    for _ in range(1000):
        p = rng.normal(size=2)
        if np.linalg.norm(p) < 1e-8:
            continue
        m = gradient_projector(p)
        worst = max(worst, float(np.abs(m @ m - m).max()))
        worst = max(worst, float(np.abs(m - m.T).max()))
        worst = max(worst, float(np.abs(gradient_projector(3.7 * p) - m).max()))
        eig = np.linalg.eigvalsh(m)
        worst = max(worst, float(max(-eig.min(), eig.max() - 1.0)))
    checks.append(("projector properties 1e-12", worst <= 1e-12, f"{worst:.1e}"))

    g1 = build_grid(Interval(0.0, 1.0), 1.0 / 64.0, 1)
    lap = inf_laplacian_values(g1, g1.nodes[:, 0] ** 2)
    quad_err = float(np.abs(lap[g1.node_class == 0] - 2.0).max())
    checks.append(("1D quadratic exact", quad_err == 0.0, f"{quad_err:.1e}"))

    vertex = np.array([0.137, -0.082])
    cone_err = {}
    for h in (1.0 / 64.0, 1.0 / 128.0):
        grid = build_grid(Disk((0.0, 0.0), 1.0), h, 4)
        r = np.linalg.norm(grid.nodes - vertex, axis=1)
        lap = inf_laplacian_values(grid, r)
        mask = (r >= 4 * grid.rho) & (grid.ring_index < grid.n_active).all(axis=1)
        cone_err[h] = float(np.abs(lap[mask]).max())
    checks.append(
        ("cone residual <= 0.05 at h=1/64 s=4", cone_err[1.0 / 64.0] <= 0.05,
         f"{cone_err[1.0 / 64.0]:.4f}")
    )
    halving = cone_err[1.0 / 128.0] <= 0.55 * cone_err[1.0 / 64.0]
    checks.append(
        ("cone residual halves under (h, rho) halving", halving,
         f"ratio {cone_err[1.0 / 128.0] / cone_err[1.0 / 64.0]:.2f}")
    )

    from infeig.geometry import Annulus

    radial_ok = True
    detail = []
    for h, s in ((1.0 / 32.0, 2), (1.0 / 64.0, 2)):
        grid = build_grid(Annulus((0.0, 0.0), 0.25, 1.0), h, s)
        r = np.linalg.norm(grid.nodes, axis=1)
        lap = inf_laplacian_values(grid, r**3)
        mask = (
            (r >= 0.25 + 2 * grid.rho)
            & (r <= 1.0 - 2 * grid.rho)
            & (grid.ring_index < grid.n_active).all(axis=1)
        )
        err = float(np.abs(lap[mask] - 6.0 * r[mask]).max())
        model = h / grid.rho + grid.rho**2 * 6.0 + grid.rho
        detail.append(f"C={err / model:.2f}")
        radial_ok = radial_ok and err <= 2.0 * model
    checks.append(("radial reduction within error model (C<=2)", radial_ok, " ".join(detail)))

    elapsed = time.perf_counter() - start
    ok = all(flag for _, flag, _ in checks) and elapsed < 60.0
    _report(5, "operator correctness", ok,
            "; ".join(f"{name}: {'ok' if flag else 'FAIL'} ({d})" for name, flag, d in checks)
            + f"; runtime {elapsed:.0f}s")
    assert elapsed < 60.0
    for name, flag, d in checks:
        assert flag, f"{name}: {d}"


def test_criterion_6_solver_properties(cfg, rng, inductive_sequence):
    start = time.perf_counter()
    checks = []

    grid = build_grid(Disk((0.0, 0.0), 1.0), 1.0 / 8.0, 1)
    r = np.linalg.norm(grid.nodes, axis=1)
    prob = SteadyProblem(
        grid, VectorField.zero(grid), ScalarField.constant(grid, -1.0),
        ScalarField(grid, -np.exp(-5.0 * r)), 0.0,
    )
    # the coarse start against a random field, whose arms differ from it at
    # most nodes (a constant start ties every arm); its own generator leaves
    # rng's draws for the sub-checks below as they were
    guess = ScalarField(grid, np.random.default_rng(1234).uniform(-1.0, 1.0, grid.n_active))
    system = steady._CoerciveSystem(grid, prob.b.values, prob.c.values, cfg)
    coarse_arms = steady._arms_at(grid, system._coarse_start(prob.g.values))[0]
    moved = np.count_nonzero(np.any(coarse_arms != steady._arms_at(grid, guess.values)[0], axis=0))
    ua = solve_coercive(prob, cfg)
    ub = solve_coercive(prob, cfg, initial=guess)
    gap = float(np.abs(ua.values - ub.values).max())
    checks.append(("uniqueness across initial guesses",
                   moved >= 0.9 * grid.n_active and gap <= 2.0 * cfg.tol,
                   f"arms differ at {moved}/{grid.n_active} nodes, gap {gap:.1e}"))

    g = ScalarField(grid, -np.exp(-4.0 * r**2))
    args = (grid, VectorField.zero(grid), ScalarField.constant(grid, 0.0), -0.8, g)
    seq = inductive_sequence(*args, 60)
    out = monotone_iteration(*args, cfg)
    gap = float(np.abs(seq[-1] - out.u.values).max()) if out.converged else np.inf
    seq_ok = gap <= 1e-6 and all(np.all(b >= a - 1e-10) for a, b in zip(seq, seq[1:]))
    checks.append(("monotone sequence nondecreasing", seq_ok, f"60 steps, gap to solution {gap:.1e}"))

    g2 = ScalarField(grid, np.where(r < 0.3, -1.0, 0.0))
    out2 = monotone_iteration(
        grid, VectorField.zero(grid), ScalarField.constant(grid, 0.0), -0.5, g2, cfg
    )
    min_u = float(np.min(out2.u.values)) if out2.converged else -1.0
    checks.append(("strong positivity min u > 1e-8", min_u > 1e-8, f"{min_u:.2e}"))

    worst = 0.0
    for small in (build_grid(Interval(0.0, 1.0), 0.1, 1), build_grid(Disk((0.0, 0.0), 1.0), 1.0 / 6.0, 2)):
        p = SteadyProblem(
            small,
            VectorField(small, rng.normal(size=(small.n_active, small.dim))),
            ScalarField(small, rng.normal(size=small.n_active)),
            ScalarField(small, rng.normal(size=small.n_active)),
            0.3,
        )
        u = ScalarField(small, rng.normal(size=small.n_active))
        worst = max(worst, float(np.abs(
            apply_operator(p, u).values - dense_residual_reference(p, u).values
        ).max()))
    checks.append(("dense reference agreement 1e-12", worst <= 1e-12, f"{worst:.1e}"))

    elapsed = time.perf_counter() - start
    ok = all(flag for _, flag, _ in checks) and elapsed < 120.0
    _report(6, "solver properties", ok,
            "; ".join(f"{name}: {'ok' if flag else 'FAIL'} ({d})" for name, flag, d in checks)
            + f"; runtime {elapsed:.0f}s")
    assert elapsed < 120.0
    for name, flag, d in checks:
        assert flag, f"{name}: {d}"


def test_criterion_7_evolution_decay(cfg, sign_changing_setup):
    start = time.perf_counter()

    grid = build_grid(Interval(0.0, 1.0), 1.0 / 64.0, 1)
    prob = SteadyProblem(
        grid, VectorField.zero(grid), ScalarField.constant(grid, -1.0),
        ScalarField.constant(grid, 0.0), 0.0,
    )
    ones = ScalarField.constant(grid, 1.0)
    h0 = ScalarField.constant(grid, 2.0)
    trace = run_evolution(h0, prob, 5.0, output_interval=0.05, weight=ones, rate=1.0)
    exact = 2.0 * np.exp(-5.0)
    rel = abs(trace.sup_norm[-1] - exact) / exact
    const_decay = check_decay_bound(trace, tol=1e-8)
    rate_ok = abs(trace.fitted_rate + 1.0) <= 0.02

    dgrid = sign_changing_setup["grid"]
    c = sign_changing_setup["c"]
    est = sign_changing_setup["estimate"]
    lam_bar = est.lambda_bar
    phi = est.eigenfunction
    bump = ScalarField(dgrid, np.exp(-50.0 * np.sum(dgrid.nodes**2, axis=1)))
    dprob = SteadyProblem(
        dgrid, VectorField.zero(dgrid), c, ScalarField.constant(dgrid, 0.0), 0.0
    )
    T = 20.0 / lam_bar
    dtrace = run_evolution(bump, dprob, T, output_interval=T / 400.0, weight=phi, rate=lam_bar)
    ddecay = check_decay_bound(dtrace, tol=1e-2)
    fitted_ok = dtrace.fitted_rate <= -0.9 * lam_bar

    elapsed = time.perf_counter() - start
    ok = (rel <= 1e-3 and const_decay.slack <= 1e-8 and rate_ok
          and fitted_ok and ddecay.passed and elapsed < 300.0)
    _report(7, "evolution decay", ok,
            f"constant case rel={rel:.2e}, slack={const_decay.slack:.1e}, "
            f"fitted={trace.fitted_rate:.4f}; sign-changing fitted={dtrace.fitted_rate:.4f} "
            f"vs -0.9*lam_bar={-0.9 * lam_bar:.4f}, slack={ddecay.slack:.2e}; runtime {elapsed:.0f}s")
    assert rel <= 1e-3
    assert const_decay.slack <= 1e-8
    assert rate_ok
    assert fitted_ok
    assert ddecay.slack <= 1e-2
    assert elapsed < 300.0


def test_criterion_8_lipschitz_stability(cfg):
    start = time.perf_counter()
    consts = []
    for n in (16, 32, 64):
        grid = build_grid(Interval(0.0, 1.0), 1.0 / n, 1)
        x = grid.nodes[:, 0]
        exact = x**2 * (3.0 - 2.0 * x)
        g = (6.0 - 12.0 * x) - exact
        prob = SteadyProblem(
            grid, VectorField.zero(grid), ScalarField.constant(grid, -1.0),
            ScalarField(grid, g), 0.0,
        )
        u = solve_coercive(prob, cfg)
        consts.append(lipschitz_constant(u, grid))
    ratios = [b / a for a, b in zip(consts, consts[1:])]
    elapsed = time.perf_counter() - start
    ok = all(rho <= 1.5 for rho in ratios) and elapsed < 120.0
    _report(8, "Lipschitz stability under refinement", ok,
            f"constants {['%.4f' % c for c in consts]}, ratios {['%.3f' % r for r in ratios]}, "
            f"runtime {elapsed:.0f}s")
    for rho in ratios:
        assert rho <= 1.5
    assert elapsed < 120.0
