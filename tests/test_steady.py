import re

import numpy as np
import pytest

from infeig import steady
from infeig.config import load_config, parse_config_text
from infeig.geometry import Annulus, Disk, Interval, build_grid
from infeig.operators import ScalarField, SteadyProblem, VectorField, apply_operator, ring_arm_values
from infeig.oracles import dense_residual_reference
from infeig.steady import (
    Diverged,
    IterationOutcome,
    NoConvergence,
    NotCoercive,
    SolverConfig,
    monotone_iteration,
    solve_coercive,
    solve_general_rhs,
)
from test_operators import KERNEL_GRIDS


def _problem(grid, c, g, lam=0.0, b=None):
    return SteadyProblem(
        grid,
        b if b is not None else VectorField.zero(grid),
        c if isinstance(c, ScalarField) else ScalarField.constant(grid, c),
        g if isinstance(g, ScalarField) else ScalarField.constant(grid, g),
        lam,
    )


@pytest.fixture()
def splu_sizes(monkeypatch):
    """Sizes of the matrices ``steady`` factorizes, in call order."""
    splu = steady.spla.splu
    sizes = []

    def counting_splu(matrix, *args, **kwargs):
        sizes.append(matrix.shape[0])
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(steady.spla, "splu", counting_splu)
    return sizes


def _readme_c(grid):
    """The README coefficient c = piecewise(r, 0.2, 0.325, -1.0) on ``grid``."""
    run = load_config(parse_config_text(
        "domain.type = disk\ndomain.radius = 1\ngrid.h = 0.0625\ngrid.s = 2\n"
        "coeff.c = piecewise(r, 0.2, 0.325, -1.0)\n"
    ))
    return run.scalar_field(grid, run.c)


class TestSolveCoercive:
    def test_constant_balance(self, interval64, cfg):
        u = solve_coercive(_problem(interval64, -2.0, -2.0), cfg)
        assert np.abs(u.values - 1.0).max() <= cfg.tol

    def test_uniqueness_across_guesses(self, cfg, rng):
        # the coarse start against a random field: a constant start ties every
        # arm, so two constants would start from nearly the same arms
        grid = build_grid(Disk((0.0, 0.0), 1.0), 1.0 / 8.0, 1)
        r = np.linalg.norm(grid.nodes, axis=1)
        prob = _problem(grid, -1.0, ScalarField(grid, -np.exp(-5.0 * r)))
        guess = ScalarField(grid, rng.uniform(-1.0, 1.0, grid.n_active))
        system = steady._CoerciveSystem(grid, prob.b.values, prob.c.values, cfg)
        coarse_arms = steady._arms_at(grid, system._coarse_start(prob.g.values))[0]
        moved = np.any(coarse_arms != steady._arms_at(grid, guess.values)[0], axis=0)
        assert np.count_nonzero(moved) >= 0.9 * grid.n_active
        u0 = solve_coercive(prob, cfg)
        u1 = solve_coercive(prob, cfg, initial=guess)
        assert np.abs(u0.values - u1.values).max() <= 2.0 * cfg.tol

    def test_manufactured_first_order(self, cfg):
        errs = {}
        for n in (16, 32, 64):
            grid = build_grid(Interval(0.0, 1.0), 1.0 / n, 1)
            x = grid.nodes[:, 0]
            exact = x**2 * (3.0 - 2.0 * x)  # flat-ended profile
            g = (6.0 - 12.0 * x) - exact
            u = solve_coercive(_problem(grid, -1.0, ScalarField(grid, g)), cfg)
            errs[n] = float(np.abs(u.values - exact).max())
            assert errs[n] <= 3.0 / n  # O(h) with a recorded constant
        assert errs[64] <= 0.75 * errs[32] <= 0.75**2 * errs[16] / 0.75

    def test_barrier_containment(self, cfg, rng):
        grid = build_grid(Disk((0.0, 0.0), 1.0), 1.0 / 8.0, 1)
        c0 = 1.5
        g = ScalarField(grid, rng.uniform(-2.0, 2.0, grid.n_active))
        u = solve_coercive(_problem(grid, -c0, g), cfg)
        assert u.sup_norm <= np.abs(g.values).max() / c0 + cfg.tol

    def test_residual_certificate(self, disk16s2, cfg, rng):
        b = VectorField.constant(disk16s2, (0.5, -0.25))
        c = ScalarField(disk16s2, -1.0 - np.abs(np.sin(4.0 * disk16s2.nodes[:, 0])))
        g = ScalarField(disk16s2, rng.normal(size=disk16s2.n_active))
        prob = SteadyProblem(disk16s2, b, c, g, 0.0)
        u = solve_coercive(prob, cfg)
        res = apply_operator(prob, u)
        assert np.abs(res.values).max() <= cfg.tol
        dense = dense_residual_reference(prob, u)
        assert np.abs(dense.values).max() <= cfg.tol + 1e-12

    def test_not_coercive_rejected(self, interval16, cfg):
        with pytest.raises(NotCoercive):
            solve_coercive(_problem(interval16, -1.0, -1.0, lam=2.0), cfg)

    def test_deterministic(self, disk8, cfg, rng):
        g = ScalarField(disk8, rng.normal(size=disk8.n_active))
        prob = _problem(disk8, -1.0, g)
        a = solve_coercive(prob, cfg)
        b = solve_coercive(_problem(disk8, -1.0, g), SolverConfig())
        assert np.array_equal(a.values, b.values)

    def test_failed_factorization_is_loud(self, disk8, cfg, monkeypatch):
        # c0 < 0 makes the frozen matrix diagonally dominant; if splu fails
        # anyway, the solve stops at once instead of relaxing for max_sweeps
        attempts = []

        def failing_splu(matrix, *args, **kwargs):
            attempts.append(matrix.shape)
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(steady.spla, "splu", failing_splu)
        with pytest.raises(NoConvergence, match="factorization"):
            solve_coercive(_problem(disk8, -1.0, -1.0), cfg)
        assert len(attempts) == 1

    def test_max_sweeps_caps_factorizations(self, disk8, splu_sizes):
        r = np.linalg.norm(disk8.nodes, axis=1)
        prob = _problem(disk8, -1.0, ScalarField(disk8, -np.exp(-5.0 * r**2)))
        with pytest.raises(NoConvergence, match="max_sweeps=1 "):
            solve_coercive(prob, SolverConfig(max_sweeps=1), initial=ScalarField.constant(disk8, 0.0))
        assert splu_sizes == [disk8.n_active]

    @pytest.mark.parametrize("name", list(KERNEL_GRIDS))
    def test_arms_at_break_ties_by_antipode(self, name, rng):
        # the arms are the first max and the first min, except where all arms
        # tie: there the min arm is the max arm's antipode
        grid = build_grid(*KERNEL_GRIDS[name])
        n = grid.n_active
        for label, u in {"zero": np.zeros(n), "constant": np.full(n, -0.3), "random": rng.normal(size=n)}.items():
            w = ring_arm_values(grid, u)
            arms, block = steady._arms_at(grid, u)
            assert block.shape == w.T.shape and block.flags.c_contiguous
            assert np.array_equal(block, w.T)
            tied = np.ptp(w, axis=1) == 0.0
            assert {"zero": tied.all(), "constant": tied.any(), "random": not tied.all()}[label], label
            assert np.array_equal(arms[0], np.argmax(w, axis=1)), label
            assert np.array_equal(arms[1, ~tied], np.argmin(w, axis=1)[~tied]), label
            assert np.array_equal(grid.ring_offsets[arms[1, tied]], -grid.ring_offsets[arms[0, tied]]), label

    @pytest.mark.parametrize("nested", [False, True])
    def test_switch_keeps_tied_arms(self, disk16s2, rng, nested):
        # u constant on a patch: at nodes whose whole ring lies in it, all arms
        # tie, so no arm there has a gain and a switch step leaves it alone
        grid = disk16s2
        n, k = grid.n_active, grid.ring_offsets.shape[0]
        u = rng.normal(size=n)
        u[np.linalg.norm(grid.nodes, axis=1) < 0.5] = 0.25
        tied = np.ptp(ring_arm_values(grid, u), axis=1) == 0.0
        assert tied.sum() > 50
        system = steady._CoerciveSystem(grid, np.zeros((n, 2)), -np.ones(n), SolverConfig())
        system._arms = rng.integers(0, k, size=(2, n))
        before = system._arms.copy()
        assert system.switch(u, nested)
        assert np.array_equal(system._arms[:, tied], before[:, tied])
        assert not np.array_equal(system._arms, before)

    def test_interval_h1024(self, cfg):
        # from u = 0 Howard's algorithm moves the arm switches a few nodes per
        # factorization and runs out of max_sweeps here; the coarse start
        # certifies with about a dozen factorizations over all grids
        run = load_config(parse_config_text(
            "domain.type = interval\ndomain.a = -1\ndomain.b = 1\ngrid.h = 0.0009765625\n"
            "grid.s = 1\ncoeff.c = piecewise(abs(x), 0.2, 0.325, -1.0) - 1\ncoeff.g = -1\n"
        ))
        grid = run.build_grid()
        prob = _problem(grid, run.scalar_field(grid, run.c), run.scalar_field(grid, run.g))
        u = solve_coercive(prob, cfg)
        assert np.abs(apply_operator(prob, u).values).max() <= cfg.tol

    def test_stall_names_rounding_floor(self, cfg):
        # at h = 1/4096 the target 0.2 * tol = 2e-9 lies below what rounding
        # lets the residual reach: policy iteration runs out of arms to switch
        # at 2.85e-9, and the error names the floor instead of lowering the target
        grid = build_grid(Interval(-1.0, 1.0), 1.0 / 4096.0, 1)
        x = grid.nodes[:, 0]
        c = ScalarField(grid, -0.5 - (np.abs(x) >= 0.2))
        prob = _problem(grid, c, ScalarField(grid, np.sin(5.0 * x) - 0.3))
        with pytest.raises(NoConvergence, match="no arm to switch.*rounding floor") as err:
            solve_coercive(prob, cfg)
        residual, target, floor = (float(v) for v in re.findall(r"\d\.\d{3}e[-+]\d+", str(err.value)))
        assert target == pytest.approx(0.2 * cfg.tol, rel=1e-3)
        assert floor < target < residual < 3.0 * floor

    def test_coarse_start_agrees_with_zero_start(self, cfg, splu_sizes):
        # the default start comes from the grid with twice the spacing and
        # needs fewer factorizations, counted over all grids, than a start from 0
        grid = build_grid(Disk((0.0, 0.0), 1.0), 1.0 / 32.0, 2)
        r = np.linalg.norm(grid.nodes, axis=1)
        prob = _problem(grid, -1.0, ScalarField(grid, -np.exp(-5.0 * r**2)))
        coarse_start = solve_coercive(prob, cfg)
        coarse_calls = len(splu_sizes)
        zero_start = solve_coercive(prob, cfg, initial=ScalarField.constant(grid, 0.0))
        assert np.abs(coarse_start.values - zero_start.values).max() <= 2.0 * cfg.tol
        assert set(splu_sizes[:coarse_calls]) > {grid.n_active}
        assert coarse_calls < len(splu_sizes) - coarse_calls

    def test_system_carries_arms_and_factor(self, disk16s2, cfg, splu_sizes):
        # the first solve starts on the coarser grids, and the system counts
        # their factorizations too; a second solve starts from the last
        # solve's arms and reuses its factor
        r = np.linalg.norm(disk16s2.nodes, axis=1)
        rhs = -np.exp(-5.0 * r**2)
        b = np.zeros((disk16s2.n_active, 2))
        system = steady._CoerciveSystem(disk16s2, b, np.full(disk16s2.n_active, -1.0), cfg)
        first = system.solve(rhs)
        assert system.factorizations == len(splu_sizes) > 0
        assert set(splu_sizes) > {disk16s2.n_active}
        count = system.factorizations
        del splu_sizes[:]
        second = system.solve(rhs)
        assert system.factorizations == count and splu_sizes == []
        assert np.array_equal(first, second)

    def test_nested_fallback_off_centre_disk(self, monkeypatch, splu_sizes):
        # switching both players at every full step cycles here until max_sweeps;
        # the line search damps the steps that would raise the residual.  With
        # _MIN_STEP = 1 every rejected full step falls back to nested policy
        # iteration instead, which also terminates, at more factorizations
        cfg = SolverConfig()
        grid = build_grid(Disk((0.3, -0.1), 0.8), 1.0 / 48.0, 2)
        x = grid.nodes[:, 0]
        r = np.linalg.norm(grid.nodes, axis=1)
        c = ScalarField(grid, -0.5 - (r >= 0.2))
        prob = _problem(grid, c, ScalarField(grid, np.sin(5.0 * x) - 0.3))
        u = solve_coercive(prob, cfg)
        assert np.abs(apply_operator(prob, u).values).max() <= cfg.tol
        damped = len(splu_sizes)
        splu_sizes.clear()
        monkeypatch.setattr(steady, "_MIN_STEP", 1.0)
        u = solve_coercive(prob, cfg)
        assert np.abs(apply_operator(prob, u).values).max() <= cfg.tol
        assert len(splu_sizes) > damped

    def test_damped_newton_annulus_with_drift(self, cfg, splu_sizes):
        # at most 30 factorizations over all grids (63 with the residual-rise trigger)
        grid = build_grid(Annulus((0.0, 0.0), 0.25, 1.0), 1.0 / 40.0, 2)
        x = grid.nodes[:, 0]
        r = np.linalg.norm(grid.nodes, axis=1)
        c = ScalarField(grid, -0.5 - (r >= 0.2))
        prob = _problem(grid, c, ScalarField(grid, np.sin(5.0 * x) - 0.3), b=VectorField.constant(grid, (0.5, 0.2)))
        u = solve_coercive(prob, cfg)
        assert np.abs(apply_operator(prob, u).values).max() <= cfg.tol
        assert len(splu_sizes) <= 30


class TestMonotoneIteration:
    def test_constant_fixed_point(self, interval64, cfg):
        out = monotone_iteration(
            interval64, VectorField.zero(interval64), ScalarField.constant(interval64, 0.0),
            -1.0, ScalarField.constant(interval64, -1.0), cfg,
        )
        assert out.converged
        assert np.abs(out.u.values - 1.0).max() <= 10.0 * cfg.tol
        assert out.residual <= max(cfg.tol, cfg.rel_tol * out.sup_norm)

    def test_blowup_above_threshold(self, interval64, disk8, cfg):
        # c = 0, so lam_bar = 0: lam = 0.5 lies above it; at lam = lam_bar the
        # lam-matrix is singular, and its huge candidate must not be accepted
        for grid, lam in ((interval64, 0.5), (disk8, 0.0)):
            out = monotone_iteration(
                grid, VectorField.zero(grid), ScalarField.constant(grid, 0.0),
                lam, ScalarField.constant(grid, -1.0), cfg,
            )
            assert not out.converged
            assert out.u is None

    def test_shifted_constant_balance(self, interval16, cfg):
        out = monotone_iteration(
            interval16, VectorField.zero(interval16), ScalarField.constant(interval16, -2.0),
            1.0, ScalarField.constant(interval16, -1.0), cfg,
        )
        assert out.converged
        assert np.abs(out.u.values - 1.0).max() <= 10.0 * cfg.tol

    def test_g_zero_short_circuits(self, interval16, cfg):
        out = monotone_iteration(
            interval16, VectorField.zero(interval16), ScalarField.constant(interval16, 0.0),
            -0.5, ScalarField.constant(interval16, 0.0), cfg,
        )
        assert out.converged
        assert out.outer_steps == 0
        assert np.all(out.u.values == 0.0)

    def test_requires_nonpositive_g(self, interval16, cfg):
        with pytest.raises(ValueError):
            monotone_iteration(
                interval16, VectorField.zero(interval16), ScalarField.constant(interval16, 0.0),
                -1.0, ScalarField.constant(interval16, 0.5), cfg,
            )

    def test_start_must_be_a_subsolution(self, disk8, cfg):
        # c = -1, g = -1: u = 1 solves the problem, and the lam-residual of a
        # constant start 1 + d is -d, so a start may sit above the solution by
        # the certificate's tolerance and no more; a peak names its node
        args = (disk8, VectorField.zero(disk8), ScalarField.constant(disk8, -1.0), 0.0,
                ScalarField.constant(disk8, -1.0), cfg)
        out = monotone_iteration(*args, np.full(disk8.n_active, 1.0 + 0.5 * cfg.tol))
        assert out.converged and out.outer_steps == 0 and out.sweeps == 0
        with pytest.raises(ValueError, match="not a subsolution"):
            monotone_iteration(*args, np.full(disk8.n_active, 1.0 + 2.0 * cfg.tol))
        start = np.full(disk8.n_active, 0.5)
        start[7] = 2.0
        with pytest.raises(ValueError, match=r"at node 7$"):
            monotone_iteration(*args, start)
        start[7] = np.nan  # the ring spreads it: the first NaN row is named
        with pytest.raises(ValueError, match="lam-residual nan at node"):
            monotone_iteration(*args, start)

    def test_rises_from_a_given_subsolution(self, disk8, cfg):
        # from the subsolution 0.5 the sequence rises to the solution u = 1,
        # as it does from 0
        args = (disk8, VectorField.zero(disk8), ScalarField.constant(disk8, -1.0), 0.0,
                ScalarField.constant(disk8, -1.0), cfg)
        out = monotone_iteration(*args, np.full(disk8.n_active, 0.5))
        assert out.converged and out.outer_steps >= 1
        assert np.abs(out.u.values - 1.0).max() <= 10.0 * cfg.tol
        assert np.abs(monotone_iteration(*args).u.values - out.u.values).max() <= 20.0 * cfg.tol

    def test_sequence_nondecreasing(self, disk8, cfg, inductive_sequence):
        r = np.linalg.norm(disk8.nodes, axis=1)
        g = ScalarField(disk8, -np.exp(-4.0 * r**2))
        args = (disk8, VectorField.zero(disk8), ScalarField.constant(disk8, 0.0), -0.8, g)
        seq = inductive_sequence(*args, 40)
        for prev, nxt in zip(seq, seq[1:]):
            assert np.all(nxt >= prev - 1e-10)
        out = monotone_iteration(*args, cfg)
        assert out.converged
        assert np.abs(seq[-1] - out.u.values).max() <= 1e-6

    def test_strong_positivity(self, disk8, cfg):
        # g <= 0 and not identically 0: the converged solution is positive
        r = np.linalg.norm(disk8.nodes, axis=1)
        g = ScalarField(disk8, np.where(r < 0.3, -1.0, 0.0))
        assert np.any(g.values) and np.max(g.values) == 0.0
        out = monotone_iteration(
            disk8, VectorField.zero(disk8), ScalarField.constant(disk8, 0.0), -0.5, g, cfg
        )
        assert out.converged
        assert np.min(out.u.values) > 1e-8

    def test_converged_nonnegative(self, interval64, cfg):
        x = interval64.nodes[:, 0]
        g = ScalarField(interval64, -(0.2 + np.sin(3.0 * x) ** 2))
        out = monotone_iteration(
            interval64, VectorField.zero(interval64),
            ScalarField(interval64, -1.0 + 0.5 * np.sin(3.0 * x)), -0.2, g, cfg,
        )
        assert out.converged
        assert np.min(out.u.values) >= -cfg.tol

    def test_comparison_in_rhs(self, disk8, cfg):
        # g1 <= g2 <= 0 with g2 < 0: the solution for g1 dominates
        r = np.linalg.norm(disk8.nodes, axis=1)
        g2 = ScalarField(disk8, -0.2 - 0.3 * np.exp(-2.0 * r**2))
        g1 = ScalarField(disk8, g2.values - 0.5)
        lam = -0.4
        c = ScalarField.constant(disk8, 0.0)
        u1 = monotone_iteration(disk8, VectorField.zero(disk8), c, lam, g1, cfg)
        u2 = monotone_iteration(disk8, VectorField.zero(disk8), c, lam, g2, cfg)
        assert u1.converged and u2.converged
        assert np.all(u1.u.values >= u2.u.values - 2.0 * cfg.tol)

    def test_outcome_invariants(self, interval16, cfg):
        out = monotone_iteration(
            interval16, VectorField.zero(interval16), ScalarField.constant(interval16, -1.0),
            0.0, ScalarField.constant(interval16, -1.0), cfg,
        )
        assert isinstance(out, IterationOutcome)
        assert out.converged and out.outer_steps >= 1  # g != 0: at least one step from u_1 = 0
        assert out.sup_norm == out.u.sup_norm
        assert out.residual <= cfg.tol

    def test_extrapolated_flag(self, disk16s2, cfg, inductive_sequence):
        # the README lambda-problem: the frozen-policy candidate certifies
        # within a few outer steps and says so; the plain sequence has not
        # certified by then, and later agrees with it
        c = _readme_c(disk16s2)
        b = VectorField.zero(disk16s2)
        g = ScalarField.constant(disk16s2, -1.0)
        fast = monotone_iteration(disk16s2, b, c, 0.0, g, cfg)
        assert fast.converged and "extrapolated" in fast.flags
        plain = inductive_sequence(disk16s2, b, c, 0.0, g, 80)  # first certifies at step 64
        problem = _problem(disk16s2, c, g)
        for u in plain[1:fast.outer_steps + 1]:
            residual = apply_operator(problem, ScalarField(disk16s2, u)).sup_norm
            assert steady._certificate(residual, float(np.max(np.abs(u))), cfg) is None
        assert np.abs(fast.u.values - plain[-1]).max() <= 1e-6

    def test_relative_certificate(self, disk8):
        # u = 10 solves the lam-problem; the 1e-15 absolute target is below
        # the residual's rounding, so the candidate certifies by rel_tol * sup
        args = (disk8, VectorField.zero(disk8), ScalarField.constant(disk8, -1.0), 0.9,
                ScalarField.constant(disk8, -1.0))
        out = monotone_iteration(*args, SolverConfig(tol=1e-15))
        assert out.flags == ["extrapolated", "rel-certified"]
        assert out.converged
        assert 1e-15 < out.residual <= 1e-10 * out.sup_norm
        assert np.abs(out.u.values - 10.0).max() <= 1e-8

    def test_sweeps_count_every_factorization(self, disk16s2, splu_sizes):
        # the README lambda-problem: sweeps counts the candidate's
        # factorizations as well as the resolvent's
        out = monotone_iteration(
            disk16s2, VectorField.zero(disk16s2), _readme_c(disk16s2), 0.0,
            ScalarField.constant(disk16s2, -1.0), SolverConfig(),
        )
        assert out.converged and "extrapolated" in out.flags
        assert out.sweeps == len(splu_sizes)


class TestSolveGeneralRhs:
    def test_zero_rhs_gives_zero(self, interval16, cfg):
        u = solve_general_rhs(_problem(interval16, 0.0, 0.0, lam=-0.5), cfg)
        assert np.all(u.values == 0.0)

    def test_sine_rhs_residual(self, interval64, cfg):
        x = interval64.nodes[:, 0]
        prob = _problem(interval64, -1.0, ScalarField(interval64, np.sin(3.0 * x)), lam=0.0)
        u = solve_general_rhs(prob, cfg)
        res = apply_operator(prob, u)
        assert np.abs(res.values).max() <= cfg.tol
        dense = dense_residual_reference(prob, u)
        assert np.abs(dense.values).max() <= cfg.tol + 1e-12

    def test_positive_constant_rhs(self, interval16, cfg):
        u = solve_general_rhs(_problem(interval16, -1.0, 1.0, lam=0.0), cfg)
        assert np.abs(u.values + 1.0).max() <= 10.0 * cfg.tol

    def test_noncoercive_lam_below_threshold(self, disk8, cfg, rng):
        # c = 0, lam = -0.5 < lam_bar = 0, mixed-sign rhs: barrier-sandwiched
        g = ScalarField(disk8, rng.uniform(-1.0, 1.0, disk8.n_active))
        prob = _problem(disk8, 0.0, g, lam=-0.5)
        u = solve_general_rhs(prob, cfg)
        res = apply_operator(prob, u)
        assert np.abs(res.values).max() <= max(cfg.tol, cfg.rel_tol * u.sup_norm)
        gsup = np.abs(g.values).max()
        barrier = monotone_iteration(
            disk8, VectorField.zero(disk8), ScalarField.constant(disk8, 0.0), -0.5,
            ScalarField.constant(disk8, -gsup), cfg,
        )
        assert barrier.converged
        assert np.all(u.values <= barrier.u.values + cfg.tol)
        assert np.all(u.values >= -barrier.u.values - cfg.tol)

    def test_diverges_above_eigenvalue(self, interval16, disk8):
        # c = 0, so lam_bar = 0: above it, and at it, where the lam-matrix is
        # singular and its huge candidate would pass the relative certificate
        cfg = SolverConfig(max_outer=60)
        for grid, lam in ((interval16, 0.5), (disk8, 0.0)):
            with pytest.raises(Diverged):
                solve_general_rhs(_problem(grid, 0.0, -1.0, lam=lam), cfg)

    def test_diverged_names_the_stop(self, disk8):
        # at lam = lam_bar = 0 the iterates grow linearly, far below the
        # blowup threshold: the step budget is what ran out
        with pytest.raises(Diverged, match="max_outer"):
            solve_general_rhs(_problem(disk8, 0.0, -1.0, lam=0.0), SolverConfig(max_outer=60))
        # at lam - lam_bar = 2 the sup triples each step from 1: ten doublings
        # running come at sup 8.9e4, well below the 2e6 blowup threshold
        with pytest.raises(Diverged, match=r"sup doubled ten steps running\) at outer step 11,"):
            solve_general_rhs(_problem(disk8, 3.0, -1.0, lam=-1.0), SolverConfig())

    def test_readme_h32_damped_resolvent(self, cfg, splu_sizes):
        # the README solve (g = -1) certifies in at most 45 factorizations (90
        # with the residual-rise trigger)
        grid = build_grid(Disk((0.0, 0.0), 1.0), 1.0 / 32.0, 2)
        prob = _problem(grid, _readme_c(grid), -1.0)
        u = solve_general_rhs(prob, cfg)
        assert np.abs(apply_operator(prob, u).values).max() <= cfg.tol
        assert len(splu_sizes) <= 45

    def test_readme_h32_count_survives_factor_rounding(self, cfg, splu_sizes, monkeypatch):
        # SciPy's default SuperLU settings change the factor only in its last
        # bits; under the RMS merit the count moves by at most 4 (32 against
        # 30), where under the sup merit it moved from 36 to 47
        grid = build_grid(Disk((0.0, 0.0), 1.0), 1.0 / 32.0, 2)
        prob = _problem(grid, _readme_c(grid), -1.0)
        counts = []
        for superlu in (steady._SUPERLU, {}):
            monkeypatch.setattr(steady, "_SUPERLU", superlu)
            splu_sizes.clear()
            u = solve_general_rhs(prob, cfg)
            assert np.abs(apply_operator(prob, u).values).max() <= cfg.tol
            counts.append(len(splu_sizes))
        assert abs(counts[0] - counts[1]) <= 4

    def test_readme_h16_both_signs_cost(self, disk16s2, cfg, splu_sizes):
        # g = sin(3x) changes sign, so both passes take outer steps: the
        # barrier pass 15 with 58 factorizations, the main pass 25 with 80
        g = ScalarField(disk16s2, np.sin(3.0 * disk16s2.nodes[:, 0]))
        prob = _problem(disk16s2, _readme_c(disk16s2), g)
        u = solve_general_rhs(prob, cfg)
        assert np.abs(apply_operator(prob, u).values).max() <= max(cfg.tol, cfg.rel_tol * u.sup_norm)
        assert len(splu_sizes) <= 150

    def test_both_passes_are_monotone_iterations(self, disk8, cfg, monkeypatch):
        # the barrier pass runs from 0 on -g^+, the main pass from 0.0 - w on
        # g, and the main pass's field is the answer
        calls = []
        run = steady.monotone_iteration

        def recorded(*args, **kwargs):
            calls.append((args, kwargs, run(*args, **kwargs)))
            return calls[-1][2]

        monkeypatch.setattr(steady, "monotone_iteration", recorded)
        g = np.sin(3.0 * disk8.nodes[:, 0])
        u = solve_general_rhs(_problem(disk8, _readme_c(disk8), ScalarField(disk8, g)), cfg)
        (bargs, bkw, barrier), (margs, _, main) = calls
        assert "start" not in bkw and len(bargs) == 6
        assert np.array_equal(bargs[4].values, -np.maximum(g, 0.0))
        assert barrier.outer_steps > 0 and main.outer_steps > 0
        assert np.array_equal(margs[4].values, g)
        assert np.array_equal(margs[6], 0.0 - barrier.u.values)
        assert np.array_equal(u.values, main.u.values)

    def test_nonpositive_rhs_runs_one_pass(self, disk16s2, splu_sizes):
        # for g <= 0 the barrier pass returns 0 without a factorization, so
        # solve_general_rhs is the plain sequence from 0, field and cost alike
        c = _readme_c(disk16s2)
        b = VectorField.zero(disk16s2)
        r2 = np.sum(disk16s2.nodes**2, axis=1)
        for g in (np.full(disk16s2.n_active, -1.0), -np.exp(-5.0 * r2)):
            g = ScalarField(disk16s2, g)
            splu_sizes.clear()
            u = solve_general_rhs(SteadyProblem(disk16s2, b, c, g, 0.0), SolverConfig())
            solve_calls = len(splu_sizes)
            out = monotone_iteration(disk16s2, b, c, 0.0, g, SolverConfig())
            assert out.converged
            assert np.array_equal(u.values, out.u.values)
            assert solve_calls == len(splu_sizes) - solve_calls

    def test_nonnegative_rhs_returns_minus_barrier(self, disk8, splu_sizes):
        # README c, lam = 0: not coercive.  For g >= 0 the barrier w solves
        # the problem with -g, so -w solves it with g: the second pass
        # certifies its start and factors nothing
        c = _readme_c(disk8)
        b = VectorField.zero(disk8)
        g = np.exp(-5.0 * np.sum(disk8.nodes**2, axis=1))
        u = solve_general_rhs(SteadyProblem(disk8, b, c, ScalarField(disk8, g), 0.0), SolverConfig())
        solve_calls = len(splu_sizes)
        barrier = monotone_iteration(disk8, b, c, 0.0, ScalarField(disk8, -g), SolverConfig())
        assert barrier.converged and barrier.outer_steps > 0
        assert solve_calls == barrier.sweeps == len(splu_sizes) - solve_calls
        assert np.array_equal(u.values, 0.0 - barrier.u.values)


class TestSolverConfig:
    def test_validation(self):
        for tols in ({"tol": 0.0}, {"tol": float("nan")}, {"rel_tol": float("nan")},
                     {"tol": float("inf")}, {"rel_tol": float("inf")}):
            with pytest.raises(ValueError):
                SolverConfig(**tols)
        with pytest.raises(ValueError):
            SolverConfig(max_outer=0)
        with pytest.raises(ValueError):
            SolverConfig(blowup_threshold=0.5)
