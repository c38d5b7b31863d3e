import numpy as np
import pytest

from infeig.evolution import (
    CflViolation,
    NonpositiveWeight,
    cfl_bound,
    check_decay_bound,
    evolve_until,
    run_evolution,
    step_explicit,
)
from infeig.geometry import Interval, build_grid
from infeig.operators import ScalarField, SteadyProblem, VectorField, residual_values


def _problem(grid, c, lam=0.0, b=None, g=None):
    return SteadyProblem(
        grid,
        b if b is not None else VectorField.zero(grid),
        ScalarField.constant(grid, c) if np.isscalar(c) else c,
        g if g is not None else ScalarField.constant(grid, 0.0),
        lam,
    )


class TestStepExplicit:
    def test_constant_decay_one_step(self, interval16):
        prob = _problem(interval16, -1.0)
        dt = 0.5 * cfl_bound(prob)
        new = step_explicit(ScalarField.constant(interval16, 2.0), prob, dt)
        assert np.allclose(new.values, 2.0 * (1.0 - dt), atol=1e-14)

    def test_zero_stays_zero(self, interval16):
        prob = _problem(interval16, -1.0)
        new = step_explicit(ScalarField.constant(interval16, 0.0), prob, 0.5 * cfl_bound(prob))
        assert np.all(new.values == 0.0)

    def test_matches_dense_update(self, rng):
        grid = build_grid(Interval(0.0, 1.0), 1.0 / 8.0, 1)  # 9 nodes
        b = VectorField(grid, rng.normal(size=(grid.n_active, 1)) * 0.5)
        c = ScalarField(grid, rng.normal(size=grid.n_active))
        prob = _problem(grid, c, lam=0.2, b=b)
        h = ScalarField(grid, rng.normal(size=grid.n_active))
        dt = 0.9 * cfl_bound(prob)
        new = step_explicit(h, prob, dt)
        rhs = residual_values(grid, b.values, c.values, prob.g.values, 0.2, h.values)
        assert np.array_equal(new.values, h.values + dt * rhs)

    def test_cfl_guard(self, interval16):
        prob = _problem(interval16, -1.0)
        with pytest.raises(CflViolation):
            step_explicit(ScalarField.constant(interval16, 1.0), prob, 2.0 * cfl_bound(prob))
        for dt in (-0.1, 0.0):
            with pytest.raises(CflViolation):
                step_explicit(ScalarField.constant(interval16, 1.0), prob, dt)
            with pytest.raises(CflViolation):
                run_evolution(ScalarField.constant(interval16, 1.0), prob, 1.0, dt=dt)
        with pytest.raises(CflViolation):
            run_evolution(ScalarField.constant(interval16, 1.0), prob, 1.0, dt=-1e-3)

    def test_monotone_under_cfl(self, interval16, rng):
        prob = _problem(interval16, -1.0)
        dt = cfl_bound(prob)
        u = rng.normal(size=interval16.n_active)
        base = step_explicit(ScalarField(interval16, u), prob, dt).values
        for j in rng.choice(interval16.n_active, size=5, replace=False):
            v = u.copy()
            v[j] += 0.5
            new = step_explicit(ScalarField(interval16, v), prob, dt).values
            assert np.all(new >= base - 1e-12)


class TestRunEvolution:
    def test_constant_exponential_decay(self, interval64):
        prob = _problem(interval64, -1.0)
        ones = ScalarField.constant(interval64, 1.0)
        trace = run_evolution(
            ScalarField.constant(interval64, 2.0), prob, 5.0,
            output_interval=0.05, weight=ones, rate=1.0,
        )
        exact = 2.0 * np.exp(-5.0)
        assert abs(trace.sup_norm[-1] - exact) / exact <= 1e-3
        assert abs(trace.fitted_rate + 1.0) <= 0.02
        assert trace.cfl_margin <= 1.0

    def test_euler_error_bound_constant_case(self, interval16):
        c0 = -1.0
        prob = _problem(interval16, c0)
        T = 2.0
        trace = run_evolution(ScalarField.constant(interval16, 3.0), prob, T)
        exact = 3.0 * np.exp(c0 * trace.times)
        bound = (trace.dt / 2.0) * c0**2 * trace.times * 3.0 * np.exp(1e-9)
        assert np.all(np.abs(trace.sup_norm - exact) <= bound + 1e-12)

    def test_sign_preserved_for_nonpositive_data(self, disk8, rng):
        # c <= 0: comparison with the zero solution keeps h <= 0
        c = ScalarField(disk8, -rng.uniform(0.0, 1.0, disk8.n_active))
        prob = _problem(disk8, c)
        h0 = ScalarField(disk8, -rng.uniform(0.0, 1.0, disk8.n_active))
        trace = run_evolution(h0, prob, 1.0)
        assert np.max(trace.final_state.values) <= 0.0

    def test_monotone_comparison_of_runs(self, disk8, rng):
        c = ScalarField(disk8, rng.uniform(-1.0, 0.5, disk8.n_active))
        prob = _problem(disk8, c)
        a = rng.normal(size=disk8.n_active)
        b = a + rng.uniform(0.0, 1.0, disk8.n_active)
        ta = run_evolution(ScalarField(disk8, a), prob, 1.0)
        tb = run_evolution(ScalarField(disk8, b), prob, 1.0)
        assert np.all(ta.final_state.values <= tb.final_state.values + 1e-12)

    def test_nonexpansive_up_to_zero_order(self, disk8, rng):
        c = ScalarField(disk8, rng.uniform(-1.0, 1.0, disk8.n_active))
        prob = _problem(disk8, c)
        dt = 0.9 * cfl_bound(prob)
        a = rng.normal(size=disk8.n_active)
        b = rng.normal(size=disk8.n_active)
        na = step_explicit(ScalarField(disk8, a), prob, dt).values
        nb = step_explicit(ScalarField(disk8, b), prob, dt).values
        lhs = np.abs(na - nb).max()
        rhs = (1.0 + dt * np.abs(c.values).max()) * np.abs(a - b).max()
        assert lhs <= rhs + 1e-12

    def test_records_time_zero(self, interval16):
        prob = _problem(interval16, -1.0)
        trace = run_evolution(ScalarField.constant(interval16, 1.0), prob, 0.5)
        assert trace.times[0] == 0.0
        assert trace.times[-1] == pytest.approx(0.5, abs=1e-12)
        assert np.all(np.diff(trace.times) > 0)

    def test_weight_validation(self, interval16):
        prob = _problem(interval16, -1.0)
        bad = ScalarField.constant(interval16, 0.0)
        with pytest.raises(NonpositiveWeight):
            run_evolution(ScalarField.constant(interval16, 1.0), prob, 1.0, weight=bad, rate=1.0)

    def test_weight_and_rate_go_together(self, interval16):
        # either one alone would record no weighted ratio
        prob = _problem(interval16, -1.0)
        h0 = ScalarField.constant(interval16, 1.0)
        ones = ScalarField.constant(interval16, 1.0)
        with pytest.raises(ValueError, match="weight and rate"):
            run_evolution(h0, prob, 1.0, weight=ones)
        with pytest.raises(ValueError, match="weight and rate"):
            run_evolution(h0, prob, 1.0, rate=1.0)


class TestDecayBound:
    def test_equality_case(self, interval16):
        # c = -1, v = 1, rate 1, h0 = 2: the ratio starts at the bound exactly
        prob = _problem(interval16, -1.0)
        ones = ScalarField.constant(interval16, 1.0)
        h0 = ScalarField.constant(interval16, 2.0)
        trace = run_evolution(h0, prob, 3.0, weight=ones, rate=1.0)
        out = check_decay_bound(trace, tol=1e-8)
        assert out.ratio_bound == 2.0
        assert out.slack <= 1e-8
        assert out.passed

    def test_nonpositive_initial_data(self, interval16):
        prob = _problem(interval16, -1.0)
        ones = ScalarField.constant(interval16, 1.0)
        h0 = ScalarField.constant(interval16, -1.5)
        trace = run_evolution(h0, prob, 1.0, weight=ones, rate=1.0)
        out = check_decay_bound(trace, tol=1e-8)
        assert out.ratio_bound == 0.0
        assert out.slack == 0.0
        assert out.passed

    def test_trace_without_ratio_rejected(self, interval16):
        prob = _problem(interval16, -1.0)
        trace = run_evolution(ScalarField.constant(interval16, 1.0), prob, 1.0)
        with pytest.raises(ValueError):
            check_decay_bound(trace)

    def test_mixed_sign_initial_data(self, disk8):
        # the bound read off the trace is max(h0^+ / v), bit for bit
        x, y = disk8.nodes[:, 0], disk8.nodes[:, 1]
        h0 = np.cos(3.0 * x) - 0.2
        v = 1.0 + x**2 + y**2
        assert h0.min() < 0.0 < h0.max()
        prob = _problem(disk8, -1.0)
        trace = run_evolution(
            ScalarField(disk8, h0), prob, 0.5, weight=ScalarField(disk8, v), rate=1.0
        )
        out = check_decay_bound(trace, tol=1e-8)
        assert out.ratio_bound == float(np.max(np.maximum(h0, 0.0) / v))


class TestRateMatchesEigenvalue:
    def test_neutral_at_the_eigenvalue(self, sign_changing_setup):
        # evolving at lam = lam_bar_h neither grows nor decays: the fitted
        # rate of sup |h| vanishes to the bracket scale
        grid = sign_changing_setup["grid"]
        c = sign_changing_setup["c"]
        est = sign_changing_setup["estimate"]
        prob = SteadyProblem(
            grid, VectorField.zero(grid), c, ScalarField.constant(grid, 0.0), est.lambda_bar
        )
        bump = ScalarField(grid, np.exp(-50.0 * np.sum(grid.nodes**2, axis=1)))
        trace = run_evolution(bump, prob, 40.0, output_interval=0.1)
        assert abs(trace.fitted_rate) <= 5e-3


class TestEvolveUntil:
    def test_decay_detection(self, interval16):
        prob = _problem(interval16, -1.0)
        [(t, sup, outcome)] = evolve_until(
            [ScalarField.constant(interval16, 1.0)], prob, 100.0, stop_below=1e-6, stop_above=1e6
        )
        assert outcome == "decayed"
        assert t == pytest.approx(np.log(1e6), rel=0.05)

    def test_timeout(self, interval16):
        prob = _problem(interval16, 0.0)
        [(t, sup, outcome)] = evolve_until(
            [ScalarField.constant(interval16, 1.0)], prob, 0.5, stop_below=1e-9, stop_above=1e9
        )
        assert outcome == "timeout"
        # 0.5 is 284.4 steps: the last one is clipped, so the march ends at t_max
        assert t == 0.5


class TestSharedStepper:
    """step_explicit, run_evolution and evolve_until march with one stepper."""

    def _setup(self, disk8):
        x = disk8.nodes
        c = ScalarField(disk8, -0.5 - x[:, 0] ** 2)
        prob = _problem(disk8, c, b=VectorField.constant(disk8, (0.4, -0.2)))
        return ScalarField(disk8, np.exp(-4.0 * np.sum((x - 0.2) ** 2, axis=1))), prob

    def test_evolve_until_matches_run_evolution(self, disk8):
        h0, prob = self._setup(disk8)
        dt = 0.9 * cfl_bound(prob)  # the step both use by default
        trace = run_evolution(h0, prob, 40.5 * dt, output_interval=dt)
        # stop at the first check (step 16) and at the clipped final step
        [(t, sup, outcome)] = evolve_until([h0], prob, 40.5 * dt, stop_below=0.0, stop_above=1e-300)
        assert outcome == "blew-up"
        assert t == trace.times[16] and sup == trace.sup_norm[16]
        [(t, sup, outcome)] = evolve_until([h0], prob, 40.5 * dt, stop_below=0.0, stop_above=np.inf)
        assert outcome == "timeout"
        assert t == trace.times[-1] == trace.T
        assert sup == trace.sup_norm[-1] == np.max(np.abs(trace.final_state.values))

    def test_run_evolution_matches_explicit_steps(self, disk8):
        h0, prob = self._setup(disk8)
        dt = 2.0 ** -np.ceil(-np.log2(cfl_bound(prob)))  # exact in binary, so no step is clipped
        trace = run_evolution(h0, prob, 12 * dt, dt=dt)
        u = h0
        for _ in range(12):
            u = step_explicit(u, prob, dt)
        assert np.array_equal(trace.final_state.values, u.values)

    def test_bytes_as_an_out_of_place_march(self, disk16s2):
        # the reference march updates out of place: u = u + step * residual
        x = disk16s2.nodes
        c = ScalarField(disk16s2, -0.5 - x[:, 0] ** 2)
        prob = _problem(disk16s2, c, b=VectorField.constant(disk16s2, (0.7, -0.3)))
        h0 = np.exp(-50.0 * np.sum(x**2, axis=1))
        weight = 1.0 + 0.5 * x[:, 1] ** 2
        dt = 0.9 * cfl_bound(prob)
        T = 49.5 * dt  # 50 steps, the last one clipped
        trace = run_evolution(ScalarField(disk16s2, h0), prob, T, output_interval=5 * dt,
                              weight=ScalarField(disk16s2, weight), rate=0.8)
        u, t = h0, 0.0
        sups, ratios = [np.max(np.abs(u))], [np.max(u / weight)]
        for k in range(1, 51):
            step = min(dt, T - t)
            res = residual_values(disk16s2, prob.b.values, prob.c.values, prob.g.values, 0.0, u)
            u = u + step * res
            t += step
            if k % 5 == 0 or k == 50:
                sups.append(np.max(np.abs(u)))
                ratios.append(np.max(u * np.exp(0.8 * t) / weight))
        assert len(trace.times) == 11 and trace.times[-1] == t
        assert trace.final_state.values.tobytes() == u.tobytes()
        assert trace.sup_norm.tobytes() == np.array(sups).tobytes()
        assert trace.weighted_ratio.tobytes() == np.array(ratios).tobytes()

    def test_horizons_finite_and_positive(self, interval16):
        # int(T / dt) overflows at inf and fails at NaN, and a negative t_max
        # would time out at t = 0 without a step
        prob = _problem(interval16, -1.0)
        h0 = ScalarField.constant(interval16, 1.0)
        for bad in (np.inf, np.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="T must be finite and positive"):
                run_evolution(h0, prob, bad)
            with pytest.raises(ValueError, match="t_max must be finite and positive"):
                evolve_until([h0], prob, bad, stop_below=1e-6, stop_above=1e6)
            with pytest.raises(ValueError, match="output_interval must be finite and positive"):
                run_evolution(h0, prob, 1.0, output_interval=bad)


class TestClock:
    def test_horizon_below_a_step_takes_one_step_of_length_T(self, disk8):
        # ceil(T/dt - 1e-12) is 0 here: the march still takes one step, of length T
        prob = _problem(disk8, -1.0)
        h0 = ScalarField.constant(disk8, 1.0)
        trace = run_evolution(h0, prob, 1e-20)
        assert len(trace.times) == 2 and trace.times[-1] == 1e-20
        assert np.array_equal(trace.final_state.values, step_explicit(h0, prob, 1e-20).values)
        [(t, _, outcome)] = evolve_until([h0], prob, 1e-20, stop_below=1e-6, stop_above=1e6)
        assert outcome == "timeout" and t == 1e-20

    def test_inputs_unchanged(self, disk8):
        x = disk8.nodes
        prob = _problem(disk8, -0.5, b=VectorField.constant(disk8, (0.4, -0.2)))
        h0 = ScalarField(disk8, np.exp(-4.0 * np.sum((x - 0.2) ** 2, axis=1)))
        other = ScalarField(disk8, 1.0 + x[:, 0])
        before = [f.values.tobytes() for f in (h0, other)]
        dt = 0.9 * cfl_bound(prob)
        step_explicit(h0, prob, dt)
        trace = run_evolution(h0, prob, 20.5 * dt, output_interval=dt)
        evolve_until([h0, other], prob, 20.5 * dt, stop_below=0.0, stop_above=np.inf)
        assert [f.values.tobytes() for f in (h0, other)] == before
        assert trace.final_state.values is not h0.values
