import dataclasses
import re

import numpy as np
import pytest

from infeig import eigen, evolution, steady
from infeig.config import load_config, parse_config_text
from infeig.eigen import (
    BracketFailure,
    MaxPrincipleInconclusive,
    check_maximum_principle,
    estimate_principal_eigenvalue,
)
from infeig.geometry import Disk, Interval, build_grid
from infeig.operators import ScalarField, SteadyProblem, VectorField, residual_values
from infeig.oracles import bisection_eigenvalue_reference, sign_changing_coefficient
from infeig.steady import monotone_iteration

README_DISK = """\
domain.type = disk
domain.radius = 1
grid.h = 0.0625
grid.s = 2
coeff.c = piecewise(r, 0.2, 0.325, -1.0)
"""


def _readme_disk():
    run = load_config(parse_config_text(README_DISK))
    grid = run.build_grid()
    return grid, VectorField.zero(grid), run.scalar_field(grid, run.c)


def _meets(a, b):
    return a.lambda_lo <= b.lambda_hi and b.lambda_lo <= a.lambda_hi


class TestEstimate:
    def test_constant_negative_c(self, interval16, cfg):
        # bisection oracle: its bracket never closes to a point
        est = bisection_eigenvalue_reference(
            interval16, VectorField.zero(interval16), ScalarField.constant(interval16, -3.0), cfg
        )
        assert abs(est.lambda_bar - 3.0) <= 1e-4
        assert np.abs(est.eigenfunction.values - 1.0).max() <= 1e-6
        assert est.lambda_hi - est.lambda_lo <= 1e-4
        assert est.lambda_lo < est.lambda_hi

    def test_zero_c(self, disk8, cfg):
        est = estimate_principal_eigenvalue(
            disk8, VectorField.zero(disk8), ScalarField.constant(disk8, 0.0), cfg
        )
        assert abs(est.lambda_bar) <= 1e-4

    def test_bound_by_sup_c(self, interval16, cfg):
        x = interval16.nodes[:, 0]
        c = ScalarField(interval16, -1.0 + 0.5 * np.sin(3.0 * x))
        est = estimate_principal_eigenvalue(interval16, VectorField.zero(interval16), c, cfg)
        assert est.lambda_bar <= np.abs(c.values).max() + 1e-4

    def test_shift_covariance(self, interval16, cfg):
        x = interval16.nodes[:, 0]
        c = ScalarField(interval16, -1.0 + 0.5 * np.sin(3.0 * x))
        b = VectorField.zero(interval16)
        base = estimate_principal_eigenvalue(interval16, b, c, cfg).lambda_bar
        for s in (-2.0, 1.0, 5.0):
            shifted = estimate_principal_eigenvalue(
                interval16, b, ScalarField(interval16, c.values + s), cfg
            ).lambda_bar
            assert abs(shifted - (base - s)) <= 2e-4

    def test_monotone_in_c(self, interval16, cfg):
        x = interval16.nodes[:, 0]
        b = VectorField.zero(interval16)
        c1 = ScalarField(interval16, -1.0 - 0.5 * x)
        c2 = ScalarField(interval16, -1.0 + 0.5 * x)  # c1 <= c2
        l1 = estimate_principal_eigenvalue(interval16, b, c1, cfg).lambda_bar
        l2 = estimate_principal_eigenvalue(interval16, b, c2, cfg).lambda_bar
        assert l1 >= l2 - 2e-4

    def test_constant_c_closes_without_solves(self, interval16, disk8, cfg):
        # the ghost closure is exact on constants, so L_h(1) = c to the last bit
        for grid, c0 in ((interval16, -3.0), (disk8, 2.0)):
            est = estimate_principal_eigenvalue(
                grid, VectorField.constant(grid, (0.4,) * grid.dim), ScalarField.constant(grid, c0), cfg
            )
            assert est.steps == 0
            assert np.all(est.eigenfunction.values == 1.0)
            for value in (est.lambda_lo, est.lambda_hi, est.lambda_bar):
                assert value == -c0
            assert est.eigen_residual == 0.0

    def test_history_is_monotone_consistent(self, interval16, cfg):
        est = bisection_eigenvalue_reference(
            interval16, VectorField.zero(interval16), ScalarField.constant(interval16, -1.0), cfg
        )
        conv = [p.lam for p in est.history if p.converged]
        div = [p.lam for p in est.history if not p.converged]
        assert max(conv) < min(div)
        assert est.steps >= 10

    def test_grid_independence_for_constants(self, interval16, interval64, cfg):
        b16 = estimate_principal_eigenvalue(
            interval16, VectorField.zero(interval16), ScalarField.constant(interval16, -2.0), cfg
        ).lambda_bar
        b64 = estimate_principal_eigenvalue(
            interval64, VectorField.zero(interval64), ScalarField.constant(interval64, -2.0), cfg
        ).lambda_bar
        assert b16 == b64  # x = 1 closes the bracket exactly on constant data

    def test_with_drift(self, interval16, cfg):
        # drift does not move the eigenvalue for constant c (constants remain
        # the eigenfunctions and the iteration scalars are unchanged)
        b = VectorField.constant(interval16, (0.7,))
        est = estimate_principal_eigenvalue(
            interval16, b, ScalarField.constant(interval16, -1.5), cfg
        )
        assert abs(est.lambda_bar - 1.5) <= 1e-4

    def test_eigen_residual_small(self, interval16, cfg):
        est = estimate_principal_eigenvalue(
            interval16, VectorField.zero(interval16), ScalarField.constant(interval16, -1.0), cfg
        )
        assert est.eigen_residual <= 10.0 * max(1e-4, cfg.tol)

    def test_readme_h32_damped_resolvent(self, cfg):
        # the damped Newton resolvent needs at most 40 factorizations here (86
        # with the residual-rise trigger), and the bracket is unchanged
        run = load_config(parse_config_text(README_DISK.replace("0.0625", "0.03125")))
        grid = run.build_grid()
        est = estimate_principal_eigenvalue(grid, VectorField.zero(grid), run.scalar_field(grid, run.c), cfg)
        assert est.factorizations <= 40
        assert est.lambda_lo == pytest.approx(0.7320924745463696, abs=1e-12)
        assert est.lambda_hi == pytest.approx(0.7321334382943563, abs=1e-12)

    def test_readme_h64_rms_merit(self, cfg):
        # the RMS merit and lean SuperLU settings take 55 factorizations here
        # (73 with the sup merit); the bracket moves only by rounding
        run = load_config(parse_config_text(README_DISK.replace("0.0625", "0.015625")))
        grid = run.build_grid()
        est = estimate_principal_eigenvalue(grid, VectorField.zero(grid), run.scalar_field(grid, run.c), cfg)
        assert est.factorizations <= 65
        assert est.lambda_lo == pytest.approx(0.7407093746392586, abs=1e-10)
        assert est.lambda_hi == pytest.approx(0.7407385072581616, abs=1e-10)

    def test_bad_bisect_tol(self, interval16, cfg):
        # a NaN width target would pass the bracket of x = 1 with no solve
        for estimate in (estimate_principal_eigenvalue, bisection_eigenvalue_reference):
            for bisect_tol in (0.0, float("nan")):
                with pytest.raises(ValueError):
                    estimate(
                        interval16, VectorField.zero(interval16),
                        ScalarField.constant(interval16, 0.0), cfg, bisect_tol=bisect_tol,
                    )

    def test_sign_changing_case(self, sign_changing_setup):
        est = sign_changing_setup["estimate"]
        phi = est.eigenfunction
        assert phi.sup_norm == 1.0
        assert np.min(phi.values) > 0.0


def _reference_march(seed, problem, t_max, stop_below, stop_above):
    """One seed marched alone, out of place: (t, sup, outcome, steps taken)."""
    grid = problem.grid
    dt = 0.9 * evolution.cfl_bound(problem)
    n_steps = int(np.ceil(t_max / dt - 1e-12))
    u, t = seed.values, 0.0
    for k in range(1, n_steps + 1):
        step = min(dt, t_max - t)
        u = u + step * residual_values(grid, problem.b.values, problem.c.values, problem.g.values,
                                       problem.lam, u)
        t += step
        if k % 16 == 0 or k == n_steps:
            sup = np.max(np.abs(u))
            if sup <= stop_below:
                return t, sup, "decayed", k
            if sup >= stop_above:
                return t, sup, "blew-up", k
    return t, sup, "timeout", n_steps


class TestMaximumPrinciple:
    def test_march_steps_each_seed_alone(self, disk8, monkeypatch):
        # c = 0 with a constant drift: constants are the positive eigenfunction,
        # so lam_bar_h = 0 and lam = 0.5 lies above the bracket.  Spikes spread
        # below the decay threshold first (at steps 32 and 16); constants grow
        # as e^(0.5 t), so 1 blows up (step 688) and 0.2, 0.3 time out at t_max
        n = disk8.n_active
        b, c = VectorField.constant(disk8, (0.4, -0.2)), ScalarField.constant(disk8, 0.0)
        problem = SteadyProblem(disk8, b, c, ScalarField.constant(disk8, 0.0), 0.5)
        spike = [ScalarField(disk8, np.eye(n)[i]) for i in (n // 2, 0)]
        ones, low, mid = (ScalarField.constant(disk8, v) for v in (1.0, 0.2, 0.3))
        kwargs = dict(t_max=6.0, decay_threshold=0.1, blowup_threshold=10.0, lambda_bar=0.0)

        seeds = [spike[0], spike[1], ones]
        calls = []
        residual = evolution.residual_values

        def counted(*args):
            u = args[-1]  # the state is the last argument; a march starts from its seed's own array
            calls.append((u.shape, next((i for i, seed in enumerate(seeds) if u is seed.values), None)))
            return residual(*args)

        monkeypatch.setattr(evolution, "residual_values", counted)
        report = check_maximum_principle(disk8, b, c, 0.5, seeds, **kwargs)
        want = [_reference_march(seed, problem, 6.0, 0.1, 10.0) for seed in seeds]
        assert [w[2] for w in want] == ["decayed", "decayed", "blew-up"]
        assert want[0][3] != want[1][3]
        assert not report.holds
        for verdict, (t, sup, outcome, _) in zip(report.verdicts, want):
            assert verdict.holds == (outcome == "decayed")
            assert np.float64(verdict.t_reached).tobytes() == np.float64(t).tobytes()
            assert np.float64(verdict.sup_final).tobytes() == sup.tobytes()
        # each seed is marched alone as an (N,) field, seed 0 first, to the step of its verdict
        assert calls == [((n,), i if k == 1 else None) for i, w in enumerate(want) for k in range(1, w[3] + 1)]

        with pytest.raises(MaxPrincipleInconclusive) as caught:
            check_maximum_principle(disk8, b, c, 0.5, [spike[1], low, ones, mid], **kwargs)
        assert caught.value.seed_index == 1
        assert [_reference_march(seed, problem, 6.0, 0.1, 10.0)[2] for seed in (low, mid)] == ["timeout"] * 2

    def test_estimate_decides_before_the_march(self, disk8, cfg, monkeypatch):
        # c = 0 with a constant drift: x = 1 and lam_bar_h = 0, so at lam = 0.5 the
        # growth bound (1 + 0.5 dt)^n refutes the constant 1 by t = 4.6 < t_max.
        # A zero node gives min(u_0/x) = 0, so 0.2 with a hole is marched, and
        # it grows like e^(0.5 t) to about 4 by t_max: a timeout
        b, c = VectorField.constant(disk8, (0.4, -0.2)), ScalarField.constant(disk8, 0.0)
        est = estimate_principal_eigenvalue(disk8, b, c, cfg)
        ones = ScalarField.constant(disk8, 1.0)
        holed = ScalarField(disk8, np.where(np.arange(disk8.n_active) == 0, 0.0, 0.2))
        kwargs = dict(t_max=6.0, decay_threshold=0.1, blowup_threshold=10.0, lambda_bar=0.0, estimate=est)

        marched = []
        march = evolution.evolve_until

        def recorded(seeds, *args, **kw):
            marched.append(len(seeds))
            return march(seeds, *args, **kw)

        monkeypatch.setattr(evolution, "evolve_until", recorded)
        report = check_maximum_principle(disk8, b, c, 0.5, [ones], **kwargs)
        assert marched == []
        (verdict,) = report.verdicts
        assert not verdict.holds and verdict.certificate == "subsolution"
        dt, _ = evolution._checked_dt(SteadyProblem(disk8, b, c, ScalarField.constant(disk8, 0.0), 0.5))
        n = round(verdict.t_reached / dt)
        assert verdict.t_reached == n * dt <= 6.0
        assert (1 + 0.5 * dt) ** (n - 1) < 10.0 <= verdict.sup_final == pytest.approx((1 + 0.5 * dt) ** n, rel=1e-13)

        with pytest.raises(MaxPrincipleInconclusive) as caught:
            check_maximum_principle(disk8, b, c, 0.5, [ones, holed], **kwargs)
        assert caught.value.seed_index == 1  # the index in the full list, not in the marched one
        assert marched == [1]

        # a gap lam_lo - lam = 5e-324 leaves dt * gap = 0: no bound, so the spike is marched
        spike = ScalarField(disk8, np.eye(disk8.n_active)[disk8.n_active // 2])
        tiny = dataclasses.replace(est, lambda_lo=5e-324, lambda_hi=5e-324)
        report = check_maximum_principle(disk8, b, c, 0.0, [spike], **{**kwargs, "estimate": tiny})
        assert marched == [1, 1]
        assert report.verdicts[0].holds and report.verdicts[0].certificate == "march"

        for t_max in (np.inf, np.nan, -1.0):  # refused as by the march, though no seed is marched
            with pytest.raises(ValueError, match="t_max must be finite and positive"):
                check_maximum_principle(disk8, b, c, 0.5, [ones], **{**kwargs, "t_max": t_max})

        other = build_grid(Disk((0.0, 0.0), 1.0), 1.0 / 8.0, 1)  # equal to disk8, not the same object
        with pytest.raises(ValueError, match="another grid"):
            check_maximum_principle(other, VectorField.constant(other, (0.4, -0.2)), ScalarField.constant(other, 0.0),
                                    0.5, [ScalarField.constant(other, 1.0)], **kwargs)

    def test_bounds_take_the_bracket_of_the_call(self, disk8, cfg):
        # an estimate made for c, passed with c - 0.5: lam = lam_hi + 0.25 lies
        # above the estimate's stored bracket but below that of c - 0.5, where
        # the maximum principle holds.  The bounds take the bracket that x
        # gives for the call's own (b, c), so the seed decays, as it does when
        # marched, instead of being refuted by a growth bound that is false
        b = VectorField.zero(disk8)
        px, py = disk8.nodes.T
        c = ScalarField(disk8, -np.exp(-4.0 * (px**2 + py**2)))
        est = estimate_principal_eigenvalue(disk8, b, c, cfg)
        x = est.eigenfunction.values
        q = eigen._collatz_wielandt(disk8, b, c, x)
        assert (np.min(q), np.max(q)) == (est.lambda_lo, est.lambda_hi)  # matching (b, c): the stored ends
        shifted = ScalarField(disk8, c.values - 0.5)
        lam, ones = est.lambda_hi + 0.25, [ScalarField.constant(disk8, 1.0)]
        kwargs = dict(t_max=20.0, decay_threshold=0.1, blowup_threshold=10.0, lambda_bar=est.lambda_bar)
        (bound,) = check_maximum_principle(disk8, b, shifted, lam, ones, estimate=est, **kwargs).verdicts
        (march,) = check_maximum_principle(disk8, b, shifted, lam, ones, **kwargs).verdicts
        assert bound.holds and bound.certificate == "supersolution"
        assert march.holds and march.certificate == "march"

        holed = dataclasses.replace(est, eigenfunction=ScalarField(disk8, np.where(px == px[0], 0.0, x)))
        with pytest.raises(ValueError, match="not strictly positive"):
            check_maximum_principle(disk8, b, shifted, lam, ones, estimate=holed, **kwargs)

        # a gap lam_lo - lam = 5e-324 leaves dt * gap = 0: no bound
        assert eigen._bound_verdict(0, x, x, 5e-324, 5e-324, 0.0, 0.1, 20.0, 0.1, 10.0) is None

    def test_decay_below_threshold(self, interval16):
        x = interval16.nodes[:, 0]
        bump = ScalarField(interval16, np.exp(-20.0 * (x - 0.5) ** 2))
        report = check_maximum_principle(
            interval16, VectorField.zero(interval16), ScalarField.constant(interval16, 0.0),
            -0.5, [bump], t_max=100.0, lambda_bar=0.0,
        )
        assert report.holds
        assert report.verdicts[0].holds

    def test_growth_above_threshold(self, interval16):
        ones = ScalarField.constant(interval16, 1.0)
        report = check_maximum_principle(
            interval16, VectorField.zero(interval16), ScalarField.constant(interval16, 0.0),
            0.5, [ones], t_max=200.0, blowup_threshold=1e3, lambda_bar=0.0,
        )
        assert not report.holds
        # explicit solution e^{0.5 t}: hits 1e3 near t = 13.8
        assert report.verdicts[0].t_reached == pytest.approx(np.log(1e3) / 0.5, rel=0.05)

    def test_inconclusive_raises(self, interval16):
        ones = ScalarField.constant(interval16, 1.0)
        with pytest.raises(MaxPrincipleInconclusive):
            check_maximum_principle(
                interval16, VectorField.zero(interval16), ScalarField.constant(interval16, 0.0),
                0.001, [ones], t_max=1.0, lambda_bar=0.0,
            )

    def test_seed_validation(self, interval16):
        # a seed with no positive part, or whose sup already lies at or past a
        # threshold, is refused before any step; the error names the seed
        fine = ScalarField.constant(interval16, 0.1)
        for seed, kwargs, why in (
            (0.0, {}, "no positive part"),
            (-1.0, {}, "no positive part"),
            (2e6, {}, "not strictly between"),          # above the default blowup 1e6
            (1.0, {"blowup_threshold": 0.5}, "not strictly between"),
            (1e-7, {}, "not strictly between"),         # below the default decay 1e-6
        ):
            with pytest.raises(ValueError, match=f"seed 1 .*{why}"):
                check_maximum_principle(
                    interval16, VectorField.zero(interval16), ScalarField.constant(interval16, 0.0),
                    -0.5, [fine, ScalarField.constant(interval16, seed)], lambda_bar=0.0, **kwargs,
                )

    def test_empty_seed_list_refused(self):
        # c = 0 on the disk gives lam_bar_h = 0, so lam = 5 is far above it; an
        # empty list must not report that the maximum principle holds there
        grid = build_grid(Disk((0.0, 0.0), 1.0), 0.25, 1)
        with pytest.raises(ValueError, match="at least one seed"):
            check_maximum_principle(
                grid, VectorField.zero(grid), ScalarField.constant(grid, 0.0), 5.0, [], lambda_bar=0.0,
            )

    def test_sign_changing_case_holds_at_zero(self, sign_changing_setup):
        # the zero-order term changes sign yet lam_bar > 0, so the maximum
        # principle holds for the unshifted operator
        grid = sign_changing_setup["grid"]
        c = sign_changing_setup["c"]
        est = sign_changing_setup["estimate"]
        bump = ScalarField(grid, np.exp(-50.0 * np.sum(grid.nodes**2, axis=1)))
        report = check_maximum_principle(
            grid, VectorField.zero(grid), c, 0.0, [bump],
            t_max=200.0, lambda_bar=est.lambda_bar,
        )
        assert report.holds
        assert report.lambda_bar > 0.0

    def test_report_dict(self, interval16):
        ones = ScalarField.constant(interval16, 1.0)
        report = check_maximum_principle(
            interval16, VectorField.zero(interval16), ScalarField.constant(interval16, -1.0),
            0.0, [ones], t_max=100.0, lambda_bar=1.0,
        )
        d = report.to_dict()
        assert d["holds"] is True
        assert d["seeds"][0]["verdict"] == "MP-holds"
        assert d["lambda_bar"] == 1.0


class TestBracket:
    def test_oracle_meets_fast_bracket(self, interval16, cfg):
        x = interval16.nodes[:, 0]
        cases = [(interval16, VectorField.zero(interval16),
                  ScalarField(interval16, -1.0 + 0.5 * np.sin(3.0 * x))), _readme_disk()]
        for grid, b, c in cases:
            fast = estimate_principal_eigenvalue(grid, b, c, cfg)
            oracle = bisection_eigenvalue_reference(grid, b, c, cfg)
            assert fast.lambda_hi - fast.lambda_lo <= 1e-4
            assert fast.steps > 0
            assert _meets(fast, oracle), (fast.lambda_lo, fast.lambda_hi, oracle.lambda_lo, oracle.lambda_hi)

    def test_drift_case(self, disk16s2, bump_params, cfg):
        # the bisection dichotomy returned [0.705627, 0.705688] here: its
        # inconclusive probes were counted as divergent
        c = sign_changing_coefficient(bump_params, disk16s2)
        b = VectorField.constant(disk16s2, (0.7, -0.3))
        est = estimate_principal_eigenvalue(disk16s2, b, c, cfg)
        assert est.lambda_hi - est.lambda_lo <= 1e-4
        assert est.lambda_lo <= 0.761279 <= est.lambda_hi
        assert np.min(est.eigenfunction.values) > 0.0
        below = monotone_iteration(disk16s2, b, c, est.lambda_lo - 0.02,
                                   ScalarField.constant(disk16s2, -1.0), cfg)
        assert below.converged

    def test_interval_h1024(self, cfg):
        # the README c as c(|x|) on [-1, 1]: the resolvent starts from the
        # antipodal tie rule at x = 1 and carries its arms between solves
        grid = build_grid(Interval(-1.0, 1.0), 1.0 / 1024.0, 1)
        c = ScalarField(grid, np.where(np.abs(grid.nodes[:, 0]) <= 0.2, 0.325, -1.0))
        est = estimate_principal_eigenvalue(grid, VectorField.zero(grid), c, cfg)
        assert est.lambda_hi - est.lambda_lo <= 1e-4
        assert est.lambda_lo <= 0.719935 <= est.lambda_hi  # 0.71993534 closed to width 4e-9
        assert 0.719923 <= est.lambda_lo <= 0.719925
        assert 0.719947 <= est.lambda_hi <= 0.719949
        assert np.min(est.eigenfunction.values) > 0.0

    def test_tolerance_below_rounding_floor_stops_early(self, cfg):
        # the bracket stalls near width 1.3e-9 here; 1e-11 cannot be met, and
        # the loop says so once a solve fails to narrow it, not after max_outer
        grid = build_grid(Interval(-1.0, 1.0), 1.0 / 1024.0, 1)
        c = ScalarField(grid, np.where(np.abs(grid.nodes[:, 0]) <= 0.2, 0.325, -1.0))
        with pytest.raises(BracketFailure, match="below the rounding floor") as err:
            estimate_principal_eigenvalue(grid, VectorField.zero(grid), c, cfg, bisect_tol=1e-11)
        solves = int(re.search(r"after (\d+) resolvent solves", str(err.value)).group(1))
        assert solves < 30 < cfg.max_outer
        assert "0.71993533" in str(err.value)

    def test_nonpositive_iterate_raises(self, interval16, cfg, monkeypatch):
        # a resolvent that returns its right-hand side -x breaks positivity
        monkeypatch.setattr(steady._CoerciveSystem, "solve", lambda self, rhs, initial=None: rhs)
        c = ScalarField(interval16, -1.0 + 0.5 * np.sin(3.0 * interval16.nodes[:, 0]))
        with pytest.raises(BracketFailure, match="not strictly positive"):
            estimate_principal_eigenvalue(interval16, VectorField.zero(interval16), c, cfg)


class TestEstimateToDict:
    KEYS = ["lambda_lo", "lambda_hi", "lambda_bar", "residual", "steps", "factorizations", "flags",
            "certificate"]

    def test_schema(self, interval16, cfg):
        # bisection oracle: its probe history stays on the estimate, out of the dict
        est = bisection_eigenvalue_reference(
            interval16, VectorField.zero(interval16), ScalarField.constant(interval16, -1.0), cfg
        )
        d = est.to_dict()
        assert list(d) == self.KEYS
        assert est.history and d["steps"] == est.steps and d["certificate"] == "bisection"

    def test_fast_path_schema(self, interval16, cfg):
        x = interval16.nodes[:, 0]
        c = ScalarField(interval16, -1.0 + 0.5 * np.sin(3.0 * x))
        est = estimate_principal_eigenvalue(interval16, VectorField.zero(interval16), c, cfg)
        d = est.to_dict()
        assert list(d) == self.KEYS
        assert d["certificate"] == "collatz-wielandt"
        assert d["flags"] == []
        assert d["steps"] == est.steps > 0


class TestEigenBounds:
    @pytest.mark.parametrize("lam", [0.5, 0.9])
    @pytest.mark.parametrize("drift", [(0.0, 0.0), (0.7, -0.3)])
    def test_bounds_hold_along_the_march(self, drift, lam, cfg):
        # lam_lo x <= -L_h x <= lam_hi x with the explicit step monotone, odd and
        # 1-homogeneous: sup|u_n| <= max(|u_0|/x) (1 - dt (lam_lo - lam))^n, and
        # max u_n >= min(u_0/x) (1 + dt (lam - lam_hi))^n when min(u_0/x) > 0.
        # lam = 0.5 lies below the bracket, lam = 0.9 above it
        grid, _, c = _readme_disk()
        b = VectorField.constant(grid, drift)
        est = estimate_principal_eigenvalue(grid, b, c, cfg)
        assert est.lambda_lo > 0.5 and est.lambda_hi < 0.9
        x = est.eigenfunction.values
        problem = SteadyProblem(grid, b, c, ScalarField.constant(grid, 0.0), lam)
        dt, _ = evolution._checked_dt(problem)
        px, py = grid.nodes.T
        seeds = [
            x, np.ones(grid.n_active), np.exp(-50.0 * (px**2 + py**2)),
            np.random.default_rng(0).normal(size=grid.n_active), 1.0 + 0.5 * np.sin(5.0 * px),
        ]
        upper = [np.max(np.abs(seed) / x) for seed in seeds]
        lower = [np.min(seed / x) for seed in seeds]
        assert [low > 0.0 for low in lower] == [True, True, True, False, True]
        decay, growth = 1.0 - dt * (est.lambda_lo - lam), 1.0 + dt * (lam - est.lambda_hi)
        above, below, sup_1000 = [], [], []
        for seed, up, low in zip(seeds, upper, lower):
            u = seed
            for n in range(1, 2049):
                u = evolution._euler_step(u, problem, dt)
                above.append(np.max(np.abs(u)) / (up * decay**n))
                if low > 0.0:
                    below.append(np.max(u) / (low * growth**n))
                if n == 1000:
                    sup_1000.append(np.max(np.abs(u)))
        assert max(above) <= 1.0 + 1e-12
        assert min(below) >= 1.0 - 1e-12

        # check_maximum_principle's verdicts take the same bounds: a threshold
        # halfway (in log) between the bounds of steps 999 and 1000 is crossed
        # at step 1000, and not within a horizon of 999.9 dt
        rate, start = (decay, upper) if lam < est.lambda_lo else (growth, lower)
        for i in range(len(start)):
            threshold = start[i] * rate**999.5
            if lam < est.lambda_lo:
                kwargs = dict(decay_threshold=threshold, blowup_threshold=np.inf)
            else:
                kwargs = dict(decay_threshold=0.0, blowup_threshold=threshold)
            verdict = eigen._bound_verdict(i, seeds[i], x, est.lambda_lo, est.lambda_hi, lam, dt, 2048 * dt,
                                           **kwargs)
            if start[i] <= 0.0:  # the sign-changing seed has no growth bound
                assert verdict is None
                continue
            assert verdict.holds == (lam < est.lambda_lo)
            assert verdict.certificate == ("supersolution" if verdict.holds else "subsolution")
            assert verdict.t_reached == 1000 * dt
            assert verdict.sup_final == pytest.approx(start[i] * rate**1000, rel=1e-12)
            if verdict.holds:
                assert sup_1000[i] <= verdict.sup_final * (1.0 + 1e-12)
            else:
                assert sup_1000[i] >= verdict.sup_final * (1.0 - 1e-12)
            late = eigen._bound_verdict(i, seeds[i], x, est.lambda_lo, est.lambda_hi, lam, dt, 999.9 * dt, **kwargs)
            assert late is None
