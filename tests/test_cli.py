import dataclasses
import json
import os
import types

import numpy as np
import pytest

from infeig import cli, expr, steady, verify
from infeig.cli import main
from infeig.config import ConfigError, load_config, parse_config_text
from infeig.eigen import BracketFailure, check_maximum_principle
from infeig.steady import SolverConfig

EIGEN_CFG = """
# constant-coefficient eigenvalue
domain.type = interval
domain.a = 0
domain.b = 1
grid.h = 0.0625
grid.s = 1
coeff.c = -3
eigen.bisect_tol = 1e-4
"""

README_DISK_CFG = """
domain.type = disk
domain.radius = 1
grid.h = 0.0625
grid.s = 2
coeff.c = piecewise(r, 0.2, 0.325, -1.0)
eigen.bisect_tol = 1e-4
"""

SOLVE_CFG = """
domain.type = interval
domain.a = 0
domain.b = 1
grid.h = 0.0625
coeff.c = 0
coeff.g = 0
lambda = 0
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_defaults_and_comments(self):
        values = parse_config_text("# just a comment\n\ncoeff.c = -2 # trailing\n")
        assert values["coeff.c"] == "-2"
        assert values["grid.s"] == "1"

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("coeff.q = 1\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("# ok\ncoeff.c -2\n")
        assert "byte 5" in str(err.value)

    def test_set_items_take_comments(self):
        # a --set item reads as the same file line does: "#" starts a comment
        line = parse_config_text("coeff.g=-1 # note\n")
        assert line["coeff.g"] == "-1"
        assert parse_config_text("", overrides=["coeff.g=-1 # note"]) == line
        assert parse_config_text("", overrides=["  # a note alone"]) == parse_config_text("")

    def test_overrides_win(self):
        values = parse_config_text("coeff.c = -2\n", overrides=["coeff.c=-5", "grid.h=0.125"])
        assert values["coeff.c"] == "-5"
        assert values["grid.h"] == "0.125"

    def test_load_config_round_trip(self):
        cfg = load_config(parse_config_text(EIGEN_CFG))
        assert cfg.h == 0.0625
        assert cfg.bisect_tol == 1e-4
        grid = cfg.build_grid()
        c = cfg.scalar_field(grid, cfg.c)
        assert np.all(c.values == -3.0)

    def test_domain_variants(self):
        for text, described in (
            ("domain.type = interval\ndomain.a = -1\n", {"type": "interval", "a": -1.0, "b": 1.0}),
            ("domain.type = disk\ndomain.radius = 2\n", {"type": "disk", "center": [0.0, 0.0], "radius": 2.0}),
            ("domain.type = annulus\ndomain.inner_radius = 0.3\n",
             {"type": "annulus", "center": [0.0, 0.0], "inner_radius": 0.3, "outer_radius": 1.0}),
            ("domain.type = rectangle\ndomain.hi = 2,1\n", {"type": "rectangle", "lo": [0.0, 0.0], "hi": [2.0, 1.0]}),
        ):
            cfg = load_config(parse_config_text(text))
            assert cfg.domain.describe() == described
            assert [type(v) for v in cfg.domain.describe().values()] == [type(v) for v in described.values()]

    def test_expression_error_carries_offset(self):
        with pytest.raises(Exception) as err:
            load_config(parse_config_text("coeff.c = 2*(x+\n"))
        assert "byte" in str(err.value)

    def test_offsets_count_bytes(self):
        # the comment's lambda takes two bytes, so the second line starts at byte 11
        with pytest.raises(ConfigError, match="at byte 11: 'foo'"):
            parse_config_text("# \u03bb = 0.5\nfoo\n")

    def test_expression_error_names_its_key(self, tmp_path, capsys):
        for text, message in (
            ("coeff.g = 1 +\n", "coeff.g: syntax error at byte 3: expected a value"),
            ("mpcheck.seeds = 1 ; 2*(\n", "mpcheck.seeds: seed 1: syntax error at byte 3: expected a value"),
            ("coeff.bx = 2 * z\n", "coeff.bx: unknown identifier 'z' at byte 4"),
        ):
            with pytest.raises(ConfigError) as err:
                load_config(parse_config_text(text))
            assert str(err.value) == message
        cfg = _write(tmp_path, "bad.cfg", "coeff.g = 1 +\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: coeff.g: syntax error at byte 3: expected a value\n"

    def test_evaluation_error_names_its_key(self, tmp_path, capsys):
        # an error found on the nodes rather than at parse is led by its key
        # too: sqrt(x) is negative on the disk's left half, 1/(r - r) divides by 0
        text = README_DISK_CFG + "coeff.g = sqrt(x)\nmpcheck.seeds = 1 ; 1/(r - r)\n"
        run = load_config(parse_config_text(text))
        grid = run.build_grid()
        with pytest.raises(ConfigError, match="^coeff.g: sqrt of negative value$"):
            run.scalar_field(grid, run.g)
        with pytest.raises(ConfigError, match="^mpcheck.seeds: seed 1: division by zero$"):
            run.seed_fields(grid)
        with pytest.raises(expr.EvalError):  # an expression of the caller's own has no key
            run.scalar_field(grid, expr.parse("sqrt(x)"))
        cfg = _write(tmp_path, "eval.cfg", text)
        for sub, message in (("solve", "coeff.g: sqrt of negative value"),
                             ("mpcheck", "mpcheck.seeds: seed 1: division by zero")):
            assert main([sub, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_mpcheck_lambda_defaults_to_lambda(self):
        assert load_config(parse_config_text("lambda = 0.25\n")).mp_lambda == 0.25
        assert load_config(parse_config_text("lambda = 0.25\nmpcheck.lambda = 0.5\n")).mp_lambda == 0.5

    def test_every_solver_field_has_a_key(self):
        # every solver.* key set away from its default changes every SolverConfig
        # field, so the solver carries no switch that a run cannot set
        overrides = ["solver.tol=1e-7", "solver.rel_tol=1e-9", "solver.max_sweeps=50",
                     "solver.max_outer=30", "solver.blowup=1e5"]
        keys = {k for k in parse_config_text("") if k.startswith("solver.")}
        assert keys == {item.split("=")[0] for item in overrides}
        default = load_config(parse_config_text("")).solver
        solver = load_config(parse_config_text("", overrides=overrides)).solver
        for f in dataclasses.fields(SolverConfig):
            assert getattr(solver, f.name) != getattr(default, f.name), f.name

    def test_seed_list(self):
        cfg = load_config(parse_config_text("mpcheck.seeds = exp(-5*r^2) ; 1\n"))
        assert len(cfg.mp_seeds) == 2


class TestSubcommands:
    def test_eigen_constant(self, tmp_path):
        cfg = _write(tmp_path, "eigen.cfg", EIGEN_CFG)
        out = str(tmp_path / "out")
        assert main(["eigen", "--config", cfg, "--out", out]) == 0
        result = json.loads(open(os.path.join(out, "eigen.json")).read())
        assert abs(result["lambda_bar"] - 3.0) <= 1e-4
        assert result["lambda_hi"] - result["lambda_lo"] <= 1e-4
        assert result["certificate"] == "collatz-wielandt"
        assert result["steps"] == 0 and "history" not in result
        phi = np.loadtxt(os.path.join(out, "eigenfunction.csv"), delimiter=",", skiprows=1)
        assert np.abs(phi[:, 3] - 1.0).max() <= 1e-6
        assert os.path.exists(os.path.join(out, "grid.json"))
        assert os.path.exists(os.path.join(out, "nodes.csv"))

    def test_eigen_counts_factorizations(self, tmp_path, monkeypatch):
        # eigen.json carries the resolvent's splu count, which is every splu
        # call of the run; README config, h = 1/16
        splu, calls = steady.spla.splu, []

        def counting_splu(*args, **kwargs):
            calls.append(args[0].shape[0])
            return splu(*args, **kwargs)

        monkeypatch.setattr(steady.spla, "splu", counting_splu)
        cfg = _write(tmp_path, "eigen.cfg", README_DISK_CFG)
        out = tmp_path / "out"
        assert main(["eigen", "--config", cfg, "--out", str(out)]) == 0
        result = json.loads((out / "eigen.json").read_text())
        assert calls and result["factorizations"] == len(calls)

    def test_solve_zero_everything(self, tmp_path):
        cfg = _write(tmp_path, "solve.cfg", SOLVE_CFG)
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        sol = np.loadtxt(os.path.join(out, "solution.csv"), delimiter=",", skiprows=1)
        assert np.all(sol[:, 3] == 0.0)
        # the non-coercive path starts from 0.0 - w, so no cell is written as -0
        rows = open(os.path.join(out, "solution.csv")).read().splitlines()[1:]
        assert not [row for row in rows if row.split(",")[3].startswith("-")]
        res = json.loads(open(os.path.join(out, "residual.json")).read())
        assert res["residual_sup"] == 0.0

    def test_solve_with_set_override(self, tmp_path):
        cfg = _write(tmp_path, "solve.cfg", SOLVE_CFG)
        out = str(tmp_path / "out")
        code = main([
            "solve", "--config", cfg, "--out", out,
            "--set", "coeff.c=-2", "--set", "coeff.g=-2",
        ])
        assert code == 0
        sol = np.loadtxt(os.path.join(out, "solution.csv"), delimiter=",", skiprows=1)
        assert np.abs(sol[:, 3] - 1.0).max() <= 1e-7

    def test_solve_coercive_h64(self, tmp_path):
        # the coercive case at h = 1/64 (N = 13085), the size the solvers are
        # held to; a coarser grid would not exercise the fine-grid solve
        text = README_DISK_CFG + "grid.h = 0.015625\ncoeff.c = -1\ncoeff.g = -exp(-5*r^2)\n"
        cfg = _write(tmp_path, "coercive.cfg", text)
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        res = json.loads(open(os.path.join(out, "residual.json")).read())
        assert res["n_active"] == 13085
        assert res["residual_sup"] <= load_config(parse_config_text(text)).solver.tol

    def test_solve_piecewise_unselected_branch(self, tmp_path):
        # sqrt(r - 0.5) is selected only for r > 0.5, so it is never taken
        # at a negative argument
        text = README_DISK_CFG + "coeff.c = piecewise(r, 0.5, -1, sqrt(r - 0.5) - 1)\ncoeff.g = -1\n"
        cfg = _write(tmp_path, "pw.cfg", text)
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        res = json.loads(open(os.path.join(out, "residual.json")).read())
        assert res["residual_sup"] <= load_config(parse_config_text(text)).solver.tol

    def test_byte_identical_reruns(self, tmp_path):
        cfg = _write(tmp_path, "eigen.cfg", EIGEN_CFG)
        out1 = str(tmp_path / "a")
        out2 = str(tmp_path / "b")
        assert main(["eigen", "--config", cfg, "--out", out1]) == 0
        assert main(["eigen", "--config", cfg, "--out", out2]) == 0
        for name in ("eigen.json", "eigenfunction.csv", "grid.json", "nodes.csv"):
            a = open(os.path.join(out1, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b

    def test_config_error_exit_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "bad.cfg", "coeff.c = 2*(x+\n")
        assert main(["eigen", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        # unparsable values and unknown keys: the message names the key or the item
        cfg = _write(tmp_path, "disk.cfg", "domain.type = disk\ngrid.h = 0.125\ncoeff.c = -1\n")
        for setting, named in (
            ("grid.h=abc", "grid.h"), ("grid.s=1.5", "grid.s"),
            ("domain.center=a,b", "domain.center"), ("domain.type=ellipse", "ellipse"),
            ("foo", "foo"), ("nope=1", "nope"),
        ):
            capsys.readouterr()
            argv = ["eigen", "--config", cfg, "--out", str(tmp_path / "o"), "--set", setting]
            assert main(argv) == 2, setting
            assert named in capsys.readouterr().err, setting
        # malformed disk and annulus geometry is a config error, not a crash
        for kind, setting in (
            ("disk", "domain.center=0,0,0"),
            ("disk", "domain.center=0"),
            ("disk", "domain.radius=inf"),
            ("annulus", "domain.center=0"),
        ):
            cfg = _write(tmp_path, "dom.cfg", f"domain.type = {kind}\ngrid.h = 0.125\ncoeff.c = -1\n")
            argv = ["eigen", "--config", cfg, "--out", str(tmp_path / "o"), "--set", setting]
            assert main(argv) == 2, (kind, setting)
        # out-of-range values are config errors too, caught before any solve
        cfg = _write(tmp_path, "range.cfg", README_DISK_CFG + "mpcheck.seeds = 1\n")
        for sub, setting in (
            ("eigen", "solver.tol=0"), ("eigen", "solver.tol=nan"), ("eigen", "solver.rel_tol=nan"),
            ("eigen", "solver.max_outer=0"), ("eigen", "solver.blowup=0.5"),
            ("eigen", "solver.blowup=nan"),
            ("eigen", "eigen.bisect_tol=0"), ("eigen", "eigen.bisect_tol=nan"),
            ("evolve", "evolve.T=0"), ("evolve", "evolve.T=nan"), ("evolve", "evolve.T=inf"),
            ("mpcheck", "mpcheck.t_max=-1"), ("mpcheck", "mpcheck.t_max=inf"),
            ("mpcheck", "mpcheck.decay_threshold=-1"), ("mpcheck", "mpcheck.decay_threshold=nan"),
            # non-finite settings: an infinite tolerance would certify anything
            ("solve", "solver.tol=inf"), ("solve", "solver.rel_tol=inf"),
            ("evolve", "evolve.output_interval=nan"), ("evolve", "evolve.output_interval=inf"),
            ("evolve", "evolve.output_interval=-1"),
            ("mpcheck", "mpcheck.lambda=nan"), ("mpcheck", "mpcheck.lambda=inf"),
            ("solve", "lambda=nan"), ("solve", "lambda=inf"),
            ("mpcheck", "mpcheck.blowup=nan"), ("mpcheck", "mpcheck.blowup=inf"),
            ("mpcheck", "mpcheck.blowup=1e-7"),
            # seeds that cannot decide: zero, nowhere positive, or already past a threshold
            ("mpcheck", "mpcheck.seeds=0"), ("mpcheck", "mpcheck.seeds=-1"), ("mpcheck", "mpcheck.seeds=1 ; -x^2"),
            ("mpcheck", "mpcheck.seeds=2e6"), ("mpcheck", "mpcheck.blowup=0.5"),
            ("mpcheck", "mpcheck.seeds=1e-7"),
        ):
            argv = [sub, "--config", cfg, "--out", str(tmp_path / "o"), "--set", setting]
            assert main(argv) == 2, (sub, setting)

    @pytest.mark.parametrize("setting", [
        "coeff.c=" + "(" * 250 + "-1" + ")" * 250,
        "coeff.g=" + "sin(" * 200 + "x" + ")" * 200,
        "coeff.g=" + "-" * 990 + "1",
    ], ids=["parentheses", "sin", "unary-minus"])
    def test_deep_nesting_exit_2(self, tmp_path, capsys, setting):
        # nesting past Python's recursion limit is a config error, not a traceback
        cfg = _write(tmp_path, "disk.cfg", README_DISK_CFG)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o"), "--set", setting]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    def test_one_dimensional_rectangle_exit_2(self, tmp_path, capsys):
        # a config rectangle is 2D; the 1D box is spelled domain.type = interval
        cfg = _write(tmp_path, "rect.cfg", "domain.type = rectangle\ncoeff.c = -1\n")
        argv = ["eigen", "--config", cfg, "--out", str(tmp_path / "o"),
                "--set", "domain.lo=0", "--set", "domain.hi=1"]
        assert main(argv) == 2
        assert "domain.lo" in capsys.readouterr().err

    def test_oversized_grid_exit_2(self, tmp_path, capsys):
        # the lattice box is sized before it is built: no hang, no MemoryError
        cfg = _write(tmp_path, "rect.cfg", "domain.type = rectangle\ndomain.lo = -1,-1\ncoeff.c = -1\n")
        for sub, h in (("solve", "1e-300"), ("eigen", "1e-6")):
            argv = [sub, "--config", cfg, "--out", str(tmp_path / "o"), "--set", f"grid.h={h}"]
            assert main(argv) == 2, h
            assert "points; at most" in capsys.readouterr().err

    def test_spacing_out_of_float_range_exit_2(self, tmp_path, capsys):
        # h^2 is subnormal, so 1/rho^2 would overflow in every frozen matrix
        cfg = _write(tmp_path, "eigen.cfg", README_DISK_CFG)
        argv = ["eigen", "--config", cfg, "--out", str(tmp_path / "o"), "--set", "domain.type=disk",
                "--set", "domain.radius=1e-160", "--set", "grid.h=1e-161"]
        assert main(argv) == 2
        assert "spacing h = 1e-161" in capsys.readouterr().err
        assert not (tmp_path / "o" / "eigen.json").exists()

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["eigen", "--out", str(tmp_path)]) == 2
        assert main(["eigen", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_solver_failure_exit_3(self, tmp_path, capsys):
        # lam above the eigenvalue: the solve diverges, and the eigen bracket
        # (c = 0, so lam_bar_h = 0) says why
        cfg = _write(tmp_path, "div.cfg", SOLVE_CFG + "coeff.g = -1\nlambda = 0.5\nsolver.max_outer = 40\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "iteration diverged (sup reached the blowup threshold)" in err
        assert "lambda = 0.5 lies above the eigen bracket" in err
        # constant c and lam = lam_bar = -c: the lam-matrix is singular, and
        # the huge field it gives is refused rather than written; lam = -c
        # lies inside the bracket, where the divergence is undecided
        for c, lam in (("0", "0"), ("-1", "1")):
            text = f"domain.type = disk\ngrid.h = 0.125\ncoeff.c = {c}\ncoeff.g = -1\nlambda = {lam}\n"
            out = tmp_path / f"o{lam}"
            assert main(["solve", "--config", _write(tmp_path, "at.cfg", text), "--out", str(out)]) == 3
            assert not (out / "solution.csv").exists()
            err = capsys.readouterr().err
            assert "iteration inconclusive (max_outer used up)" in err
            assert f"lambda = {float(lam)!r} lies inside the eigen bracket" in err

    def test_solver_failure_says_where_lambda_lies(self, tmp_path, capsys, monkeypatch):
        # lam = 0 lies below lam_bar_h = 1 of c = -1, where a solution exists:
        # a divergence there is the solver's failure, and the message says so
        def diverged(problem, cfg):
            raise steady.Diverged(7, 1e7)

        monkeypatch.setattr(cli, "solve_general_rhs", diverged)
        cfg = _write(tmp_path, "below.cfg", SOLVE_CFG + "coeff.c = -1\ncoeff.g = -1\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "lambda = 0.0 lies below the eigen bracket" in err and "solver failure" in err

        # an end within 1e-12 max(1, |lam|) of lam counts as inside
        for lo, hi, where in ((-1e-12, -1e-12, "inside"), (-3e-12, -3e-12, "above"),
                              (1e-12, 1e-12, "inside"), (3e-12, 3e-12, "below")):
            bracket = types.SimpleNamespace(lambda_lo=lo, lambda_hi=hi)
            monkeypatch.setattr(cli, "estimate_principal_eigenvalue", lambda *args, b=bracket: b)
            assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
            assert f"lambda = 0.0 lies {where} the eigen bracket" in capsys.readouterr().err

        # a bracket that fails too is named, and the exit stays 3
        def no_bracket(*args):
            raise BracketFailure("still open")

        monkeypatch.setattr(cli, "estimate_principal_eigenvalue", no_bracket)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "at outer step 7" in err and "no eigen bracket to compare lambda with: still open" in err

    def test_eigen_open_bracket_exit_3(self, tmp_path):
        # one resolvent solve cannot close the bracket: no open bracket is written
        cfg = _write(tmp_path, "eigen.cfg", README_DISK_CFG + "solver.max_outer = 1\n")
        out = tmp_path / "o"
        assert main(["eigen", "--config", cfg, "--out", str(out)]) == 3
        assert not (out / "eigen.json").exists()

    def test_evolve(self, tmp_path):
        text = SOLVE_CFG + "coeff.c = -1\ncoeff.h0 = 2\nevolve.T = 2\nevolve.output_interval = 0.1\n"
        cfg = _write(tmp_path, "ev.cfg", text)
        out = str(tmp_path / "out")
        assert main(["evolve", "--config", cfg, "--out", out]) == 0
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert summary["pass"] is True
        assert abs(summary["lambda_bar"] - 1.0) <= 1e-4
        trace = np.loadtxt(os.path.join(out, "trace.csv"), delimiter=",", skiprows=1)
        assert trace.shape[1] == 3
        exact = 2.0 * np.exp(-trace[-1, 0])
        # coarse-grid CFL step: allow the first-order Euler-in-time error T*dt/2
        dt = summary["dt"]
        assert abs(trace[-1, 1] - exact) / exact <= 1.5 * trace[-1, 0] * dt / 2.0

    def test_evolve_output_interval_beyond_horizon(self, tmp_path):
        # output_interval / dt overflows an int: the stride is capped at the step count
        text = SOLVE_CFG + "coeff.c = -1\ncoeff.h0 = 2\nevolve.T = 2\nevolve.output_interval = 1e308\n"
        cfg = _write(tmp_path, "ev.cfg", text)
        out = str(tmp_path / "out")
        assert main(["evolve", "--config", cfg, "--out", out]) == 0
        trace = np.loadtxt(os.path.join(out, "trace.csv"), delimiter=",", skiprows=1)
        assert trace[:, 0].tolist() == [0.0, 2.0]

    def test_evolve_below_resolution_fits_no_rate(self, tmp_path):
        # the trailing half of the sups sits below 1e-12: no rate is fitted, and
        # summary.json says so with null instead of a slope through noise
        text = SOLVE_CFG + "coeff.c = -30\ncoeff.h0 = 1\nevolve.T = 5\n"
        cfg = _write(tmp_path, "ev.cfg", text)
        out = str(tmp_path / "out")
        assert main(["evolve", "--config", cfg, "--out", out]) == 0
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert summary["fitted_rate"] is None
        assert summary["pass"] is True

    def test_mpcheck(self, tmp_path):
        text = SOLVE_CFG + (
            "coeff.c = -1\nmpcheck.lambda = 0.5\n"
            "mpcheck.seeds = exp(-20*(x-0.5)^2) ; 1\nmpcheck.t_max = 200\n"
        )
        cfg = _write(tmp_path, "mp.cfg", text)
        out = str(tmp_path / "out")
        assert main(["mpcheck", "--config", cfg, "--out", out]) == 0
        report = json.loads(open(os.path.join(out, "mpcheck.json")).read())
        assert report["holds"] is True  # lam = 0.5 < lam_bar = 1
        assert len(report["seeds"]) == 2

    def test_mpcheck_bound_march_and_subsolution(self, tmp_path):
        # the README config at h = 1/16: lam = 0.5 lies below lam_lo = 0.6748,
        # and the decay bound settles both seeds within t_max = 500, no earlier
        # than the march's own verdicts
        text = README_DISK_CFG + "mpcheck.lambda = 0.5\nmpcheck.seeds = exp(-50*r^2) ; 1\n"
        run = load_config(parse_config_text(text))
        grid = run.build_grid()
        b, c, seeds = run.drift_field(grid), run.scalar_field(grid, run.c), run.seed_fields(grid)
        marched = check_maximum_principle(grid, b, c, 0.5, seeds, lambda_bar=0.0).verdicts

        def mpcheck(name, *settings):
            out = tmp_path / name
            assert main(["mpcheck", "--config", _write(tmp_path, f"{name}.cfg", text), "--out", str(out),
                         *(arg for s in settings for arg in ("--set", s))]) == 0
            return json.loads((out / "mpcheck.json").read_text())

        report = mpcheck("bound")
        assert report["holds"] is True
        for seed, march in zip(report["seeds"], marched):
            assert seed["certificate"] == "supersolution" and seed["verdict"] == "MP-holds"
            assert march.t_reached <= seed["t"] <= 500.0
            assert march.sup_final <= 1e-6 and seed["sup"] <= 1e-6

        # t_max = 75 puts the bump's bound (t = 79.04) past the horizon: it is marched
        report = mpcheck("march", "mpcheck.t_max=75", "mpcheck.seeds=exp(-50*r^2)")
        (seed,) = report["seeds"]
        assert seed["certificate"] == "march" and seed["verdict"] == "MP-holds"
        assert (seed["t"], seed["sup"]) == (marched[0].t_reached, marched[0].sup_final)

        # lam = 0.9 lies above lam_hi: x is a strict subsolution and refutes the constant 1
        report = mpcheck("refuted", "mpcheck.lambda=0.9", "mpcheck.seeds=1")
        (seed,) = report["seeds"]
        assert report["holds"] is False
        assert seed["certificate"] == "subsolution" and seed["verdict"] == "MP-fails"
        assert seed["sup"] >= 1e6 and seed["t"] <= 500.0

    def test_mpcheck_honours_bisect_tol(self, tmp_path):
        # mpcheck reports the same lambda_bar as eigen under a tighter eigen.bisect_tol
        text = SOLVE_CFG + (
            "coeff.c = -1 + 0.3*sin(2*x)\neigen.bisect_tol = 1e-7\nmpcheck.lambda = 0.5\n"
            "mpcheck.seeds = exp(-20*(x-0.5)^2)\nmpcheck.t_max = 200\n"
        )
        cfg = _write(tmp_path, "mp.cfg", text)
        out = tmp_path / "out"
        assert main(["eigen", "--config", cfg, "--out", str(out)]) == 0
        assert main(["mpcheck", "--config", cfg, "--out", str(out)]) == 0
        eigen = json.loads((out / "eigen.json").read_text())
        report = json.loads((out / "mpcheck.json").read_text())
        assert eigen["lambda_hi"] - eigen["lambda_lo"] <= 1e-7
        assert report["lambda_bar"] == eigen["lambda_bar"]

    def test_mpcheck_needs_seeds(self, tmp_path):
        cfg = _write(tmp_path, "mp.cfg", SOLVE_CFG + "mpcheck.lambda = 0\n")
        assert main(["mpcheck", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestOutputFormatting:
    def test_seventeen_significant_digits(self, tmp_path):
        from infeig.output import json_text, write_csv

        path = tmp_path / "digits.csv"
        write_csv(str(path), ("v",), (np.array([1.0 / 3.0, 3.0]),))
        assert path.read_text() == "v\n0.33333333333333331\n3\n"
        assert json_text(True) == "true"
        assert json_text({"a": 0.1, "b": [1, None]}) == '{"a": 0.10000000000000001, "b": [1, null]}'
        assert json_text(float("nan")) == "null"

    def test_csv_rows_as_the_per_value_writer(self, tmp_path):
        from infeig.output import write_csv

        def reference(path, header, columns):
            with open(path, "w") as f:
                f.write(",".join(header) + "\n")
                for i in range(len(columns[0])):
                    f.write(",".join("%.17g" % v if isinstance(v, float) else "%s" % v
                                     for v in (col[i].item() for col in columns)) + "\n")

        columns = (
            np.arange(6, dtype=np.int64),
            np.array([1.0 / 3.0, -0.0, float("inf"), 2.5e-300, -0.0, 0.1]),
            np.array([0.0, float("-inf"), 1e300, float("nan"), -2.5e-300, -1e300]),
            np.array(["interior", "boundary", "interior", "100%", "boundary", "interior"]),
        )
        header = ("index", "a", "b", "class")
        write_csv(str(tmp_path / "new.csv"), header, columns)
        reference(str(tmp_path / "old.csv"), header, columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert (tmp_path / "new.csv").read_text().splitlines()[2] == "1,-0,-inf,boundary"


class TestVerify:
    def test_battery_passes(self, tmp_path, capsys):
        out = str(tmp_path / "v")
        code = main(["verify", "--out", out])
        captured = capsys.readouterr()
        report = json.loads(open(os.path.join(out, "verify.json")).read())
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert code == 0, f"verify failed: {failed}\n{captured.out}"
        assert report["passed"] is True
        assert len(report["checks"]) >= 12
        assert "PASS" in captured.out

    def test_raising_check_fails_loudly(self, tmp_path, monkeypatch, capsys):
        # a check that raises is a FAIL with infinite slack, never a skip
        def broken():
            raise RuntimeError("broken check")

        monkeypatch.setattr(verify, "_bump_bound", broken)
        out = str(tmp_path / "v")
        assert main(["verify", "--out", out]) == 4
        report = json.loads(open(os.path.join(out, "verify.json")).read())
        assert report["passed"] is False
        (check,) = [c for c in report["checks"] if c["name"] == "bump-bound-limits"]
        assert check["passed"] is False and check["slack"] is None
        assert "FAIL" in capsys.readouterr().out
