import numpy as np
import pytest

from infeig.geometry import Disk, Interval, build_grid
from infeig.operators import ScalarField, SteadyProblem, VectorField
from infeig.steady import SolverConfig, solve_coercive
from infeig.eigen import estimate_principal_eigenvalue
from infeig.oracles import SignChangingParams, positive_bump_bound, sign_changing_coefficient


@pytest.fixture(scope="session")
def cfg():
    return SolverConfig()


@pytest.fixture(scope="session")
def interval16():
    return build_grid(Interval(0.0, 1.0), 1.0 / 16.0, 1)


@pytest.fixture(scope="session")
def interval64():
    return build_grid(Interval(0.0, 1.0), 1.0 / 64.0, 1)


@pytest.fixture(scope="session")
def disk8():
    return build_grid(Disk((0.0, 0.0), 1.0), 1.0 / 8.0, 1)


@pytest.fixture(scope="session")
def disk16s2():
    return build_grid(Disk((0.0, 0.0), 1.0), 1.0 / 16.0, 2)


@pytest.fixture(scope="session")
def bump_params():
    ceiling = positive_bump_bound(outer_radius=1.0, bump_radius=0.2, well_depth=1.0, rate=5.0)
    return SignChangingParams(
        outer_radius=1.0,
        bump_radius=0.2,
        band_width=0.05,
        well_depth=1.0,
        bump_height=0.5 * ceiling,
        rate=5.0,
    )


@pytest.fixture(scope="session")
def sign_changing_setup(disk16s2, bump_params, cfg):
    """Shared sign-changing-coefficient eigen solve on the disk (a few seconds)."""
    c = sign_changing_coefficient(bump_params, disk16s2)
    est = estimate_principal_eigenvalue(
        disk16s2, VectorField.zero(disk16s2), c, cfg, bisect_tol=1e-4
    )
    return {"grid": disk16s2, "c": c, "estimate": est}


@pytest.fixture(scope="session")
def inductive_sequence(cfg):
    """The plain inductive sequence u_1 = 0,

        lap(u_{n+1}) + b . Du_{n+1} + (c - |c|_inf - 1) u_{n+1} = g - (lam + |c|_inf + 1) u_n,

    as a reference for the solver's own loop: each step is a public
    ``solve_coercive`` of a fresh shifted problem, started from u_n's arms, so
    it shares only the resolvent with ``steady.monotone_iteration``.  Returns
    the values u_1, ..., u_{steps+1}."""

    def run(grid, b, c, lam, g, steps):
        c_sup = float(np.max(np.abs(c.values)))
        c_shift = ScalarField(grid, c.values - c_sup - 1.0)
        gamma = lam + c_sup + 1.0
        u = [np.zeros(grid.n_active)]
        for _ in range(steps):
            rhs = ScalarField(grid, g.values - gamma * u[-1])
            problem = SteadyProblem(grid, b, c_shift, rhs, 0.0)
            u.append(solve_coercive(problem, cfg, initial=ScalarField(grid, u[-1])).values)
        return u

    return run


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
