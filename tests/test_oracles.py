import math

import numpy as np
import pytest

from infeig.geometry import Annulus, Disk, Interval, Rectangle, build_grid
from infeig.operators import ScalarField, SteadyProblem, VectorField, apply_operator
from infeig.oracles import (
    InvalidParams,
    SignChangingParams,
    dense_residual_reference,
    lipschitz_constant,
    positive_bump_bound,
    sign_changing_coefficient,
)
from infeig.steady import solve_coercive


class TestBumpBound:
    def test_regression_value(self):
        # independent longhand evaluation of the formula
        k, rho, R, b1 = 5.0, 0.2, 1.0, 1.0
        num = k * k * math.exp(-k * rho)
        den = k * (R - rho) / 4.0 + 2.0 * k / (b1 * (R - rho)) + 1.0 - math.exp(-k * rho)
        expected = num / den
        assert positive_bump_bound(R, rho, b1, k) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(0.6507859872126945, rel=1e-12)

    def test_grows_for_shrinking_bump(self):
        # with rate = 1/bump_radius the ceiling grows without bound
        vals = [positive_bump_bound(1.0, r, 1.0, 1.0 / r) for r in (0.1, 0.05, 0.025)]
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] > 2.0 * vals[0]

    def test_vanishes_with_well_depth(self):
        vals = [positive_bump_bound(1.0, 0.2, d, 5.0) for d in (1.0, 0.1, 0.01)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 0.05 * vals[0]

    def test_vanishes_as_bump_fills_disk(self):
        vals = [positive_bump_bound(1.0, r, 1.0, 5.0) for r in (0.5, 0.8, 0.95)]
        assert vals[0] > vals[1] > vals[2]

    def test_validation(self):
        with pytest.raises(InvalidParams):
            positive_bump_bound(1.0, 1.5, 1.0, 5.0)


class TestSignChangingCoefficient:
    def test_region_values(self, disk16s2, bump_params):
        c = sign_changing_coefficient(bump_params, disk16s2)
        r = np.linalg.norm(disk16s2.nodes, axis=1)
        inner = r <= bump_params.bump_radius
        middle = (r > bump_params.bump_radius) & (r <= 0.95)
        outer = r > 0.95
        assert np.all(c.values[inner] == bump_params.bump_height)
        assert np.all(c.values[middle] == -bump_params.well_depth)
        assert np.all(c.values[outer] < 0.0)
        assert c.values.max() > 0.0 > c.values.min()

    def test_center_and_midband(self, disk16s2, bump_params):
        center = int(np.argmin(np.linalg.norm(disk16s2.nodes, axis=1)))
        c = sign_changing_coefficient(bump_params, disk16s2)
        assert c.values[center] == bump_params.bump_height
        mid_r = 0.5 * (bump_params.bump_radius + 0.95)
        j = int(np.argmin(np.abs(np.linalg.norm(disk16s2.nodes, axis=1) - mid_r)))
        assert c.values[j] == -bump_params.well_depth
        # the band within band_width of the boundary holds the same well depth
        band = np.linalg.norm(disk16s2.nodes, axis=1) > 1.0 - bump_params.band_width
        assert np.any(band) and np.all(c.values[band] == -bump_params.well_depth)

    def test_positive_fraction_matches_area(self, bump_params):
        grid = build_grid(Disk((0.0, 0.0), 1.0), 0.05, 1)
        c = sign_changing_coefficient(bump_params, grid)
        frac = float(np.mean(c.values > 0.0))
        target = bump_params.bump_radius**2  # area ratio of the bump ball
        assert abs(frac / target - 1.0) <= 3.0 * grid.h / 1.0

    def test_validation(self, disk16s2, interval16):
        with pytest.raises(InvalidParams):
            SignChangingParams(1.0, 0.97, 0.05, 1.0, 0.3, 5.0)
        # well_depth, bump_height and rate must each be positive
        for bad in ((0.0, 0.3, 5.0), (1.0, -0.3, 5.0), (1.0, 0.3, 0.0)):
            with pytest.raises(InvalidParams, match="must be positive"):
                SignChangingParams(1.0, 0.2, 0.05, *bad)
        params = SignChangingParams(1.0, 0.2, 0.05, 1.0, 0.3, 5.0)
        with pytest.raises(InvalidParams):
            sign_changing_coefficient(params, interval16)
        # a disk of another radius than outer_radius
        wide = SignChangingParams(2.0, 0.2, 0.05, 1.0, 0.3, 5.0)
        with pytest.raises(InvalidParams, match="radius"):
            sign_changing_coefficient(wide, disk16s2)


class TestLipschitzConstant:
    def test_linear(self, interval16):
        u = ScalarField(interval16, 3.0 * interval16.nodes[:, 0])
        assert lipschitz_constant(u, interval16) == pytest.approx(3.0, abs=1e-12)

    def test_constant(self, disk8):
        u = ScalarField.constant(disk8, 4.2)
        assert lipschitz_constant(u, disk8) == 0.0

    def test_manufactured_refinement_bounded(self, cfg):
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
        for a, b in zip(consts, consts[1:]):
            assert b / a <= 1.5

    def test_matches_per_arm_loop(self, rng):
        # the masked pass over the (K, N) block returns the very float of a
        # loop over the arms, each arm's active pairs divided by its length
        def per_arm(u, grid):
            best = 0.0
            for k in range(grid.ring_index.shape[1]):
                nb = grid.ring_index[:, k]
                mask = nb < grid.n_active
                if np.any(mask):
                    d = np.abs(u.values[mask] - u.values[nb[mask]]) / grid.ring_lengths[k]
                    best = max(best, float(d.max()))
            return best

        for grid in (
            build_grid(Disk((0.0, 0.0), 1.0), 1.0 / 8.0, 2),
            build_grid(Annulus((0.0, 0.0), 0.25, 1.0), 0.1, 1),
            build_grid(Rectangle((0.0, 0.0), (1.0, 1.0)), 1.0 / 8.0, 2),
            build_grid(Interval(0.0, 1.0), 1.0 / 32.0, 2),
        ):
            for _ in range(12):
                u = ScalarField(grid, rng.normal(size=grid.n_active) * rng.exponential(size=grid.n_active))
                assert lipschitz_constant(u, grid) == per_arm(u, grid)


class TestDenseReference:
    def test_matches_fast_path_1d(self, rng):
        grid = build_grid(Interval(0.0, 1.0), 1.0 / 10.0, 1)
        prob = SteadyProblem(
            grid,
            VectorField(grid, rng.normal(size=(grid.n_active, 1))),
            ScalarField(grid, rng.normal(size=grid.n_active)),
            ScalarField(grid, rng.normal(size=grid.n_active)),
            -0.3,
        )
        u = ScalarField(grid, rng.normal(size=grid.n_active))
        fast = apply_operator(prob, u)
        dense = dense_residual_reference(prob, u)
        assert np.abs(fast.values - dense.values).max() <= 1e-12

    def test_matches_fast_path_2d(self, rng):
        # disk grid comfortably inside the 15x15 lattice budget
        grid = build_grid(Disk((0.0, 0.0), 1.0), 1.0 / 6.0, 2)
        prob = SteadyProblem(
            grid,
            VectorField(grid, rng.normal(size=(grid.n_active, 2))),
            ScalarField(grid, rng.normal(size=grid.n_active)),
            ScalarField(grid, rng.normal(size=grid.n_active)),
            0.8,
        )
        u = ScalarField(grid, rng.normal(size=grid.n_active))
        fast = apply_operator(prob, u)
        dense = dense_residual_reference(prob, u)
        assert np.abs(fast.values - dense.values).max() <= 1e-12
