import importlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from infeig.geometry import Annulus, Disk, Interval, Rectangle, build_grid
from infeig.operators import (
    ScalarField,
    SteadyProblem,
    VectorField,
    ZeroVector,
    apply_operator,
    drift_values,
    frozen_matrices,
    gradient_projector,
    inf_laplacian_values,
    residual_values,
    ring_arm_values,
)
from infeig.steady import _arms_at


@pytest.fixture(scope="module")
def disk64s2():
    return build_grid(Disk((0.0, 0.0), 1.0), 1.0 / 64.0, 2)


@pytest.fixture(scope="module")
def disk16s3():
    # some arms are shorter than rho, so their scale is above 1
    return build_grid(Disk((0.0, 0.0), 1.0), 1.0 / 16.0, 3)


@pytest.fixture(scope="module")
def annulus20s2():
    return build_grid(Annulus((0.0, 0.0), 0.25, 1.0), 0.05, 2)


@pytest.fixture(scope="module")
def offdisk16s3():
    return build_grid(Disk((0.3, -0.1), 0.8), 1.0 / 16.0, 3)


@pytest.fixture(scope="module")
def square16s3():
    return build_grid(Rectangle((0.0, 0.0), (1.0, 1.0)), 1.0 / 16.0, 3)


@pytest.fixture(scope="module")
def interval2048():
    return build_grid(Interval(0.0, 1.0), 1.0 / 2048.0, 1)


class TestGradientProjector:
    def test_axis_vector(self):
        assert np.allclose(gradient_projector((1.0, 0.0)), [[1.0, 0.0], [0.0, 0.0]])

    def test_order_zero_homogeneity(self):
        a = gradient_projector((1.0, 2.0))
        b = gradient_projector((-3.0, -6.0))
        assert np.array_equal(a, b)

    def test_perturbation_trace_bound(self):
        # tr[(P(p+q) - P(p))^2] <= 8 |q|^2/|p|^2 for |q| <= |p|/2
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 0.4])
        diff = gradient_projector(p + q) - gradient_projector(p)
        value = float(np.trace(diff @ diff))
        bound = 8.0 * (q @ q) / (p @ p)
        assert bound == pytest.approx(1.28)
        assert value <= bound

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            gradient_projector((0.0, 0.0))

    @settings(max_examples=100, deadline=None)
    @given(
        px=st.floats(-10, 10),
        py=st.floats(-10, 10),
        alpha=st.floats(-5, 5).filter(lambda a: abs(a) > 1e-3),
    )
    def test_properties_random(self, px, py, alpha):
        p = np.array([px, py])
        if np.linalg.norm(p) < 1e-3:
            return
        m = gradient_projector(p)
        assert np.abs(m - m.T).max() <= 1e-12
        assert np.abs(m @ m - m).max() <= 1e-12
        assert np.abs(gradient_projector(alpha * p) - m).max() <= 1e-12
        eig = np.linalg.eigvalsh(m)
        assert eig.min() >= -1e-12 and eig.max() <= 1.0 + 1e-12


class TestRingScheme:
    def test_1d_quadratic_exact(self, interval64):
        lap = inf_laplacian_values(interval64, interval64.nodes[:, 0] ** 2)
        interior = interval64.node_class == 0
        assert np.all(lap[interior] == 2.0)

    def test_constants_vanish(self, disk8):
        lap = inf_laplacian_values(disk8, np.full(disk8.n_active, 7.0))
        assert np.all(lap == 0.0)

    def test_odd_symmetry_bitwise(self, disk16s2, rng):
        u = rng.normal(size=disk16s2.n_active)
        assert np.array_equal(
            inf_laplacian_values(disk16s2, -u), -inf_laplacian_values(disk16s2, u)
        )

    def test_positive_homogeneity(self, disk8, rng):
        u = rng.normal(size=disk8.n_active)
        base = inf_laplacian_values(disk8, u)
        for t in (0.5, 3.0, 1750.0):
            scaled = inf_laplacian_values(disk8, t * u)
            assert np.abs(scaled - t * base).max() <= 1e-12 * max(1.0, t * np.abs(base).max())

    def test_cone_residual_away_from_vertex(self):
        # cones are harmonic for this operator away from the vertex; ghost-free
        # rings only, since the cone has no reason to satisfy the wall condition
        grid = build_grid(Disk((0.0, 0.0), 1.0), 1.0 / 32.0, 4)
        vertex = np.array([0.137, -0.082])
        r = np.linalg.norm(grid.nodes - vertex, axis=1)
        lap = inf_laplacian_values(grid, r)
        ghost_free = (grid.ring_index < grid.n_active).all(axis=1)
        mask = (r >= 4 * grid.rho) & ghost_free
        assert mask.sum() > 100
        assert np.abs(lap[mask]).max() <= 0.04  # frozen: measured 0.0257

    def test_monotone_in_neighbors(self, disk8, rng):
        b = VectorField.constant(disk8, (0.8, -0.6))
        u = rng.normal(size=disk8.n_active)
        base = inf_laplacian_values(disk8, u) + drift_values(disk8, b.values, u)
        for j in rng.choice(disk8.n_active, size=15, replace=False):
            for bump in (0.25, 1.5):
                v = u.copy()
                v[j] += bump
                new = inf_laplacian_values(disk8, v) + drift_values(disk8, b.values, v)
                others = np.arange(disk8.n_active) != j
                assert np.all(new[others] >= base[others] - 1e-12)
                # and nonincreasing in the node's own value
                assert new[j] <= base[j] + 1e-12

    def test_strict_max_envelope(self, rng):
        # at a strict interior max with s=1 the value lies between the extreme
        # ring-normalized directional second differences
        grid = build_grid(Disk((0.0, 0.0), 1.0), 0.125, 1)
        interior = np.flatnonzero(
            (grid.node_class == 0) & (grid.ring_index < grid.n_active).all(axis=1)
        )
        i = int(interior[len(interior) // 2])
        u = rng.normal(size=grid.n_active) * 0.1
        u[i] = 5.0  # strict max
        lap = inf_laplacian_values(grid, u)[i]
        arms = u[grid.ring_index[i]]
        w = u[i] + (arms - u[i]) * grid.ring_scale
        pair_sums = []
        for start, stop, _ in grid.ring_groups:
            offsets = grid.ring_offsets[start:stop]
            assert np.array_equal(offsets[::-1], -offsets)  # arm start + stop - 1 - k opposes arm k
            pair_sums += [(w[k] + w[start + stop - 1 - k] - 2.0 * u[i]) / grid.rho**2
                          for k in range(start, (start + stop) // 2)]
        assert len(pair_sums) == len(grid.ring_offsets) // 2
        assert min(pair_sums) - 1e-12 <= lap <= max(pair_sums) + 1e-12

    def test_radial_reduction_error_model(self):
        # |lap(phi(|x|)) - phi''| <= C (h/rho + rho^2 |phi'''| + rho) away
        # from the walls; the empirical C stays near 1 (recorded; frozen 2.0)
        m3 = 6.0  # phi = r^3
        for h, s in ((1.0 / 32.0, 2), (1.0 / 64.0, 2)):
            grid = build_grid(Annulus((0.0, 0.0), 0.25, 1.0), h, s)
            r = np.linalg.norm(grid.nodes, axis=1)
            lap = inf_laplacian_values(grid, r**3)
            ghost_free = (grid.ring_index < grid.n_active).all(axis=1)
            mask = (r >= 0.25 + 2 * grid.rho) & (r <= 1.0 - 2 * grid.rho) & ghost_free
            err = np.abs(lap[mask] - 6.0 * r[mask]).max()
            model = h / grid.rho + grid.rho**2 * m3 + grid.rho
            assert err <= 2.0 * model


class TestDrift:
    def test_1d_affine_exact(self, interval64):
        b = VectorField.constant(interval64, (1.0,))
        drift = drift_values(interval64, b.values, interval64.nodes[:, 0])
        interior = interval64.node_class == 0
        assert np.abs(drift[interior] - 1.0).max() <= 1e-12

    def test_zero_drift(self, disk8, rng):
        b = VectorField.zero(disk8)
        assert np.all(drift_values(disk8, b.values, rng.normal(size=disk8.n_active)) == 0.0)

    def test_2d_affine_exact(self):
        grid = build_grid(Disk((0.0, 0.0), 1.0), 1.0 / 16.0, 1)
        b = VectorField.constant(grid, (1.0, -2.0))
        drift = drift_values(grid, b.values, 3.0 * grid.nodes[:, 0] + 4.0 * grid.nodes[:, 1])
        # away from the boundary band the one-sided differences are exact
        deep = grid.domain.signed_distance(grid.nodes) <= -3 * grid.h
        assert np.abs(drift[deep] + 5.0).max() <= 1e-12


class TestApplyOperator:
    def test_constants_leave_zero_order(self, disk8):
        b = VectorField.constant(disk8, (0.4, 0.9))
        c = ScalarField(disk8, np.linspace(-2.0, -1.0, disk8.n_active))
        g = ScalarField.constant(disk8, 0.7)
        prob = SteadyProblem(disk8, b, c, g, 0.0)
        k = 3.5
        res = apply_operator(prob, ScalarField.constant(disk8, k))
        assert np.allclose(res.values, c.values * k - g.values, atol=1e-13)

    def test_unit_balance(self, disk8):
        prob = SteadyProblem(
            disk8,
            VectorField.zero(disk8),
            ScalarField.constant(disk8, -1.0),
            ScalarField.constant(disk8, -1.0),
            0.0,
        )
        res = apply_operator(prob, ScalarField.constant(disk8, 1.0))
        assert np.abs(res.values).max() == 0.0

    def test_zero_field_gives_minus_g(self, disk8, rng):
        g = ScalarField(disk8, rng.normal(size=disk8.n_active))
        prob = SteadyProblem(disk8, VectorField.zero(disk8), ScalarField.constant(disk8, -1.0), g, 0.3)
        res = apply_operator(prob, ScalarField.constant(disk8, 0.0))
        assert np.allclose(res.values, -g.values, atol=0)

    def test_hand_rolled_1d(self, rng):
        # 5-node grid: every term recomputed longhand
        grid = build_grid(Interval(0.0, 1.0), 0.25, 1)
        u = rng.normal(size=5)
        b = rng.normal(size=(5, 1))
        c = rng.normal(size=5)
        g = rng.normal(size=5)
        lam = 0.7
        prob = SteadyProblem(
            grid, VectorField(grid, b), ScalarField(grid, c), ScalarField(grid, g), lam
        )
        res = apply_operator(prob, ScalarField(grid, u)).values

        h = 0.25
        ghosted = np.concatenate([[u[1]], u, [u[3]]])  # reflection at both ends
        expected = np.empty(5)
        for i in range(5):
            um, up = ghosted[i], ghosted[i + 2]
            lap = (max(um, up) + min(um, up) - 2 * u[i]) / h**2
            if b[i, 0] > 0:
                drift = b[i, 0] * (up - u[i]) / h
            else:
                drift = b[i, 0] * (u[i] - um) / h
            expected[i] = lap + drift + (c[i] + lam) * u[i] - g[i]
        assert np.allclose(res, expected, atol=1e-13)

    def test_scaling_with_zero_rhs(self, disk8, rng):
        b = VectorField.constant(disk8, (0.3, -0.2))
        c = ScalarField(disk8, rng.normal(size=disk8.n_active))
        prob = SteadyProblem(disk8, b, c, ScalarField.constant(disk8, 0.0), 0.1)
        u = rng.normal(size=disk8.n_active)
        r1 = apply_operator(prob, ScalarField(disk8, u)).values
        t = 41.5
        rt = apply_operator(prob, ScalarField(disk8, t * u)).values
        assert np.abs(rt - t * r1).max() <= 1e-12 * max(1.0, np.abs(t * r1).max())


def _full_block_arms(grid, u, ext):
    """The (K, N) arm block with every arm rescaled and u added back on the
    whole block: the reference the kernel matches bit for bit."""
    w = ext[grid.ring_index.T]
    w -= u
    w *= grid.ring_scale[:, None]
    w += u
    return w


def _residual_from_arm_array(grid, b, c, g, lam, u):
    """The residual from the full-block (N, K) arm array, reduced along the
    arms, plus the upwind drift."""
    w = _full_block_arms(grid, u, grid.extended_values(u)).T
    res = (w.max(axis=1) + w.min(axis=1) - 2.0 * u) / grid.rho**2
    if np.any(b):
        ext = grid.extended_values(u)
        for d in range(grid.dim):
            fwd = ext[grid.axis_plus[:, d]] - u
            bwd = u - ext[grid.axis_minus[:, d]]
            res += (np.maximum(b[:, d], 0.0) * fwd + np.minimum(b[:, d], 0.0) * bwd) / grid.h
    res += (c + lam) * u - g
    return res


class TestResidualKernel:
    """The (K, N) block kernel is bitwise the (N, K) arm-array formula."""

    @pytest.mark.parametrize(
        "name", ["interval64", "disk8", "disk16s2", "disk64s2", "disk16s3", "annulus20s2"]
    )
    def test_bitwise_against_arm_array(self, name, request, rng):
        grid = request.getfixturevalue(name)
        n = grid.n_active
        c = rng.normal(size=n)
        g = rng.normal(size=n)
        v = rng.normal(size=n)
        arms = v[:, None] + (grid.extended_values(v)[grid.ring_index] - v[:, None]) * grid.ring_scale
        assert np.array_equal(ring_arm_values(grid, v).view(np.int64), arms.view(np.int64))
        for b in (np.zeros((n, grid.dim)), rng.normal(size=(n, grid.dim))):
            for u in (rng.normal(size=n), np.zeros(n), np.full(n, 2.5)):
                got = residual_values(grid, b, c, g, 0.3, u)
                want = _residual_from_arm_array(grid, b, c, g, 0.3, u)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))


KERNEL_GRIDS = {
    "interval-s1": (Interval(0.0, 1.0), 1.0 / 64.0, 1),
    "interval-s3": (Interval(0.0, 1.0), 1.0 / 64.0, 3),
    **{f"disk{n}-s{s}": (Disk((0.0, 0.0), 1.0), 1.0 / n, s) for n in (16, 32, 64) for s in (1, 2, 3, 4)},
    "annulus": (Annulus((0.0, 0.0), 0.25, 1.0), 0.05, 2),
    "rectangle": (Rectangle((0.0, 0.0), (1.0, 1.0)), 1.0 / 16.0, 3),
}


def _kernel_inputs(grid, rng):
    """Nodal fields that stress the reordered reduction: ties between arms,
    signed zeros, constants, and the README's initial state."""
    n = grid.n_active
    x, _, r = grid.node_variables
    signed_zeros = rng.normal(size=n)
    signed_zeros[rng.random(n) < 0.4] = -0.0
    signed_zeros[rng.random(n) < 0.2] = 0.0
    return {
        "h0": np.exp(-50.0 * r**2),
        "normal": rng.normal(size=n),
        "one": np.ones(n),
        "zero": np.zeros(n),
        "minus-one": np.full(n, -1.0),
        "signed-zeros": signed_zeros,
        "linear-in-x": 0.75 * x - 0.2,  # antipodal arms tie
    }


class TestKernelBytes:
    """The kernel that reduces each scale group's raw arm values, then
    subtracts u and rescales, gives the bytes of the one that rescaled the
    whole block."""

    @pytest.mark.parametrize("name", list(KERNEL_GRIDS))
    def test_bytes_as_the_full_block_kernel(self, name, rng):
        grid = build_grid(*KERNEL_GRIDS[name])
        n = grid.n_active
        c = rng.normal(size=n)
        g = rng.normal(size=n)
        drifts = {"b=0": np.zeros((n, grid.dim)),
                  "b=(0.7,-0.3)": np.tile([0.7, -0.3][:grid.dim], (n, 1))}
        for label, u in _kernel_inputs(grid, rng).items():
            arms = _full_block_arms(grid, u, grid.extended_values(u))
            got = ring_arm_values(grid, u)
            assert got.shape == (n, arms.shape[0])
            assert got.tobytes() == arms.T.tobytes(), label
            lap = (arms.max(axis=0) + arms.min(axis=0) - 2.0 * u) / grid.rho**2
            assert inf_laplacian_values(grid, u).tobytes() == lap.tobytes(), label
            for drift, b in drifts.items():
                want = _residual_from_arm_array(grid, b, c, g, 0.3, u)
                assert residual_values(grid, b, c, g, 0.3, u).tobytes() == want.tobytes(), (label, drift)

    @pytest.mark.parametrize("name", list(KERNEL_GRIDS))
    def test_runs_cover_the_off_radius_arms(self, name):
        # the scale groups are runs of rows of the block the kernel gathers,
        # ring_index.T; they cover every arm once, by ascending scale and
        # lexicographic within a group, and the group of scale 1 holds
        # exactly the arms whose length is rho
        grid = build_grid(*KERNEL_GRIDS[name])
        assert grid.ring_index.T.flags.c_contiguous
        lattice = np.rint(grid.ring_offsets / grid.h).astype(int).tolist()
        stop = 0
        for start, end, scale in grid.ring_groups:
            assert start == stop < end
            assert np.all(grid.ring_scale[start:end] == scale)
            assert lattice[start:end] == sorted(lattice[start:end])
            stop = end
        assert stop == len(grid.ring_scale)
        scales = [scale for _, _, scale in grid.ring_groups]
        assert scales == sorted(set(scales))  # ascending, one group per scale
        on_radius = [k for start, end, scale in grid.ring_groups if scale == 1.0 for k in range(start, end)]
        assert on_radius and on_radius == np.flatnonzero(grid.ring_lengths == grid.rho).tolist()


class TestFrozenMatrices:
    """The frozen-arm matrix is the linear map the residual evaluates at its own arms."""

    @pytest.mark.parametrize("name, drift", [
        ("disk16s2", True),
        ("offdisk16s3", False),
        ("annulus20s2", True),
        ("square16s3", False),
        ("interval2048", False),
    ])
    def test_matrix_linearizes_residual(self, name, drift, request, rng):
        grid = request.getfixturevalue(name)
        n = grid.n_active
        b = rng.normal(size=(n, grid.dim)) if drift else np.zeros((n, grid.dim))
        c0 = -1.0 - rng.random(n)
        rhs = rng.normal(size=n)
        matrix = frozen_matrices(grid, b)
        for _ in range(3):
            u = rng.normal(size=n)
            A = matrix(_arms_at(grid, u)[0], c0)
            want = residual_values(grid, b, c0, rhs, 0.0, u)
            assert np.abs(A @ u - rhs - want).max() <= 1e-12 * np.abs(want).max()
            # no stored zeros: with b = 0 they would widen the factorized pattern
            assert A.nnz == np.count_nonzero(A.data)

    @pytest.mark.parametrize("drift", [False, True])
    @pytest.mark.parametrize("name", ["disk16s2", "offdisk16s3", "annulus20s2", "square16s3", "interval2048"])
    def test_matches_tuple_assembly(self, name, drift, request, rng):
        # the (2, N) arms read on the (K, N) block give the same bytes as the
        # (sel_max, sel_min) tuple gathered from the (N, K) index
        grid = request.getfixturevalue(name)
        n = grid.n_active
        b = rng.normal(size=(n, grid.dim)) if drift else np.zeros((n, grid.dim))
        c0 = -1.0 - rng.random(n)
        arms = _arms_at(grid, rng.normal(size=n))[0]
        got = frozen_matrices(grid, b)(arms, c0)
        want = _tuple_frozen_matrix(grid, b, (arms[0], arms[1]), c0)
        for attr in ("data", "indices", "indptr"):
            assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes()


def _tuple_frozen_matrix(grid, b_values, arms, zero_order):
    """The frozen matrix assembled from a (sel_max, sel_min) tuple by
    ``column_stack`` and ``take_along_axis`` on the (N, K) ring index."""
    n = grid.n_active
    rows = np.arange(n)
    gm = grid.ghost_map
    closure = sp.csr_matrix((np.concatenate([np.ones(n), gm.data]), np.concatenate([rows, gm.indices]),
                             np.concatenate([np.arange(n + 1), n + gm.indptr[1:]])), shape=(n + grid.n_ghost, n))
    coef = np.stack([np.maximum(b_values, 0.0), -np.minimum(b_values, 0.0)], axis=2).reshape(n, -1) / grid.h
    cols = np.stack([grid.axis_plus, grid.axis_minus], axis=2).reshape(n, -1)
    kept = coef > 0.0
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(kept, axis=1))])
    drift = sp.csr_matrix((coef[kept], cols[kept], indptr), shape=(n, closure.shape[0]))
    sel = np.column_stack(arms)
    arm_coef = grid.ring_scale[sel] * (1.0 / grid.rho**2)
    diag = zero_order - coef.sum(axis=1) - arm_coef[:, 0] - arm_coef[:, 1]
    data = np.column_stack([arm_coef, diag]).ravel()
    index = np.column_stack([np.take_along_axis(grid.ring_index, sel, axis=1), rows]).ravel()
    ring = sp.csr_matrix((data, index, 3 * np.arange(n + 1)), shape=drift.shape)
    return ((ring + drift) @ closure).tocsc()


class TestFieldValidation:
    def test_shape_checked(self, disk8):
        with pytest.raises(ValueError):
            ScalarField(disk8, np.zeros(3))
        with pytest.raises(ValueError):
            VectorField(disk8, np.zeros((disk8.n_active, 3)))

    def test_finite_checked(self, disk8):
        bad = np.zeros(disk8.n_active)
        bad[0] = np.nan
        with pytest.raises(ValueError):
            ScalarField(disk8, bad)
        bad_vec = np.zeros((disk8.n_active, 2))
        bad_vec[0, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            VectorField(disk8, bad_vec)

    def test_grid_mismatch(self, disk8, interval16):
        u = ScalarField.constant(interval16, 1.0)
        prob = SteadyProblem(
            disk8,
            VectorField.zero(disk8),
            ScalarField.constant(disk8, -1.0),
            ScalarField.constant(disk8, 0.0),
            0.0,
        )
        with pytest.raises(ValueError):
            apply_operator(prob, u)
        # a field from another grid is refused when the problem is built
        with pytest.raises(ValueError, match="share the problem grid"):
            SteadyProblem(
                disk8, VectorField.zero(disk8), ScalarField.constant(disk8, -1.0), u, 0.0
            )


@pytest.mark.parametrize("module", ["infeig", "infeig.operators"])
def test_public_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
