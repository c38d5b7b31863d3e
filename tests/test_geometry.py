import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from infeig.geometry import (
    BOUNDARY,
    CLASS_NAMES,
    INTERIOR,
    Annulus,
    Disk,
    DomainTooCoarse,
    Interval,
    InvalidParams,
    Rectangle,
    build_grid,
    grid_metadata,
    interpolation_map,
)
from infeig.geometry import LatticeMap, _bilinear, _box, _norm
from infeig.output import json_text, node_columns


def _map(points, pad=(0, 0)):
    """LatticeMap of distinct integer points in lexicographic order, over their
    bounding box widened by pad[0] below and pad[1] above."""
    points = np.asarray(points)
    lo = points.min(axis=0) - pad[0]
    held = np.zeros(tuple(points.max(axis=0) + pad[1] - lo + 1), dtype=bool)
    held[tuple((points - lo).T)] = True
    return LatticeMap(lo, held)


def _lattice_map(grid):
    """{integer lattice point: active node index}"""
    return {tuple(q): i for i, q in enumerate(np.rint(grid.nodes / grid.h).astype(int).tolist())}


def test_interval_example():
    grid = build_grid(Interval(0.0, 1.0), 0.25, 1)
    assert grid.n_active == 5
    assert np.allclose(grid.nodes.ravel(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert grid.node_class[0] == BOUNDARY and grid.node_class[-1] == BOUNDARY
    assert np.all(grid.node_class[1:-1] == INTERIOR)


def test_disk_example_interior_set():
    grid = build_grid(Disk((0.0, 0.0), 1.0), 0.5, 1)
    # interior nodes = lattice points strictly inside minus the boundary band
    for i in range(grid.n_active):
        d = -float(grid.domain.signed_distance(grid.nodes[i]))
        if grid.node_class[i] == INTERIOR:
            assert d >= 0.25
        else:
            assert abs(d) < 0.25
    origin = int(np.argmin(np.linalg.norm(grid.nodes, axis=1)))
    assert grid.node_class[origin] == INTERIOR
    # at least two antipodal arm pairs, each within one scale group
    assert len(grid.ring_offsets) >= 4
    _assert_groups_reverse_to_negation(grid)


def test_annulus_ring_against_brute_force():
    grid = build_grid(Annulus((0.0, 0.0), 0.25, 1.0), 0.05, 2)
    # brute-force enumeration of lattice offsets within half a cell of rho
    s = 2
    brute = set()
    for i in range(-4, 5):
        for j in range(-4, 5):
            if (i, j) != (0, 0) and abs(math.hypot(i, j) - s) <= 0.5 + 1e-12:
                brute.add((i, j))
    got = [tuple(int(round(v / grid.h)) for v in off) for off in grid.ring_offsets]
    # by decreasing length, lexicographic within a length
    assert got == sorted(brute, key=lambda v: (-(v[0] ** 2 + v[1] ** 2), v))
    # every node sees the same >= 4 antipodal pairs, each within one scale group
    assert len(grid.ring_offsets) >= 8
    _assert_groups_reverse_to_negation(grid)


def _assert_groups_reverse_to_negation(grid):
    """Each scale group of the ring, reversed, is its own negation."""
    for start, stop, _ in grid.ring_groups:
        group = grid.ring_offsets[start:stop]
        assert np.array_equal(group[::-1], -group)


def _distance(grid):
    """Distance to the boundary, zero on the boundary band."""
    return np.maximum(0.0, -grid.domain.signed_distance(grid.nodes))


def test_distance_field_examples():
    g1 = build_grid(Interval(0.0, 1.0), 0.25, 1)
    d1 = _distance(g1)
    assert d1[1] == pytest.approx(0.25)

    gd = build_grid(Disk((0.0, 0.0), 1.0), 0.25, 1)
    dd = _distance(gd)
    radii = np.linalg.norm(gd.nodes, axis=1)
    inside = gd.domain.signed_distance(gd.nodes) <= 0
    assert np.allclose(dd[inside], 1.0 - radii[inside])

    ga = build_grid(Annulus((0.0, 0.0), 0.25, 1.0), 0.05, 1)
    ra = np.linalg.norm(ga.nodes, axis=1)
    da = _distance(ga)
    ins = ga.domain.signed_distance(ga.nodes) <= 0
    assert np.allclose(da[ins], np.minimum(ra[ins] - 0.25, 1.0 - ra[ins]))


def test_distance_field_contracts():
    grid = build_grid(Disk((0.0, 0.0), 1.0), 0.125, 1)
    d = _distance(grid)
    assert np.all(d >= 0.0)
    assert np.all(d[grid.node_class == BOUNDARY] < grid.h / 2)
    # 1-Lipschitz along active ring arms
    n = grid.n_active
    for k in range(grid.ring_index.shape[1]):
        nb = grid.ring_index[:, k]
        mask = nb < n
        gap = np.abs(d[mask] - d[nb[mask]])
        assert np.all(gap <= grid.ring_lengths[k] + 1e-12)


def test_classification_stable_under_refinement():
    for domain in (Disk((0.0, 0.0), 1.0), Annulus((0.0, 0.0), 0.25, 1.0)):
        coarse = build_grid(domain, 0.125, 1)
        fine = build_grid(domain, 0.0625, 1)
        fine_lookup = {q for q, i in _lattice_map(fine).items() if fine.node_class[i] == INTERIOR}
        for key, i in _lattice_map(coarse).items():
            if coarse.node_class[i] == INTERIOR:
                assert tuple(2 * k for k in key) in fine_lookup


def test_stencil_symmetry_and_pair_lengths():
    # steady._arms_at takes the last arm of the first scale group as the
    # antipode of arm 0: each group, reversed, is its own negation
    cases = [(Interval(0.0, 1.0), 1.0 / 16.0, s) for s in (1, 2)]
    cases += [(Disk((0.0, 0.0), 1.0), 0.125, s) for s in (1, 2, 3, 4)]
    for domain, h, s in cases:
        grid = build_grid(domain, h, s)
        offs = grid.ring_offsets
        assert len(offs) % 2 == 0 and len(offs) >= 2 * grid.dim
        _assert_groups_reverse_to_negation(grid)
        for start, stop, _ in grid.ring_groups:
            lengths = np.linalg.norm(offs[start:stop], axis=1)
            assert np.all(np.abs(lengths - lengths[::-1]) <= 1e-12 * lengths)


def test_ghost_weights_are_convex():
    grid = build_grid(Disk((0.0, 0.0), 1.0), 0.125, 2)
    assert grid.n_ghost > 0
    gm = grid.ghost_map
    assert gm.shape == (grid.n_ghost, grid.n_active)
    assert np.all(np.diff(gm.indptr) >= 1)
    assert np.all(gm.data > 0.0)
    assert np.allclose(gm.sum(axis=1), 1.0)
    assert np.all(gm.indices >= 0)
    assert np.all(gm.indices < grid.n_active)


@pytest.mark.parametrize("domain, h, s", [
    (Disk((0.0, 0.0), 1.0), 1.0 / 8.0, 1),
    (Disk((0.0, 0.0), 1.0), 1.0 / 16.0, 2),
    (Annulus((0.0, 0.0), 0.25, 1.0), 1.0 / 40.0, 2),
])
def test_ghost_closure_exact_on_constants(domain, h, s):
    # renormalized bilinear weights used to miss 1 by an ulp on a few rows
    grid = build_grid(domain, h, s)
    assert np.all(grid.ghost_map.sum(axis=1) == 1.0)
    assert np.all(grid.extended_values(np.ones(grid.n_active)) == 1.0)


@pytest.mark.parametrize("domain, h, s", [
    (Disk((0.0, 0.0), 1.0), 1.0 / 16.0, 2),
    (Annulus((0.0, 0.0), 0.25, 1.0), 1.0 / 40.0, 2),
    (Interval(0.0, 1.0), 1.0 / 32.0, 2),
])
def test_ghost_closure_sums_each_row_left_to_right(domain, h, s):
    # the closure adds each row's products weight * v[col] in the map's stored
    # order, the order in which the frozen matrices' sparse product adds them
    grid = build_grid(domain, h, s)
    v = np.random.default_rng(3).normal(size=grid.n_active).tolist()
    gm = grid.ghost_map
    want = []
    for start, stop in zip(gm.indptr[:-1].tolist(), gm.indptr[1:].tolist()):
        total = 0.0
        for w, col in zip(gm.data[start:stop].tolist(), gm.indices[start:stop].tolist()):
            total += w * v[col]
        want.append(total)
    assert grid.extended_values(np.array(v))[grid.n_active:].tolist() == want


def test_interior_stencils_complete():
    grid = build_grid(Annulus((0.0, 0.0), 0.25, 1.0), 0.05, 2)
    assert np.all(grid.ring_index >= 0)
    assert np.all(grid.ring_index < grid.n_active + grid.n_ghost)


def test_build_errors():
    with pytest.raises(InvalidParams):
        build_grid(Interval(0.0, 1.0), -0.1, 1)
    with pytest.raises(InvalidParams):
        build_grid(Interval(0.0, 1.0), 0.25, 0)
    with pytest.raises(InvalidParams):
        build_grid(Interval(0.0, 1.0), 0.3, 1)  # diameter < 4*s*h
    with pytest.raises(DomainTooCoarse):
        # thin rectangle: one cell across, no interior row survives
        build_grid(Rectangle((0.0, 0.0), (1.04, 0.26)), 0.26, 1)
    with pytest.raises(InvalidParams):
        Interval(1.0, 0.0)
    with pytest.raises(InvalidParams):
        Annulus((0.0, 0.0), 0.5, 0.25)
    with pytest.raises(InvalidParams):
        Rectangle((0.0, 0.0), (0.0, 1.0))
    for bad in (
        lambda: Disk((0.0, 0.0, 0.0), 1.0),
        lambda: Disk((0.0,), 1.0),
        lambda: Disk((0.0, math.nan), 1.0),
        lambda: Disk((0.0, 0.0), math.inf),
        lambda: Disk((0.0, 0.0), math.nan),
        lambda: Annulus((0.0,), 0.25, 1.0),
        lambda: Annulus((0.0, 0.0), 0.25, math.inf),
        lambda: Interval(0.0, math.inf),
        lambda: Rectangle((0.0, -math.inf), (1.0, 1.0)),
    ):
        with pytest.raises(InvalidParams):
            bad()


@pytest.mark.parametrize("domain, h", [
    (Rectangle((-1.0, -1.0), (1.0, 1.0)), 1e-300),
    (Disk((0.0, 0.0), 1.0), 1e-6),
    (Annulus((0.0, 0.0), 0.25, 1.0), 1e-310),  # subnormal: lo / h overflows
])
def test_lattice_box_size_guard(domain, h):
    # the box size is predicted in floating point, before any array is built
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParams, match="points; at most"):
                build_grid(domain, h, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("radius", [1e-150, 1e150])
def test_spacing_in_the_float_range_builds(radius):
    # the unit disk at h = 0.1, scaled by a power of ten: 349 nodes, 88 ghosts
    grid = build_grid(Disk((0.0, 0.0), radius), 0.1 * radius, 1)
    assert (grid.n_active, grid.n_ghost) == (349, 88)


@pytest.mark.parametrize("radius", [1e-200, 1e-160, 1e160])
def test_spacing_out_of_the_float_range(radius):
    # h^2 underflows to 0 (a grid would mark its whole padded box active,
    # with r = 0 at every node), is subnormal, or the squared box coordinates
    # overflow
    h = 0.1 * radius
    with pytest.raises(InvalidParams, match=re.escape(f"spacing h = {h!r} squares lengths")):
        build_grid(Disk((0.0, 0.0), radius), h, 1)


def test_lattice_box_size_guard_admits_fine_grids():
    # the finest documented grids build: a unit disk at h = 1/128 and an
    # interval at h = 1/4096
    assert build_grid(Disk((0.0, 0.0), 1.0), 1.0 / 128.0, 3).n_active > 50_000
    assert build_grid(Interval(-1.0, 1.0), 1.0 / 4096.0, 1).n_active == 8193


@pytest.mark.parametrize("domain", [
    Interval(-0.5, 1.0),
    Disk((0.3, -0.1), 0.8),
    Annulus((0.1, 0.2), 0.3, 0.9),
    Rectangle((-0.3, 0.1), (1.1, 0.9)),
])
def test_domain_methods_take_point_arrays(domain):
    # an (M, dim) array gives bit for bit the row-by-row results, and the
    # centre, where a radial direction is undefined, raises no warning
    lo, hi = domain.bounding_box()
    pad = 0.25 * (hi - lo)
    rng = np.random.default_rng(12)
    pts = np.vstack([rng.uniform(lo - pad, hi + pad, (500, domain.dim)), domain.center()])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for method in (domain.signed_distance, domain.reflect):
            batch = method(pts)
            rows = np.array([method(p) for p in pts])
            assert batch.shape == rows.shape and batch.dtype == rows.dtype
            assert batch.tobytes() == rows.tobytes(), method.__name__


@pytest.mark.parametrize("n", [16, 64, 128])
@pytest.mark.parametrize("center", [(0.0, 0.0), (0.3, -0.1)])
def test_disk_lengths_as_linalg_norm(n, center):
    # the disk's signed distance and the grid's r on the points build_grid
    # classifies: the box of the unit disk at h = 1/n, padded for s = 2
    h = 1.0 / n
    disk = Disk(center, 1.0)
    lo, hi = disk.bounding_box()
    pts = _box(np.floor(lo / h).astype(int) - 4, np.ceil(hi / h).astype(int) + 4) * h
    want = np.linalg.norm(pts - np.asarray(center), axis=-1)
    assert _norm(pts - np.asarray(center)).tobytes() == want.tobytes()
    assert disk.signed_distance(pts).tobytes() == (want - 1.0).tobytes()
    annulus = Annulus(center, 0.25, 1.0)
    assert annulus.signed_distance(pts).tobytes() == np.maximum(0.25 - want, want - 1.0).tobytes()
    grid = build_grid(disk, h, 2)
    r = np.linalg.norm(grid.nodes - disk.center(), axis=1)
    assert grid.node_variables[2].tobytes() == r.tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_lengths_as_linalg_norm_over_16_decades(dim):
    rng = np.random.default_rng(61)
    v = rng.choice([-1.0, 1.0], (20000, dim)) * 10.0 ** rng.uniform(-8.0, 8.0, (20000, dim))
    v[:100] = 0.0
    v[100:200, 0] = -0.0
    assert _norm(v).tobytes() == np.linalg.norm(v, axis=-1).tobytes()
    # a (..., dim) array of points, as the domain methods take
    v = v.reshape(100, 200, dim)
    assert _norm(v).tobytes() == np.linalg.norm(v, axis=-1).tobytes()


def test_rectangle_grid_flags_corners():
    grid = build_grid(Rectangle((0.0, 0.0), (1.0, 1.0)), 0.125, 1)
    assert grid_metadata(grid)["flags"] == ["rectangle-corners-violate-smoothness"]
    assert grid_metadata(build_grid(Disk((0.0, 0.0), 1.0), 0.125, 1))["flags"] == []
    # the 1D box has no corners
    assert grid_metadata(build_grid(Interval(0.0, 1.0), 0.125, 1))["flags"] == []


@pytest.mark.parametrize("a, b, h, s", [
    (0.0, 1.0, 1.0 / 8.0, 1),
    (-1.0, 1.0, 1.0 / 64.0, 2),
    (-0.5, 1.0, 1.0 / 32.0, 3),
    (0.1, 0.73, 1.0 / 128.0, 1),
    (0.0, 1e200, 1e199, 1),  # squared lengths overflow: both refuse the spacing
    (0.0, 3e-300, 1e-301, 1),  # and here h^2 underflows
])
def test_interval_is_the_one_dimensional_rectangle(a, b, h, s):
    box, interval = Rectangle((a,), (b,)), Interval(a, b)
    assert isinstance(interval, Rectangle) and box.dim == interval.dim == 1
    if not 1e-150 < h < 1e150:
        errors = []
        for domain in (box, interval):
            with pytest.raises(InvalidParams, match="normal float range") as e:
                build_grid(domain, h, s)
            errors.append(str(e.value))
        assert errors[0] == errors[1]
        return
    g, w = build_grid(box, h, s), build_grid(interval, h, s)
    for attr in ("nodes", "node_class", "ring_offsets", "ring_index", "axis_plus", "axis_minus", "ghost_points"):
        x, y = getattr(g, attr), getattr(w, attr)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), attr
    for attr in ("data", "indices", "indptr"):
        assert getattr(g.ghost_map, attr).tobytes() == getattr(w.ghost_map, attr).tobytes(), attr
    for x, y in zip(g.node_variables, w.node_variables):
        assert x.tobytes() == y.tobytes()
    assert json_text(grid_metadata(g)) == json_text(grid_metadata(w))
    assert grid_metadata(w)["domain"] == {"type": "interval", "a": a, "b": b}
    # the box's formulas give the interval's own at the nodes and the ghost
    # points: the signed distance to the nearer end, the mirror image across
    # it, the midpoint and the length
    pts = np.vstack([g.nodes, g.ghost_points])
    x = pts[:, 0]
    assert box.signed_distance(pts).tobytes() == np.maximum(a - x, x - b).tobytes()
    assert box.reflect(pts)[:, 0].tobytes() == np.where(x < a, 2.0 * a - x, np.where(x > b, 2.0 * b - x, x)).tobytes()
    assert box.center().tolist() == [0.5 * (a + b)] and box.diameter() == b - a


def test_metadata_and_rows():
    grid = build_grid(Disk((0.0, 0.0), 1.0), 0.25, 1)
    meta = grid_metadata(grid)
    assert meta["domain"]["type"] == "disk"
    assert meta["h"] == 0.25
    counts = meta["counts"]
    assert counts["interior"] + counts["boundary"] == grid.n_active
    index, x, y, classes = node_columns(grid, CLASS_NAMES[grid.node_class])
    assert len(index) == len(x) == len(y) == len(classes) == grid.n_active
    assert classes[0] in ("interior", "boundary")
    assert index.tolist() == list(range(grid.n_active))
    assert x.tolist() == grid.nodes[:, 0].tolist() and y.tolist() == grid.nodes[:, 1].tolist()
    line = node_columns(build_grid(Interval(0.0, 1.0), 0.25, 1), [5.0, 6.0, 7.0, 8.0, 9.0])
    assert tuple(col[1].item() for col in line) == (1, 0.25, 0.0, 6.0)


def test_deterministic_build():
    a = build_grid(Disk((0.0, 0.0), 1.0), 0.125, 2)
    b = build_grid(Disk((0.0, 0.0), 1.0), 0.125, 2)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.ring_index, b.ring_index)
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(a.ghost_map, attr), getattr(b.ghost_map, attr))


@pytest.mark.parametrize("domain, h, s", [
    (Interval(0.0, 1.0), 1.0 / 32.0, 2),
    (Disk((0.0, 0.0), 1.0), 0.125, 2),
    (Annulus((0.0, 0.0), 0.25, 1.0), 0.05, 2),
])
def test_index_columns_contiguous(domain, h, s):
    # the ring kernel gathers the (K, N) transpose, the drift kernel one axis
    # column at a time; all three are column slices of one stencil table
    grid = build_grid(domain, h, s)
    assert grid.ring_index.T.flags.c_contiguous
    for index in (grid.ring_index, grid.axis_plus, grid.axis_minus):
        for k in range(index.shape[1]):
            assert index[:, k].flags.c_contiguous
    for index in (grid.axis_plus, grid.axis_minus):
        assert np.shares_memory(index, grid.ring_index.base)


@pytest.mark.parametrize("domain, h, s", [
    (Interval(0.0, 1.0), 1.0 / 32.0, 2),
    (Disk((0.0, 0.0), 1.0), 0.125, 2),
    (Annulus((0.0, 0.0), 0.25, 1.0), 0.05, 2),
])
def test_stencil_indices_address_targets(domain, h, s):
    # each index names the node or ghost at node + offset; ghost j holds the
    # j-th ghost lattice key in raveled box order
    grid = build_grid(domain, h, s)
    n = grid.n_active
    lattice_index = _lattice_map(grid)
    assert len(lattice_index) == n
    ghost_keys = [tuple(q) for q in np.rint(grid.ghost_points / h).astype(int).tolist()]
    assert len(set(ghost_keys)) == grid.n_ghost
    offsets = np.rint(grid.ring_offsets / h).astype(int).tolist()
    unit = np.eye(grid.dim, dtype=int).tolist()
    raveled = (np.array(ghost_keys) - grid.lattice.lo) @ grid.lattice.strides
    assert np.all(np.diff(raveled) > 0)
    seen = set()
    for i, q in enumerate(np.rint(grid.nodes / h).astype(int).tolist()):
        assert lattice_index[tuple(q)] == i
        columns = [(grid.ring_index[i, k], v) for k, v in enumerate(offsets)]
        for d, e in enumerate(unit):
            columns += [(grid.axis_plus[i, d], e), (grid.axis_minus[i, d], [-c for c in e])]
        for j, v in columns:
            key = tuple(a + b for a, b in zip(q, v))
            if j < n:
                assert lattice_index[key] == j
            else:
                assert key not in lattice_index
                assert ghost_keys[j - n] == key
                seen.add(j - n)
    assert seen == set(range(grid.n_ghost))


@pytest.mark.parametrize("domain, h, s", [
    (Interval(0.0, 1.0), 1.0 / 32.0, 1),
    (Disk((0.0, 0.0), 1.0), 0.0625, 2),
    (Annulus((0.0, 0.0), 0.25, 1.0), 0.025, 2),
    (Disk((0.3, -0.1), 0.8), 1.0 / 48.0, 2),  # some coarse nodes have equidistant fine nodes
    (Disk((0.0, 0.0), 1.0), 1.0 / 64.0, 2),  # 32 coarse nodes take the nearest fine node
])
def test_transfers_between_nested_grids(domain, h, s):
    fine = build_grid(domain, h, s)
    coarse = build_grid(domain, 2.0 * h, s)
    # restriction: one stored 1.0 a row, at the same lattice point where it is
    # active, else at the nearest fine node in lattice units, the first in
    # node order among equidistant ones
    restrict = interpolation_map(fine, coarse)
    assert restrict.shape == (coarse.n_active, fine.n_active)
    assert np.array_equal(restrict.indptr, np.arange(coarse.n_active + 1))
    assert np.all(restrict.data == 1.0)
    down = restrict.indices
    fine_q = np.rint(fine.nodes / fine.h)
    coarse_q = 2.0 * np.rint(coarse.nodes / coarse.h)
    dist = [np.linalg.norm(fine_q - q, axis=1) for q in coarse_q]
    nearest = [np.min(d) for d in dist]
    assert np.array_equal(np.linalg.norm(fine_q[down] - coarse_q, axis=1), nearest)
    assert down.tolist() == [int(np.argmin(d)) for d in dist]
    assert np.count_nonzero(nearest) < 0.1 * coarse.n_active
    # the product with a stored 1.0 returns each fine value bit for bit, for a
    # nodal vector and an (N, 2) drift array alike
    rng = np.random.default_rng(fine.n_active)
    for v in (rng.standard_normal(fine.n_active), rng.standard_normal((fine.n_active, 2))):
        assert (restrict @ v).tobytes() == v[down].tobytes()
    # prolongation: convex weights, exact on affine data wherever the whole
    # cell is active, which holds at every fine interior node
    up_map = interpolation_map(coarse, fine)
    assert up_map.shape == (fine.n_active, coarse.n_active)
    assert np.all(up_map.data > 0.0) and np.allclose(up_map.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
    slope = np.array([2.0, -3.0])[: fine.dim]
    up = up_map @ (1.0 + coarse.nodes @ slope)
    interior = fine.node_class == INTERIOR
    assert np.abs(up - (1.0 + fine.nodes @ slope))[interior].max() <= 1e-12


def test_lookup_misses_return_minus_one():
    lattice = np.array([[0, 0], [0, 1], [1, 0], [1, 1], [2, 1]])
    points = np.array([[1, 1], [2, 1], [0, 0], [2, 0], [5, 5], [-1, 0], [0, 2], [3, -4]])
    assert _map(lattice).find(points).tolist() == [3, 4, 0, -1, -1, -1, -1, -1]
    line = np.array([[-3], [-2], [0]])
    assert _map(line).find(np.array([[-1], [0], [-3], [4], [-9]])).tolist() == [-1, 2, 0, -1, -1]


@pytest.mark.parametrize("dim", [1, 2])
def test_lattice_map_find_agrees_with_a_dict(dim):
    rng = np.random.default_rng(dim)
    points = np.unique(rng.integers(-20, 20, size=(300, dim)), axis=0)  # distinct, lexicographic
    rows = {tuple(q): i for i, q in enumerate(points.tolist())}
    queries = rng.integers(-30, 30, size=(3000, dim))
    expected = [rows.get(tuple(q), -1) for q in queries.tolist()]
    lo, hi = points.min(axis=0), points.max(axis=0)
    outside = np.any((queries < lo) | (queries > hi), axis=1)
    assert outside.any() and (~outside).any() and max(expected) >= 0
    assert _map(points).find(queries).tolist() == expected
    assert np.array_equal(_map(points).points, points)
    # a box padded beyond the points, as build_grid's, answers the same
    assert _map(points, pad=(3, 5)).find(queries).tolist() == expected


def test_bilinear_drops_inactive_corners():
    lattice = _map([[0, 1], [1, 0], [1, 1]])  # the cell's corner (0, 0) is inactive
    idx, w = _bilinear(lattice, np.array([[0.25, 0.5]]))
    # corners (1, 0), (0, 1), (1, 1) keep 0.125, 0.375, 0.125 of 0.625, in
    # corner order; the dropped corner keeps index 0 and weight 0
    assert idx.tolist() == [[0, 1, 0, 2]]
    assert w.tolist() == [[0.0, 0.2, 0.6, 0.2]]
    # on a lattice point, corners of zero weight are dropped even when active
    idx, w = _bilinear(lattice, np.array([[1.0, 0.0]]))
    assert idx.tolist() == [[1, 0, 0, 0]] and w.tolist() == [[1.0, 0.0, 0.0, 0.0]]


def test_bilinear_falls_back_to_nearest_node():
    lattice = _map([[0, 0], [3, 3]])
    idx, w = _bilinear(lattice, np.array([[1.5, 1.75], [1.25, 0.5]]))
    assert idx.tolist() == [[1, 0, 0, 0], [0, 0, 0, 0]]
    assert w.tolist() == [[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]
    idx, w = _bilinear(_map([[0], [4]]), np.array([[2.75]]))
    assert idx.tolist() == [[1, 0]] and w.tolist() == [[1.0, 0.0]]
    # equidistant nodes: the first in node order
    square = _map([[0, 0], [0, 10], [10, 0], [10, 10]])
    assert square.nearest(np.array([[5.0, 5.0], [5.0, 10.0], [10.0, 5.0], [7.0, 5.0]])).tolist() == [0, 1, 2, 2]


@pytest.mark.parametrize("dim", [1, 2])
def test_nearest_agrees_with_a_full_scan(dim):
    # about one box point in 100 is a node, so the window doubles several
    # times; midpoints of successive nodes and integer and half-integer
    # queries give exact ties
    rng = np.random.default_rng(10 + dim)
    side = 2000 if dim == 1 else 60
    points = np.unique(rng.integers(0, side, size=(side**dim // 100, dim)), axis=0)
    lattice = _map(points)
    queries = np.concatenate([
        rng.uniform(-0.2 * side, 1.2 * side, size=(300, dim)),
        rng.integers(0, side, size=(300, dim)).astype(float),
        rng.integers(0, 2 * side, size=(300, dim)) / 2.0,
        (points[:-1] + points[1:]) / 2.0,
    ])
    dist = [np.linalg.norm(points - q, axis=1) for q in queries]
    assert sum(np.count_nonzero(d == d.min()) > 1 for d in dist) >= 10
    assert max(d.min() for d in dist) > 8
    nearest = np.array([np.argmin(d) for d in dist])
    assert lattice.nearest(queries).tolist() == nearest.tolist()
    # _bilinear takes the same node where none of the weighted corners is a node
    base = np.floor(queries).astype(np.int64)
    held = np.zeros(len(queries), dtype=bool)
    for corner in itertools.product((0, 1), repeat=dim):
        weighted = np.all((np.array(corner) == 0) | (queries > base), axis=1)
        held |= weighted & (lattice.find(base + corner) >= 0)
    assert np.count_nonzero(~held) > 100
    idx, w = _bilinear(lattice, queries)
    assert np.array_equal(idx[~held, 0], nearest[~held]) and np.all(w[~held, 0] == 1.0)


def test_node_order_lexicographic():
    grid = build_grid(Disk((0.0, 0.0), 1.0), 0.25, 1)
    keys = [tuple(q) for q in (grid.nodes / grid.h).round().astype(int)]
    assert keys == sorted(keys)
    # the grid's lattice map holds the nodes' lattice points in node order
    assert np.array_equal(grid.lattice.points, np.array(keys))
    assert np.array_equal(grid.lattice.find(grid.lattice.points), np.arange(grid.n_active))
