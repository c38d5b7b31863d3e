"""Computational domains and uniform lattice grids.

Domains are restricted to shapes with a closed-form signed distance and
reflection across the boundary (disk, annulus, and the axis-aligned box
``Rectangle``, whose one-dimensional case is the interval); that, with the
bounding box, is all ``build_grid`` reads of a domain.  It classifies
lattice nodes into interior / boundary / exterior by the signed distance,
assembles the ring stencil used by the wide-stencil operator, its arms in
runs of one scale (``_ring_offsets`` takes that order once), and closes
every exterior arm with a reflection-based ghost rule, which is how the
homogeneous Neumann condition enters the scheme (to first order); no
boundary normal is ever formed.

Both point methods, ``signed_distance`` and ``reflect``, take a (..., dim)
array and return one result per point, each bit for bit what a single (dim,)
point gives, so ``build_grid`` calls each method once for all its points.
Where a point needs no reflection, ``reflect`` returns the point itself.

Lattice nodes sit at integer multiples of the spacing ``h`` so that grids at
``h`` and ``h/2`` are nested.  One lattice map, ``LatticeMap``, takes integer
lattice points to node indices: the dense table over the padded lattice box
that ``build_grid`` fills and keeps as ``Grid.lattice``.  It serves the
stencil steps and the bilinear corners, and a point with no weighted corner
among the nodes takes its nearest node from a search over windows of the
table.  The bilinear rule leaves this module only as CSR maps, the ghost
closure ``Grid.ghost_map`` and the transfer ``interpolation_map``, whose
product sums each row left to right in corner order.  ``Grid.extended_values``
applies the closure to an (N,) state.  The transfer prolongs from the grid
with twice the spacing and restricts onto it, one 1.0 a row.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import InfeigError

INTERIOR = 0
BOUNDARY = 1

CLASS_NAMES = np.array(["interior", "boundary"])  # indexed by node class

# Largest lattice box (the padded bounding box) ``build_grid`` enumerates.
# A build peaks at about 230 bytes per box point (a unit disk at h = 1/512,
# 1.07e6 box points, peaks at 242 MB), so the cap holds it near 0.5 GB.
MAX_BOX_POINTS = 2**21


class GeometryError(InfeigError):
    pass


class InvalidParams(GeometryError):
    pass


class DomainTooCoarse(GeometryError):
    pass


def _length(v: np.ndarray) -> np.ndarray:
    """Euclidean length of each row of a (..., dim) array: the square root of
    the row's dot product, bit for bit the norm of that row taken alone."""
    return np.sqrt(np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0])


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean length of each row of a (..., dim) array: the square root of
    the squared columns added in order, bit for bit ``np.linalg.norm(v,
    axis=-1)``, whose reduction over an axis this short also adds in order."""
    sq = v[..., 0] * v[..., 0]
    for d in range(1, v.shape[-1]):
        sq += v[..., d] * v[..., d]
    return np.sqrt(sq)


def _radial(center: tuple, pts) -> tuple:
    """Offsets v = p - center of a (..., 2) array of points, their lengths rho
    and unit directions v / rho, with e_1 at the centre itself."""
    v = np.asarray(pts, dtype=float) - np.asarray(center)
    rho = _length(v)
    at_centre = (rho == 0.0)[..., None]
    return v, rho, np.where(at_centre, [1.0, 0.0], v / np.where(at_centre, 1.0, rho[..., None]))


def _finite_point(point, kind: str, dims=(2,)) -> tuple:
    """The point as a tuple of floats, which must be finite and have one of
    the lengths ``dims``."""
    p = tuple(float(v) for v in point)
    if len(p) not in dims or not all(map(math.isfinite, p)):
        shapes = " or ".join(f"{d}D" for d in dims)
        raise InvalidParams(f"{kind} must be a finite {shapes} point, got {point!r}")
    return p


@dataclass(frozen=True)
class Disk:
    """2D disk of given center and radius."""

    center_point: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center_point", _finite_point(self.center_point, "disk center"))
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise InvalidParams(f"disk radius must be finite and positive, got {self.radius!r}")

    dim = 2

    def signed_distance(self, pts):
        p = np.asarray(pts, dtype=float)
        rho = _norm(p - np.asarray(self.center_point))
        return rho - self.radius

    def reflect(self, pts):
        p = np.asarray(pts, dtype=float)
        c = np.asarray(self.center_point)
        v, rho, _ = _radial(c, p)
        outside = (rho > self.radius)[..., None]
        mirrored = c + (2.0 * self.radius - rho)[..., None] * v / np.where(outside, rho[..., None], 1.0)
        return np.where(outside, mirrored, p)

    def center(self):
        return np.asarray(self.center_point, dtype=float)

    def bounding_box(self):
        c = np.asarray(self.center_point)
        return c - self.radius, c + self.radius

    def diameter(self) -> float:
        return 2.0 * self.radius

    def describe(self) -> dict:
        return {"type": "disk", "center": list(self.center_point), "radius": self.radius}


@dataclass(frozen=True)
class Annulus:
    """2D annulus: inner_radius < |x - center| < outer_radius."""

    center_point: tuple
    inner_radius: float
    outer_radius: float

    def __post_init__(self):
        object.__setattr__(self, "center_point", _finite_point(self.center_point, "annulus center"))
        if not (0 < self.inner_radius < self.outer_radius and math.isfinite(self.outer_radius)):
            raise InvalidParams("annulus needs finite 0 < inner_radius < outer_radius")

    dim = 2

    def signed_distance(self, pts):
        p = np.asarray(pts, dtype=float)
        rho = _norm(p - np.asarray(self.center_point))
        return np.maximum(self.inner_radius - rho, rho - self.outer_radius)

    def reflect(self, pts):
        p = np.asarray(pts, dtype=float)
        c = np.asarray(self.center_point)
        _, rho, u = _radial(c, p)
        inside = rho < self.inner_radius
        wall = np.where(inside, self.inner_radius, self.outer_radius)
        mirrored = c + (2.0 * wall - rho)[..., None] * u
        return np.where((inside | (rho > self.outer_radius))[..., None], mirrored, p)

    def center(self):
        return np.asarray(self.center_point, dtype=float)

    def bounding_box(self):
        c = np.asarray(self.center_point)
        return c - self.outer_radius, c + self.outer_radius

    def diameter(self) -> float:
        return 2.0 * self.outer_radius

    def gap(self) -> float:
        return self.outer_radius - self.inner_radius

    def describe(self) -> dict:
        return {
            "type": "annulus",
            "center": list(self.center_point),
            "inner_radius": self.inner_radius,
            "outer_radius": self.outer_radius,
        }


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned box lo < x < hi in 1D or 2D; its dimension is len(lo).

    The 1D box is the interval (lo[0], hi[0]) and describes itself as one.
    The corners of a 2D box break the smooth-boundary hypothesis the rest of
    the package leans on, so grids built on one carry a metadata flag; a 1D
    box has no corners and no flag.  A ghost point beyond a corner is
    mirrored across both walls.
    """

    lo: tuple
    hi: tuple

    def __post_init__(self):
        object.__setattr__(self, "lo", _finite_point(self.lo, "rectangle lo", (1, 2)))
        object.__setattr__(self, "hi", _finite_point(self.hi, "rectangle hi", (self.dim,)))
        if not all(a < b for a, b in zip(self.lo, self.hi)):
            raise InvalidParams(f"box needs lo < hi componentwise, got {self.describe()}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def signed_distance(self, pts):
        p = np.asarray(pts, dtype=float)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        q = np.maximum(lo - p, p - hi)  # per-axis signed excess
        # the largest excess, exact at any scale, except beyond a corner (two
        # axes outside), where it is the distance to that corner
        corner = np.count_nonzero(q > 0.0, axis=-1) > 1
        return np.where(corner, _norm(np.where(corner[..., None], q, 0.0)), np.max(q, axis=-1))

    def reflect(self, pts):
        """Mirror each coordinate below ``lo`` or above ``hi`` across that wall."""
        q = np.asarray(pts, dtype=float)
        lo, hi = self.bounding_box()
        return np.where(q < lo, 2.0 * lo - q, np.where(q > hi, 2.0 * hi - q, q))

    def center(self):
        return 0.5 * (np.asarray(self.lo) + np.asarray(self.hi))

    def bounding_box(self):
        return np.asarray(self.lo, dtype=float), np.asarray(self.hi, dtype=float)

    def diameter(self) -> float:
        return math.dist(self.lo, self.hi)

    def describe(self) -> dict:
        if self.dim == 1:
            return {"type": "interval", "a": self.lo[0], "b": self.hi[0]}
        return {"type": "rectangle", "lo": list(self.lo), "hi": list(self.hi)}


class Interval(Rectangle):
    """1D domain (a, b): the one-dimensional ``Rectangle``."""

    def __init__(self, a: float, b: float):
        Rectangle.__init__(self, (a,), (b,))


Domain = Disk | Annulus | Rectangle


def _box(lo, hi) -> np.ndarray:
    """(P, dim) integer points of the box [lo, hi], in lexicographic order."""
    axes = np.meshgrid(*(np.arange(a, b + 1) for a, b in zip(lo, hi)), indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, len(axes))


def _ring_offsets(dim: int, s: int) -> np.ndarray:
    """Integer lattice offsets whose length is within half a cell of s, by
    decreasing length (increasing scale s/|v|) and in lexicographic order
    within a length.  So the arms of one scale are one run, and the set of
    one length is symmetric: the run reversed is its own negation."""
    cand = _box([-s - 1] * dim, [s + 1] * dim)
    ring = cand[np.abs(np.linalg.norm(cand, axis=1) - s) <= 0.5 + 1e-12]
    return ring[np.argsort(-np.sum(ring * ring, axis=1), kind="stable")]


class LatticeMap:
    """Dense lookup from integer lattice points to node rows.

    ``held`` marks the nodes among the points of a lattice box whose least
    corner is ``lo``.  The nodes are numbered in the box's lexicographic
    order: ``points`` holds them, and ``table`` holds, for every point of
    the box, its row in ``points`` or -1.  ``find`` reads the table at
    integer points; ``nearest`` searches windows of it for the node nearest
    to real points.
    """

    def __init__(self, lo, held: np.ndarray):
        self.lo = np.asarray(lo, dtype=np.int64)
        self.table = np.full(held.shape, -1, dtype=np.int64)
        self.table[held] = np.arange(np.count_nonzero(held))
        self.strides = np.array(self.table.strides) // self.table.itemsize
        self.points = np.stack(np.nonzero(held), axis=1) + self.lo

    def find(self, points: np.ndarray) -> np.ndarray:
        """Row of each integer point of a (..., dim) array, -1 where it is none."""
        rel = points - self.lo
        inside = True
        for d, size in enumerate(self.table.shape):
            inside = inside & (rel[..., d] >= 0) & (rel[..., d] < size)
        return np.where(inside, np.take(self.table, rel @ self.strides, mode="clip"), -1)

    def nearest(self, x: np.ndarray) -> np.ndarray:
        """Row of the node nearest to each point of a (P, dim) array of real
        points, the first row among equidistant ones.

        A window of the table around the point doubles until it holds a node;
        then the window widens to hold every point within the least distance
        d found, the box of half-width d around the point and a cell more.
        """
        rows = np.empty(len(x), dtype=np.int64)
        for p, xp in enumerate(x):
            rel = (xp - self.lo).tolist()
            centre = [min(max(round(v), 0), size - 1) for v, size in zip(rel, self.table.shape)]
            width = 1
            while not (found := self._window([c - width for c in centre], [c + width for c in centre])).size:
                width *= 2
            d = np.linalg.norm(self.points[found] - xp, axis=1).min()
            found = self._window([math.floor(v - d) - 1 for v in rel], [math.ceil(v + d) + 1 for v in rel])
            rows[p] = found[np.argmin(np.linalg.norm(self.points[found] - xp, axis=1))]
        return rows

    def _window(self, lo: list, hi: list) -> np.ndarray:
        """Rows of the nodes in the table box [lo, hi] (clipped to the
        table), increasing: rows follow the box's lexicographic order."""
        block = self.table[tuple(slice(max(a, 0), b + 1) for a, b in zip(lo, hi))]
        return block[block >= 0]


@dataclass
class Grid:
    """Immutable lattice discretization of a domain.

    ``ring_index`` / ``axis_plus`` / ``axis_minus`` address an extended value
    vector: entries < n_active are active nodes, the rest are ghost closures
    (convex combinations of active nodal values given by the rows of
    ``ghost_map``).  Ghosts are numbered in lattice order: ghost j is
    the j-th exterior target in the raveled lattice box.  The three index
    arrays are column slices of one column-major stencil table, [ring arms |
    +axes | -axes]: the transposed ``ring_index`` is the C-contiguous (K, N)
    block the ring kernel gathers in one call, and the steady solver's policy
    step and frozen matrix read the same block; the drift kernel reads one
    contiguous axis column at a time.

    The arms are ordered by their scale rho/|v_k| (``_ring_offsets``), so
    ``ring_groups``, one (start, stop, scale) slice per distinct scale, cuts
    the block into runs of rows that the ring kernel reduces one group at a
    time, and each group reversed is its own negation.  With s = 1 in 2D the
    groups are the four diagonal arms and the four axis arms (scale 1), and
    in 1D there is one group.
    """

    domain: Domain
    h: float
    s: int
    nodes: np.ndarray          # (N, dim)
    node_class: np.ndarray     # (N,) INTERIOR/BOUNDARY
    ring_offsets: np.ndarray   # (K, dim) physical offsets, by increasing scale
    ring_index: np.ndarray     # (N, K) extended indices
    axis_plus: np.ndarray      # (N, dim) extended indices
    axis_minus: np.ndarray     # (N, dim) extended indices
    ghost_points: np.ndarray   # (G, dim)
    ghost_map: sp.csr_matrix   # (G, N) positive weights, rows sum to 1
    lattice: LatticeMap        # integer points of the nodes; lookup over the padded box

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def rho(self) -> float:
        """Stencil ring radius s*h."""
        return self.s * self.h

    @cached_property
    def ring_lengths(self) -> np.ndarray:
        """Physical arm lengths |v_k|, within h/2 of rho."""
        return np.linalg.norm(self.ring_offsets, axis=1)

    @cached_property
    def ring_scale(self) -> np.ndarray:
        """Per-arm factor rho/|v_k| that brings arm values to the ring radius."""
        return self.rho / self.ring_lengths

    @cached_property
    def ring_groups(self) -> tuple:
        """The scale-group table: (start, stop, scale) for each distinct
        scale, by increasing scale; arms start:stop are those of that scale."""
        groups, start = [], 0
        for scale, arms in itertools.groupby(self.ring_scale.tolist()):
            stop = start + len(list(arms))
            groups.append((start, stop, scale))
            start = stop
        return tuple(groups)

    @cached_property
    def node_variables(self) -> tuple:
        """Node arrays (x, y, r) of coefficient expressions: the coordinates,
        y = 0 in 1D, and the distance to the domain's centre.  Every caller
        shares them, so they are read-only."""
        x = self.nodes[:, 0]
        y = self.nodes[:, 1] if self.dim == 2 else np.zeros_like(x)
        variables = (x, y, _norm(self.nodes - self.domain.center()))
        for v in variables:
            v.flags.writeable = False
        return variables

    @property
    def n_active(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_ghost(self) -> int:
        return self.ghost_points.shape[0]

    def extended_values(self, values: np.ndarray) -> np.ndarray:
        """Active nodal values of an (N,) state followed by its ghost-closed
        values, one CSR product."""
        return np.concatenate([values, self.ghost_map @ values])


def build_grid(domain: Domain, h: float, s: int = 1) -> Grid:
    """Build the lattice grid with classification, stencils and ghost closure."""
    if not (isinstance(h, (int, float)) and h > 0) or not math.isfinite(h):
        raise InvalidParams(f"spacing h must be positive, got {h!r}")
    if not (isinstance(s, (int, np.integer)) and s >= 1):
        raise InvalidParams(f"stencil ring factor s must be an integer >= 1, got {s!r}")
    if domain.diameter() < 4 * s * h:
        raise InvalidParams("domain diameter must be at least 4*s*h")
    if isinstance(domain, Annulus) and domain.gap() < 4 * s * h:
        raise InvalidParams("annulus gap must be at least 4*s*h for the ghost closure")

    dim = domain.dim
    lo, hi = domain.bounding_box()
    pad = s + 2
    with np.errstate(over="ignore"):  # a subnormal h overflows to inf, caught below
        imin = np.floor(lo / h) - pad
        imax = np.ceil(hi / h) + pad
    box_points = math.prod((imax - imin + 1).tolist())  # Python floats: no overflow warning
    if not box_points <= MAX_BOX_POINTS:
        raise InvalidParams(
            f"spacing h = {h!r} needs a lattice box of {box_points:.3g} points; "
            f"at most {MAX_BOX_POINTS} are allowed"
        )
    reach = 2.0 * float(np.max(np.abs([imin, imax])) * h)  # twice the largest box coordinate
    if not (h * h >= np.finfo(float).tiny and math.isfinite(reach * reach)):
        raise InvalidParams(f"spacing h = {h!r} squares lengths outside the normal float range")
    imin = imin.astype(int)
    imax = imax.astype(int)

    coords = _box(imin, imax) * h
    sdf = domain.signed_distance(coords)
    is_boundary = np.abs(sdf) < 0.5 * h
    is_interior = (sdf <= -0.5 * h) & ~is_boundary
    active = is_boundary | is_interior

    # nodes in the box's lexicographic order
    lattice_map = LatticeMap(imin, active.reshape(tuple(imax - imin + 1)))
    act_lattice = lattice_map.points
    act_class = np.where(is_boundary[active], BOUNDARY, INTERIOR).astype(np.uint8)
    nodes = act_lattice * h

    n_interior = int(np.sum(act_class == INTERIOR))
    min_interior = 3 if dim == 1 else 8
    if n_interior < min_interior:
        raise DomainTooCoarse(
            f"grid has {n_interior} interior nodes; need at least {min_interior}"
        )

    offsets = _ring_offsets(dim, s)

    # Stencil steps in column order: ring arms, +axes, -axes.  The lattice
    # box is padded by s + 2, so every target of an active node lies inside
    # it and a step is a fixed offset into the raveled box.
    n = nodes.shape[0]
    K = offsets.shape[0]
    eye = np.eye(dim, dtype=np.int64)
    steps = np.concatenate([offsets, eye, -eye])
    table = lattice_map.table.reshape(-1)
    base = np.flatnonzero(active)  # _box enumerates the box in the table's raveled order
    step_offsets = steps @ lattice_map.strides
    index = np.empty((n, steps.shape[0]), dtype=np.int64, order="F")
    for col, v in enumerate(step_offsets):
        np.take(table, base + v, out=index[:, col], mode="clip")
    # the (node, column) pairs with a ghost target; np.unique numbers the
    # ghosts by their key in the raveled box, that is in lattice order
    near = np.flatnonzero(index.min(axis=1) < 0)
    near_rows, cols = np.nonzero(index[near] < 0)
    rows = near[near_rows]
    _, first, label = np.unique(base[rows] + step_offsets[cols], return_index=True, return_inverse=True)
    index[rows, cols] = n + label.reshape(-1)

    # ghost closure: reflect each exterior point across the boundary and
    # interpolate bilinearly at the reflection
    ghost_points = (act_lattice[rows[first]] + steps[cols[first]]) * h
    ghost_nodes, ghost_weights = _bilinear(lattice_map, domain.reflect(ghost_points) / h)

    return Grid(
        domain=domain,
        h=float(h),
        s=int(s),
        nodes=nodes,
        node_class=act_class,
        ring_offsets=offsets * h,
        ring_index=index[:, :K],
        axis_plus=index[:, K:K + dim],
        axis_minus=index[:, K + dim:],
        ghost_points=ghost_points,
        ghost_map=_sparse(ghost_nodes, _sum_to_one(ghost_weights), n),
        lattice=lattice_map,
    )


_UNITS = 2.0**52


def _sum_to_one(weights: np.ndarray) -> np.ndarray:
    """Rows rounded to whole multiples of 1 / _UNITS that add up to exactly 1.
    Every partial sum of such a row is exact, so it adds up to 1 in any order."""
    q = np.rint(weights * _UNITS)
    q[np.arange(len(q)), np.argmax(q, axis=1)] += _UNITS - q.sum(axis=1)
    return q / _UNITS


def _sparse(idx: np.ndarray, weights: np.ndarray, n: int) -> sp.csr_matrix:
    """(P, n) CSR map of padded rows: each row's nonzero weights, in their order."""
    kept = weights > 0.0
    return sp.csr_matrix((weights[kept], idx[kept], np.r_[0, np.cumsum(kept.sum(axis=1))]), shape=(len(idx), n))


def _bilinear(lattice: LatticeMap, x: np.ndarray) -> tuple:
    """Bilinear interpolation at points ``x`` (in lattice units) from the
    points of ``lattice``: (P, 2**dim) rows and nonnegative weights summing to 1.

    Each row is in corner order (0, 0), (1, 0), (0, 1), (1, 1).  Weights on
    corners that ``lattice.find`` does not hold are dropped, leaving index 0
    and weight 0 in place, and the rest renormalized.  A point none
    of whose weighted corners is held takes its nearest point with weight 1,
    by ``lattice.nearest``'s windowed search (the first row among
    equidistant ones).
    """
    dim = x.shape[1]
    corners = (np.arange(2**dim)[:, None] >> np.arange(dim)) & 1
    base = np.floor(x)
    frac = (x - base)[:, None, :]
    weights = np.prod(np.where(corners, frac, 1.0 - frac), axis=2)
    idx = lattice.find(base.astype(np.int64)[:, None, :] + corners)
    kept = (weights > 0.0) & (idx >= 0)
    idx = np.where(kept, idx, 0)
    weights = np.where(kept, weights, 0.0)
    total = weights.cumsum(axis=1)[:, -1]  # a sequential sum over the kept corners in order
    lost = np.flatnonzero(total == 0.0)
    idx[lost, 0] = lattice.nearest(x[lost])
    weights[lost, 0] = total[lost] = 1.0
    return idx, weights / total[:, None]


def interpolation_map(source: Grid, target: Grid) -> sp.csr_matrix:
    """The (N_target, N_source) CSR map, positive weights summing to 1 per row,
    that reads ``source`` bilinearly at ``target``'s nodes by the ghost
    closure's rule: the one transfer between grids nested by a factor of 2.
    From the grid with twice the spacing it prolongs.  Onto it, it restricts:
    each row is a single 1.0, at the same lattice point or, off the fine active
    set, at the nearest fine node by ``_bilinear``'s windowed search."""
    x = target.h / source.h * target.lattice.points
    return _sparse(*_bilinear(source.lattice, x), source.n_active)


def grid_metadata(grid: Grid) -> dict:
    """JSON-ready description: domain, spacing, per-class node counts."""
    flags = []
    if isinstance(grid.domain, Rectangle) and grid.dim == 2:
        flags.append("rectangle-corners-violate-smoothness")
    return {
        "domain": grid.domain.describe(),
        "h": grid.h,
        "s": grid.s,
        "counts": {
            "interior": int(np.sum(grid.node_class == INTERIOR)),
            "boundary": int(np.sum(grid.node_class == BOUNDARY)),
            "ghost": grid.n_ghost,
        },
        "flags": flags,
    }
