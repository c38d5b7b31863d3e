"""Nodal fields on lattice grids and the discrete monotone operators on them.

The second-order part is the wide-stencil ring scheme

    lap(u)(x) = (u_plus + u_minus - 2 u(x)) / rho^2,

where u_plus / u_minus are the max / min over the stencil ring of the arm
values brought to the common ring radius ``rho = s*h`` by first-order radial
interpolation:

    w_k = u(x) + (u(x + v_k) - u(x)) * rho / |v_k|.

Lattice arms on the ring have lengths in [rho - h/2, rho + h/2]; without the
rescaling the length dispersion between the selected max and min arms leaves
a non-vanishing consistency error.  The rescaled scheme stays monotone
(every neighbor enters with a positive coefficient), degree-1 positively
homogeneous and odd, and is exact on 1D quadratics where both arms have
length rho exactly.

Ring arms that leave the domain are closed by the grid's Neumann ghost rule,
so boundary nodes carry full operator rows.  The drift is componentwise
first-order upwind.  ``apply_operator`` evaluates the full residual

    lap(u) + b . Du + (c + lam) u - g

at every active node.  Every evaluation goes through two private kernels
on an (N,) state.  ``_ring_laplacian`` (behind ``residual_values`` and
``inf_laplacian_values``) gathers the C-contiguous (K, N) block
``ext.take(ring_index.T)``, whose arms come in runs of one scale
s = rho/|v_k| (``Grid.ring_groups``).  It takes the max and min of each
group's raw arm values, subtracts u from those N-vectors alone and scales
them, and combines the groups with ``np.maximum`` and ``np.minimum``.  That
is bit for bit the max and min of the rescaled increments
fl(s * fl(u(x+v_k) - u)): for s > 0 the map x -> fl(s * fl(x - u)) is
nondecreasing, so it commutes with the max and min within a group.  The
group of scale 1 skips the multiply, as fl(x * 1.0) = x.  Adding u to the
two N-vectors then gives the max and min of the arm values w_k.
``ring_arm_values`` rescales the whole (K, N) block of increments, adds u
back and returns its (N, K) transpose.  ``_add_upwind_drift`` (behind
``residual_values`` and ``drift_values``) works one axis column at a time,
gathering with ``take``.  ``frozen_matrices`` assembles the same ring and
upwind coefficients, with the (2, N) max and min arms frozen, as the sparse
matrices that every solver factors; the ghost closure enters them as one
sparse matrix, ``Grid.ghost_map``, the one that ``Grid.extended_values``
applies, so both sum its rows in one order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InfeigError
from .geometry import Grid

__all__ = [
    "OperatorError", "ZeroVector", "ScalarField", "VectorField", "SteadyProblem",
    "gradient_projector", "ring_arm_values", "inf_laplacian_values", "drift_values",
    "residual_values", "frozen_matrices", "apply_operator",
]


class OperatorError(InfeigError):
    pass


class ZeroVector(OperatorError):
    pass


@dataclass
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_active,):
            raise ValueError(f"field has shape {v.shape}, grid expects ({self.grid.n_active},)")
        if not np.all(np.isfinite(v)):
            raise ValueError("scalar field contains non-finite values")
        self.values = v

    @classmethod
    def constant(cls, grid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.n_active, float(value)))

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass
class VectorField:
    grid: Grid
    values: np.ndarray  # (N, dim)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_active, self.grid.dim):
            raise ValueError(
                f"vector field has shape {v.shape}, grid expects "
                f"({self.grid.n_active}, {self.grid.dim})"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("vector field contains non-finite values")
        self.values = v

    @classmethod
    def constant(cls, grid, vec) -> "VectorField":
        vec = np.asarray(vec, dtype=float).reshape(grid.dim)
        return cls(grid, np.tile(vec, (grid.n_active, 1)))

    @classmethod
    def zero(cls, grid) -> "VectorField":
        return cls(grid, np.zeros((grid.n_active, grid.dim)))


def gradient_projector(p) -> np.ndarray:
    """Rank-one projector p (x) p / |p|^2; the coefficient matrix of the
    normalized infinity-Laplacian.  Order-0 homogeneous and idempotent."""
    p = np.asarray(p, dtype=float)
    n2 = float(p @ p)
    if n2 == 0.0:
        raise ZeroVector("projector undefined at p = 0")
    return np.outer(p, p) / n2


@dataclass
class SteadyProblem:
    """Coefficient set for lap(u) + b . Du + (c + lam) u = g on one grid."""

    grid: Grid
    b: VectorField
    c: ScalarField
    g: ScalarField
    lam: float = 0.0

    def __post_init__(self):
        for f in (self.b, self.c, self.g):
            if f.grid is not self.grid:
                raise ValueError("all problem fields must share the problem grid")


def ring_arm_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """(N, K) rescaled arm values w_k = u + (u(x+v_k) - u) * rho/|v_k|."""
    w = grid.extended_values(values).take(grid.ring_index.T)
    w -= values
    w *= grid.ring_scale[:, None]
    w += values
    return w.T


def _ring_laplacian(grid: Grid, values: np.ndarray, ext: np.ndarray) -> np.ndarray:
    """Ring-scheme lap(u) at every active node, from u's extended values;
    reduces each scale group's raw arm values before subtracting u."""
    w = ext.take(grid.ring_index.T)
    top = bot = None
    for start, stop, scale in grid.ring_groups:
        group = w[start:stop]
        hi = group.max(axis=0)
        hi -= values
        lo = group.min(axis=0)
        lo -= values
        if scale != 1.0:
            hi *= scale
            lo *= scale
        if top is None:
            top, bot = hi, lo
        else:
            np.maximum(top, hi, out=top)
            np.minimum(bot, lo, out=bot)
    top += values
    bot += values
    top += bot
    top -= 2.0 * values
    top /= grid.rho**2
    return top


def _add_upwind_drift(out: np.ndarray, grid: Grid, b_values: np.ndarray, values: np.ndarray,
                      ext: np.ndarray) -> np.ndarray:
    """Adds the componentwise upwind b . Du to out in place and returns out."""
    for d in range(grid.dim):
        fwd = ext.take(grid.axis_plus[:, d])
        fwd -= values
        fwd *= np.maximum(b_values[:, d], 0.0)
        bwd = ext.take(grid.axis_minus[:, d])
        np.subtract(values, bwd, out=bwd)
        bwd *= np.minimum(b_values[:, d], 0.0)
        fwd += bwd
        fwd /= grid.h
        out += fwd
    return out


def frozen_matrices(grid: Grid, b_values: np.ndarray):
    """``matrix(arms, zero_order)`` on one (grid, b): the sparse A with
    A u = lap(u) + b . Du + zero_order * u when the ring's max and min are
    taken at the (2, N) arms (row 0 max, row 1 min), the Newton Jacobian of
    the residual.  Its rows address the extended vector like ``ring_index``, ``axis_plus``
    and ``axis_minus``, and the ghost closure maps them onto the nodes."""
    n = grid.n_active
    rows = np.arange(n)
    # the closure, (N + G, N): identity rows, then the ghost map
    closure = sp.vstack([sp.identity(n, format="csr"), grid.ghost_map], format="csr")
    coef = np.stack([np.maximum(b_values, 0.0), -np.minimum(b_values, 0.0)], axis=2).reshape(n, -1) / grid.h
    cols = np.stack([grid.axis_plus, grid.axis_minus], axis=2).reshape(n, -1)
    kept = coef > 0.0  # with b = 0 the drift block stores nothing
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(kept, axis=1))])
    drift = sp.csr_matrix((coef[kept], cols[kept], indptr), shape=(n, closure.shape[0]))
    drift_sum = coef.sum(axis=1)

    def matrix(arms: np.ndarray, zero_order: np.ndarray) -> sp.csc_matrix:
        arm_coef = grid.ring_scale[arms] * (1.0 / grid.rho**2)
        diag = zero_order - drift_sum - arm_coef[0] - arm_coef[1]
        data = np.vstack([arm_coef, diag]).ravel("F")
        index = np.vstack([grid.ring_index.T[arms, rows], rows]).ravel("F")
        ring = sp.csr_matrix((data, index, 3 * np.arange(n + 1)), shape=drift.shape)
        return ((ring + drift) @ closure).tocsc()  # the sum stores no zeros

    return matrix


def inf_laplacian_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    return _ring_laplacian(grid, values, grid.extended_values(values))


def drift_values(grid: Grid, b_values: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Componentwise upwind b . Du; exact on affine data away from ghosts."""
    return _add_upwind_drift(np.zeros_like(values), grid, b_values, values, grid.extended_values(values))


def residual_values(
    grid: Grid,
    b_values: np.ndarray,
    c_values: np.ndarray,
    g_values: np.ndarray,
    lam: float,
    values: np.ndarray,
) -> np.ndarray:
    """lap(u) + b . Du + (c + lam) u - g on raw (N,) arrays (hot path)."""
    ext = grid.extended_values(values)
    res = _ring_laplacian(grid, values, ext)
    if b_values.any():
        _add_upwind_drift(res, grid, b_values, values, ext)
    res += (c_values + lam) * values - g_values
    return res


def apply_operator(problem: SteadyProblem, u: ScalarField) -> ScalarField:
    """Residual field of the steady problem at u."""
    if u.grid is not problem.grid:
        raise ValueError("field and problem live on different grids")
    res = residual_values(
        problem.grid,
        problem.b.values,
        problem.c.values,
        problem.g.values,
        problem.lam,
        u.values,
    )
    return ScalarField(problem.grid, res)
