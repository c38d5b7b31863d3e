"""Independent reference computations used to cross-check the solvers.  The
last two are the oracles that the fast paths are tested against.

* ``positive_bump_bound`` and ``sign_changing_coefficient``: the radial
  piecewise coefficient that is negative in an outer shell yet positive on an
  inner ball small enough that the principal eigenvalue stays positive.  The
  bound gives the admissible height of the positive bump.
* ``lipschitz_constant``: discrete Lipschitz diagnostic over stencil pairs.
* ``dense_residual_reference``: a from-scratch nodal re-implementation of the
  full operator used for differential testing against ``apply_operator``;
  it shares no code with the vectorized path.
* ``bisection_eigenvalue_reference``: the principal eigenvalue by bisection
  on the monotone iteration's convergence/blowup dichotomy, an argument
  independent of the power iteration in ``eigen``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .eigen import BracketFailure, EigenEstimate
from .errors import InfeigError
from .geometry import Disk, Grid
from .operators import ScalarField, SteadyProblem, VectorField, residual_values
from .steady import SolverConfig, monotone_iteration


class OracleError(InfeigError):
    pass


class InvalidParams(OracleError):
    pass


@dataclass(frozen=True)
class SignChangingParams:
    """Radial piecewise coefficient on a disk of radius ``outer_radius``:
    ``+bump_height`` on the inner ball of radius ``bump_radius``,
    ``-well_depth`` beyond it.  ``band_width`` is the ball's least clearance
    from the boundary: bump_radius < outer_radius - band_width.
    ``rate`` is the exponential rate of the supersolution construction behind
    ``positive_bump_bound``."""

    outer_radius: float
    bump_radius: float
    band_width: float
    well_depth: float
    bump_height: float
    rate: float

    def __post_init__(self):
        if not (
            self.outer_radius > 0
            and self.band_width > 0
            and 0 < self.bump_radius < self.outer_radius - self.band_width
        ):
            raise InvalidParams("need 0 < bump_radius < outer_radius - band_width")
        if self.well_depth <= 0 or self.bump_height <= 0 or self.rate <= 0:
            raise InvalidParams("well_depth, bump_height and rate must be positive")


def positive_bump_bound(
    outer_radius: float, bump_radius: float, well_depth: float, rate: float
) -> float:
    """Admissible ceiling for the positive bump height.

    With k = rate, rho = bump_radius, R = outer_radius, b1 = well_depth:

        k^2 e^(-k rho) / (k (R - rho)/4 + 2 k / (b1 (R - rho)) + 1 - e^(-k rho))

    Grows without bound as rho -> 0 with k = 1/rho; vanishes as rho -> R or
    as b1 -> 0.
    """
    k, rho, R, b1 = rate, bump_radius, outer_radius, well_depth
    if not (0 < rho < R and k > 0 and b1 > 0):
        raise InvalidParams("need 0 < bump_radius < outer_radius and positive rate/depth")
    num = k**2 * math.exp(-k * rho)
    den = k * (R - rho) / 4.0 + 2.0 * k / (b1 * (R - rho)) + 1.0 - math.exp(-k * rho)
    return num / den


def sign_changing_coefficient(params: SignChangingParams, grid: Grid) -> ScalarField:
    """Nodal field for the piecewise radial coefficient on a disk grid."""
    if not isinstance(grid.domain, Disk):
        raise InvalidParams("the sign-changing coefficient lives on a disk grid")
    if abs(grid.domain.radius - params.outer_radius) > 1e-12:
        raise InvalidParams("grid disk radius does not match params.outer_radius")
    r = grid.node_variables[2]
    values = np.where(r <= params.bump_radius, params.bump_height, -params.well_depth)
    return ScalarField(grid, values)


def lipschitz_constant(u: ScalarField, grid: Grid) -> float:
    """Max of |u(x) - u(y)| / |x - y| over active stencil-neighbor pairs,
    read on the (K, N) arm block with the ghost arms masked out."""
    nb = grid.ring_index.T
    held = nb < grid.n_active
    d = np.abs(grid.extended_values(u.values)[nb] - u.values) / grid.ring_lengths[:, None]
    return float(d[held].max(initial=0.0))


def dense_residual_reference(problem: SteadyProblem, u: ScalarField) -> ScalarField:
    """Straight-line nodal evaluation of lap(u) + b.Du + (c+lam)u - g.

    Re-derives ring membership, arm rescaling, ghost reflection and bilinear
    closure from the grid geometry with plain Python loops; used only for
    differential testing on small grids.
    """
    grid = problem.grid
    domain = grid.domain
    h, s, dim = grid.h, grid.s, grid.dim
    rho = s * h
    n = grid.n_active

    lattice = {}
    for i in range(n):
        key = tuple(int(round(grid.nodes[i, d] / h)) for d in range(dim))
        lattice[key] = i

    def ghost_value(key) -> float:
        point = np.array(key, dtype=float) * h
        m = domain.reflect(point)
        base = [math.floor(m[d] / h) for d in range(dim)]
        frac = [m[d] / h - base[d] for d in range(dim)]
        corners = [(0,), (1,)] if dim == 1 else [(0, 0), (1, 0), (0, 1), (1, 1)]
        idxs, wts = [], []
        for corner in corners:
            w = 1.0
            for d in range(dim):
                w *= frac[d] if corner[d] else 1.0 - frac[d]
            if w <= 0.0:
                continue
            j = lattice.get(tuple(base[d] + corner[d] for d in range(dim)))
            if j is not None:
                idxs.append(j)
                wts.append(w)
        total = sum(wts)
        if total <= 0.0:
            j = int(np.argmin(np.linalg.norm(grid.nodes - m, axis=1)))
            return float(u.values[j])
        return sum(w * u.values[j] for j, w in zip(idxs, wts)) / total

    def value_at(key) -> float:
        j = lattice.get(key)
        if j is not None:
            return float(u.values[j])
        return ghost_value(key)

    lim = s + 1
    if dim == 1:
        offsets = [(v,) for v in range(-lim, lim + 1) if v != 0]
    else:
        offsets = [
            (a, bb)
            for a in range(-lim, lim + 1)
            for bb in range(-lim, lim + 1)
            if (a, bb) != (0, 0)
        ]
    ring = [v for v in offsets if abs(math.hypot(*v) - s) <= 0.5 + 1e-12]

    out = np.zeros(n)
    for i in range(n):
        key = tuple(int(round(grid.nodes[i, d] / h)) for d in range(dim))
        ui = float(u.values[i])
        arms = []
        for v in ring:
            t = math.hypot(*v) * h
            uv = value_at(tuple(k + dv for k, dv in zip(key, v)))
            arms.append(ui + (uv - ui) * rho / t)
        lap = (max(arms) + min(arms) - 2.0 * ui) / rho**2

        drift = 0.0
        for d in range(dim):
            bi = float(problem.b.values[i, d])
            if bi > 0:
                e = tuple(k + (1 if dd == d else 0) for dd, k in enumerate(key))
                drift += bi * (value_at(e) - ui) / h
            elif bi < 0:
                e = tuple(k - (1 if dd == d else 0) for dd, k in enumerate(key))
                drift += bi * (ui - value_at(e)) / h

        out[i] = lap + drift + (problem.c.values[i] + problem.lam) * ui - problem.g.values[i]
    return ScalarField(grid, out)


@dataclass
class ProbeRecord:
    lam: float
    converged: bool
    flags: list = field(default_factory=list)


def bisection_eigenvalue_reference(
    grid: Grid,
    b: VectorField,
    c: ScalarField,
    cfg: SolverConfig,
    bisect_tol: float = 1e-4,
) -> EigenEstimate:
    """Bisect the monotone iteration's convergence/blowup dichotomy with
    g = -1 down to a bracket of width <= bisect_tol.

    A probe that converges puts lam below lam_bar_h, one that blows up puts
    it at or above.  The initial bracket [-|c|_inf - 1, |c|_inf + 1] always
    classifies correctly: the constant 1 is a positive supersolution at the
    lower end, and no positive supersolution exists above |c|_inf.  Probes
    that exhaust the step budget are counted as diverged and flagged
    ``inconclusive``; such a probe can misplace lambda_hi, so this is a
    reference for the power iteration, not a certificate.  The eigenfunction
    is the normalized converged probe solution at the lower end.
    """
    if not bisect_tol > 0:  # NaN fails too
        raise ValueError("bisect_tol must be positive")
    g = ScalarField.constant(grid, -1.0)
    c_sup = float(np.max(np.abs(c.values)))
    lo, hi = -c_sup - 1.0, c_sup + 1.0

    history: list = []
    flags: list = []
    factorizations = 0
    u_lo = None  # field of the latest converged probe, always the lower end's

    def probe(lam: float) -> bool:
        nonlocal factorizations, u_lo
        out = monotone_iteration(grid, b, c, lam, g, cfg)
        factorizations += out.sweeps
        history.append(ProbeRecord(lam, out.converged, list(out.flags)))
        if "inconclusive" in out.flags:
            flags.append(f"inconclusive-probe at {lam!r}")
        if out.converged:
            u_lo = out.u
        return out.converged

    if not probe(lo):
        raise BracketFailure(f"lower bracket endpoint {lo} did not converge")
    if probe(hi):
        raise BracketFailure(f"upper bracket endpoint {hi} converged")

    steps = 0
    while hi - lo > bisect_tol:
        mid = 0.5 * (lo + hi)
        if probe(mid):
            lo = mid
        else:
            hi = mid
        steps += 1

    phi_values = u_lo.values / float(np.max(np.abs(u_lo.values)))
    phi = ScalarField(grid, phi_values)
    if float(np.min(phi_values)) <= 0.0:
        flags.append("eigenfunction-not-strictly-positive")

    lam_bar = 0.5 * (lo + hi)
    zero = np.zeros(grid.n_active)
    eigen_residual = float(
        np.max(np.abs(residual_values(grid, b.values, c.values, zero, 0.0, phi_values)
                      + lam_bar * phi_values))
    )
    return EigenEstimate(
        lambda_lo=lo,
        lambda_hi=hi,
        lambda_bar=lam_bar,
        eigenfunction=phi,
        eigen_residual=eigen_residual,
        steps=steps,
        factorizations=factorizations,
        history=history,
        flags=flags,
        certificate="bisection",
    )
