"""Steady Neumann solvers.

* ``solve_coercive`` handles the uniformly coercive case max(c + lam) < 0.
  Freezing the ring's max/min arm selection makes the system linear, and
  every frozen matrix is diagonally dominant.  ``_CoerciveSystem.solve``,
  the one resolvent, runs policy iteration on the arm selection, which is
  semismooth Newton on F(u) = L_h(u) - rhs (Bokanowski-Maroso-Zidani 2009),
  globalized by a line search on the root mean square of F (Qi-Sun 1993).
  Each step solves the frozen system (``operators.frozen_matrices``) exactly
  (``splu``) for the Newton target u_N and moves to u + t (u_N - u) for the
  first t = 1, 1/2, 1/4, ... with rms|F| <= (1 - 1e-4 t) times its value at
  u (Armijo); the first step of a solve is taken in full.  The merit is the
  RMS and not the sup, which a few bad nodes set: the sup rejects full steps
  that improve almost every row, and its factorization count grows by up to
  a third when only the factor's last bits change.  The arms are one (2, N)
  array, row 0 the max player's and row 1 the min player's, chosen on the
  kernel's (K, N) arm block at each new iterate; one rule switches both
  players, an arm moving only where the best arm beats it by more than
  1e-14 in its player's direction, since nearly tied arms cycle otherwise.
  A damped step that moves no arm steps again toward the same u_N.  Once t
  falls below 1e-3 the solve takes u_N and, for the rest of that solve,
  switches the max arms only in a step where no min arm moved: Howard's
  algorithm nested inside Hoffman-Karp, which terminates.  The first solve
  starts from the solution on the grid with twice the spacing, solved the
  same way down to the coarsest grid that builds, or from the arms of a
  given field; ``geometry.interpolation_map`` restricts the coefficients and
  right-hand side to that grid and prolongs its solution back.
  Convergence is certified by the sup of the nonlinear residual.  Every
  ``splu`` runs with ``relax=1, panel_size=1``: the frozen matrices have
  about 3.2 nonzeros a row, and SuperLU's default relaxed supernodes and
  panels, sized for denser matrices, make each factorization 25-40% slower.

* The repeated resolvent solves, the inner solves of ``monotone_iteration``
  below and of ``eigen``'s inverse power iteration, go through the same
  system.  It carries the arm selection and factor of its last solve, so a
  solve whose right-hand side changed little starts from arms that are
  nearly right and reuses the factor while they are unchanged.

* ``monotone_iteration`` runs the inductive sequence from a subsolution
  u_1 of the lam-problem, 0 when g <= 0,

      lap(u_{n+1}) + b . Du_{n+1} + (c - |c|_inf - 1) u_{n+1}
          = g - (lam + |c|_inf + 1) u_n,

  whose boundedness/blowup dichotomy separates lam < lam_bar from
  lam >= lam_bar.  It first returns its start if that passes the
  certificate.  ``solve_general_rhs`` runs it twice for a general g: from 0
  for the solution w of the problem with -g^+, then from -w.  So w = 0 costs
  no solve when g <= 0, and for g >= 0, where L(-w) = g exactly (the scheme
  is odd), -w is the answer with no further step.  The sequence is the
  plain one; its only side channel is a frozen-policy solve of the
  lam-problem at the resolvent's arms after each step, the same
  ``operators.frozen_matrices`` map at zero order c + lam, accepted once its
  lam-residual passes the certificate and its sup stays below the blowup
  threshold.  Near the eigenvalue the iterates grow like 1/(lam_bar - lam)
  and the float noise floor of the absolute residual grows with them, so the
  certificate is scale-aware: residual <= max(tol, rel_tol * |u|_inf).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .errors import InfeigError
from .geometry import GeometryError, Grid, build_grid, interpolation_map
from .operators import (
    ScalarField,
    SteadyProblem,
    VectorField,
    frozen_matrices,
    residual_values,
    ring_arm_values,
)


class SolverError(InfeigError):
    pass


class NotCoercive(SolverError):
    pass


class NoConvergence(SolverError):
    pass


class Diverged(SolverError):
    def __init__(self, outer_step: int, sup_norm: float, flags=()):
        self.outer_step = outer_step
        self.sup_norm = sup_norm
        stop = ("inconclusive (max_outer used up)" if "inconclusive" in flags
                else "diverged (sup doubled ten steps running)" if "doubling" in flags
                else "diverged (sup reached the blowup threshold)")
        super().__init__(f"iteration {stop} at outer step {outer_step}, sup = {sup_norm:.3e}")


@dataclass
class SolverConfig:
    tol: float = 1e-8
    rel_tol: float = 1e-10
    max_sweeps: int = 400
    max_outer: int = 120
    blowup_threshold: float | None = None  # None: 1e6 * (1 + |g|_inf)

    def __post_init__(self):
        if not (0 < self.tol < np.inf and 0 <= self.rel_tol < np.inf):  # NaN fails too
            raise ValueError("tol must be positive and rel_tol nonnegative, both finite")
        if self.max_sweeps < 1 or self.max_outer < 1:
            raise ValueError("iteration limits must be >= 1")
        if self.blowup_threshold is not None and not self.blowup_threshold > 1:
            raise ValueError("blowup_threshold must exceed 1")


@dataclass
class IterationOutcome:
    """Result of the monotone iteration: the convergence/blowup dichotomy."""

    converged: bool
    u: ScalarField | None
    outer_steps: int
    sweeps: int  # factorizations of the pass: the resolvent's and the candidate's
    residual: float | None
    sup_norm: float
    flags: list


_SWITCH_GAP = 1e-14  # an arm switches only when it beats the current one by more; nearly tied arms cycle
_ARMIJO = 1e-4      # a step of length t must cut the residual RMS by the factor 1 - _ARMIJO * t
_MIN_STEP = 1e-3    # below this step length the resolvent falls back to nested policy iteration
_PLAYER = np.array([[1.0], [-1.0]])  # an arm's gain: upward for the max arms (row 0), downward for the min
_SUPERLU = dict(relax=1, panel_size=1)  # lean supernodes and panels for ~3.2 nonzeros a row


def _splu(matrix):
    """The sparse LU of a frozen matrix; ``spla.splu`` is looked up at each
    call, so a tracer or test that patches it sees every factorization."""
    return spla.splu(matrix, **_SUPERLU)


def _arms_at(grid: Grid, u: np.ndarray) -> tuple:
    """(arms, w): the (2, N) max and min arm at each node, chosen on the
    (K, N) arm block w; where they tie (everywhere at u = 0), the min arm is
    the max arm's antipode, so no frozen row counts one arm twice.

    argmax and argmin pick the same arm only where all K values are equal,
    and there argmax picks arm 0.  The first scale group reversed is its own
    negation, so -offset 0 is that group's last arm."""
    w = ring_arm_values(grid, u).T
    arms = np.stack([w.argmax(axis=0), w.argmin(axis=0)])
    arms[1, arms[0] == arms[1]] = grid.ring_groups[0][1] - 1
    return arms, w


class _CoerciveSystem:
    """lap(u) + b.Du + c0(x) u = rhs with c0 < 0, so every frozen matrix is diagonally
    dominant: a failed factorization is an error, not a fallback.  The system carries
    the arm selection and the ``splu`` factor of its last solve into the next one."""

    def __init__(self, grid: Grid, b_values: np.ndarray, c0_values: np.ndarray, cfg: SolverConfig):
        if np.max(c0_values) >= 0.0:
            raise NotCoercive(
                f"coercive solve needs max(c + lam) < 0, got {float(np.max(c0_values)):.3e}"
            )
        self.grid = grid
        self.b = b_values
        self.c0 = c0_values
        self.cfg = cfg
        self.n = grid.n_active
        self.matrix = frozen_matrices(grid, b_values)
        self._arms = None    # (2, N) max and min arms of the last solve
        self._factor = None  # splu of the frozen matrix at self._arms; None once an arm moves
        self.factorizations = 0  # splu calls of every solve, coarse grids included

    def residual_norms(self, u: np.ndarray, rhs: np.ndarray) -> tuple:
        """(sup, root mean square) of the residual at u: the certificate and the merit."""
        res = residual_values(self.grid, self.b, self.c0, rhs, 0.0, u)
        return float(np.max(np.abs(res))), float(np.sqrt(np.dot(res, res) / res.size))

    def target(self, rhs: np.ndarray) -> float:
        """Residual sup that certifies a solve, a fifth of the caller's certificate."""
        return max(0.2 * self.cfg.tol, 0.2 * self.cfg.rel_tol * max(1.0, float(np.max(np.abs(rhs)))))

    def _coarse_start(self, rhs: np.ndarray) -> np.ndarray:
        """The solution on the grid with twice the spacing, its factorizations added
        to this system's; zeros on the coarsest grid that builds.  ``interpolation_map``
        restricts the coefficients and rhs to that grid and prolongs its solution."""
        grid = self.grid
        try:
            coarse = build_grid(grid.domain, 2.0 * grid.h, grid.s)
        except GeometryError:
            return np.zeros(self.n)
        down = interpolation_map(grid, coarse)
        system = _CoerciveSystem(coarse, down @ self.b, down @ self.c0, self.cfg)
        coarse_u = system.solve(down @ rhs)
        self.factorizations += system.factorizations
        return interpolation_map(coarse, grid) @ coarse_u

    def switch(self, u: np.ndarray, nested: bool) -> bool:
        """Moves each player's arm to its best at u where that beats it by more
        than _SWITCH_GAP; in a nested step the max arms wait while a min arm
        moves.  True if any arm moved."""
        best, w = _arms_at(self.grid, u)
        nodes = np.arange(self.n)
        moved = _PLAYER * (w[best, nodes] - w[self._arms, nodes]) > _SWITCH_GAP
        if nested and moved[1].any():
            moved[0] = False
        self._arms[moved] = best[moved]
        return bool(moved.any())

    def solve(self, rhs: np.ndarray, initial: np.ndarray | None = None) -> np.ndarray:
        """Damped Newton (policy iteration) from the carried arm selection;
        returns the values, certified by the residual sup <= target.

        The first solve takes its arms from ``initial``, or from the coarse start
        when it is None.  Each step factors the frozen system (``_splu``, lean
        SuperLU settings) for the Newton target and takes the first step toward
        it, of length 1, 1/2, 1/4, ..., that cuts the residual's root mean square
        by the factor 1 - _ARMIJO * t (the first step of a solve in full), then
        switches both players' arms at the new iterate.  The RMS is the merit
        because the sup, set by a few nodes, rejects steps that improve almost
        every row; the sup stays the certificate.  A damped step that moves no
        arm keeps the factor and steps again toward the same target.  Below
        _MIN_STEP the solve takes the full step and, from then on, switches the
        max arms only in a step where no min arm moved: nested policy
        iteration, which terminates.  ``cfg.max_sweeps`` caps the
        factorizations of one solve on this grid; ``self.factorizations``
        counts every one.
        """
        cfg = self.cfg
        if self._arms is None:
            if initial is None:
                initial = self._coarse_start(rhs)
            self._arms = _arms_at(self.grid, initial)[0]
        target = self.target(rhs)
        fresh = 0
        u, r, m = None, np.inf, np.inf  # the accepted iterate, its residual sup and RMS
        newton = None        # the Newton target, the frozen solution at self._arms
        nested = False
        while True:
            if self._factor is None:
                if fresh == cfg.max_sweeps:
                    raise NoConvergence(
                        f"coercive solve exceeded max_sweeps={cfg.max_sweeps} factorizations "
                        f"(residual {r:.3e}, target {target:.3e})"
                    )
                try:
                    self._factor = _splu(self.matrix(self._arms, self.c0))
                except RuntimeError as e:
                    raise NoConvergence("splu factorization of the policy-frozen coercive matrix failed") from e
                fresh += 1
                self.factorizations += 1
            if newton is None:
                newton = self._factor.solve(rhs)
                r_newton, m_newton = self.residual_norms(newton, rhs)
            t, v, rv, mv = 1.0, newton, r_newton, m_newton
            if u is not None and not nested:  # Armijo backtracking on the residual RMS
                while mv > (1.0 - _ARMIJO * t) * m:
                    t *= 0.5
                    if t < _MIN_STEP:
                        nested, t, v, rv, mv = True, 1.0, newton, r_newton, m_newton
                        break
                    v = u + t * (newton - u)
                    rv, mv = self.residual_norms(v, rhs)
            u, r, m = v, rv, mv
            if r <= target:
                return u
            if self.switch(u, nested):
                self._factor = newton = None
            elif t == 1.0:
                floor = float(np.max(np.abs(u))) * np.finfo(float).eps / self.grid.rho**2
                raise NoConvergence(
                    f"policy iteration stopped with no arm to switch at residual {r:.3e} above target "
                    f"{target:.3e}; the rounding floor |u|_inf * eps / rho^2 is {floor:.3e}"
                )
            # a damped step that moved no arm steps on toward the same newton


def solve_coercive(problem: SteadyProblem, cfg: SolverConfig, initial: ScalarField | None = None) -> ScalarField:
    """Solve the steady problem when c + lam is uniformly negative.

    Policy iteration on the ring's arm selection (see the module docstring).
    Without ``initial`` it starts from the solution on the grid with twice the
    spacing, found the same way; with ``initial``, from that field's arms.
    ``cfg.max_sweeps`` caps the factorizations on each grid.

    The solution is unique; the output is independent of the start up to
    solver tolerance and bounded by |g|_inf / c0.  It is certified by the
    nonlinear residual; a failed factorization or an uncertified result is an
    error (NoConvergence), not a fallback.
    """
    system = _CoerciveSystem(problem.grid, problem.b.values, problem.c.values + problem.lam, cfg)
    values = system.solve(problem.g.values, None if initial is None else initial.values)
    return ScalarField(problem.grid, values)


def _certificate(residual_sup: float, sup: float, cfg: SolverConfig):
    if residual_sup <= cfg.tol:
        return "abs"
    if residual_sup <= cfg.rel_tol * max(1.0, sup):
        return "rel"
    return None


def monotone_iteration(
    grid: Grid,
    b: VectorField,
    c: ScalarField,
    lam: float,
    g: ScalarField,
    cfg: SolverConfig,
    start: np.ndarray | None = None,
) -> IterationOutcome:
    """Run the shifted-coefficient inductive sequence from u_1 = start, a
    subsolution of the lam-problem (a lam-residual below minus the
    certificate's tolerance is a ValueError naming the worst node), or from
    0, which requires g <= 0 nodewise.  The sequence rises from its start,
    so a candidate that dips well below it is wild and skipped.

    Converged means a field whose residual for the lam-problem passes the
    certificate (the start itself, at outer step 0, when it passes);
    Diverged means the sup norm crossed the blowup threshold, doubled for 10
    consecutive steps, or the step budget ran out (the last case is flagged
    ``inconclusive``).
    """
    if start is None:
        if np.max(g.values) > 0.0:
            raise ValueError("monotone_iteration requires g <= 0 nodewise")
        start = np.zeros(grid.n_active)
    g_sup = float(np.max(np.abs(g.values)))
    blowup = cfg.blowup_threshold if cfg.blowup_threshold is not None else 1e6 * (1.0 + g_sup)
    c_sup = float(np.max(np.abs(c.values)))
    gamma = lam + c_sup + 1.0
    system = _CoerciveSystem(grid, b.values, c.values - c_sup - 1.0, cfg)
    # Side-channel candidate: the lam-problem solved directly at the arms of
    # the resolvent's last solve.  Its residual is the policy mismatch alone,
    # so once the arms have settled it certifies in one shot.  g is fixed, so
    # at unchanged arms it is the candidate already rejected and is not
    # solved again.  Above lam_bar the frozen matrix flips sign and the
    # field's own arms disagree, so the residual gate rejects it; at lam_bar
    # the matrix is singular and the field huge, so the blowup gate does,
    # where the relative certificate alone would accept it.
    lam_diag = c.values + lam
    tried_arms = None

    def lam_residual(u):
        return residual_values(grid, b.values, c.values, g.values, lam, u)

    def certified(u, res, n, *tags):
        """The converged outcome at u, of lam-residual res, if that passes the certificate, else None."""
        sup = float(np.max(np.abs(u)))
        r = float(np.max(np.abs(res)))
        cert = _certificate(r, sup, cfg)
        if cert is None:
            return None
        flags = [*tags, "rel-certified"] if cert == "rel" else list(tags)
        return IterationOutcome(True, ScalarField(grid, u), n, system.factorizations, r, sup, flags)

    res = lam_residual(start)
    worst = int(np.argmin(res))  # a NaN is the first minimum, and fails the certificate below
    if _certificate(-float(res[worst]), float(np.max(np.abs(start))), cfg) is None:
        raise ValueError(f"start is not a subsolution: lam-residual {res[worst]:.3e} at node {worst}")
    out = certified(start, res, 0)
    if out is not None:
        return out
    u = start
    last_sup = float(np.max(np.abs(u)))
    doubling_streak = 0
    for n in range(1, cfg.max_outer + 1):
        u_next = system.solve(g.values - gamma * u, initial=u)
        out = certified(u_next, lam_residual(u_next), n)
        if out is not None:
            return out

        if tried_arms is None or not np.array_equal(system._arms, tried_arms):
            tried_arms = system._arms.copy()  # the system switches its arms in place
            system.factorizations += 1
            try:
                d = _splu(system.matrix(system._arms, lam_diag)).solve(g.values)
            except RuntimeError:  # a singular lam-matrix: no candidate at these arms
                d = None
            # max|d| < blowup is False for a non-finite candidate too
            if (d is not None and float(np.max(np.abs(d))) < blowup
                    and float(np.min(d - start)) >= -10.0 * cfg.tol):
                out = certified(d, lam_residual(d), n, "extrapolated")
                if out is not None:
                    return out

        sup = float(np.max(np.abs(u_next)))
        if sup >= blowup:
            flags = []
            break
        doubling_streak = doubling_streak + 1 if sup >= 2.0 * last_sup and last_sup > 0 else 0
        if doubling_streak == 10:
            flags = ["doubling"]
            break
        u, last_sup = u_next, sup
    else:
        flags = ["inconclusive"]
    return IterationOutcome(False, None, n, system.factorizations, None, sup, flags)


def solve_general_rhs(problem: SteadyProblem, cfg: SolverConfig) -> ScalarField:
    """Solve the lam-problem for an arbitrary right-hand side, lam < lam_bar.

    Coercive case goes straight to solve_coercive.  Otherwise two monotone
    iterations run: the barrier pass from 0 finds w >= 0 solving the
    lam-problem with right-hand side -g^+; L(-w) = g^+ >= g makes -w a
    subsolution, and the main pass rises from it toward the solution.  Each
    pass first checks its start: for g <= 0 the barrier pass returns w = 0
    without a solve, and for g >= 0 the start -w already solves the problem,
    so only one pass takes outer steps.  Both passes try only the
    frozen-policy candidate on the side.  Raises Diverged when a pass stops
    uncertified: at lam >= lam_bar, or when max_outer runs out.
    """
    grid, b, c, g, lam = problem.grid, problem.b, problem.c, problem.g, problem.lam
    if np.max(c.values + lam) < 0.0:
        return solve_coercive(problem, cfg)
    out = monotone_iteration(grid, b, c, lam, ScalarField(grid, -np.maximum(g.values, 0.0)), cfg)
    if out.converged:  # 0.0 - w, not -w: a zero barrier must not start the pass at -0.0
        out = monotone_iteration(grid, b, c, lam, g, cfg, 0.0 - out.u.values)
    if not out.converged:
        raise Diverged(out.outer_steps, out.sup_norm, out.flags)
    return out.u
