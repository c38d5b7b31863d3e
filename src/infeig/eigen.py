"""Principal eigenvalue estimation and the maximum-principle check.

Write L_h u = lap(u) + b . Du + c u for the discrete operator.  The discrete
principal eigenvalue lam_bar_h solves L_h phi + lam_bar_h phi = 0 with
phi > 0.  For any x > 0 the nodewise quotient q = -L_h(x)/x brackets it:

    min q <= lam_bar_h <= max q    (Collatz-Wielandt).

Under the CFL bound I + dt L_h is order-preserving and positively
1-homogeneous, and the bound is the Collatz-Wielandt formula for such maps
(Gaubert-Gunawardena 2004; Lemmens-Nussbaum 2012).  It holds for x itself,
whatever the accuracy of the solves that produced x.

``estimate_principal_eigenvalue`` closes the bracket by nonlinear inverse
power iteration: from x = 1 and sigma = |c|_inf + 1 it repeats
x <- y / max y, where y solves (sigma - L_h) y = x with one coercive system
whose arm selection and factor carry over between solves, and stops once
max q - min q <= bisect_tol.  It returns [min q, max q], their midpoint and
x as the eigenfunction, and raises ``BracketFailure`` if the bracket is still
open after ``max_outer`` solves, if a solve leaves it no narrower (bisect_tol
is then below the rounding floor of q), or if an iterate is not strictly
positive.  For
constant c, x = 1 closes the bracket with no solve.  Bisection on the
monotone iteration's dichotomy is kept in ``oracles`` as an independent
reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import evolution  # evolve_until looked up in evolution, where span tracers patch it
from .errors import InfeigError
from .geometry import Grid
from .operators import ScalarField, SteadyProblem, VectorField, residual_values
from .steady import SolverConfig, _CoerciveSystem, monotone_iteration  # noqa: F401  (span tracers patch it here)


class EigenError(InfeigError):
    pass


class BracketFailure(EigenError):
    pass


class MaxPrincipleInconclusive(EigenError):
    def __init__(self, t_max: float, seed_index: int):
        self.t_max = t_max
        self.seed_index = seed_index
        super().__init__(
            f"seed {seed_index} neither decayed nor blew up within t_max = {t_max}"
        )


@dataclass
class EigenEstimate:
    lambda_lo: float           # lower end of the bracket
    lambda_hi: float           # upper end of the bracket
    lambda_bar: float          # bracket midpoint
    eigenfunction: ScalarField
    eigen_residual: float      # sup residual of the midpoint problem at phi
    steps: int                 # resolvent solves (bisection steps for the oracle)
    factorizations: int = 0    # splu calls of the resolvent (of all probes for the oracle)
    history: list = field(default_factory=list)   # oracles.ProbeRecord, bisection only; not in to_dict
    flags: list = field(default_factory=list)
    certificate: str = "collatz-wielandt"         # the argument behind both ends

    def to_dict(self) -> dict:
        return {
            "lambda_lo": self.lambda_lo,
            "lambda_hi": self.lambda_hi,
            "lambda_bar": self.lambda_bar,
            "residual": self.eigen_residual,
            "steps": self.steps,
            "factorizations": self.factorizations,
            "flags": list(self.flags),
            "certificate": self.certificate,
        }


def _collatz_wielandt(grid: Grid, b: VectorField, c: ScalarField, x: np.ndarray) -> np.ndarray:
    """q = -L_h(x)/x node by node; min q <= lam_bar_h <= max q for x > 0."""
    zero = np.zeros(grid.n_active)
    return -residual_values(grid, b.values, c.values, zero, 0.0, x) / x


def estimate_principal_eigenvalue(
    grid: Grid,
    b: VectorField,
    c: ScalarField,
    cfg: SolverConfig,
    bisect_tol: float = 1e-4,
) -> EigenEstimate:
    """Inverse power iteration down to a Collatz-Wielandt bracket of width
    <= bisect_tol; raises BracketFailure rather than return an open one."""
    if not bisect_tol > 0:  # NaN fails too
        raise ValueError("bisect_tol must be positive")
    sigma = float(np.max(np.abs(c.values))) + 1.0
    system = _CoerciveSystem(grid, b.values, c.values - sigma, cfg)
    x = np.ones(grid.n_active)
    q = _collatz_wielandt(grid, b, c, x)
    width = float(np.max(q) - np.min(q))
    solves = 0
    while width > bisect_tol:
        if solves == cfg.max_outer:
            raise BracketFailure(
                f"Collatz-Wielandt bracket [{float(np.min(q))!r}, {float(np.max(q))!r}] still "
                f"wider than {bisect_tol!r} after max_outer = {cfg.max_outer} resolvent solves"
            )
        y = system.solve(-x, initial=x)  # (sigma - L_h) y = x; arms and factor carry over
        solves += 1
        if not float(np.min(y)) > 0.0:
            raise BracketFailure(
                f"resolvent solve {solves} returned a field that is not strictly positive "
                f"(min {float(np.min(y)):.3e})"
            )
        x = y / float(np.max(y))
        q = _collatz_wielandt(grid, b, c, x)
        width, last = float(np.max(q) - np.min(q)), width
        if width > bisect_tol and width >= last:
            raise BracketFailure(
                f"Collatz-Wielandt bracket [{float(np.min(q))!r}, {float(np.max(q))!r}] stopped "
                f"closing at width {width!r} after {solves} resolvent solves: bisect_tol = "
                f"{bisect_tol!r} is below the rounding floor of q"
            )

    lo, hi = float(np.min(q)), float(np.max(q))
    lam_bar = 0.5 * (lo + hi)
    return EigenEstimate(
        lambda_lo=lo,
        lambda_hi=hi,
        lambda_bar=lam_bar,
        eigenfunction=ScalarField(grid, x),
        eigen_residual=float(np.max(np.abs(q - lam_bar) * x)),
        steps=solves,
        factorizations=system.factorizations,
    )


@dataclass
class SeedVerdict:
    seed_index: int
    holds: bool            # True: decayed below the decay threshold
    t_reached: float
    sup_final: float


@dataclass
class MaxPrincipleReport:
    lam: float
    lambda_bar: float
    verdicts: list
    holds: bool            # every seed decayed

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "lambda_bar": self.lambda_bar,
            "holds": self.holds,
            "seeds": [
                {
                    "seed": v.seed_index,
                    "verdict": "MP-holds" if v.holds else "MP-fails",
                    "t": v.t_reached,
                    "sup": v.sup_final,
                }
                for v in self.verdicts
            ],
        }


def check_seeds(seeds: list, decay_threshold: float, blowup_threshold: float) -> None:
    """Raises ValueError on an empty list, which would hold vacuously, or naming a
    seed with no positive part or a sup |h| not inside the thresholds."""
    if not seeds:
        raise ValueError("at least one seed is needed")
    for i, seed in enumerate(seeds):
        sup = float(np.max(np.abs(seed.values)))
        if not float(np.max(seed.values)) > 0.0:
            raise ValueError(f"seed {i} has no positive part")
        if not decay_threshold < sup < blowup_threshold:
            raise ValueError(f"seed {i} has sup {sup:.3e}, not strictly between the decay threshold "
                             f"{decay_threshold:.3e} and the blowup threshold {blowup_threshold:.3e}")


def check_maximum_principle(
    grid: Grid,
    b: VectorField,
    c: ScalarField,
    lam: float,
    seeds: list,
    t_max: float = 500.0,
    decay_threshold: float = 1e-6,
    blowup_threshold: float = 1e6,
    *,
    lambda_bar: float,
) -> MaxPrincipleReport:
    """Evolve the seeds under h_t = lap(h) + b.Dh + (c + lam) h.

    A seed that decays below decay_threshold supports the maximum principle
    at this lam; a seed that grows past blowup_threshold refutes it.  Seeds
    must pass ``check_seeds``.  One ``evolve_until`` call marches them all
    as an (N, S) stack, one seed a column, from which each seed leaves at
    its verdict; every seed's t and sup are the bits of a march of its own.
    A seed that reaches neither threshold by t_max makes the check
    inconclusive: the ``MaxPrincipleInconclusive`` names the lowest such
    seed.
    ``lambda_bar``, estimated by the caller, is carried into the report for
    comparison with lam.
    """
    check_seeds(seeds, decay_threshold, blowup_threshold)

    problem = SteadyProblem(grid, b, c, ScalarField.constant(grid, 0.0), lam)
    results = evolution.evolve_until(seeds, problem, t_max, stop_below=decay_threshold, stop_above=blowup_threshold)
    verdicts = []
    for i, (t, sup, outcome) in enumerate(results):
        if outcome == "timeout":
            raise MaxPrincipleInconclusive(t_max, i)
        verdicts.append(SeedVerdict(i, outcome == "decayed", t, sup))
    return MaxPrincipleReport(
        lam=lam,
        lambda_bar=lambda_bar,
        verdicts=verdicts,
        holds=all(v.holds for v in verdicts),
    )
