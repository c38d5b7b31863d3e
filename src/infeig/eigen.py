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

``check_maximum_principle`` given the estimate decides a seed where it can
from the bracket [min q, max q] that the estimate's x gives for the call's
own b and c.  Under the CFL bound the explicit step S(u) = u + dt (L_h + lam) u
is monotone, odd and positively 1-homogeneous, so lam_lo x <= -L_h x <= lam_hi x
gives, at every step n,

    sup|u_n| <= max(|u_0|/x) (1 - dt (lam_lo - lam))^n,
    max u_n  >= min(u_0/x) (1 + dt (lam - lam_hi))^n   if min(u_0/x) > 0.

For lam < lam_lo, x is a strict supersolution and the first bound decays;
for lam > lam_hi, x is a strict subsolution and the second grows.  A seed
whose bound crosses its threshold within t_max takes that verdict
(certificate "supersolution" or "subsolution"); the rest are marched
("march").  Like the bracket, these are statements about lam_bar_h, the
eigenvalue of the discrete operator, not about the continuum lam_bar.
"""

from __future__ import annotations

import math
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
    certificate: str = "march"   # or "supersolution" / "subsolution": the eigen bound decided it


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
                    "certificate": v.certificate,
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


def _first_crossing(log_start: float, log_rate: float, threshold: float, n_max: float):
    """(n, bound) for the least n >= 1 at which bound = exp(log_start + n log_rate)
    reaches threshold, downward for log_rate < 0 and upward for log_rate > 0;
    None when that n exceeds n_max."""
    if log_rate == 0.0:  # a gap below the rounding of 1 + rate: the bound never moves
        return None
    steps = (math.log(threshold) - log_start) / log_rate
    if not steps <= n_max + 1:
        return None

    def reached(n):
        bound = math.exp(log_start + n * log_rate)
        return bound <= threshold if log_rate < 0 else bound >= threshold

    n = max(1, math.ceil(steps))
    while n > 1 and reached(n - 1):
        n -= 1
    while not reached(n):
        n += 1
    return (n, math.exp(log_start + n * log_rate)) if n <= n_max else None


def _bound_verdict(
    i: int, seed: np.ndarray, x: np.ndarray, lam_lo: float, lam_hi: float, lam: float, dt: float,
    t_max: float, decay_threshold: float, blowup_threshold: float,
) -> SeedVerdict | None:
    """The verdict that the bounds of the module docstring, with lam_lo x <=
    -L_h x <= lam_hi x, give seed i within t_max, or None."""
    if lam < lam_lo and decay_threshold > 0.0:  # the bound stays positive
        start, rate = float(np.max(np.abs(seed) / x)), -dt * (lam_lo - lam)
        threshold, holds, certificate = decay_threshold, True, "supersolution"
    elif lam > lam_hi and float(np.min(seed / x)) > 0.0:
        start, rate = float(np.min(seed / x)), dt * (lam - lam_hi)
        threshold, holds, certificate = blowup_threshold, False, "subsolution"
    else:
        return None
    # n steps of dt end inside the horizon when n <= t_max / dt
    hit = _first_crossing(math.log(start), math.log1p(rate), threshold, t_max / dt)
    return None if hit is None else SeedVerdict(i, holds, hit[0] * dt, hit[1], certificate)


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
    estimate: EigenEstimate | None = None,
) -> MaxPrincipleReport:
    """Evolve the seeds under h_t = lap(h) + b.Dh + (c + lam) h.

    A seed that decays below decay_threshold supports the maximum principle
    at this lam; a seed that grows past blowup_threshold refutes it.  Seeds
    must pass ``check_seeds``.

    With ``estimate``, whose eigenfunction x must be strictly positive, each
    seed is first tried against the bounds of the module docstring at the
    dt ``evolve_until`` takes.  lam_lo and lam_hi are the min and max of
    -L_h x / x for this call's (b, c), not the estimate's stored ends, so an
    estimate made for other coefficients gives weaker bounds, never false
    ones.  A seed whose bound crosses its threshold after n steps, with
    n dt <= t_max, takes that verdict at t = n dt, with the bound as its
    sup: MP-holds for lam < lam_lo (certificate "supersolution"), MP-fails
    for lam > lam_hi (certificate "subsolution").

    The other seeds, all of them without an estimate, are marched: one
    ``evolve_until`` call marches each alone as an (N,) field to its verdict
    (certificate "march").  A marched seed that reaches neither threshold
    by t_max makes the check inconclusive: the ``MaxPrincipleInconclusive``
    names the lowest such seed by its index in ``seeds``.
    ``lambda_bar``, estimated by the caller, is carried into the report for
    comparison with lam.
    """
    check_seeds(seeds, decay_threshold, blowup_threshold)

    problem = SteadyProblem(grid, b, c, ScalarField.constant(grid, 0.0), lam)
    verdicts = [None] * len(seeds)
    if estimate is not None:
        if estimate.eigenfunction.grid is not grid:
            raise ValueError("the estimate's eigenfunction lives on another grid")
        evolution._check_horizon("t_max", t_max)  # as the march would, should no seed be marched
        dt, _ = evolution._checked_dt(problem)
        x = estimate.eigenfunction.values
        if not float(np.min(x)) > 0.0:
            raise ValueError("the estimate's eigenfunction is not strictly positive")
        q = _collatz_wielandt(grid, b, c, x)
        verdicts = [
            _bound_verdict(i, seed.values, x, float(np.min(q)), float(np.max(q)), lam, dt, t_max,
                           decay_threshold, blowup_threshold)
            for i, seed in enumerate(seeds)
        ]
    marched = [i for i, v in enumerate(verdicts) if v is None]
    if marched:
        results = evolution.evolve_until([seeds[i] for i in marched], problem, t_max,
                                         stop_below=decay_threshold, stop_above=blowup_threshold)
        for i, (t, sup, outcome) in zip(marched, results):
            if outcome == "timeout":
                raise MaxPrincipleInconclusive(t_max, i)
            verdicts[i] = SeedVerdict(i, outcome == "decayed", t, sup)
    return MaxPrincipleReport(
        lam=lam,
        lambda_bar=lambda_bar,
        verdicts=verdicts,
        holds=all(v.holds for v in verdicts),
    )
