"""Explicit monotone time stepping for the Neumann evolution problem.

Forward Euler on the semidiscrete equation

    h_t = lap(h) + b . Dh + (c + lam) h - g,

with the ring scheme in space (g is zero for the plain evolution runs).
Under the CFL restriction

    dt * (ring row sum + sum_i |b_i|_inf / h + |c + lam|_inf) <= 1

the update is nondecreasing in every input nodal value, which gives discrete
comparison, sign preservation against the zero solution, and the weighted
decay estimate: with a positive weight v and rate lam_bar,

    max over nodes and recorded times of h(t, x) e^(lam_bar t) / v(x)
        <= max over nodes of max(h0, 0) / v.

``check_decay_bound`` reads the bound off the trace's own t = 0 ratio, so it
checks the weight and rate that ``run_evolution`` recorded the ratios with.

The ring row sum is at most 2 max_k(rho/|v_k|)/rho^2, the largest pair of
arm coefficients a max/min selection can take: 2/rho^2 for s = 1, 2, where
every arm is at least rho long, and slightly larger when the ring holds arms
shorter than rho (s >= 3).

``step_explicit``, ``run_evolution`` and ``evolve_until`` share one clock
and one step.  The clock ``_clock`` gives ceil(T/dt) steps of dt, at least
one, the last clipped to end exactly at T, with t a running sum of the steps.
The step ``_euler_step`` returns u + step * residual(u) for an (N,) field;
it builds the sum in place on the fresh array ``residual_values`` returns,
so it never writes to its input.  ``evolve_until`` marches its seeds one
after another, each as an (N,) field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeigError
from .operators import ScalarField, SteadyProblem, residual_values


class EvolutionError(InfeigError):
    pass


class CflViolation(EvolutionError):
    pass


class NonpositiveWeight(EvolutionError):
    pass


def cfl_bound(problem: SteadyProblem) -> float:
    """Largest monotonicity-preserving time step: 1 over the ring row sum
    bound plus the drift's and the zero order's sups."""
    grid = problem.grid
    ring = float(2.0 * grid.ring_scale.max() / grid.rho**2)
    # column by column: numpy's axis-0 max over the (N, dim) array took 20 times as long (N = 13085)
    drift = sum(float(np.max(np.abs(b_d))) for b_d in problem.b.values.T) / grid.h
    zero_order = float(np.max(np.abs(problem.c.values + problem.lam)))
    return 1.0 / (ring + drift + zero_order)


def _check_horizon(name: str, value: float) -> None:
    """A time horizon or output interval must be finite and positive; step
    counts are taken with int()."""
    if not (0 < value < np.inf):  # NaN fails too
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _checked_dt(problem: SteadyProblem, dt: float | None = None) -> tuple[float, float]:
    """(dt, CFL bound), dt 0.9 of the bound by default; raises CflViolation for dt <= 0 or above it."""
    bound = cfl_bound(problem)
    if dt is None:
        dt = 0.9 * bound
    if not dt > 0:  # NaN fails too
        raise CflViolation(f"dt must be positive, got {dt}")
    if dt > bound * (1.0 + 1e-12):
        raise CflViolation(f"dt = {dt} exceeds the CFL bound {bound}")
    return dt, bound


def _step_count(dt: float, T: float) -> int:
    return max(1, int(np.ceil(T / dt - 1e-12)))


def _clock(dt: float, T: float):
    """Yields (t, step, last) for each step over [0, T], t the time the step ends at."""
    n_steps = _step_count(dt, T)
    t = 0.0
    for k in range(1, n_steps + 1):
        step = min(dt, T - t)
        t += step
        yield t, step, k == n_steps


def _euler_step(u: np.ndarray, problem: SteadyProblem, step: float) -> np.ndarray:
    res = residual_values(problem.grid, problem.b.values, problem.c.values, problem.g.values, problem.lam, u)
    res *= step
    res += u  # the bits of u + step * res
    return res


def step_explicit(state: ScalarField, problem: SteadyProblem, dt: float) -> ScalarField:
    """One forward Euler step; raises CflViolation for dt <= 0 or above the CFL bound."""
    dt, _ = _checked_dt(problem, dt)
    return ScalarField(problem.grid, _euler_step(state.values, problem, dt))


@dataclass
class EvolutionTrace:
    times: np.ndarray
    sup_norm: np.ndarray
    weighted_ratio: np.ndarray | None  # None when no weight was supplied
    fitted_rate: float
    dt: float
    T: float
    cfl_margin: float                  # dt / cfl bound, <= 1
    final_state: ScalarField = field(repr=False, default=None)


def _fit_trailing_rate(times: np.ndarray, sup: np.ndarray) -> float:
    """Least-squares slope of log sup over the trailing half of the run."""
    n = len(times)
    start = n // 2
    t = times[start:]
    s = sup[start:]
    keep = s > 1e-12
    if np.sum(keep) < 2:
        return float("nan")
    t, s = t[keep], np.log(s[keep])
    A = np.column_stack([t, np.ones_like(t)])
    slope, _ = np.linalg.lstsq(A, s, rcond=None)[0]
    return float(slope)


def run_evolution(
    h0: ScalarField,
    problem: SteadyProblem,
    T: float,
    output_interval: float | None = None,
    dt: float | None = None,
    weight: ScalarField | None = None,
    rate: float | None = None,
) -> EvolutionTrace:
    """Advance h0 to time T, recording sup norms at the output interval.

    When ``weight`` (a positive field v) and ``rate`` are given, the weighted
    ratio max_x h(t, x) e^(rate t) / v(x) is recorded alongside, feeding
    ``check_decay_bound``.  Giving only one of them is a ValueError.
    """
    _check_horizon("T", T)
    if output_interval is not None:
        _check_horizon("output_interval", output_interval)
    dt, bound = _checked_dt(problem, dt)
    if output_interval is None:
        output_interval = T / 200.0
    if (weight is None) != (rate is None):
        raise ValueError("weight and rate go together: give both or neither")
    if weight is not None and float(np.min(weight.values)) <= 0.0:
        raise NonpositiveWeight("weight field must be strictly positive")

    # a stride at or above the step count records the last step only
    every = max(1, int(round(min(output_interval / dt, _step_count(dt, T)))))

    u = h0.values
    times = [0.0]
    sups = [float(np.max(np.abs(u)))]
    ratios = None
    if weight is not None:
        ratios = [float(np.max(u / weight.values))]

    for k, (t, step, last) in enumerate(_clock(dt, T), 1):
        u = _euler_step(u, problem, step)
        if k % every == 0 or last:
            times.append(t)
            sups.append(float(np.max(np.abs(u))))
            if ratios is not None:
                ratios.append(float(np.max(u * np.exp(rate * t) / weight.values)))

    times = np.array(times)
    sups = np.array(sups)
    return EvolutionTrace(
        times=times,
        sup_norm=sups,
        weighted_ratio=None if ratios is None else np.array(ratios),
        fitted_rate=_fit_trailing_rate(times, sups),
        dt=dt,
        T=T,
        cfl_margin=dt / bound,
        final_state=ScalarField(problem.grid, u),
    )


def evolve_until(
    seeds: list,
    problem: SteadyProblem,
    t_max: float,
    stop_below: float,
    stop_above: float,
) -> list:
    """March each seed alone until its sup |h| crosses a threshold; returns
    one (t, sup, outcome) per seed, with outcome in {"decayed", "blew-up",
    "timeout"}.  The sup is checked every 16 steps and at the last, which is
    clipped, so a timeout returns t == t_max."""
    _check_horizon("t_max", t_max)
    dt, _ = _checked_dt(problem)
    results = []
    for seed in seeds:
        u = seed.values
        for k, (t, step, last) in enumerate(_clock(dt, t_max), 1):
            u = _euler_step(u, problem, step)
            if k % 16 == 0 or last:
                sup = float(np.max(np.abs(u)))
                outcome = "decayed" if sup <= stop_below else "blew-up" if sup >= stop_above else "timeout"
                if outcome != "timeout":
                    break
        results.append((t, sup, outcome))
    return results


@dataclass
class DecayCheckResult:
    passed: bool
    slack: float        # max(0, max recorded ratio - initial bound)
    ratio_bound: float  # max over nodes of h0^+ / v


def check_decay_bound(trace: EvolutionTrace, tol: float = 1e-2) -> DecayCheckResult:
    """Verify the weighted decay estimate on a trace recorded with a weight
    v and a rate.

    The bound max(h0^+ / v) is the trace's t = 0 ratio max(h0 / v) clipped
    at 0, since ``run_evolution`` has checked v > 0.
    """
    if trace.weighted_ratio is None:
        raise ValueError("trace carries no weighted ratio; rerun with weight and rate")
    bound = max(float(trace.weighted_ratio[0]), 0.0)
    worst = float(np.max(trace.weighted_ratio))
    slack = max(0.0, worst - bound)
    return DecayCheckResult(passed=slack <= tol, slack=slack, ratio_bound=bound)
