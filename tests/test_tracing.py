"""The benchmark's span tracer still finds every name it patches.

``perfbench/tracing.py`` replaces functions by name in each module that calls
them; a refactor that renames, moves or stops importing one of them would
break ``perfbench/run.py --trace 1``.  These tests enter and leave the tracer
and check that its spans still see the work the benchmark counts.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from infeig import eigen, evolution, steady
from infeig.operators import ScalarField, SteadyProblem, VectorField

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing


def test_install_and_restore(tracing):
    before = {}
    for name, (modules, _) in tracing.TRACED.items():
        attr = name.split(".", 1)[1]
        for module in modules:
            assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"
            before[module, attr] = getattr(module, attr)
    for name, (owner, attr) in tracing.TRACED_METHODS.items():
        assert callable(getattr(owner, attr, None)), name
    spla = steady.spla
    with tracing.Tracer().installed():
        for (module, attr), fn in before.items():
            assert getattr(module, attr).__wrapped__ is fn
        assert steady.spla.splu.__wrapped__ is spla.splu
    assert steady.spla is spla
    for (module, attr), fn in before.items():
        assert getattr(module, attr) is fn


def _counts(spans, parent_name):
    parents = {i for i, s in enumerate(spans) if s[0] == parent_name}
    return sum(1 for s in spans if s[0] == "operators.residual_values" and s[1] in parents)


def test_spans_see_steps_and_solves(tracing, disk8):
    c = ScalarField.constant(disk8, -1.0)
    b = VectorField.constant(disk8, (0.3, 0.1))
    zero = ScalarField.constant(disk8, 0.0)
    prob = SteadyProblem(disk8, b, c, zero, 0.0)
    h0 = ScalarField(disk8, np.exp(-4.0 * np.sum(disk8.nodes**2, axis=1)))
    tracer = tracing.Tracer()
    with tracer.installed():
        trace = evolution.run_evolution(h0, prob, 0.05)
        evolution.evolve_until([h0, ScalarField(disk8, -h0.values)], prob, 0.05, stop_below=0.0,
                               stop_above=np.inf)
        out = steady.monotone_iteration(disk8, b, c, 0.5, ScalarField.constant(disk8, -1.0),
                                        steady.SolverConfig())
    names = {s[0] for s in tracer.spans}
    assert {"steady.monotone_iteration", "steady.splu", "operators.ring_arm_values"} <= names
    # a time step of one state is a residual evaluation whose parent span is
    # the evolution loop: both seeds time out, so evolve_until takes 2 x steps
    steps = int(np.ceil(trace.T / trace.dt - 1e-12))
    assert _counts(tracer.spans, "evolution.run_evolution") == steps
    assert _counts(tracer.spans, "evolution.evolve_until") == 2 * steps
    assert out.converged
    note = next(s[4] for s in tracer.spans if s[0] == "steady.monotone_iteration")
    assert note[0] == out.outer_steps


def test_spans_see_eigen_and_general_solve(tracing, disk8):
    # --trace 1 notes the eigen estimate by its probe history, which the
    # inverse power iteration leaves empty
    r2 = np.sum(disk8.nodes**2, axis=1)
    b = VectorField.zero(disk8)
    c = ScalarField(disk8, -r2)  # c <= 0 and c(0) = 0: lam = 0 is below lam_bar, not coercive
    g = ScalarField(disk8, np.sin(3.0 * disk8.nodes[:, 0]))
    tracer = tracing.Tracer()
    with tracer.installed():
        est = eigen.estimate_principal_eigenvalue(disk8, b, c, steady.SolverConfig())
        u = steady.solve_general_rhs(SteadyProblem(disk8, b, c, g, 0.0), steady.SolverConfig())
    spans = {s[0]: s for s in tracer.spans}
    assert {"eigen.estimate_principal_eigenvalue", "steady.solve_general_rhs",
            "steady.monotone_iteration", "steady.splu"} <= set(spans)
    assert est.steps > 0 and u.sup_norm > 0
    assert spans["eigen.estimate_principal_eigenvalue"][4] == (0, 0)
