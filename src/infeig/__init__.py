"""Monotone finite-difference machinery for the normalized infinity-Laplacian
with drift and zero-order terms under homogeneous Neumann boundary conditions:
steady solvers, the principal-eigenvalue estimator, and the evolution stepper
with its decay check."""

from .errors import InfeigError
from .geometry import Annulus, Disk, Grid, Interval, Rectangle, build_grid
from .operators import (
    ScalarField,
    SteadyProblem,
    VectorField,
    apply_operator,
    gradient_projector,
)
from .steady import (
    IterationOutcome,
    SolverConfig,
    monotone_iteration,
    solve_coercive,
    solve_general_rhs,
)
from .eigen import (
    EigenEstimate,
    check_maximum_principle,
    estimate_principal_eigenvalue,
)
from .evolution import EvolutionTrace, check_decay_bound, cfl_bound, run_evolution, step_explicit
from .oracles import (
    SignChangingParams,
    dense_residual_reference,
    lipschitz_constant,
    positive_bump_bound,
    sign_changing_coefficient,
)

__all__ = [
    "InfeigError",
    "Interval", "Disk", "Annulus", "Rectangle", "Grid",
    "build_grid",
    "ScalarField", "VectorField", "SteadyProblem",
    "gradient_projector", "apply_operator",
    "SolverConfig", "IterationOutcome",
    "solve_coercive", "monotone_iteration", "solve_general_rhs",
    "EigenEstimate", "estimate_principal_eigenvalue", "check_maximum_principle",
    "EvolutionTrace", "step_explicit", "run_evolution", "check_decay_bound", "cfl_bound",
    "positive_bump_bound", "SignChangingParams",
    "sign_changing_coefficient", "lipschitz_constant", "dense_residual_reference",
]

__version__ = "0.1.0"
