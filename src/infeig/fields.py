"""Nodal scalar and vector fields tied to a grid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ScalarField:
    grid: "Grid"  # noqa: F821 - Grid is not imported; only operators imports this module
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
    grid: "Grid"  # noqa: F821
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
