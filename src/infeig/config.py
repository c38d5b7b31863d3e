"""Flat key=value run configuration.

One config file drives one CLI run.  Keys use dotted section names
(``domain.type = disk``, ``coeff.c = -3``); ``#`` starts a comment; later
assignments win, and ``--set key=value`` overrides from the command line are
applied on top.  Coefficient values are expression strings evaluated on the
grid nodes with variables x, y and r (distance to the domain center).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr
from .errors import InfeigError
from .geometry import Annulus, Disk, Domain, Grid, Interval, Rectangle, build_grid
from .operators import ScalarField, VectorField
from .steady import SolverConfig


class ConfigError(InfeigError):
    pass


_DEFAULTS = {
    "domain.type": "interval",
    "domain.a": "0",
    "domain.b": "1",
    "domain.center": "0,0",
    "domain.radius": "1",
    "domain.inner_radius": "0.25",
    "domain.lo": "0,0",
    "domain.hi": "1,1",
    "grid.h": "0.0625",
    "grid.s": "1",
    "coeff.bx": "0",
    "coeff.by": "0",
    "coeff.c": "0",
    "coeff.g": "0",
    "coeff.h0": "0",
    "lambda": "0",
    "solver.tol": "1e-8",
    "solver.rel_tol": "1e-10",
    "solver.max_sweeps": "400",
    "solver.max_outer": "120",
    "solver.blowup": "",
    "eigen.bisect_tol": "1e-4",
    "evolve.T": "5",
    "evolve.output_interval": "",
    "mpcheck.lambda": "",
    "mpcheck.seeds": "",
    "mpcheck.t_max": "500",
    "mpcheck.blowup": "1e6",
    "mpcheck.decay_threshold": "1e-6",
    "output.dir": ".",
}


def _assign(values: dict, item: str, where: str) -> None:
    """Set one ``key = value`` item, ``#`` starting a comment, so a blank or
    comment-only item sets nothing; ``where`` ("at byte 12", "in --set")
    places an error."""
    item = item.split("#", 1)[0].strip()
    if not item:
        return
    key, eq, val = item.partition("=")
    key = key.strip()
    if not eq:
        raise ConfigError(f"expected key=value {where}: {item!r}")
    if key not in _DEFAULTS:
        raise ConfigError(f"unknown config key {key!r} {where}")
    values[key] = val.strip()


def parse_config_text(text: str, overrides: list | None = None) -> dict:
    """Parse config text into a raw key -> string map (defaults filled in);
    error offsets count the UTF-8 bytes of ``text``."""
    values = dict(_DEFAULTS)
    offset = 0
    for line in text.splitlines(keepends=True):
        _assign(values, line, f"at byte {offset}")
        offset += len(line.encode())
    for item in overrides or []:
        _assign(values, item, "in --set")
    return values


def _number(values: dict, key: str) -> float:
    try:
        v = float(values[key])
    except ValueError:
        v = np.nan
    if not np.isfinite(v):
        raise ConfigError(f"config key {key} is not a finite number: {values[key]!r}")
    return v


def _integer(values: dict, key: str) -> int:
    try:
        return int(values[key])
    except ValueError:
        raise ConfigError(f"config key {key} is not an integer: {values[key]!r}") from None


def _point(values: dict, key: str) -> tuple:
    """The 2D point "x,y" of a domain key; the interval's ends are the
    numbers ``domain.a`` and ``domain.b``."""
    try:
        p = tuple(float(v) for v in values[key].split(","))
    except ValueError:
        p = ()
    if len(p) != 2:
        raise ConfigError(f"config key {key} is not a 2D point: {values[key]!r}")
    return p


def _domain(values: dict) -> Domain:
    kind = values["domain.type"].lower()
    if kind == "interval":
        return Interval(_number(values, "domain.a"), _number(values, "domain.b"))
    if kind == "disk":
        return Disk(_point(values, "domain.center"), _number(values, "domain.radius"))
    if kind == "annulus":
        return Annulus(
            _point(values, "domain.center"),
            _number(values, "domain.inner_radius"),
            _number(values, "domain.radius"),
        )
    if kind == "rectangle":
        return Rectangle(_point(values, "domain.lo"), _point(values, "domain.hi"))
    raise ConfigError(f"unknown domain.type {kind!r}")


@dataclass
class RunConfig:
    """Validated run configuration with parsed coefficient expressions."""

    domain: Domain
    h: float
    s: int
    bx: expr.ExprAst
    by: expr.ExprAst
    c: expr.ExprAst
    g: expr.ExprAst
    h0: expr.ExprAst
    lam: float
    solver: SolverConfig
    bisect_tol: float
    evolve_T: float
    output_interval: float | None
    mp_lambda: float  # mpcheck.lambda, or lambda when that is empty
    mp_seeds: list
    mp_t_max: float
    mp_blowup: float
    mp_decay_threshold: float
    out_dir: str
    raw: dict = field(repr=False)

    def build_grid(self) -> Grid:
        return build_grid(self.domain, self.h, self.s)

    def _evaluate(self, grid: Grid, ast: expr.ExprAst) -> np.ndarray:
        """``ast`` on the grid nodes; an error in one of this config's own
        expressions, found by identity, is a ConfigError led by its key."""
        try:
            return expr.evaluate_on_points(ast, *grid.node_variables)
        except expr.ExprError as e:
            keys = {"coeff.bx": self.bx, "coeff.by": self.by, "coeff.c": self.c, "coeff.g": self.g,
                    "coeff.h0": self.h0}
            keys.update((f"mpcheck.seeds: seed {i}", seed) for i, seed in enumerate(self.mp_seeds))
            key = next((key for key, parsed in keys.items() if parsed is ast), None)
            if key is None:
                raise
            raise ConfigError(f"{key}: {e}") from None

    def scalar_field(self, grid: Grid, ast: expr.ExprAst) -> ScalarField:
        return ScalarField(grid, self._evaluate(grid, ast))

    def drift_field(self, grid: Grid) -> VectorField:
        cols = [self._evaluate(grid, self.bx)]
        if grid.dim == 2:
            cols.append(self._evaluate(grid, self.by))
        return VectorField(grid, np.column_stack(cols))

    def seed_fields(self, grid: Grid) -> list:
        return [self.scalar_field(grid, ast) for ast in self.mp_seeds]


def _positive(values: dict, key: str) -> float:
    v = _number(values, key)
    if not v > 0.0:
        raise ConfigError(f"config key {key} must be positive: {values[key]!r}")
    return v


def _expression(key: str, source: str) -> expr.ExprAst:
    """The AST of ``source``; a parse error is a ConfigError led by ``key``."""
    try:
        return expr.parse(source)
    except expr.ExprError as e:
        raise ConfigError(f"{key}: {e}") from None


def load_config(values: dict) -> RunConfig:
    """Validate a raw key map into a RunConfig; expressions are parsed here
    so syntax errors surface with their key and byte offset."""
    try:
        solver = SolverConfig(
            tol=_number(values, "solver.tol"),
            rel_tol=_number(values, "solver.rel_tol"),
            max_sweeps=_integer(values, "solver.max_sweeps"),
            max_outer=_integer(values, "solver.max_outer"),
            blowup_threshold=_number(values, "solver.blowup") if values["solver.blowup"] else None,
        )
    except ValueError as e:
        raise ConfigError(f"solver: {e}") from None
    mp_decay_threshold = _positive(values, "mpcheck.decay_threshold")
    mp_blowup = _positive(values, "mpcheck.blowup")
    if not mp_blowup > mp_decay_threshold:
        raise ConfigError(f"mpcheck.blowup {mp_blowup!r} must exceed mpcheck.decay_threshold")
    texts = [s.strip() for s in values["mpcheck.seeds"].split(";") if s.strip()]
    seeds = [_expression(f"mpcheck.seeds: seed {i}", s) for i, s in enumerate(texts)]
    return RunConfig(
        domain=_domain(values),
        h=_number(values, "grid.h"),
        s=_integer(values, "grid.s"),
        bx=_expression("coeff.bx", values["coeff.bx"]),
        by=_expression("coeff.by", values["coeff.by"]),
        c=_expression("coeff.c", values["coeff.c"]),
        g=_expression("coeff.g", values["coeff.g"]),
        h0=_expression("coeff.h0", values["coeff.h0"]),
        lam=_number(values, "lambda"),
        solver=solver,
        bisect_tol=_positive(values, "eigen.bisect_tol"),
        evolve_T=_positive(values, "evolve.T"),
        output_interval=(
            _positive(values, "evolve.output_interval") if values["evolve.output_interval"] else None
        ),
        mp_lambda=_number(values, "mpcheck.lambda" if values["mpcheck.lambda"] else "lambda"),
        mp_seeds=seeds,
        mp_t_max=_positive(values, "mpcheck.t_max"),
        mp_blowup=mp_blowup,
        mp_decay_threshold=mp_decay_threshold,
        out_dir=values["output.dir"],
        raw=dict(values),
    )
