"""Deterministic CSV/JSON emission.

Reruns with identical config must produce byte-identical data files, so
floats are formatted to 17 significant digits and timestamps never enter
data files (run metadata carries them separately).
"""

from __future__ import annotations

import json
import os
import time
from itertools import groupby, repeat

import numpy as np


def fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def json_text(obj) -> str:
    """Canonical JSON with %.17g floats (insertion order preserved)."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            return "null"
        return "%.17g" % obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {json_text(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(json_text(v) for v in obj) + "]"
    try:
        return json_text(float(obj))
    except (TypeError, ValueError):
        return json.dumps(str(obj))


def write_json(path: str, obj) -> None:
    with open(path, "w") as f:
        f.write(json_text(obj))
        f.write("\n")


def _row_format(types: tuple) -> tuple:
    """%-format of a CSV line whose values have these types, and whether it
    holds a bool (passed in as ``fmt``'s text, since %s spells it True)."""
    specs = ["%.17g" if issubclass(t, float) else "%s" for t in types]
    return ",".join(specs) + "\n", any(issubclass(t, bool) for t in types)


def write_csv(path: str, header, rows) -> None:
    """Header and rows of values as ``fmt`` writes each: one %-format for each
    run of consecutive rows with the same value types, mapped over the run."""
    lines = [",".join(header) + "\n"]
    for types, run in groupby(map(tuple, rows), key=lambda row: tuple(map(type, row))):
        form, has_bool = _row_format(types)
        if has_bool:
            run = (tuple(fmt(v) if isinstance(v, bool) else v for v in row) for row in run)
        lines.extend(map(form.__mod__, run))
    with open(path, "w") as f:
        f.writelines(lines)


def write_run_meta(out_dir: str, subcommand: str, raw_config: dict) -> None:
    """Timestamped sidecar; deliberately separate from the data files."""
    meta = {
        "subcommand": subcommand,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": {k: v for k, v in sorted(raw_config.items())},
    }
    write_json(os.path.join(out_dir, "run_meta.json"), meta)


def node_rows(grid, column):
    """CSV rows (index, x, y, column[index]) of Python scalars over the active
    nodes of a grid, with y = 0 in 1D; ``column`` holds one value per node (a
    field's values, or the node class names)."""
    y = grid.nodes[:, 1].tolist() if grid.dim == 2 else repeat(0.0)
    return zip(range(grid.n_active), grid.nodes[:, 0].tolist(), y, np.asarray(column).tolist())
