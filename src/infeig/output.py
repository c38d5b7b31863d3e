"""Deterministic CSV/JSON emission.

Reruns with identical config must produce byte-identical data files, so
floats are formatted to 17 significant digits and timestamps never enter
data files (run metadata carries them separately).  A CSV file is written
from equal-length array columns with one row format for the whole file:
``%.17g`` for a float column, ``%s`` for any other.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np


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


def write_csv(path: str, header, columns) -> None:
    """Header and one line per index of equal-length array columns, each
    value as its column's format spells it."""
    form = ",".join("%.17g" if col.dtype.kind == "f" else "%s" for col in columns) + "\n"
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        f.writelines(map(form.__mod__, zip(*(col.tolist() for col in columns))))


def write_run_meta(out_dir: str, subcommand: str, raw_config: dict) -> None:
    """Timestamped sidecar; deliberately separate from the data files."""
    meta = {
        "subcommand": subcommand,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": {k: v for k, v in sorted(raw_config.items())},
    }
    write_json(os.path.join(out_dir, "run_meta.json"), meta)


def node_columns(grid, column) -> tuple:
    """CSV columns (index, x, y, column) over the active nodes of a grid, with
    y = 0 in 1D; ``column`` holds one value per node (a field's values, or
    the node class names)."""
    y = grid.nodes[:, 1] if grid.dim == 2 else np.zeros(grid.n_active)
    return np.arange(grid.n_active), grid.nodes[:, 0], y, np.asarray(column)
