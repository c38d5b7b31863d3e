"""Span tracing of the package's layers, from outside the package.

``Tracer.installed()`` replaces each traced public function by a wrapper in
the namespace of every module that calls it (``steady``, ``eigen`` and
``evolution`` import ``residual_values`` and ``monotone_iteration`` by name,
so patching only ``operators`` would miss them), and ``steady``'s view of
``scipy.sparse.linalg`` by one whose ``splu`` is wrapped.  A span is
``[name, parent id, start ns, end ns, note]``; spans stay in memory and are
written out when the run ends.  A layer is the span name's prefix before the
first dot.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

from infeig import cli, config, eigen, evolution, geometry, operators, output, steady

BYTES = 8  # float64 values and int64 indices


def _grid_note(args, grid):
    return grid.n_active, grid.n_ghost, int(grid.ring_index.shape[1])


def _residual_note(args, out):
    grid, b_values = args[0], args[1]
    return (grid.n_active, int(grid.ring_index.shape[1]), grid.n_ghost, grid.dim,
            bool(np.any(b_values)))


def _splu_note(args, lu):
    return lu.L.nnz + lu.U.nnz


def _monotone_note(args, outcome):
    return (outcome.outer_steps, outcome.sweeps,
            "inconclusive" in outcome.flags, "extrapolated" in outcome.flags)


def _estimate_note(args, est):
    return len(est.history), sum("inconclusive" not in p.flags for p in est.history)


def _file_note(args, out):
    return os.path.getsize(args[0])


# span name -> (modules whose namespace holds the name, note)
TRACED = {
    "cli.main": ((cli,), None),
    "config.parse_config_text": ((cli, config), None),
    "config.load_config": ((cli, config), None),
    "geometry.build_grid": ((geometry, config), _grid_note),
    "operators.residual_values": ((operators, steady, eigen, evolution), _residual_note),
    "operators.ring_arm_values": ((operators, steady), None),
    "steady.monotone_iteration": ((steady, eigen), _monotone_note),
    "steady.solve_general_rhs": ((steady, cli), None),
    "steady.solve_coercive": ((steady,), None),
    "eigen.estimate_principal_eigenvalue": ((eigen, cli), _estimate_note),
    "eigen.check_maximum_principle": ((eigen, cli), None),
    "evolution.run_evolution": ((evolution, cli), None),
    "evolution.evolve_until": ((evolution,), None),
    "evolution.check_decay_bound": ((evolution, cli), None),
    "output.write_json": ((output, cli), _file_note),
    "output.write_csv": ((output, cli), _file_note),
    "output.write_run_meta": ((output, cli), None),
}
# coefficient evaluation is a method of the parsed config
TRACED_METHODS = {
    "expr.scalar_field": (config.RunConfig, "scalar_field"),
    "expr.drift_field": (config.RunConfig, "drift_field"),
}


class _ModuleView:
    """A module with some attributes replaced, for one caller's namespace."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, perf_counter_ns(), 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter_ns()
                stack.pop()
            if note is not None:
                span[4] = note(args, out)
            return out

        return traced

    def call(self, name, fn, *args, note=None):
        """Run fn(*args) under a span of the benchmark's own; note labels it."""
        return self._wrap(name, fn, None if note is None else lambda a, o: note)(*args)

    @contextlib.contextmanager
    def installed(self):
        saved = []

        def patch(owner, attr, value):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        try:
            for name, (modules, note) in TRACED.items():
                attr = name.split(".", 1)[1]
                wrapper = self._wrap(name, getattr(modules[0], attr), note)
                for module in modules:
                    patch(module, attr, wrapper)
            for name, (owner, attr) in TRACED_METHODS.items():
                patch(owner, attr, self._wrap(name, getattr(owner, attr)))
            spla = steady.spla
            patch(steady, "spla", _ModuleView(spla, splu=self._wrap("steady.splu", spla.splu, _splu_note)))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("id,parent,name,start_ns,end_ns,note\n")
            for i, (name, parent, t0, t1, note) in enumerate(self.spans):
                f.write(f"{i},{parent},{name},{t0},{t1},{'' if note is None else repr(note).replace(',', ';')}\n")


def residual_cost(n: int, k: int, ghosts: int, dim: int, drift: bool) -> tuple:
    """Computed (flops, bytes) of one ``residual_values`` call.

    Counts each numpy temporary of the kernel once as read and written at
    8 bytes an element; cache reuse is ignored, so the bytes are an upper
    bound on traffic, not a measurement.
    """
    p = 2 ** dim                          # bilinear closure corners per ghost
    flops = 2 * p * ghosts                # ghost closure einsum
    moved = (3 * p + 2 * p + 1) * ghosts  # gather values[ghost_nodes], einsum
    moved += 2 * (n + ghosts)             # concatenate into the extended vector
    moved += 3 * n * k                    # gather ext[ring_index]
    flops += 3 * n * k                    # rescale: v + (ring - v) * scale
    moved += 3 * (2 * n * k + n)
    flops += 2 * n * k                    # max and min over the arms
    moved += 2 * (n * k + n)
    flops += 4 * n                        # (max + min - 2 u) / rho^2
    moved += 10 * n
    moved += dim * n                      # np.any(b)
    if drift:
        flops += 2 * dim * n + 7 * dim * n
        moved += 4 * dim * n + 26 * dim * n
    flops += 4 * n                        # (c + lam) u - g
    moved += 11 * n
    return flops, moved * BYTES


def _children(spans):
    kids = defaultdict(list)
    for i, span in enumerate(spans):
        kids[span[1]].append(i)
    return kids


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans, root: int, kids) -> dict:
    """Self seconds by layer over the subtree of root (root included)."""
    out = defaultdict(float)
    todo = [root]
    while todo:
        i = todo.pop()
        name, _, t0, t1, _ = spans[i]
        child = kids.get(i, ())
        out[_layer(name)] += (t1 - t0 - sum(spans[j][3] - spans[j][2] for j in child)) / 1e9
        todo.extend(child)
    return out


def summarize(spans, passes: int) -> dict:
    """Per-layer metrics: per-pass totals over the op spans, per-rep medians
    over the set-up spans, and op accounting (wall against layer self times)."""
    kids = _children(spans)
    setup_roots = [i for i in kids[-1] if spans[i][0] == "bench.setup"]
    op_roots = [i for i in kids[-1] if spans[i][0] == "bench.op"]
    per = defaultdict(float)
    count = defaultdict(int)
    notes = defaultdict(list)
    in_ops = set()
    todo = list(op_roots)
    while todo:
        i = todo.pop()
        in_ops.add(i)
        todo.extend(kids.get(i, ()))
    for i in in_ops:
        name, parent, t0, t1, note = spans[i]
        per[name] += (t1 - t0) / 1e9
        count[name] += 1
        if note is not None:
            notes[name].append(note)

    layer_self = defaultdict(float)
    accounting = []
    for root in op_roots:
        selfs = self_times(spans, root, kids)
        harness = selfs.pop("bench", 0.0)
        for layer, sec in selfs.items():
            layer_self[layer] += sec
        accounting.append({"op": spans[root][4], "wall_s": (spans[root][3] - spans[root][2]) / 1e9,
                           "self_s": dict(sorted(selfs.items())), "harness_s": harness})

    setup = [self_times(spans, r, kids) for r in setup_roots]

    def setup_median(layer):
        return statistics.median(s.get(layer, 0.0) for s in setup) if setup else 0.0

    def share(num, den):
        return num / den if den else 0.0

    res_calls = count["operators.residual_values"]
    costs = [residual_cost(*note) for note in notes["operators.residual_values"]]
    mono = notes["steady.monotone_iteration"]
    probes = notes["eigen.estimate_principal_eigenvalue"]
    fill = notes["steady.splu"]
    # a time step is a residual evaluation called directly by an evolution loop
    steps = sum(1 for i in in_ops if spans[i][0] == "operators.residual_values"
                and spans[spans[i][1]][0] in ("evolution.run_evolution", "evolution.evolve_until"))
    evolution_s = per["evolution.run_evolution"] + per["evolution.evolve_until"]
    grids = [span[4] for span in spans if span[0] == "geometry.build_grid" and span[4] is not None]
    n_active, n_ghost, ring_k = max(grids, default=(0, 0, 0))

    metrics = {
        "geometry.build_grid_s": (setup_median("geometry"), "s"),
        "geometry.n_active": (n_active, "count"),
        "geometry.n_ghost": (n_ghost, "count"),
        "geometry.ring_k": (ring_k, "count"),
        "config.load_s": (setup_median("config"), "s"),
        "expr.fields_s": (setup_median("expr"), "s"),
        "operators.residual_calls": (res_calls / passes, "count"),
        "operators.residual_s": (per["operators.residual_values"] / passes, "s"),
        "operators.residual_ms_per_call": (1e3 * share(per["operators.residual_values"], res_calls), "ms"),
        "operators.computed_flops_per_call": (share(sum(c[0] for c in costs), len(costs)), "flop"),
        "operators.computed_bytes_per_call": (share(sum(c[1] for c in costs), len(costs)), "B"),
        "operators.ring_arm_calls": (count["operators.ring_arm_values"] / passes, "count"),
        "operators.ring_arm_s": (per["operators.ring_arm_values"] / passes, "s"),
        "steady.monotone_calls": (len(mono) / passes, "count"),
        "steady.outer_steps": (sum(m[0] for m in mono) / passes, "count"),
        "steady.sweeps": (sum(m[1] for m in mono) / passes, "count"),
        "steady.inconclusive_share": (share(sum(m[2] for m in mono), len(mono)), "share"),
        "steady.extrapolated_share": (share(sum(m[3] for m in mono), len(mono)), "share"),
        "steady.splu_calls": (count["steady.splu"] / passes, "count"),
        "steady.splu_fill_nnz": (share(sum(fill), len(fill)), "count"),
        "eigen.probes": (sum(p[0] for p in probes) / passes, "count"),
        "eigen.conclusive_share": (share(sum(p[1] for p in probes), sum(p[0] for p in probes)), "share"),
        "evolution.steps": (steps / passes, "count"),
        "output.bytes": ((sum(notes["output.write_json"]) + sum(notes["output.write_csv"])) / passes, "B"),
    }
    # times of layers that some workloads never run: printed, not in BENCHMARK.json
    report = {
        "steady.monotone_s": per["steady.monotone_iteration"] / passes,
        "steady.splu_s": per["steady.splu"] / passes,
        "steady.coercive_s": per["steady.solve_coercive"] / passes,
        "steady.solve_general_s": per["steady.solve_general_rhs"] / passes,
        "eigen.estimate_s": per["eigen.estimate_principal_eigenvalue"] / passes,
        "eigen.mp_check_s": per["eigen.check_maximum_principle"] / passes,
        "evolution.run_s": per["evolution.run_evolution"] / passes,
        "evolution.evolve_until_s": per["evolution.evolve_until"] / passes,
        "evolution.decay_check_s": per["evolution.check_decay_bound"] / passes,
        "evolution.ms_per_step": 1e3 * share(evolution_s, steps),
        "output.write_s": layer_self.get("output", 0.0) / passes,
        "cli.self_s": layer_self.get("cli", 0.0) / passes,
    }
    layers = {k: v / passes for k, v in sorted(layer_self.items())}
    return {"metrics": metrics, "times": report, "layer_self_s": layers, "accounting": accounting}
