#!/usr/bin/env python3
"""Benchmark of the infeig package, end to end and (with --trace 1) by layer.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy.  One run sets
up its inputs from the seed, then repeats passes over the workload's fixed
op list, one op at a time in this process, until ``--seconds`` have gone.
Every op's gate runs after it, outside its timing, followed by a quarter
second of set-ups (config text to grid and fields) that ``setup_s`` times.
The report goes to stdout; the last line is one JSON object with keys
correct, attempted, failed and metrics (the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1).  Per-run
results and, when traced, the spans are written under ``perfbench/out/``.

With --trace 1 passes alternate untraced and traced; the tracing overhead is
the traced median pass time over the untraced one.
End-to-end numbers come only from --trace 0 runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SLICE = 0.25  # seconds of set-ups after each op
NAMES = ("eigen-disk16", "solve-disk32", "step-disk64", "mp-disk16")
# per-kind op timings, printed for the workloads that run that kind
OP_METRICS = (("eigen_s", "eigen"), ("solve_s", "solve"), ("evolve_s", "evolve"), ("mpcheck_s", "mpcheck"))


def cap_blas_threads() -> int:
    """Cap BLAS and OpenMP pools at the cores this process may use; must run
    before numpy is imported."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def import_package() -> None:
    src = ROOT / "src"
    if not (src / "infeig" / "__init__.py").is_file():
        sys.exit(f"error: no infeig package under {src}; run from a source checkout")
    sys.path.insert(0, str(src))


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def _tail(samples: list):
    """Highest of p50/p90/p99 with at least ten samples beyond it."""
    for p in (99, 90, 50):
        if len(samples) * (100 - p) >= 1000:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return None


def _describe(samples: list, unit: str) -> str:
    if not samples:
        return "n/a (no such op in this workload)"
    tail = _tail(samples)
    tail = f"p{tail[0]} {tail[1]:.4g} {unit}" if tail else "no tail (n < 20)"
    return f"median {statistics.median(samples):.4g} {unit}, {tail}, n = {len(samples)}"


class Run:
    """One workload run: prepared ops, set-up timings and timed passes."""

    def __init__(self, workloads, name: str, seed: int):
        self.w = workloads
        self.name = name
        self.ops = workloads.workload_ops(name, seed)
        self.setup_text = self.ops[0].config  # what setup_s sets up
        self.preps = [workloads.Prepared(op.config) for op in self.ops]
        self.dirs = [str(OUT / name / f"op{i}") for i in range(len(self.ops))]
        self.cfg_paths = [workloads.write_op_config(op, d) for op, d in zip(self.ops, self.dirs)]
        self.records = []  # (label, kind, seconds, steps, problems) per op
        self.setup = []    # seconds per set-up

    def setup_reps(self, seconds: float, tracer=None) -> None:
        """Set up from config text until `seconds` have gone (at least once)."""
        start = perf_counter()
        while True:
            t0 = perf_counter()
            if tracer is None:
                self.w.Prepared(self.setup_text)
            else:
                with tracer.installed():
                    tracer.call("bench.setup", self.w.Prepared, self.setup_text)
            now = perf_counter()
            self.setup.append(now - t0)
            if now - start >= seconds:
                return

    def _one_op(self, i: int, tracer):
        op, prep = self.ops[i], self.preps[i]
        args = (op, prep, self.cfg_paths[i], self.dirs[i])
        t0 = perf_counter()
        try:
            if tracer is None:
                result = self.w.run_op(*args)
            else:
                with tracer.installed():
                    result = tracer.call("bench.op", self.w.run_op, *args, note=op.label)
        except Exception:  # an op that raises is a failed op; keep measuring
            traceback.print_exc()
            return perf_counter() - t0, 0, ["raised " + traceback.format_exc().splitlines()[-1]]
        seconds = perf_counter() - t0
        try:
            problems = self.w.gate(op, prep, self.dirs[i], result)
        except Exception:  # unreadable artifacts fail the gate
            traceback.print_exc()
            problems = ["gate raised " + traceback.format_exc().splitlines()[-1]]
        steps = self.w.step_count(result) if op.kind == "step" else 0
        return seconds, steps, problems

    def passes(self, budget: float, tracer=None) -> tuple:
        """Passes until the budget is spent; returns the untraced and the
        traced pass times (op seconds).  With a tracer, passes alternate
        untraced and traced, so both see the same stretch of machine time."""
        start = perf_counter()
        walls, times = [], ([], [])
        while True:
            traced = tracer is not None and len(walls) % 2 == 1
            t_pass = perf_counter()
            total = 0.0
            for i, op in enumerate(self.ops):
                seconds, steps, problems = self._one_op(i, tracer if traced else None)
                total += seconds
                self.records.append((op.label, op.kind, seconds, steps, problems))
                if problems:
                    print(f"FAILED {op.label}: {'; '.join(problems)}", file=sys.stderr)
                # set-ups between ops sample the same stretch of machine time
                self.setup_reps(SETUP_SLICE, tracer if traced else None)
            times[traced].append(total)
            walls.append(perf_counter() - t_pass)
            # stop where another pass would overrun the budget by over half a pass
            done = perf_counter() - start + 0.5 * statistics.median(walls) > budget
            if done and (tracer is None or traced):
                return times


def _context(run: Run, args, nproc: int, versions: dict) -> dict:
    return {
        "workload": run.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "blas_threads": nproc, **versions,
        "git_commit": _git_commit(),
        "ops": [{"label": op.label, "kind": op.kind, **prep.context()} for op, prep in zip(run.ops, run.preps)],
    }


def run_workload(args) -> int:
    nproc = cap_blas_threads()
    import_package()
    import numpy
    import scipy

    import tracing
    import workloads

    versions = {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__}
    OUT.mkdir(parents=True, exist_ok=True)
    run = Run(workloads, args.workload, args.seed)
    context = _context(run, args, nproc, versions)
    print(f"== {run.name}  seed {args.seed}  trace {args.trace}")
    print("context: " + json.dumps(context))

    tracer = tracing.Tracer() if args.trace else None
    pass_times, traced_times = run.passes(args.seconds, tracer)
    result = {"context": context}

    if tracer is not None:
        layers = tracing.summarize(tracer.spans, len(traced_times))
        tracer.write(str(OUT / f"{run.name}-seed{args.seed}-spans.csv"))
        metrics = _per_layer(layers, pass_times, traced_times, len(run.ops))
        result.update(layers)
    else:
        metrics = _end_to_end(run, pass_times)

    attempted, failed = len(run.records), sum(1 for r in run.records if r[4])
    print(f"fail_share {failed / attempted:.4g} (failed {failed} of {attempted} ops)")
    result["ops"] = [dict(zip(("label", "kind", "seconds", "steps", "problems"), r)) for r in run.records]
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    result["summary"] = line
    with open(OUT / f"{run.name}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(result, f, indent=1, default=float)
    print(json.dumps(line))
    return 0


def _per_layer(layers: dict, pass_times: list, traced_times: list, n_ops: int) -> dict:
    untraced, traced = statistics.median(pass_times), statistics.median(traced_times)
    metrics = dict(layers["metrics"])
    metrics["trace.overhead_share"] = (traced / untraced - 1.0, "share")
    print(f"tracing overhead: {traced / untraced - 1.0:+.1%} of the untraced pass time ({traced - untraced:+.4f} s "
          f"per pass; {len(pass_times)} untraced and {len(traced_times)} traced passes)")
    print("layer self time per pass (s): " + ", ".join(f"{k} {v:.4f}" for k, v in layers["layer_self_s"].items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    for name, value in layers["times"].items():
        print(f"  {name:36s} {value:.6g} {'ms' if name.endswith('ms_per_step') else 's'}  (printed only)")
    for acc in layers["accounting"][:n_ops]:
        print(f"  op {acc['op']}: wall {acc['wall_s']:.4f} s = layer self {sum(acc['self_s'].values()):.4f} s "
              f"(cli {acc['self_s'].get('cli', 0.0):.4f} s) + harness {acc['harness_s']:.6f} s")
    return metrics


def _end_to_end(run: Run, pass_times: list) -> dict:
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for name, kind in OP_METRICS:
        print(f"  {name:12s} {_describe([r[2] for r in run.records if r[1] == kind], 's')}")
    steps = [r[3] / r[2] for r in run.records if r[1] == "step"]
    print(f"  {'steps_per_s':12s} {_describe(steps, '1/s')}")
    print(f"  {'setup_s':12s} {_describe(run.setup, 's')}")
    print(f"  {'wall_s':12s} {_describe(pass_times, 's')}  (one pass over the op list)")
    print(f"  {'peak_rss_mb':12s} {peak_mb:.1f} MB, n = 1")
    return {
        "wall_s": (statistics.median(pass_times), "s"),
        "setup_s": (statistics.median(run.setup), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    status = 0
    lines = {}
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = done.returncode
            continue
        lines[name] = json.loads(done.stdout.strip().splitlines()[-1])
    if status:
        return status
    print(json.dumps({
        "correct": all(v["correct"] for v in lines.values()),
        "attempted": sum(v["attempted"] for v in lines.values()),
        "failed": sum(v["failed"] for v in lines.values()),
        "metrics": {f"{w}/{k}": m for w, v in lines.items() for k, m in v["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0, help="0 runs the unperturbed cases")
    ap.add_argument("--seconds", type=float, default=25.0, help="time spent in timed passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
