#!/usr/bin/env python3
"""Proves the benchmark's gates are not vacuous.

    python3 perfbench/selftest.py

1. One op of each workload at seed 0 passes its gate untouched.
2. The same artifacts, each with one defect planted, fail their gate.
3. Two known defects of the package fail their gate:
   the eigen op with drift b = (0.7, -0.3) at h = 1/16 returns a bracket
   outside the Collatz-Wielandt bracket, and the coercive solve at h = 1/64
   exits 3.  When a fix lands, flip ``expect_failed`` for that case.

Exits 1 when any check goes the wrong way.  Takes about a minute.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

from run import NAMES, OUT, cap_blas_threads, import_package

KNOWN_DEFECTS = (
    # (label, op kind, config overrides, expect_failed)
    ("eigen with drift h=1/16 (bracket misses lambda_bar)", "eigen",
     {"grid.h": "0.0625", "coeff.bx": "0.7", "coeff.by": "-0.3"}, True),
    ("coercive solve h=1/64 (no convergence)", "solve",
     {"grid.h": "0.015625", "coeff.c": "-1", "coeff.g": "-exp(-5*r^2)"}, True),
)


def _edit_json(path, **changes):
    with open(path) as f:
        data = json.load(f)
    for key, fn in changes.items():
        data[key] = fn(data[key])
    with open(path, "w") as f:
        json.dump(data, f)


def _edit_csv_value(path, row, fn):
    with open(path) as f:
        lines = f.read().splitlines()
    cells = lines[row + 1].split(",")
    cells[-1] = "%.17g" % fn(float(cells[-1]))
    lines[row + 1] = ",".join(cells)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def main() -> int:
    cap_blas_threads()
    import_package()
    import workloads as w

    wrong = []

    def expect(label, problems, failed):
        ok = bool(problems) == failed
        print(f"{'ok ' if ok else 'BAD'}  {label}: {'fails: ' + '; '.join(problems) if problems else 'passes'}")
        if not ok:
            wrong.append(label)

    def run(op, out_dir):
        prep = w.Prepared(op.config)
        result = w.run_op(op, prep, w.write_op_config(op, out_dir), out_dir)
        return prep, result

    def planted(src, name, edit):
        dst = str(OUT / "selftest" / name)
        shutil.rmtree(dst, ignore_errors=True)
        shutil.copytree(src, dst)
        edit(dst)
        return dst

    done = {}
    for name in NAMES:
        for i, op in enumerate(w.workload_ops(name, 0)):
            out_dir = str(OUT / "selftest" / f"{name}-op{i}")
            prep, result = run(op, out_dir)
            expect(f"untouched {op.label}", w.gate(op, prep, out_dir, result), False)
            done.setdefault(op.kind, (op, prep, out_dir, result))

    op, prep, src, _ = done["eigen"]
    shift = planted(src, "eigen-shifted", lambda d: _edit_json(
        os.path.join(d, "eigen.json"), lambda_lo=lambda v: v + 0.05, lambda_hi=lambda v: v + 0.05))
    expect("eigen bracket moved by +0.05", w.gate(op, prep, shift, 0), True)
    zero = planted(src, "eigen-phi-zero", lambda d: _edit_csv_value(
        os.path.join(d, "eigenfunction.csv"), 0, lambda v: 0.0))
    expect("eigenfunction with a zero node", w.gate(op, prep, zero, 0), True)
    expect("eigen exit code 3", w.gate(op, prep, src, 3), True)

    op, prep, src, _ = done["solve"]
    bumped = planted(src, "solve-node", lambda d: _edit_csv_value(
        os.path.join(d, "solution.csv"), prep.grid.n_active // 2, lambda v: v + 1e-6))
    expect("solution with one node moved by 1e-6", w.gate(op, prep, bumped, 0), True)

    op, prep, _, trace = done["step"]
    negative = copy.deepcopy(trace)
    negative.final_state.values[0] = -1e-300
    expect("stepping state with one negative node", w.gate(op, prep, None, negative), True)
    grown = copy.deepcopy(trace)
    grown.sup_norm = grown.sup_norm * 1.5
    expect("stepping sup norm above the growth bound", w.gate(op, prep, None, grown), True)
    late = copy.deepcopy(trace)
    late.cfl_margin = 1.01
    expect("stepping cfl_margin above 1", w.gate(op, prep, None, late), True)

    op, prep, src, _ = done["evolve"]
    failed = planted(src, "evolve-fail", lambda d: _edit_json(
        os.path.join(d, "summary.json"), **{"pass": lambda v: False}))
    expect("evolve summary with pass false", w.gate(op, prep, failed, 0), True)

    op, prep, src, _ = done["mpcheck"]
    flipped = planted(src, "mpcheck-fails", lambda d: _edit_json(
        os.path.join(d, "mpcheck.json"),
        seeds=lambda seeds: [dict(seeds[0], verdict="MP-fails")] + seeds[1:]))
    expect("mpcheck with one MP-fails verdict", w.gate(op, prep, flipped, 0), True)

    for label, kind, overrides, expect_failed in KNOWN_DEFECTS:
        op = w.Op(kind, label, w.config_text(overrides))
        out_dir = str(OUT / "selftest" / f"defect-{kind}")
        prep, result = run(op, out_dir)
        expect(f"known defect, {label}", w.gate(op, prep, out_dir, result), expect_failed)

    print(f"{len(wrong)} check(s) went the wrong way" if wrong else "all checks went the expected way")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
