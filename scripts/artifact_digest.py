#!/usr/bin/env python3
"""SHA-256 digests of the CLI's data files, to show that two versions of the
package write byte-identical artifacts.

Runs ``solve``, ``eigen``, ``evolve`` and ``mpcheck`` on the README example
config at the given spacing, each into its own directory of a temporary
directory, and prints one line per data file (``run_meta.json``, which
carries a timestamp, is left out) and one per exit code.  Run it once per
version and diff the outputs:

    PYTHONPATH=src python scripts/artifact_digest.py --h 0.0625 > a.txt

``--set`` overrides the config as for the CLI, so the other domains are
digested from the same config, for instance the interval [0, 1] with the
ring factor s = 1, and the unit square:

    PYTHONPATH=src python scripts/artifact_digest.py --h 0.0625 \
        --set domain.type=interval --set grid.s=1 > interval.txt
    PYTHONPATH=src python scripts/artifact_digest.py --h 0.0625 \
        --set domain.type=rectangle > rectangle.txt

The README config's ``solve`` is not coercive, so it never starts from the
grid with twice the spacing; a coercive ``c`` and ``g`` make it do so:

    PYTHONPATH=src python scripts/artifact_digest.py --h 0.0625 \
        --set coeff.c=-1 --set 'coeff.g=-exp(-5*r^2)' > coercive.txt

Its ``g = -1`` makes ``solve`` one monotone iteration: the barrier pass for
``-g^+ = 0`` returns 0 at once.  A ``g`` of both signs is the only ``solve``
in which both passes take outer steps, the barrier pass from 0 and the main
pass from minus the barrier (138 factorizations at h = 1/16):

    PYTHONPATH=src python scripts/artifact_digest.py --h 0.0625 \
        --set 'coeff.g=sin(3*x)' > both_signs.txt

A change to the stencil layout (the arm order, the scale groups, the index
columns) is checked on the rings with more scale groups, s = 3 (three) and
s = 4 (five), and with a drift, which reads the axis columns:

    PYTHONPATH=src python scripts/artifact_digest.py --h 0.0625 --set grid.s=3 > s3.txt
    PYTHONPATH=src python scripts/artifact_digest.py --h 0.0625 --set grid.s=4 > s4.txt
    PYTHONPATH=src python scripts/artifact_digest.py --h 0.0625 \
        --set coeff.bx=0.7 --set coeff.by=-0.3 > drift.txt

The README ``mpcheck`` settles both its seeds by the eigen bound, and so
does every example above.  A change to the explicit march is checked on a
λ and seeds that the bound leaves to it: ``mpcheck`` then marches the first
two seeds and settles the third by the subsolution bound, in about 0.7 s
at h = 1/16:

    PYTHONPATH=src python scripts/artifact_digest.py --h 0.0625 \
        --set mpcheck.lambda=0.9 \
        --set 'mpcheck.seeds=exp(-50*r^2) - 0.5 ; cos(3*x) ; 1' > marched.txt
"""

import argparse
import hashlib
import os
import tempfile

from infeig import cli

# the README's example config, without its output.dir
README_CONFIG = """\
domain.type = disk
domain.radius = 1
grid.h = 0.03125
grid.s = 2
coeff.c = piecewise(r, 0.2, 0.325, -1.0)
coeff.g = -1
lambda = 0
eigen.bisect_tol = 1e-4
evolve.T = 30
coeff.h0 = exp(-50*r^2)
mpcheck.lambda = 0.5
mpcheck.seeds = exp(-50*r^2) ; 1
"""

SUBCOMMANDS = ("solve", "eigen", "evolve", "mpcheck")


def digests(h: str, overrides: list) -> list:
    """(name, digest) lines: each data file by subcommand, then exit codes."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w") as f:
            f.write(README_CONFIG)
        for sub in SUBCOMMANDS:
            out = os.path.join(tmp, sub)
            argv = [sub, "--config", cfg, "--out", out, "--set", f"grid.h={h}"]
            for item in overrides:
                argv += ["--set", item]
            code = cli.main(argv)
            lines.append((f"{sub} exit", str(code)))
            for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
                if name != "run_meta.json":
                    with open(os.path.join(out, name), "rb") as f:
                        lines.append((f"{sub}/{name}", hashlib.sha256(f.read()).hexdigest()))
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--h", default="0.0625", help="grid spacing grid.h (default 0.0625)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="further config override, as for the CLI")
    args = parser.parse_args()
    for name, value in digests(args.h, args.overrides):
        print(f"{value}  {name}")


if __name__ == "__main__":
    main()
