"""Benchmark of the aeal package: three workloads, end-to-end costs and
per-layer metrics from a traced run.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

The package is imported from ``src/`` next to this directory. A run sets up
its inputs from the seed (five times, for the set-up time), runs one
untimed warm-up unit, then runs units for S seconds. With ``--trace 0`` it
reports the end-to-end metrics; the peak memory of a unit is the median of
a few cold units, each in a child process of its own, outside the timed
pass. With ``--trace 1`` it alternates untraced and traced units on the
same inputs, requires identical outputs from both, and reports the
per-layer metrics of the traced units. Every unit's output is checked. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it are a readable report. ``--workload all`` runs every workload
untraced and traced. BLAS runs on one thread.
"""

import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# One BLAS thread, set before numpy loads and inherited by the child
# processes. A session already runs one thread per agent; on a host with few
# cores, BLAS threads spinning beside them make unit times depend on the
# scheduler rather than on the program.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--peak-unit", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import aeal
        if Path(aeal.__file__).resolve().parent != SRC / "aeal":
            raise ImportError(f"found {aeal.__file__} instead")
    except ImportError as exc:
        print(f"cannot import the aeal package from {SRC}: {exc}", file=sys.stderr)
        return 2
    import harness

    return harness.main(args, SRC)


if __name__ == "__main__":
    sys.exit(main())
