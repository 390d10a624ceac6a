#!/usr/bin/env python3
"""entlm benchmark entry point.

    python3 perfbench/run.py --workload pretrain-toy --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload probe-eval --seed 1 --seconds 2 --trace 1 --smoke
    python3 perfbench/run.py --record      # rewrite perfbench/reference.json

Run from the repository root; the package is imported from ./src.  The last
line of standard output is the JSON result.
"""

import argparse
import os
import sys

# BLAS threads are pinned before numpy is imported, so every run uses one thread
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("pretrain-toy", "pretrain-wide", "probe-eval")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="short train runs and one set-up (for tests)")
    ap.add_argument("--record", action="store_true", help="rewrite the reference outputs")
    args = ap.parse_args(argv)
    if not args.record and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be >= 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "entlm", "__init__.py")):
        print(f"error: no entlm sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # import entlm and this package from the checkout, never from elsewhere
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    sys.path[:0] = [SRC, ROOT]
    import entlm

    if os.path.dirname(os.path.dirname(os.path.abspath(entlm.__file__))) != SRC:
        print(f"error: entlm imported from {entlm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import harness

    if args.record:
        harness.record()
        return 0
    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
