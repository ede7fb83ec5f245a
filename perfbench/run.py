"""Benchmark of spantriplet: one workload per run, the result as the last line.

Run from the repository root:

    python3 perfbench/run.py --workload train-ref --seed 1 --seconds 30 --trace 0

Workloads are ``train-ref``, ``infer-long`` and ``grad-tiny`` (see
``perfbench/README.md``). ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones. Lines before the last start with ``#``;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--write-reference`` regenerates the committed
reference outputs from the current code.
"""

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")

# One caller on a shared machine: one BLAS thread is the steadiest setting,
# and two threads measured no faster at these sizes.
BLAS_THREADS = "1"
WORKLOADS = ("train-ref", "infer-long", "grad-tiny")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # The thread count is read when numpy loads its BLAS, so set it first.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not os.path.isfile(os.path.join(SOURCE, "spantriplet", "__init__.py")):
        print(f"spantriplet sources not found under {SOURCE}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path[:0] = [SOURCE, HERE]
    import harness

    tmpdir = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(tmpdir, exist_ok=True)
    try:
        if args.write_reference:
            harness.write_reference(tmpdir)
            return 0
        result = harness.run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
