"""Run one benchmark workload and print its result as the last line of stdout.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-light --seed 1 --seconds 25 --trace 0

The package is imported from the checkout's ``src/``; the run fails with
exit code 2 when that is missing.  The line before the result holds the full
record (environment, tail percentile, fail_frac, test_acc); the same record
and, for traced runs, the spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One BLAS thread: the ops are Python loops over small arrays, and a fixed
# count keeps runs comparable on a shared machine.
BLAS_THREADS = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "hypersheaf" / "__init__.py").is_file():
        print(f"error: no hypersheaf package under {src}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # read when numpy first loads
    sys.path.insert(0, str(src))

    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    record = harness.run(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        ROOT, HERE / "out",
    )
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (HERE / "out" / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(harness.result_line(record, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
