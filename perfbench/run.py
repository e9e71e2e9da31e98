"""Run one orbandit benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload desk_drift --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones. A table with every metric's value, unit and sample count and a line
of machine facts come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
run exits with 1 when a correctness check failed and with 2 when the
package sources are not found next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("desk_drift", "wide_arms", "heavy_traffic", "continuous_churn")

# Load comes from one process with one BLAS thread. With two threads on a
# two-CPU machine, decisions on 50-200 arms ran up to five times slower and
# their times split into two modes, which left the percentiles unsteady.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "orbandit" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {ROOT / 'src' / 'orbandit'}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result.metrics.items():
        print(f"{name:48s} {metric['value']:>14.6g} {metric['unit']:10s} n={result.samples[name]}")
    print("replications attempted by policy: " + json.dumps(result.attempted_by_policy))
    print("replications failed by policy: " + json.dumps(result.failed_by_policy))
    print("machine: " + json.dumps(harness.machine_facts(), sort_keys=True))
    if result.host_speed:
        print("host speed probes: " + json.dumps(result.host_speed))
    for problem in result.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": result.metrics}))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
