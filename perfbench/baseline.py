"""Run every workload over several seeds and summarize each metric.

From the repository root:

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json --tier1

Each run is ``perfbench/run.py`` in its own process with the settings in
BENCHMARK.json. For every end-to-end metric the summary gives the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound. ``--tier1`` also times the repository's test suite once,
for information. ``--trace`` runs the per-layer variant instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent


def run_once(command: list, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    table = [line for line in lines[:-1] if line.startswith("replications ")]
    machine = [json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("machine: ")]
    return {"seed": seed, "exit": proc.returncode, "wall_s": wall, "result": result,
            "notes": table, "machine": machine[0] if machine else None,
            "stderr": proc.stderr.strip()[-2000:]}


def summarize(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
    spread = (q3 - q1) / abs(median) if median else (0.0 if q3 == q1 else float("inf"))
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def tier1_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                    "-p", "no:cacheprovider"], cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=1800)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tier1", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "seeds": list(seeds),
              "workloads": {}}
    ok = True
    for workload in names:
        runs = [run_once(spec["command"], workload, s, spec["run_seconds"], int(args.trace))
                for s in seeds]
        bad = [r for r in runs if r["exit"] != 0 or not r["result"].get("correct")]
        ok &= not bad
        for r in bad:
            print(f"{workload} seed {r['seed']}: exit {r['exit']}\n{r['stderr']}", file=sys.stderr)
        summary = {}
        for metric in bounds:
            values = [r["result"]["metrics"][metric]["value"] for r in runs
                      if metric in r["result"].get("metrics", {})]
            if values:
                summary[metric] = summarize(values)
        walls = [r["wall_s"] for r in runs]
        report["workloads"][workload] = {
            "metrics": summary,
            "attempted": [r["result"].get("attempted") for r in runs],
            "failed": [r["result"].get("failed") for r in runs],
            "notes": [r["notes"] for r in runs],
            "run_wall_s": summarize(walls),
        }
        report["machine"] = runs[0]["machine"]
        print(f"== {workload}: run wall median {statistics.median(walls):.1f}s "
              f"max {max(walls):.1f}s; failed {report['workloads'][workload]['failed']}")
        for metric, s in summary.items():
            bound = bounds[metric]
            flag = "" if bound is None else ("  ok" if s["spread"] < bound / 3 else
                                             "  within bound" if s["spread"] <= bound else "  TOO WIDE")
            print(f"  {metric:44s} median {s['median']:12.6g} spread {s['spread']:7.3f}"
                  f" bound {bound}{flag}")
    if args.tier1:
        report["tier1_wall_s"] = tier1_seconds()
        print(f"tier-1 suite: {report['tier1_wall_s']:.1f}s")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
