"""Pass counts of the seeded acceptance gates 06–09 over independent seed blocks.

From the repository root:

    python tools/gates.py --blocks 16
    python tools/gates.py --blocks 16 --tree ../parent --tree .
    python tools/gates.py --blocks 16 --tree ../parent --tree . --json gates.json

Acceptance tests 06, 07 and 08 compare the three policies' regret or
clicks on seeded replications, and 09 counts seeded changing-arms runs
that recover an ordering. Each is one draw of a statistical gate, so a
change to a random stream re-rolls it. This script runs the same gate
functions, from ``tests/acceptance_gates.py``, on more seeds, so that a
re-roll can be told from a regression:

- block 0 runs tier-1's own seeds (06 and 07 seed 1001, 08 seed 42, 09
  scenario seeds 0–19) and is reported apart;
- block b = 1..N adds 1000·b to each of those seeds.

For each gate and block it prints the gate's values and margins, and for
blocks 1..N the pass count and the quartiles of each margin:
``odds/full`` and ``max/min`` (of ``beta_ts`` and ``full_ts``) for 06,
``or/beta``, ``or/full`` and ``wins`` for 07, the two uplifts for 08, and
``hits`` for 09.

Each ``--tree`` (default: this repository) runs in its own subprocess
with that tree's ``src`` first on the path and this repository's gate
functions, so two trees run the same gates side by side and are reported
block by block. Two trees share seeds and environment draws block by
block, so each margin is paired: for blocks 1..N the script also prints
the Wilcoxon signed-rank p-value of the second tree's margins against
the first's (``scipy.stats.wilcoxon``, two-sided, blocks whose margins
are equal dropped), which tells a shift of a margin from a re-roll of
the pass counts. ``--json PATH`` writes every record, each block's
values, margins and verdict per tree, to PATH. The script only reports:
it exits 0 whether gates pass or not.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
NAMES = {
    "06": "stationary regret parity",
    "07": "drift robustness",
    "08": "two-regime uplift",
    "09": "continuous transitivity",
}
GATES = tuple(NAMES)
# Block b adds BLOCK_STRIDE * b to each of tier-1's seeds.
BLOCK_STRIDE = 1000


def run_worker(src: str, blocks: int) -> None:
    """Run every gate on blocks 0..``blocks`` with the package in ``src``,
    printing one JSON line per gate and block."""
    sys.path.insert(0, src)
    import orbandit
    from orbandit import BanditError

    if not Path(orbandit.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"gates: orbandit imported from {orbandit.__file__}, not {src}")
    sys.path.insert(1, str(ROOT / "tests"))
    from acceptance_gates import GATES as gates, TIER1_SEEDS

    for block in range(blocks + 1):
        for gate in GATES:
            seed = TIER1_SEEDS[gate] + BLOCK_STRIDE * block
            record = {"gate": gate, "block": block, "seed": seed}
            try:
                values, margins, passed = gates[gate](seed)
                record.update(values=values, margins=margins, passed=bool(passed))
            except BanditError as exc:
                record.update(values={}, margins={}, passed=False, error=str(exc))
            print(json.dumps(record), flush=True)


# ---------------------------------------------------------------- report


def _number(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.1f}" if abs(value) >= 100 else f"{value:.4g}"


def _describe(record: dict) -> str:
    numbers = {**record["values"], **record["margins"]}
    text = " ".join(f"{name} {_number(value)}" for name, value in numbers.items())
    if "error" in record:
        text += f" error: {record['error']}"
    return f"{text} {'PASS' if record['passed'] else 'FAIL'}"


def report(trees: list[Path], results: list[list[dict]], blocks: int) -> None:
    labels = [chr(ord("A") + i) for i in range(len(trees))]
    for label, tree in zip(labels, trees):
        print(f"tree {label}: {tree}")
    for gate in GATES:
        print(f"\ngate {gate} {NAMES[gate]}")
        by_tree = [{r["block"]: r for r in records if r["gate"] == gate} for records in results]
        for block in range(blocks + 1):
            where = "tier-1" if block == 0 else f"block {block}"
            for label, records in zip(labels, by_tree):
                record = records[block]
                print(f"  {label} {where:8s} seed {record['seed']:<6d} {_describe(record)}")
        for label, records in zip(labels, by_tree):
            chosen = [records[b] for b in range(1, blocks + 1)]
            if not chosen:
                continue
            passes = sum(r["passed"] for r in chosen)
            line = f"  {label} blocks 1-{blocks}: {passes} of {blocks} pass"
            for name in chosen[0]["margins"]:
                values = [r["margins"][name] for r in chosen if name in r["margins"]]
                quartiles = " ".join(_number(float(q)) for q in np.percentile(values, [25, 50, 75]))
                line += f"; {name} quartiles {quartiles}"
            print(line)
        if len(trees) == 2 and blocks:
            moved = [b for b in range(1, blocks + 1)
                     if by_tree[0][b]["passed"] != by_tree[1][b]["passed"]]
            print(f"  paired: verdict differs on blocks {moved or 'none'}")
            for name in by_tree[0][1]["margins"]:
                print(f"  paired: {name} {_paired_test(by_tree, name, blocks)}")


def _paired_test(by_tree: list[dict], name: str, blocks: int) -> str:
    """The median change of margin ``name`` from the first tree to the
    second over blocks 1..``blocks``, and the Wilcoxon signed-rank
    p-value of the paired changes."""
    from scipy.stats import wilcoxon

    pairs = [(a["margins"][name], b["margins"][name])
             for a, b in ((by_tree[0][k], by_tree[1][k]) for k in range(1, blocks + 1))
             if name in a["margins"] and name in b["margins"]]
    changes = np.array([b - a for a, b in pairs], dtype=float)
    if not np.count_nonzero(changes):
        return f"identical on {len(pairs)} blocks"
    p = wilcoxon(changes).pvalue
    return (f"median change {_number(float(np.median(changes)))} over {len(pairs)} blocks, "
            f"Wilcoxon p = {p:.3g}")


def write_json(path: Path, trees: list[Path], results: list[list[dict]], blocks: int) -> None:
    """Every record of every tree: each gate's values, margins and verdict
    per block, with the seed it ran on."""
    path.write_text(json.dumps({"blocks": blocks, "stride": BLOCK_STRIDE,
                                "trees": [{"tree": str(tree), "records": records}
                                          for tree, records in zip(trees, results)]},
                               indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--blocks", type=int, default=16, help="seed blocks beyond tier-1's")
    parser.add_argument("--tree", action="append", type=Path,
                        help="repository tree to run (at most two; default this one)")
    parser.add_argument("--json", type=Path, help="also write every block's values and margins here")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.blocks < 0:
        parser.error("--blocks must be non-negative")
    if args.worker:
        run_worker(args.worker, args.blocks)
        return 0
    if args.json and not args.json.resolve().parent.is_dir():
        parser.error(f"--json: no directory {args.json.resolve().parent}")
    trees = [tree.resolve() for tree in (args.tree or [ROOT])]
    if len(trees) > 2:
        parser.error("at most two trees")
    for tree in trees:
        if not (tree / "src" / "orbandit" / "__init__.py").is_file():
            parser.error(f"no package sources at {tree / 'src' / 'orbandit'}")
    workers = [
        subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--worker",
                          str(tree / "src"), "--blocks", str(args.blocks)],
                         stdout=subprocess.PIPE, text=True)
        for tree in trees
    ]
    outputs = [worker.communicate()[0] for worker in workers]
    for worker in workers:
        if worker.returncode:
            print(f"gates: a worker exited with {worker.returncode}", file=sys.stderr)
            return worker.returncode
    results = [[json.loads(line) for line in out.splitlines()] for out in outputs]
    report(trees, results, args.blocks)
    if args.json:
        write_json(args.json, trees, results, args.blocks)
    return 0


if __name__ == "__main__":
    sys.exit(main())
