"""Shares of the paths the Gaussian Thompson decisions of a ``simulate``
config take, and the quartiles of their chance q of a row outside the ball.

From the repository root:

    python tools/split_share.py --config tools/heavy_traffic.json
    python tools/split_share.py --config tools/heavy_traffic.json --replications 2

The config is one ``orbandit simulate`` takes, and its fields can be
overridden by the same ``--<field>`` flags. For each logistic policy the
config names (``full_ts`` and ``or_ts``; ``beta_ts`` makes no Gaussian
decision) the script runs the config's replications as ``simulate`` does
and sorts every Thompson decision by the path ``allocation_proportions``
takes:

- ``one-hot``: the screen keeps the leader alone, and nothing is drawn;
- ``full``: every arm kept, m = K normals a row, no split;
- ``kept``: some arms dropped, one normal a row per kept arm but the
  reference, no split;
- ``split``: either of the two with the radial split, which applies when
  q = P(χ²(m) ≥ r*²) is at most one half (``policy._SPLIT_SHARE``).

For each policy it prints the number of decisions, the share of each
path, and the quartiles of q over the decisions that draw. The decisions
are classified before they are made, by the plan the allocation itself
follows (``policy._gaussian_plan``), and draw from the generator as
usual. The script only reports and writes no file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from orbandit import cli, simulation  # noqa: E402
from orbandit.policy import _SPLIT_SHARE, _gaussian_plan  # noqa: E402
from orbandit.simulation import ExperimentConfig, PolicyKind  # noqa: E402

PATHS = ("one-hot", "full", "kept", "split")
GAUSSIAN = (PolicyKind.FULL_TS, PolicyKind.OR_TS)


def classify(belief, n_draws: int) -> tuple[str, float]:
    """The path of one decision and its q, NaN for a one-hot decision."""
    kept, _, factor, _, q = _gaussian_plan(belief, n_draws)
    if factor is None:
        return "one-hot", q
    if q <= _SPLIT_SHARE:
        return "split", q
    return ("full" if kept.size == belief.dim else "kept"), q


def record(resolved: dict, spec, policy: PolicyKind) -> list[tuple[str, float]]:
    """Every Thompson decision of the config's replications of ``policy``."""
    seen = []
    allocate = simulation.allocation_proportions

    def classified(belief, n_draws, rng):
        seen.append(classify(belief, n_draws))
        return allocate(belief, n_draws, rng)

    config = ExperimentConfig(
        rounds=resolved["rounds"],
        trials_per_round=resolved["trials"],
        replications=resolved["replications"],
        policy=policy,
        seed=resolved["seed"],
        n_draws=resolved["n_draws"],
    )
    simulation.allocation_proportions = classified
    try:
        simulation.run_replications(config, spec, policies=(policy,))
    finally:
        simulation.allocation_proportions = allocate
    return seen


def report(policy: PolicyKind, seen: list[tuple[str, float]]) -> str:
    paths = [path for path, _ in seen]
    shares = "  ".join(f"{path} {paths.count(path) / max(len(seen), 1):6.1%}" for path in PATHS)
    q = np.array([value for path, value in seen if path != "one-hot"])
    quartiles = ("q quartiles " + " ".join(f"{v:.3g}" for v in np.percentile(q, [25, 50, 75]))
                 if q.size else "q quartiles -")
    return f"{policy.value}: {len(seen)} decisions  {shares}  {quartiles}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="JSON config or an emitted manifest.json")
    parser.add_argument("--policy", choices=cli._POLICY_CHOICES)
    for field, (kind, *_) in cli._SIMULATE_FIELDS.items():
        parser.add_argument("--" + field.replace("_", "-"), dest=field, type=kind)
    resolved, spec = cli._resolve_simulate_config(parser.parse_args(argv))
    policies = [p for p in GAUSSIAN if resolved["policy"] in ("all", p.value)]
    if not policies:
        print(f"{resolved['policy']}: no Gaussian decisions")
    for policy in policies:
        print(report(policy, record(resolved, spec, policy)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
