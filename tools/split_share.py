"""Shares of the paths the Thompson decisions of a ``simulate`` config take:
for the Gaussian policies the quartiles of their chance q of a row outside
the ball, for ``beta_ts`` those of the quadrature nodes per decision.

From the repository root:

    python tools/split_share.py --config tools/heavy_traffic.json
    python tools/split_share.py --config tools/heavy_traffic.json --replications 2

The config is one ``orbandit simulate`` takes, and its fields can be
overridden by the same ``--<field>`` flags. For each policy the config
names the script runs the config's replications as ``simulate`` does and
sorts every Thompson decision by the path it takes. A logistic policy's
(``full_ts`` and ``or_ts``) follow ``allocation_proportions``:

- ``one-hot``: the screen keeps the leader alone, and nothing is drawn;
- ``full``: every arm kept, m = K normals a row, no split;
- ``kept``: some arms dropped, one normal a row per kept arm but the
  reference, no split;
- ``split``: either of the two with the radial split, which applies when
  q = P(χ²(m) ≥ r*²) is at most one half (``policy._SPLIT_SHARE``).

``beta_ts``'s follow ``beta_ts_proportions``:

- ``one-hot``: the screen keeps the leader alone;
- ``quadrature``: every kept shape is at least 1 and every a + b at most
  1e12 (``policy._beta_by_quadrature``), and the Thompson probabilities
  come from ``policy._beta_win_chances``;
- ``monte-carlo``: the other decisions that draw, whose draws are tallied.

For each policy it prints the number of decisions, the share of each
path, and the quartiles of q over the Gaussian decisions that draw, or of
the nodes over the quadrature decisions. The decisions are classified
before they are made, by the plan the allocation itself follows
(``policy._gaussian_plan``, ``policy._beta_survivors``,
``policy._beta_by_quadrature`` and ``policy._beta_panels``), and draw
from the generator as usual. The script only reports and writes no file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from orbandit import cli, simulation  # noqa: E402
from orbandit.policy import (  # noqa: E402
    _QUAD_NODES,
    _SPLIT_SHARE,
    _beta_by_quadrature,
    _beta_panels,
    _beta_survivors,
    _gaussian_plan,
)
from orbandit.simulation import ExperimentConfig, PolicyKind  # noqa: E402

PATHS = ("one-hot", "full", "kept", "split")
BETA_PATHS = ("one-hot", "quadrature", "monte-carlo")


def classify(belief, n_draws: int) -> tuple[str, float]:
    """The path of one Gaussian decision and its q, NaN for a one-hot one."""
    kept, _, factor, _, q = _gaussian_plan(belief, n_draws)
    if factor is None:
        return "one-hot", q
    if q <= _SPLIT_SHARE:
        return "split", q
    return ("full" if kept.size == belief.dim else "kept"), q


def classify_beta(state, n_draws: int) -> tuple[str, float]:
    """The path of one Beta decision and its quadrature nodes, NaN for a
    decision that makes none."""
    keep = _beta_survivors(state, n_draws)
    alpha, beta = state.alpha[keep], state.beta[keep]
    if keep.sum() == 1:
        return "one-hot", np.nan
    if not _beta_by_quadrature(alpha, beta):
        return "monte-carlo", np.nan
    return "quadrature", float(_QUAD_NODES.size * (_beta_panels(alpha, beta)[0].size - 1))


# policy -> (the name simulation calls it by, its classifier, its paths,
# the quantity whose quartiles are printed)
HOOKS = {
    PolicyKind.BETA_TS: ("beta_ts_proportions", classify_beta, BETA_PATHS, "nodes"),
    PolicyKind.FULL_TS: ("allocation_proportions", classify, PATHS, "q"),
    PolicyKind.OR_TS: ("allocation_proportions", classify, PATHS, "q"),
}


def record(resolved: dict, spec, policy: PolicyKind) -> list[tuple[str, float]]:
    """Every Thompson decision of the config's replications of ``policy``."""
    seen = []
    name, classifier, _, _ = HOOKS[policy]
    allocate = getattr(simulation, name)

    def classified(state, n_draws, rng):
        seen.append(classifier(state, n_draws))
        return allocate(state, n_draws, rng)

    config = ExperimentConfig(
        rounds=resolved["rounds"],
        trials_per_round=resolved["trials"],
        replications=resolved["replications"],
        policy=policy,
        seed=resolved["seed"],
        n_draws=resolved["n_draws"],
    )
    setattr(simulation, name, classified)
    try:
        simulation.run_replications(config, spec, policies=(policy,))
    finally:
        setattr(simulation, name, allocate)
    return seen


def report(policy: PolicyKind, seen: list[tuple[str, float]]) -> str:
    _, _, names, quantity = HOOKS[policy]
    paths = [path for path, _ in seen]
    shares = "  ".join(f"{path} {paths.count(path) / max(len(seen), 1):6.1%}" for path in names)
    values = np.array([value for _, value in seen if not np.isnan(value)])
    quartiles = (" ".join(f"{v:.3g}" for v in np.percentile(values, [25, 50, 75]))
                 if values.size else "-")
    return f"{policy.value}: {len(seen)} decisions  {shares}  {quantity} quartiles {quartiles}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="JSON config or an emitted manifest.json")
    parser.add_argument("--policy", choices=cli._POLICY_CHOICES)
    for field, (kind, *_) in cli._SIMULATE_FIELDS.items():
        parser.add_argument("--" + field.replace("_", "-"), dest=field, type=kind)
    resolved, spec = cli._resolve_simulate_config(parser.parse_args(argv))
    for policy in HOOKS:
        if resolved["policy"] in ("all", policy.value):
            print(report(policy, record(resolved, spec, policy)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
