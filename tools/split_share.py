"""Shares of the paths the Thompson decisions of a ``simulate`` config take:
for the Gaussian policies the quartiles of their chance q of a row outside
the ball, and for every policy those of the quadrature nodes per decision.

From the repository root:

    python tools/split_share.py --config tools/heavy_traffic.json
    python tools/split_share.py --config tools/heavy_traffic.json --replications 2

The config is one ``orbandit simulate`` takes, and its fields can be
overridden by the same ``--<field>`` flags. For each policy the config
names the script runs the config's replications as ``simulate`` does and
sorts every Thompson decision by the path it takes. A logistic policy's
(``full_ts`` and ``or_ts``) follow ``allocation_proportions``, which
decides by the type of the belief:

- ``one-hot``: the screen keeps the leader alone, and nothing is drawn;
- ``quadrature``: the screen keeps at least two arms, and either the
  belief holds independent arm logits (a ``LogitBelief``, as every
  ``full_ts`` belief does) or it is a dense arrow whose screen drops some
  arms, so the Thompson probabilities come from
  ``policy._normal_win_chances``;
- ``full``: all K coordinates drawn, K normals a row, no split;
- ``split``: all K coordinates drawn with the radial split, which applies
  when q = P(χ²(K) ≥ r*²) is at most one half (``policy._SPLIT_SHARE``).

``beta_ts``'s follow ``beta_ts_proportions``:

- ``one-hot``: the screen keeps the leader alone;
- ``quadrature``: every kept shape is at least 1 and every a + b at most
  1e12, and the Thompson probabilities come from
  ``policy._beta_win_chances``;
- ``monte-carlo``: the other decisions that draw, whose draws are tallied.

For each policy it prints the number of decisions, the share of each
path, the quartiles of q over the Gaussian decisions that draw normals,
and those of the nodes over the quadrature decisions. Each decision's path
is read, before it is made, from the plan the allocation itself follows
(``policy._gaussian_plan`` or ``policy._beta_plan``), its nodes from the
panel edges the integrator itself takes (``policy._quadrature_edges`` on
``policy._normal_quadrature`` or ``policy._beta_quadrature`` of the kept
arms), and the decision then draws from the generator as usual. The
script only reports and writes no file.
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
    _beta_plan,
    _beta_quadrature,
    _gaussian_plan,
    _normal_quadrature,
    _quadrature_edges,
)
from orbandit.simulation import ExperimentConfig, PolicyKind  # noqa: E402

PATHS = ("one-hot", "quadrature", "full", "split")
BETA_PATHS = ("one-hot", "quadrature", "monte-carlo")


def quadrature_nodes(quadrature: tuple) -> float:
    """The nodes the integrator evaluates for ``_win_chances``' arguments."""
    return float(_QUAD_NODES.size * (_quadrature_edges(*quadrature[:2]).size - 1))


def classify(belief, n_draws: int) -> tuple[str, float, float]:
    """The path of one Gaussian decision, its q, NaN for a decision that
    draws no normals, and its quadrature nodes, NaN for a decision that
    makes none."""
    path, _, _, _, q, logits = _gaussian_plan(belief, n_draws)
    if path != "quadrature":
        return path, q, np.nan
    return path, q, quadrature_nodes(_normal_quadrature(*logits))


def classify_beta(state, n_draws: int) -> tuple[str, float]:
    """The path of one Beta decision and its quadrature nodes, NaN for a
    decision that makes none."""
    path, kept = _beta_plan(state, n_draws)
    if path != "quadrature":
        return path, np.nan
    return path, quadrature_nodes(_beta_quadrature(state.alpha[kept], state.beta[kept]))


# policy -> (the name simulation calls it by, its classifier, its paths,
# the quantities after the path whose quartiles are printed)
HOOKS = {
    PolicyKind.BETA_TS: ("beta_ts_proportions", classify_beta, BETA_PATHS, ("nodes",)),
    PolicyKind.FULL_TS: ("allocation_proportions", classify, PATHS, ("q", "nodes")),
    PolicyKind.OR_TS: ("allocation_proportions", classify, PATHS, ("q", "nodes")),
}


def record(resolved: dict, spec, policy: PolicyKind) -> list[tuple]:
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


def quartiles(values: list[float]) -> str:
    values = np.array([value for value in values if not np.isnan(value)])
    return " ".join(f"{v:.3g}" for v in np.percentile(values, [25, 50, 75])) if values.size else "-"


def report(policy: PolicyKind, seen: list[tuple]) -> str:
    _, _, names, quantities = HOOKS[policy]
    paths = [path for path, *_ in seen]
    shares = "  ".join(f"{path} {paths.count(path) / max(len(seen), 1):6.1%}" for path in names)
    spreads = "  ".join(f"{quantity} quartiles {quartiles([values[i] for _, *values in seen])}"
                        for i, quantity in enumerate(quantities))
    return f"{policy.value}: {len(seen)} decisions  {shares}  {spreads}"


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
