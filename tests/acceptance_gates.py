"""The seeded statistical gates of acceptance tests 06–09, one function each.

Each gate takes its seed and returns the values it reports, its margins
and whether it passed. ``test_acceptance`` runs each at tier-1's seed and
asserts that it passed; ``tools/gates.py`` runs the same functions on
more seeds to count passes, so both read one definition of each config
and bound. ``jobs`` is the worker-process count of ``run_replications``,
whose results do not depend on it.
"""

import numpy as np

from orbandit import (
    ContinuousScenario,
    ExperimentConfig,
    PolicyKind,
    ScenarioRound,
    UpdateMode,
    drift_environment,
    run_continuous,
    run_replications,
    sample,
    two_regime_schedule,
)

POLICIES = (PolicyKind.BETA_TS, PolicyKind.FULL_TS, PolicyKind.OR_TS)
# Tier-1's seed of each gate; 09's is the first of its twenty scenario seeds.
TIER1_SEEDS = {"06": 1001, "07": 1001, "08": 42, "09": 0}


def _drift_summary(seed: int, drift: float, jobs: int):
    config = ExperimentConfig(rounds=50, trials_per_round=10_000, replications=20,
                              policy=PolicyKind.OR_TS, seed=seed, n_draws=10_000)
    return run_replications(config, drift_environment(10, 0.31, 0.30, drift),
                            policies=POLICIES, jobs=jobs)


def gate_06(seed: int, jobs: int = 1):
    """Stationary arms (0.31 vs nine at 0.30): the two full-rank policies'
    mean final regrets are within 25% of each other, and the odds-ratio
    policy's lies between full-rank's and twice it."""
    summary = _drift_summary(seed, 0.0, jobs)
    beta, full, odds = (float(summary.mean_cumulative_regret(p)[-1]) for p in POLICIES)
    margins = {"odds/full": odds / full, "max/min": max(beta, full) / min(beta, full)}
    passed = max(beta, full) <= 1.25 * min(beta, full) and full <= odds <= 2.0 * full
    return {"beta_ts": beta, "full_ts": full, "or_ts": odds}, margins, passed


def gate_07(seed: int, jobs: int = 1):
    """Shared drift of twenty logit gaps: the odds-ratio policy has the
    lowest mean final regret and the lowest final regret in at least 16 of
    20 paired replications."""
    summary = _drift_summary(seed, 20.0, jobs)
    beta, full, odds = (summary.cumulative_regret(p)[:, -1] for p in POLICIES)
    wins = int(np.sum((odds < beta) & (odds < full)))
    means = [float(curve.mean()) for curve in (beta, full, odds)]
    margins = {"or/beta": means[2] / means[0], "or/full": means[2] / means[1], "wins": wins}
    passed = means[2] < means[0] and means[2] < means[1] and wins >= 16
    return dict(zip(("beta_ts", "full_ts", "or_ts"), means)), margins, passed


def gate_08(seed: int, jobs: int = 1):
    """A shared logit drop mid-experiment, with daily jitter: the odds-ratio
    policy collects at least as many expected clicks as each baseline, with
    a positive mean uplift per replication."""
    spec = two_regime_schedule((0.035, 0.030, 0.030, 0.030), block_rounds=(10, 8),
                               boundary_shift=-1.0, daily_sigma=0.25, trials=20_000, seed=0)
    config = ExperimentConfig(rounds=18, trials_per_round=20_000, replications=20,
                              policy=PolicyKind.OR_TS, seed=seed, n_draws=10_000)
    summary = run_replications(config, spec, policies=POLICIES, jobs=jobs)
    beta, full, odds = (summary.total_expected_clicks(p) for p in POLICIES)
    uplifts = [float(np.mean(odds - base)) for base in (beta, full)]
    passed = all(odds.sum() >= base.sum() for base in (beta, full)) and min(uplifts) > 0.0
    values = dict(zip(("beta_ts", "full_ts", "or_ts"),
                      (float(clicks.sum()) for clicks in (beta, full, odds))))
    return values, dict(zip(("uplift/beta", "uplift/full"), uplifts)), passed


def gate_09(seed: int):
    """After rounds {A,B,C} then {B,C,D} on scenario seeds ``seed`` to
    ``seed + 19``, the posterior puts more than 0.9 probability on A
    beating D in at least 18 of the 20 runs, though A and D never ran
    together."""
    hits = 0
    for scenario_seed in range(seed, seed + 20):
        rounds = (
            ScenarioRound(("A", "B", "C"), {"A": 0.35, "B": 0.30, "C": 0.30}, 5000),
            ScenarioRound(("B", "C", "D"), {"B": 0.30, "C": 0.30, "D": 0.25}, 5000),
        )
        registry = run_continuous(ContinuousScenario(
            rounds, mode=UpdateMode.ODDS_RATIO, seed=scenario_seed, n_draws=10_000)).registry
        draws = sample(registry.belief, 4096, np.random.default_rng(scenario_seed + 10_000))
        a, d = registry.arms.index("A"), registry.arms.index("D")
        hits += float(np.mean(draws[:, a] > draws[:, d])) > 0.9
    return {}, {"hits": hits}, hits >= 18


GATES = {"06": gate_06, "07": gate_07, "08": gate_08, "09": gate_09}
