"""Workload definitions and the seeded changing-arms scenario generator.

Every size a run uses is fixed here; the seed given on the command line
only chooses the random draws. ``Workload.tiny`` shrinks a workload for
the benchmark's own smoke tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

POLICIES = ("beta_ts", "full_ts", "or_ts")

P_OPTIMAL = 0.31
P_SUBOPTIMAL = 0.30

# Arms that leave, and arms that enter, each changing-arms round.
CHURN = 4
# Logit offsets of successive new arms against the 0.30 base rate.
CHURN_OFFSETS = (0.15, -0.05, 0.05, -0.15, 0.10, -0.10, 0.0)


@dataclass(frozen=True)
class Workload:
    name: str
    arms: int
    trials: int
    # Study: replications and rounds per study run. A per-cell study runs
    # the CLI once per (policy, replication) so one failure costs one cell.
    # On churn the study runs the scenario, of study_rounds rounds, once in
    # each logistic mode.
    study_replications: int
    study_rounds: int
    study_per_cell: bool = False
    # Decision loop: rounds per replication (ignored for churn, where a
    # replication is one pass over the scenario).
    decision_rounds: int = 10
    min_decisions: int = 100
    # Decision-loop replications per policy in the traced run.
    trace_reps: int = 10
    churn: bool = False
    # regret_share.* is the mean over the decision loop's first regret_reps
    # replications of their mean regret share over the first regret_rounds
    # rounds (0: all). The loop always runs at least regret_reps passes.
    regret_reps: int = 10
    regret_rounds: int = 0
    # alloc_err panel: beliefs captured from a decision loop with this many
    # trials per round (0 means the workload's own), and draws per check.
    panel_trials: int = 0
    panel_size: int = 12
    panel_repeats: int = 10
    setup_repeats: int = 5
    n_draws: int = 10_000
    d: float = 20.0

    def tiny(self) -> "Workload":
        """A few-second version with the same code paths, for smoke tests."""
        return replace(
            self,
            arms=min(self.arms, 6),
            study_replications=min(self.study_replications, 2),
            study_rounds=min(self.study_rounds, 6 if self.churn else 3),
            decision_rounds=3,
            min_decisions=4,
            trace_reps=1,
            regret_reps=1,
            regret_rounds=min(self.regret_rounds, 3),
            panel_trials=min(self.panel_trials, 2_000),
            panel_size=2,
            panel_repeats=1,
            setup_repeats=1,
            n_draws=500,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk_drift", arms=10, trials=10_000,
                 study_replications=8, study_rounds=10, trace_reps=10, regret_reps=32),
        Workload("wide_arms", arms=200, trials=10_000,
                 study_replications=4, study_rounds=3, trace_reps=3,
                 panel_size=2, panel_repeats=4),
        # Every belief captured at 1e6 trials per round puts all Monte Carlo
        # draws on one arm, so the alloc_err panel comes from 1e4-trial
        # rounds of the same environment. Regret averages the first four
        # rounds, which most replications reach before any failure, so that
        # fixing failures changes little of what is averaged.
        Workload("heavy_traffic", arms=10, trials=1_000_000,
                 study_replications=10, study_rounds=20, study_per_cell=True,
                 decision_rounds=20, trace_reps=6, regret_reps=48, regret_rounds=4,
                 panel_trials=10_000),
        # arms is the active-set size; study_rounds the scenario length.
        Workload("continuous_churn", arms=11, trials=10_000,
                 study_replications=1, study_rounds=36, churn=True,
                 trace_reps=3, regret_reps=12),
    )
}


def churn_scenario(seed: int, rounds: int, active_size: int, trials: int) -> list[dict]:
    """Scripted changing-arms rounds as the ``orbandit continuous`` file
    format expects them (``active``, ``p``, ``trials`` per round).

    Every round has ``active_size`` arms. After the first, four of them
    leave and four enter: one arm seen since the last break (when there is
    one) and three unseen ones, whose logits cycle through
    ``CHURN_OFFSETS``; every logit also shifts by one shared draw. Every third round the tracked set's reference arm is among those
    leaving, which forces a re-anchor; otherwise it stays. A third of the
    way in, one round keeps a single arm and brings only unseen ones, so it
    shares fewer than two arms with the tracked set and forces a
    reinitialization. The seed picks which arms move, never how many, so
    the work per round is the same on every seed.
    """
    rng = np.random.default_rng([seed, 4])
    base: dict[str, float] = {}

    def new_arms(count: int) -> list[str]:
        arms = []
        for _ in range(count):
            arm = f"arm{len(base):03d}"
            offset = CHURN_OFFSETS[len(base) % len(CHURN_OFFSETS)]
            base[arm] = float(np.log(P_SUBOPTIMAL / (1 - P_SUBOPTIMAL)) + offset)
            arms.append(arm)
        return arms

    active = new_arms(active_size)
    # The registry's arm order, reference last, as absorb_round keeps it.
    order = list(active)
    scenario = []
    for index in range(rounds):
        if index == rounds // 3:
            active = [active[int(rng.integers(active_size))]] + new_arms(active_size - 1)
            order = list(active)
        elif index > 0:
            reference = order[-1]
            others = [a for a in active if a != reference]
            forced = [reference] if index % 3 == 0 else []
            leaving = set(forced) | set(
                rng.choice(others, size=CHURN - len(forced), replace=False).tolist())
            idle = [a for a in order if a not in active]
            returning = [idle[int(rng.integers(len(idle)))]] if idle else []
            active = ([a for a in active if a not in leaving] + returning
                      + new_arms(CHURN - len(returning)))
            if reference not in active:
                anchor = next(a for a in order if a in active)
                order = [a for a in order if a != anchor] + [anchor]
            order = order[:-1] + [a for a in active if a not in order] + order[-1:]
        shift = rng.normal(0.0, 0.3)
        p = {a: float(1.0 / (1.0 + np.exp(-(base[a] + shift)))) for a in active}
        scenario.append({"active": active, "p": p, "trials": trials})
    return scenario
