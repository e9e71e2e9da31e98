"""Synthetic environments and the batch-experiment harness.

Environments produce per-arm success probabilities per round: a constant
vector, a logit-space random walk where one shared draw shifts every arm
together each round, or an explicit per-round schedule. The environment
sets the arm count; a schedule also sets the rounds and their trials. The
harness runs a policy against an environment round by round, returns
allocations and regret as per-round columns, and stacks paired
replications across policies.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from itertools import repeat
from typing import Mapping, Sequence, Union

import numpy as np
from scipy.special import expit, logit

from .errors import (
    BanditError,
    ConfigError,
    SimulationError,
    _check_choice,
    _check_count,
    _check_number,
    _frozen_numbers,
    _numbers,
)
from .gaussian_belief import GaussianBelief
from .logistic_model import ProbVector, RoundData
from .policy import (
    AllocationProportions,
    BetaState,
    LogisticPolicyState,
    UpdateMode,
    allocation_proportions,
    beta_ts_proportions,
    beta_ts_update,
    full_ts_update,
    initial_proportions,
    or_ts_update,
)

__all__ = [
    "Stationary",
    "LogitDrift",
    "RegimeSchedule",
    "EnvironmentSpec",
    "PolicyKind",
    "ExperimentConfig",
    "ExperimentResult",
    "SimulationSummary",
    "sigma_from_d",
    "env_step",
    "allocate_trials",
    "draw_rewards",
    "run_experiment",
    "run_replications",
    "single_best_arm_logits",
    "drift_environment",
    "two_regime_schedule",
]


@dataclass(frozen=True)
class Stationary:
    """Success probabilities fixed for every round."""

    p: ProbVector

    def __post_init__(self):
        if not isinstance(self.p, ProbVector):
            object.__setattr__(self, "p", ProbVector(self.p))


@dataclass(frozen=True)
class LogitDrift:
    """Fixed per-arm logits plus one shared Gaussian shift per round.

    The shift is common to all arms, so the identity of the best arm never
    changes even though every success probability moves each round.
    """

    base_beta: np.ndarray
    sigma: float

    def __post_init__(self):
        if _frozen_numbers(self, "base_beta").size < 1:
            raise ConfigError("base logits must be a non-empty vector")
        object.__setattr__(self, "sigma", _check_number("sigma", self.sigma, 0.0))


@dataclass(frozen=True)
class RegimeSchedule:
    """Explicit (probabilities, trials) per round; trials override the
    experiment config's per-round total."""

    rounds: tuple[tuple[ProbVector, int], ...]

    def __post_init__(self):
        rounds = tuple((Stationary(p).p, int(_check_count("trials", t, 0))) for p, t in self.rounds)
        if not rounds:
            raise ConfigError("schedule must contain at least one round")
        if len({p.arms for p, _ in rounds}) > 1:
            raise ConfigError("all schedule rounds must cover the same arms")
        object.__setattr__(self, "rounds", rounds)


EnvironmentSpec = Union[Stationary, LogitDrift, RegimeSchedule]


class PolicyKind(str, Enum):
    BETA_TS = "beta_ts"
    FULL_TS = "full_ts"
    OR_TS = "or_ts"


@dataclass(frozen=True)
class ExperimentConfig:
    """Run settings of one simulated experiment; the environment sets its arms."""

    rounds: int
    trials_per_round: int
    replications: int
    policy: PolicyKind
    seed: int
    n_draws: int = 10_000

    def __post_init__(self):
        object.__setattr__(self, "policy", _check_choice("policy", PolicyKind, self.policy))
        for name in ("rounds", "trials_per_round", "replications", "n_draws", "seed"):
            _check_count(name, getattr(self, name), 0 if name == "seed" else 1)


@dataclass(frozen=True)
class ExperimentResult:
    """One experiment in columns; row t holds round t + 1.

    ``proportions``, ``allocated``, ``successes`` and ``true_p`` have shape
    (rounds, arms); ``regret`` and ``expected_clicks`` have shape (rounds,).
    """

    proportions: np.ndarray
    allocated: np.ndarray
    successes: np.ndarray
    true_p: np.ndarray
    regret: np.ndarray
    expected_clicks: np.ndarray


def _check_rates(p_optimal: float, p_suboptimal: float) -> tuple[float, float]:
    """Both rates as floats; ``ConfigError`` unless 0 < p_suboptimal < p_optimal < 1."""
    high = _check_number("p_optimal", p_optimal, 0.0, 1.0)
    low = _check_number("p_suboptimal", p_suboptimal, 0.0, 1.0)
    if not 0.0 < low < high < 1.0:
        raise ConfigError(f"need 0 < p_suboptimal < p_optimal < 1, got {low} and {high}")
    return high, low


def sigma_from_d(d: float, p_optimal: float, p_suboptimal: float) -> float:
    """Drift scale calibrated to the optimality gap.

    ``d`` is the shared drift's standard deviation measured in units of the
    logit gap between the best and runner-up success probabilities.
    """
    p_optimal, p_suboptimal = _check_rates(p_optimal, p_suboptimal)
    return _check_number("d", d, 0.0) * float(logit(p_optimal) - logit(p_suboptimal))


def _environment(spec: EnvironmentSpec) -> tuple[int, tuple | None]:
    """What a spec fixes for a whole run: its arm count and, for a
    schedule, its (probabilities, trials) rounds (None otherwise)."""
    if isinstance(spec, Stationary):
        return spec.p.arms, None
    if isinstance(spec, LogitDrift):
        return spec.base_beta.size, None
    if isinstance(spec, RegimeSchedule):
        return spec.rounds[0][0].arms, spec.rounds
    raise ConfigError(f"unknown environment spec {type(spec).__name__}")


def env_step(spec: EnvironmentSpec, round_index: int, rng: np.random.Generator) -> ProbVector:
    """Success probabilities for the given 1-based round."""
    _check_count("round_index", round_index, 1)
    _, schedule = _environment(spec)
    if isinstance(spec, LogitDrift):
        return ProbVector(expit(spec.base_beta + rng.normal(0.0, spec.sigma)))
    if schedule is None:
        return spec.p
    if round_index > len(schedule):
        raise ConfigError(f"round {round_index} is beyond the {len(schedule)}-round schedule")
    return schedule[round_index - 1][0]


def allocate_trials(
    proportions: AllocationProportions, total: int, rng: np.random.Generator
) -> np.ndarray:
    """Split a round's trial budget across arms by one multinomial draw.

    The shares are divided by their sum first, so their rounding error
    (up to 1e-9) never reaches the draw. The multinomial draw matches how
    traffic actually splits when each visitor is routed independently.
    """
    _check_count("total", total, 0)
    p = proportions.p
    return rng.multinomial(total, p / p.sum()).astype(np.int64)


def draw_rewards(allocated, true_p: ProbVector, rng: np.random.Generator) -> np.ndarray:
    """Binomial successes per arm for the given trial counts."""
    allocated = _numbers("allocated", allocated, np.int64)
    p = true_p.p
    if allocated.shape != p.shape:
        raise ConfigError(
            f"allocated shape {allocated.shape} does not match probabilities {p.shape}"
        )
    if np.any(allocated < 0):
        raise ConfigError("trial counts must be non-negative")
    return rng.binomial(allocated, p).astype(np.int64)


_PolicyState = Union[BetaState, LogisticPolicyState]


def _initial_state(policy: PolicyKind, arms: int) -> _PolicyState:
    if policy is PolicyKind.BETA_TS:
        return BetaState.uniform_prior(arms)
    mode = UpdateMode.ODDS_RATIO if policy is PolicyKind.OR_TS else UpdateMode.FULL
    return LogisticPolicyState.flat_start(arms, mode)


# The round step of run_experiment and of continuous' plan_round and
# absorb_round. It looks the policy functions up in this module at call time,
# so a tracer or a fault injection must rebind them here to reach either loop.
def _thompson(belief: GaussianBelief, n_draws: int,
              rng: np.random.Generator) -> AllocationProportions | None:
    """Thompson proportions of a logistic belief, or None while the law of
    its scored coordinates is improper.

    Every coordinate but the last is scored; the last, the reference's
    base rate, scores zero. When the last coordinate is flat (its
    precision row is zero, as after an odds-ratio update on a round
    without trials), that row couples it to nothing, so giving it unit
    precision leaves the scored coordinates' law unchanged. Any other flat
    direction moves some scored coordinate, and is kept.
    """
    if not belief.precision[-1].any():
        precision = belief.precision.copy()
        precision[-1, -1] = 1.0
        belief = GaussianBelief(belief.mean, precision)
    if not belief.is_proper():
        return None
    return allocation_proportions(belief, n_draws, rng)


def _propose(state: _PolicyState, n_draws: int, rng: np.random.Generator) -> AllocationProportions:
    """Thompson proportions after round 1; a logistic state splits evenly
    while the law of its scored coordinates is improper."""
    if isinstance(state, BetaState):
        return beta_ts_proportions(state, n_draws, rng)
    proportions = _thompson(state.belief, n_draws, rng)
    return initial_proportions(state.belief.dim) if proportions is None else proportions


def _update(state: _PolicyState, data: RoundData) -> _PolicyState:
    if isinstance(state, BetaState):
        return beta_ts_update(state, data)
    if state.mode is UpdateMode.ODDS_RATIO:
        return or_ts_update(state, data)
    return full_ts_update(state, data)


def run_experiment(config: ExperimentConfig, spec: EnvironmentSpec) -> ExperimentResult:
    """One policy against one environment for the configured rounds.

    Per round: step the environment, propose proportions (an even split in
    round 1), split the trial budget, draw rewards, update the policy
    state, and keep one record of the round. The records are stacked into
    columns once; regret against each round's best arm and expected
    clicks are row sums. Four independent substreams (environment,
    allocation, rewards, policy sampling) are derived from the seed, so
    two policies run with the same seed face identical environments and
    differ only through their own decisions.
    """
    arms, schedule = _environment(spec)
    if schedule is not None and config.rounds > len(schedule):
        raise ConfigError(
            f"config asks for {config.rounds} rounds but the schedule has {len(schedule)}"
        )
    streams = np.random.SeedSequence(config.seed).spawn(4)
    rng_env, rng_alloc, rng_reward, rng_policy = (np.random.default_rng(s) for s in streams)
    state = _initial_state(config.policy, arms)
    records = []
    for row in range(config.rounds):
        round_index = row + 1
        # Outside the try: an environment that leaves (0, 1) is an input error.
        env_p = env_step(spec, round_index, rng_env)
        trials = config.trials_per_round if schedule is None else schedule[row][1]
        try:
            proportions = (initial_proportions(arms) if row == 0
                           else _propose(state, config.n_draws, rng_policy))
            allocated = allocate_trials(proportions, trials, rng_alloc)
            successes = draw_rewards(allocated, env_p, rng_reward)
            state = _update(state, RoundData(allocated, successes))
        except BanditError as exc:
            raise SimulationError(config.policy.value, round_index, str(exc), config.seed) from exc
        records.append((proportions.p, allocated, successes, env_p.p))
    proportions, allocated, successes, true_p = map(np.array, zip(*records))
    return ExperimentResult(
        proportions, allocated, successes, true_p,
        regret=np.sum(allocated * (true_p.max(axis=1, keepdims=True) - true_p), axis=1),
        expected_clicks=np.sum(allocated * true_p, axis=1),
    )


@dataclass(frozen=True)
class SimulationSummary:
    """Per-round regret and expected clicks of paired replications: for
    each policy, one array of shape (replications, rounds) per quantity."""

    policies: tuple[PolicyKind, ...]
    regret: Mapping[PolicyKind, np.ndarray]
    expected_clicks: Mapping[PolicyKind, np.ndarray]

    def _rows(self, column: Mapping[PolicyKind, np.ndarray], policy: PolicyKind) -> np.ndarray:
        """``column``'s rows for ``policy``; ``ConfigError`` unless the summary ran it."""
        policy = _check_choice("policy", PolicyKind, policy)
        if policy not in self.policies:
            raise ConfigError(f"field 'policy' must be one of the summary's policies "
                              f"{[p.value for p in self.policies]}, got {policy.value!r}")
        return column[policy]

    def cumulative_regret(self, policy: PolicyKind) -> np.ndarray:
        """Cumulative regret curves, shape (replications, rounds)."""
        return self._rows(self.regret, policy).cumsum(axis=1)

    def mean_cumulative_regret(self, policy: PolicyKind) -> np.ndarray:
        return self.cumulative_regret(policy).mean(axis=0)

    def stderr_cumulative_regret(self, policy: PolicyKind) -> np.ndarray:
        curves = self.cumulative_regret(policy)
        if curves.shape[0] < 2:
            return np.zeros(curves.shape[1])
        return curves.std(axis=0, ddof=1) / np.sqrt(curves.shape[0])

    def total_expected_clicks(self, policy: PolicyKind) -> np.ndarray:
        """Expected clicks summed over rounds, one entry per replication.

        The sum runs left to right, as ``cumsum`` does; ``sum(axis=1)``
        would add pairwise and round differently.
        """
        return self._rows(self.expected_clicks, policy).cumsum(axis=1)[:, -1]


def run_replications(
    config: ExperimentConfig,
    spec: EnvironmentSpec,
    policies: Sequence[PolicyKind] | None = None,
    jobs: int = 1,
) -> SimulationSummary:
    """Paired replications, optionally across several policies.

    Replication r runs with seed ``config.seed + r`` for every policy, so
    policies can be compared pairwise on identical environment draws; the
    last of these seeds must fit int64, and no policy may repeat. The runs
    go to at most ``jobs`` worker processes, never more than there are
    runs, and in this process when that is one; the results do not depend
    on ``jobs``.
    """
    _check_count("jobs", jobs, 1)
    chosen = tuple(_check_choice("policies", PolicyKind, p)
                   for p in (policies if policies is not None else (config.policy,)))
    if not chosen:
        raise ConfigError("at least one policy is required")
    if len(set(chosen)) < len(chosen):
        raise ConfigError(f"field 'policies' must not repeat a policy, "
                          f"got {[p.value for p in chosen]}")
    if config.seed > np.iinfo(np.int64).max - config.replications + 1:
        raise ConfigError(f"fields 'seed' + 'replications' - 1 must fit int64, "
                          f"got {config.seed} + {config.replications} - 1")
    configs = [
        replace(config, policy=policy, seed=config.seed + rep)
        for policy in chosen
        for rep in range(config.replications)
    ]
    # More workers than runs would only fork idle processes.
    workers = min(jobs, len(configs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_experiment, configs, repeat(spec)))
    else:
        results = list(map(run_experiment, configs, repeat(spec)))

    def by_policy(column: str) -> dict[PolicyKind, np.ndarray]:
        stacked = np.stack([getattr(result, column) for result in results])
        return dict(zip(chosen, stacked.reshape(len(chosen), config.replications, -1)))

    return SimulationSummary(chosen, by_policy("regret"), by_policy("expected_clicks"))


def single_best_arm_logits(arms: int, p_optimal: float, p_suboptimal: float) -> np.ndarray:
    """Per-arm logits with arm 0 at the optimal rate and the rest tied."""
    _check_count("arms", arms, 1)
    p_optimal, p_suboptimal = _check_rates(p_optimal, p_suboptimal)
    base = np.full(arms, float(logit(p_suboptimal)))
    base[0] = float(logit(p_optimal))
    return base


def drift_environment(
    arms: int, p_optimal: float, p_suboptimal: float, d: float
) -> EnvironmentSpec:
    """Standard benchmark environment: one best arm, optional shared drift.

    With ``d == 0`` the rates are constant; otherwise every round shifts
    all logits together by a Gaussian draw whose scale is ``d`` logit gaps.
    """
    base = single_best_arm_logits(arms, p_optimal, p_suboptimal)
    if d == 0:
        return Stationary(expit(base))
    return LogitDrift(base, sigma_from_d(d, p_optimal, p_suboptimal))


def two_regime_schedule(
    base_p: Sequence[float],
    block_rounds: Sequence[int] = (10, 8),
    boundary_shift: float = -1.0,
    daily_sigma: float = 0.0,
    trials: int | Sequence[int] = 20_000,
    seed: int = 0,
) -> RegimeSchedule:
    """Schedule with a large shared logit shift between blocks.

    Every arm's logit moves by ``boundary_shift`` at each block boundary,
    on top of optional day-to-day shared jitter of scale ``daily_sigma``;
    relative arm quality never changes. ``trials`` may be a scalar or one
    total per block. Deterministic for a fixed seed.
    """
    base = logit(_numbers("base_p", base_p))
    if base.size < 1 or not np.all(np.isfinite(base)):
        raise ConfigError("base probabilities must be a non-empty vector inside (0, 1)")
    blocks = [_check_count("block_rounds", b, 1) for b in block_rounds]
    per_block = [trials] * len(blocks) if np.isscalar(trials) else list(trials)
    if len(per_block) != len(blocks):
        raise ConfigError("need one trial total per block")
    boundary_shift = _check_number("boundary_shift", boundary_shift, -np.inf)
    daily_sigma = _check_number("daily_sigma", daily_sigma, 0.0)
    rng = np.random.default_rng(_check_count("seed", seed, 0))
    rounds = []
    for block_index, block_len in enumerate(blocks):
        offset = boundary_shift * block_index
        for _ in range(block_len):
            jitter = rng.normal(0.0, daily_sigma) if daily_sigma > 0 else 0.0
            rounds.append((expit(base + offset + jitter), per_block[block_index]))
    return RegimeSchedule(tuple(rounds))
