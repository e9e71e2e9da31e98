"""Batch Thompson sampling policies for binary rewards.

Three policies share one allocation interface: a conjugate Beta policy that
tracks each arm independently, a full-rank logistic policy that carries the
whole Gaussian belief between rounds, and an odds-ratio logistic policy
that forgets the shared base-rate coordinate before every update so that
drift common to all arms cannot contaminate the relative parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, _check_choice, _check_count, _frozen_numbers
from .gaussian_belief import (
    GaussianBelief,
    embed_flat_last,
    make_flat_belief,
    marginalize_drop_last,
    sample,
)
from .logistic_model import RoundData, laplace_update

__all__ = [
    "UpdateMode",
    "BetaState",
    "LogisticPolicyState",
    "AllocationProportions",
    "initial_proportions",
    "allocation_proportions",
    "full_ts_update",
    "or_ts_update",
    "beta_ts_update",
    "beta_ts_proportions",
]


class UpdateMode(str, Enum):
    """How a logistic policy carries its belief across rounds."""

    FULL = "full"
    ODDS_RATIO = "odds_ratio"


@dataclass(frozen=True)
class BetaState:
    """Independent Beta(alpha_i, beta_i) posterior per arm."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        alpha = _frozen_numbers(self, "alpha")
        beta = _frozen_numbers(self, "beta")
        if alpha.size < 1 or alpha.shape != beta.shape:
            raise ConfigError("alpha and beta must be non-empty and equal length")
        if np.any(alpha <= 0) or np.any(beta <= 0):
            raise ConfigError("Beta parameters must be positive")

    @property
    def arms(self) -> int:
        return self.alpha.size

    @classmethod
    def uniform_prior(cls, num_arms: int) -> "BetaState":
        """Beta(1, 1) on every arm."""
        _check_count("num_arms", num_arms, 1)
        return cls(np.ones(num_arms), np.ones(num_arms))


@dataclass(frozen=True)
class LogisticPolicyState:
    """Gaussian belief over the odds-ratio parameters plus bookkeeping."""

    belief: GaussianBelief
    mode: UpdateMode
    round_index: int = 0

    def __post_init__(self):
        if self.belief.dim < 1:
            raise ConfigError("policy belief must cover at least one arm")
        _check_count("round_index", self.round_index, 0)
        object.__setattr__(self, "mode", _check_choice("mode", UpdateMode, self.mode))

    @classmethod
    def flat_start(cls, num_arms: int, mode: UpdateMode) -> "LogisticPolicyState":
        return cls(make_flat_belief(num_arms), mode, 0)


@dataclass(frozen=True)
class AllocationProportions:
    """Traffic shares per arm: non-negative and summing to one."""

    p: np.ndarray

    def __post_init__(self):
        p = _frozen_numbers(self, "p")
        if p.size < 1:
            raise ConfigError("proportions must be non-empty")
        if np.any(p < 0) or abs(float(p.sum()) - 1.0) > 1e-9:
            raise ConfigError("proportions must be non-negative and sum to one")

    @property
    def arms(self) -> int:
        return self.p.size


def initial_proportions(num_arms: int) -> AllocationProportions:
    """Uniform split used before the first posterior exists."""
    _check_count("num_arms", num_arms, 1)
    return AllocationProportions(np.full(num_arms, 1.0 / num_arms))


def allocation_proportions(
    belief: GaussianBelief, n_draws: int, rng: np.random.Generator
) -> AllocationProportions:
    """Thompson proportions: the Monte Carlo winner frequency per arm.

    Each posterior draw is scored with the reference coordinate replaced by
    zero, which ranks arms by their log odds against the reference without
    moving the shared base rate; ties break toward the lowest arm index.
    """
    _check_count("n_draws", n_draws, 1)
    scores = sample(belief, n_draws, rng)
    scores[:, -1] = 0.0
    winners = np.argmax(scores, axis=1)
    counts = np.bincount(winners, minlength=belief.dim)
    return AllocationProportions(counts / float(n_draws))


def full_ts_update(state: LogisticPolicyState, data: RoundData) -> LogisticPolicyState:
    """Absorb a round keeping the entire belief as the prior."""
    belief = laplace_update(state.belief, data)
    return LogisticPolicyState(belief, state.mode, state.round_index + 1)


def or_ts_update(state: LogisticPolicyState, data: RoundData) -> LogisticPolicyState:
    """Absorb a round after forgetting the shared base-rate coordinate.

    The prior is the belief's marginal over the odds-ratio coordinates with
    a fresh flat coordinate appended for the base rate, seeded at the
    previous base-rate mean to warm-start the mode search. A still-flat
    belief passes through this construction unchanged, so the first update
    matches the full-rank policy exactly.
    """
    belief = state.belief
    if belief.dim >= 2:
        core = marginalize_drop_last(belief)
    else:
        core = GaussianBelief(np.zeros(0), np.zeros((0, 0)))
    prior = embed_flat_last(core, start_last=float(belief.mean[-1]))
    return LogisticPolicyState(laplace_update(prior, data), state.mode, state.round_index + 1)


def beta_ts_update(state: BetaState, data: RoundData) -> BetaState:
    """Conjugate update: successes raise alpha, failures raise beta."""
    if data.arms != state.arms:
        raise ConfigError(
            f"data arms {data.arms} do not match state arms {state.arms}"
        )
    return BetaState(state.alpha + data.c, state.beta + (data.n - data.c))


def beta_ts_proportions(
    state: BetaState, n_draws: int, rng: np.random.Generator
) -> AllocationProportions:
    """Monte Carlo winner frequencies under independent Beta posteriors."""
    _check_count("n_draws", n_draws, 1)
    draws = rng.beta(state.alpha, state.beta, size=(n_draws, state.arms))
    winners = np.argmax(draws, axis=1)
    counts = np.bincount(winners, minlength=state.arms)
    return AllocationProportions(counts / float(n_draws))
