"""Batch Thompson sampling policies for binary rewards.

Three policies share one allocation interface: a conjugate Beta policy that
tracks each arm independently, a full-rank logistic policy that carries the
whole Gaussian belief between rounds, and an odds-ratio logistic policy
that forgets the shared base-rate coordinate before every update so that
drift common to all arms cannot contaminate the relative parameters.

Both allocation functions screen the arms before drawing. The leader is
the arm of highest posterior mean, and an arm is screened out when its
chance of tying or beating the leader in a draw, summed over every draw
and every screened arm, stays within ``SCREEN_EPS``. The decision then
needs only the surviving arms' draws, and none when the leader alone
survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import betaincinv, ndtri

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
    "SCREEN_EPS",
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

# Bound on the total variation between a screened allocation and the full
# Monte Carlo one: the chance, over all draws and all screened arms, that a
# screened arm would have tied or beaten the leader.
SCREEN_EPS = 1e-12


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


def _one_hot(arms: int, leader: int) -> AllocationProportions:
    p = np.zeros(arms)
    p[leader] = 1.0
    return AllocationProportions(p)


def _gaussian_survivors(belief: GaussianBelief, n_draws: int) -> np.ndarray:
    """Mask of the arms the dominance screen keeps for a proper belief.

    Scores are the belief's coordinates with the reference fixed at zero,
    so with draws z @ L⁻¹ the score difference between arms i and j has
    standard deviation ‖L⁻¹[:, i] − L⁻¹[:, j]‖ with the reference column
    read as zero. That norm is exact, where var_i + var_j − 2 cov_ij loses
    digits to cancellation. Arm j is dropped when its mean score trails
    the leader's by more than z = −Φ⁻¹(ε / (n_draws (K − 1))) of those
    standard deviations, so it ties or beats the leader in one draw with
    probability below ε / (n_draws (K − 1)).
    """
    arms = belief.dim
    if arms < 2:
        return np.ones(arms, dtype=bool)
    mean = belief.mean.copy()
    mean[-1] = 0.0
    leader = mean.argmax()
    # Row j of L⁻ᵀ holds score j's loadings on the normals; the reference
    # scores 0, so its row counts as zero.
    loadings = belief.inverse_factor.T
    lead = loadings[leader] if leader < arms - 1 else 0.0
    diff = loadings - lead
    diff[-1] = -lead
    spread = np.sqrt(np.square(diff, out=diff).sum(axis=1))
    z = -ndtri(SCREEN_EPS / (n_draws * (arms - 1)))
    # Written so that a NaN keeps its arm.
    return ~(mean[leader] - mean > z * spread)


def allocation_proportions(
    belief: GaussianBelief, n_draws: int, rng: np.random.Generator
) -> AllocationProportions:
    """Thompson proportions: the Monte Carlo winner frequency per arm.

    Each posterior draw is scored with the reference coordinate replaced by
    zero, which ranks arms by their log odds against the reference without
    moving the shared base rate; ties break toward the lowest arm index.

    A dominance screen runs first (``_gaussian_survivors``). When it drops
    every arm but the leader, the result is one-hot on the leader and the
    generator is not touched; otherwise all ``n_draws`` draws are made
    exactly as without the screen, so the result and the generator state
    are the same bits. A partial screen saves nothing here: drawing only
    the survivors would take the factor of their marginal, a second
    factorization.

    Soundness: couple the one-hot result with a full draw. They differ
    only if some dropped arm ties or beats the leader in some draw, and
    each of at most n_draws (K − 1) such events has probability below
    ε / (n_draws (K − 1)). By the union bound the one-hot result differs
    from the full Monte Carlo result with probability below ε =
    ``SCREEN_EPS``, which bounds their total variation distance.
    """
    _check_count("n_draws", n_draws, 1)
    keep = _gaussian_survivors(belief, n_draws)
    if keep.sum() == 1 and belief.dim > 1:
        return _one_hot(belief.dim, int(keep.argmax()))
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


def _beta_survivors(state: BetaState, n_draws: int) -> np.ndarray:
    """Mask of the arms the dominance screen keeps.

    With δ = ε / (2 n_draws (K − 1)), arm j is dropped when its upper
    δ-quantile lies below the leader's lower δ-quantile, the leader being
    the arm of highest posterior mean. Then X_j ≥ X_i needs X_i below its
    quantile or X_j above its own, so arm j ties or beats the leader in one
    draw with probability at most 2δ. The upper quantile is taken as
    1 − betaincinv(b, a, δ), the lower quantile of 1 − X ~ Beta(b, a):
    written as betaincinv(a, b, 1 − δ), 1 − δ rounds to 1 for δ below
    1.1e-16 and every upper quantile reads 1, so no arm would be dropped.
    """
    arms = state.arms
    if arms < 2:
        return np.ones(arms, dtype=bool)
    leader = (state.alpha / (state.alpha + state.beta)).argmax()
    delta = SCREEN_EPS / (2.0 * n_draws * (arms - 1))
    floor = betaincinv(state.alpha[leader], state.beta[leader], delta)
    ceilings = 1.0 - betaincinv(state.beta, state.alpha, delta)
    # Written so that a NaN keeps its arm.
    return ~(ceilings < floor)


def beta_ts_proportions(
    state: BetaState, n_draws: int, rng: np.random.Generator
) -> AllocationProportions:
    """Monte Carlo winner frequencies under independent Beta posteriors.

    A dominance screen runs first (``_beta_survivors``); only the arms it
    keeps are drawn, as one (n_draws, survivors) block of Beta draws, and
    a lone survivor is returned one-hot without touching the generator.
    When every arm survives, the draws are made exactly as without the
    screen, so the result and the generator state are the same bits.

    Soundness: the arms are independent, so the survivors' draws have the
    same joint law as their columns in a full draw; couple the two. The
    survivors keep their order, so ties break alike, and the results
    differ only if some dropped arm ties or beats the leader in some draw:
    at most n_draws (K − 1) events, each of probability at most 2δ. By the
    union bound the screened result differs from the full Monte Carlo
    result with probability at most ε = ``SCREEN_EPS``, which bounds their
    total variation distance.
    """
    _check_count("n_draws", n_draws, 1)
    survivors = np.flatnonzero(_beta_survivors(state, n_draws))
    if survivors.size == 1 and state.arms > 1:
        return _one_hot(state.arms, int(survivors[0]))
    draws = rng.beta(state.alpha[survivors], state.beta[survivors],
                     size=(n_draws, survivors.size))
    winners = survivors[np.argmax(draws, axis=1)]
    counts = np.bincount(winners, minlength=state.arms)
    return AllocationProportions(counts / float(n_draws))
