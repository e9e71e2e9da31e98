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

The Gaussian draws that remain are made and tallied block by block: each
block of rows, about ``_BLOCK_ELEMENTS`` scores, is drawn, reduced to its
winners and added to an integer count. A decision's working memory is one
block, whatever ``n_draws`` is. The generator fills arrays in C order, so
the blocks consume exactly the stream of one full (n_draws, arms) draw:
the proportions and the generator state are the same bits.

The Beta draws are made column by column instead, in chunks of
``_BETA_CHUNK`` draws: within a chunk each surviving arm's scores come
from one call of ``_beta_column``, which inverts the distribution
function exactly when the first shape is 1, and a running best score per
draw picks the winners. Memory is a few chunk-long arrays, whatever
``n_draws`` is, and the stream depends on the chunk size but not on the
Gaussian block size.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import betaincinv, ndtri

from .errors import ConfigError, _check_choice, _check_count, _frozen_numbers
from .gaussian_belief import GaussianBelief, _draw_into, _drop_last_precision, make_flat_belief
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

# Scores per block of the Gaussian Thompson tally: 2^18 float64 values,
# 2 MiB. Ten thousand draws of up to 26 arms fit in one block.
_BLOCK_ELEMENTS = 2**18

# Draws per chunk of the Beta tally: the default ``n_draws``, so that a
# default decision is one chunk of a few 80 kB arrays.
_BETA_CHUNK = 10_000


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


def _block_rows(width: int, n_draws: int) -> int:
    """Rows of draws per block of the tally, for ``width`` columns."""
    return min(n_draws, max(1, _BLOCK_ELEMENTS // width))


def _tally_winners(n_draws: int, width: int, draw) -> np.ndarray:
    """Winner counts per column over ``n_draws`` draws of ``width`` scores,
    made ``_block_rows`` at a time by ``draw(m)``, which returns an (m,
    width) array. The last column scores zero. Ties go to the lowest
    column, as in one argmax over all the draws."""
    rows = _block_rows(width, n_draws)
    counts = np.zeros(width, dtype=np.int64)
    for start in range(0, n_draws, rows):
        scores = draw(min(rows, n_draws - start))
        scores[:, -1] = 0.0
        winners = scores.argmax(axis=1)
        # Free the block before the next one is drawn, so that it reuses
        # the same heap memory; with two blocks alive, the heap is trimmed
        # and grown again and the next block pays fresh page faults.
        del scores
        counts += np.bincount(winners, minlength=width)
    return counts


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

    The draws are made and tallied in blocks of rows (``_tally_winners``),
    each written into one reused buffer, so memory does not grow with
    ``n_draws``. The generator fills the buffer in C order, row after row,
    so consecutive blocks consume exactly the normals of one
    (n_draws, K) call, and each row's draw and winner depend on that row
    alone: the proportions and the generator state equal those of one
    full draw.

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
    buffer = np.empty((_block_rows(belief.dim, n_draws), belief.dim))
    counts = _tally_winners(n_draws, belief.dim, lambda m: _draw_into(belief, buffer[:m], rng))
    return AllocationProportions(counts / float(n_draws))


def full_ts_update(state: LogisticPolicyState, data: RoundData) -> LogisticPolicyState:
    """Absorb a round keeping the entire belief as the prior."""
    belief = laplace_update(state.belief, data)
    return LogisticPolicyState(belief, state.mode, state.round_index + 1)


def or_ts_update(state: LogisticPolicyState, data: RoundData) -> LogisticPolicyState:
    """Absorb a round after forgetting the shared base-rate coordinate.

    The prior is the belief's marginal over the odds-ratio coordinates, a
    rank-one Schur complement, with the base rate made flat: a zero last
    precision row and column, and the previous base-rate mean kept to
    warm-start the mode search. It is built as one belief, bit for bit
    ``embed_flat_last(marginalize_drop_last(belief), belief.mean[-1])``. A
    still-flat belief passes through unchanged, so the first update
    matches the full-rank policy exactly.
    """
    belief = state.belief
    precision = np.zeros_like(belief.precision)
    precision[:-1, :-1] = _drop_last_precision(belief.precision)
    prior = GaussianBelief(belief.mean, precision)
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


def _beta_column(a: float, b: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` draws from Beta(a, b).

    Beta(1, b), which covers an arm still at its Beta(1, 1) prior, has the
    distribution function 1 − (1 − x)^b, inverted in closed form: with U
    uniform on [0, 1), a draw is 1 − (1 − U)^(1/b), written
    −expm1(log1p(−U) / b) so that a large b keeps its digits. One uniform
    per draw is far cheaper than numpy's Beta sampler, which draws
    Beta(1, 1) by Johnk's method. Other shapes take one scalar-parameter
    ``rng.beta`` call.
    """
    if a == 1.0:
        return -np.expm1(np.log1p(-rng.random(n)) / b)
    return rng.beta(a, b, n)


def beta_ts_proportions(
    state: BetaState, n_draws: int, rng: np.random.Generator
) -> AllocationProportions:
    """Monte Carlo winner frequencies under independent Beta posteriors.

    A dominance screen runs first (``_beta_survivors``); only the arms it
    keeps are drawn, and a lone survivor is returned one-hot without
    touching the generator.

    The draws are made in chunks of ``_BETA_CHUNK`` rows, column by column
    within a chunk: each surviving arm, in arm order, takes the chunk's
    scores from one ``_beta_column`` call. A running best score and
    winning arm per draw are replaced only on a strictly greater score, so
    ties go to the lowest arm, as in one argmax over the (n_draws,
    survivors) matrix of those columns. Memory is a few chunk-long arrays,
    whatever the arm count and ``n_draws``.

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
    counts = np.zeros(state.arms, dtype=np.int64)
    for start in range(0, n_draws, _BETA_CHUNK):
        rows = min(_BETA_CHUNK, n_draws - start)
        best = np.full(rows, -np.inf)
        winners = np.zeros(rows, dtype=np.intp)
        for arm in survivors:
            column = _beta_column(state.alpha[arm], state.beta[arm], rows, rng)
            winners[column > best] = arm
            np.maximum(best, column, out=best)
        counts += np.bincount(winners, minlength=state.arms)
    return AllocationProportions(counts / float(n_draws))
