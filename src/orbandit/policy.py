"""Batch Thompson sampling policies for binary rewards.

Three policies share one allocation interface: a conjugate Beta policy that
tracks each arm independently, a full-rank logistic policy that carries the
whole Gaussian belief between rounds, and an odds-ratio logistic policy
that forgets the shared base-rate coordinate before every update so that
drift common to all arms cannot contaminate the relative parameters.

Both allocation functions screen the arms before drawing. The leader is
the arm of highest posterior mean, and an arm is screened out when its
chance of tying or beating the leader in a draw, summed over every draw
and every screened arm, stays within ``SCREEN_EPS``. When the leader
alone survives, or there is one arm, nothing is drawn.

Quadrature. The winner counts of n_draws draws of independent arms are
Multinomial(n_draws, π), π their Thompson probabilities
π_j = ∫ f_j ∏_{i≠j} F_i. Such a decision computes π by Gauss–Legendre
quadrature on panels graded to each arm's spread (``_win_chances``) and
makes one ``multinomial`` draw, at a cost that does not grow with
``n_draws``. Its total variation from the tally's law is at most
n_draws ‖π̂ − π‖₁ / 2, and ‖π̂ − π‖₁ is within 1e-11 on every state
tested. Two families feed the one integrator: the surviving Beta arms
when every shape is at least 1 and every a + b at most 1e12, and the
surviving arm logits of a Gaussian belief whose precision makes them
independent, as a full-rank posterior grown from a flat start does, when
its screen drops some arms; those logits are integrated relative to the
largest mean, so the nodes keep their digits at any traffic.

Every other decision is one Monte Carlo tally, ``_tally``, in blocks of
about ``_BLOCK_ELEMENTS`` scores, each drawn, reduced to its winners and
added to an integer count, so its memory does not grow with ``n_draws``.
Each family gives it a block: a Beta block is one ``rng.beta`` call over
the surviving arms; a Gaussian block draws all K coordinates through the
precision factor's inverse. The blocks consume the stream of one full
(n_draws, K) draw, and give its proportions and generator state bit for
bit, unless the radial split applies: Gaussian draws whose normals lie in
a ball from the screen are the leader's whatever their direction, so a
block draws how many of its rows fall outside, one binomial count, and
normals only for those rows, rescaled to norms from χ²(K) conditioned on
leaving the ball. That keeps the law of the full draw on another stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import betainc, betaincc, betainccinv, betaincinv, chdtrc, ndtr, ndtri, roots_legendre

from .errors import ConfigError, _check_choice, _check_count, _frozen_numbers
from .gaussian_belief import (
    REL_TOL,
    GaussianBelief,
    _draw_into,
    _drop_last_precision,
    make_flat_belief,
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

# Scores per block of the Thompson tallies: 2^18 float64 values, 2 MiB.
# Ten thousand draws of up to 26 arms fit in one block.
_BLOCK_ELEMENTS = 2**18

# The quadrature: Gauss–Legendre nodes and weights on [−1, 1] per panel,
# the tail chance each arm may lose beyond the integration range, a normal
# arm's reach from its mean to that quantile in standard deviations, the
# (node, arm) pairs per block of distribution function evaluations, and
# the largest a + b a Beta arm may have (see ``_beta_plan``).
_QUAD_NODES, _QUAD_WEIGHTS = roots_legendre(10)
_QUAD_DELTA = 1e-17
_QUAD_REACH = float(-ndtri(_QUAD_DELTA))
_QUAD_ELEMENTS = 2**15
_QUAD_MAX_TOTAL = 1e12

# The radial split applies when at most this share of rows falls outside
# the ball in expectation, so that it skips at least half of them.
_SPLIT_SHARE = 0.5

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


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


def _decide(arms: int, n_draws: int, kept: np.ndarray, counts_of_kept) -> AllocationProportions:
    """The proportions of ``n_draws`` draws over ``arms`` arms of which only
    the ``kept`` can win: a lone kept arm wins every draw, without a call
    to ``counts_of_kept``, which otherwise gives the kept arms' counts."""
    counts = np.zeros(arms, dtype=np.int64)
    counts[kept] = n_draws if kept.size == 1 else counts_of_kept()
    return AllocationProportions(counts / float(n_draws))


def _block_rows(width: int, n_draws: int) -> int:
    """Rows of draws per block of the tally, for ``width`` columns."""
    return min(n_draws, max(1, _BLOCK_ELEMENTS // width))


def _tally(width: int, n_draws: int, block) -> np.ndarray:
    """Winner counts of ``n_draws`` draws over ``width`` arms: the sum of
    ``block(rows)`` over blocks of ``_block_rows(width, n_draws)`` rows."""
    counts = np.zeros(width, dtype=np.int64)
    rows = _block_rows(width, n_draws)
    for start in range(0, n_draws, rows):
        counts += block(min(rows, n_draws - start))
    return counts


def _gaussian_survivors(belief: GaussianBelief, n_draws: int) -> tuple[np.ndarray, int, float]:
    """The dominance screen for a proper belief: the mask of the arms it
    keeps, the leader, and the radius r* of the ball of normals in which
    the leader wins every draw.

    With draws z @ L⁻¹, score j loads on the normals through row ℓ_j of
    (L⁻¹)ᵀ, zero for the reference, which scores 0. The leader's lead over
    score j has standard deviation ‖ℓ_l − ℓ_j‖, exact where
    var_l + var_j − 2 cov_lj cancels. Arm j is dropped when its mean trails
    the leader's by more than z = −Φ⁻¹(ε / (n_draws (K − 1))) of those, so
    it ties or beats the leader in a draw with chance below
    ε / (n_draws (K − 1)).

    By Cauchy–Schwarz a row z moves that lead by at most ‖z‖ times its
    spread, so the leader wins when ‖z‖ is below every arm's ratio of gap
    to spread. r* is the least ratio shrunk by the fraction ``REL_TOL``,
    or, where less, the ratio after the lead loses what rounding can take
    from the scores: with s = (K + 8) eps, s times the two means' sizes
    off the gap and s times the two loading rows' norms onto the spread,
    arm j's sizes bounded through the leader's. That covers the K-term
    products, the added mean, the rescale of a row to its norm and the
    rounding of r*, and binds when a near-duplicate arm trails the leader
    by a sliver of the scores' size. r* is never below 0, and infinite for
    one arm.
    """
    arms = belief.dim
    if arms < 2:
        return np.ones(arms, dtype=bool), 0, np.inf
    loadings = belief.inverse_factor.T.copy()
    loadings[-1] = 0.0
    mean = belief.mean.copy()
    mean[-1] = 0.0
    leader = int(mean.argmax())
    lead = loadings[leader]
    diff = loadings - lead
    gap = mean[leader] - mean
    spread = np.sqrt(np.square(diff, out=diff).sum(axis=1))
    slack = (arms + 8) * _EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.fmin(gap / spread * (1.0 - REL_TOL),
                        (gap * (1.0 - slack) - 2.0 * slack * abs(float(mean[leader])))
                        / (spread * (1.0 + slack) + 2.0 * slack * float(np.sqrt(lead @ lead))))
    ratio[leader] = np.inf
    z = -ndtri(SCREEN_EPS / (n_draws * (arms - 1)))
    # Written so that a NaN keeps its arm.
    return ~(gap > z * spread), leader, max(float(ratio.min()), 0.0)


def _arm_logits(belief: GaussianBelief) -> tuple[np.ndarray, np.ndarray] | None:
    """The means and standard deviations of the arm logits when the
    precision makes them independent, else None.

    The logits η_j = θ_j + θ_K (j < K) and η_K = θ_K rank the arms as the
    scores do. Their precision is diag(d, D) exactly when the θ-precision
    is the arrow with odds block diag(d), d above the corner in the last
    column, and corner Σd + D. A full-rank posterior grown from a flat
    start has it bit for bit: each round adds the likelihood's curvature,
    itself an arrow, and marginals and re-anchors keep it.

    D = corner − Σd cancels: the corner reached 1504 D on the benchmark's
    beliefs. ``math.fsum`` rounds the difference of the stored entries
    once, so D carries only the corner's own rounding, a relative error of
    about eps · corner / D (3.3e-13 there), where a running sum adds up to
    K eps · corner / D. None when D ≤ 0; d > 0 for a proper belief.
    """
    precision = belief.precision
    d = precision.diagonal()[:-1]
    if not (np.array_equal(precision[:-1, -1], d) and np.array_equal(precision[:-1, :-1], np.diag(d))):
        return None
    rest = math.fsum(np.r_[precision[-1, -1], -d])
    if not rest > 0.0:
        return None
    mean = belief.mean + belief.mean[-1]
    mean[-1] = belief.mean[-1]
    return mean, 1.0 / np.sqrt(np.r_[d, rest])


def _gaussian_plan(
    belief: GaussianBelief, n_draws: int
) -> tuple[str, np.ndarray, int, float, float, tuple[np.ndarray, np.ndarray] | None]:
    """How a Gaussian decision goes: its path, the arms the screen keeps,
    the leader, the screen's radius r*, q = P(χ²(K) ≥ r*²), the chance
    that a row of K normals falls outside the ball, and, for a decision by
    quadrature, the kept arms' logit means and standard deviations (else
    None).

    One arm kept: "one-hot", q NaN. Some arms dropped, with independent
    logits (``_arm_logits``): "quadrature", q NaN. Otherwise every
    coordinate is drawn: "split" radially when q ≤ ``_SPLIT_SHARE``, else
    "full".
    """
    keep, leader, radius = _gaussian_survivors(belief, n_draws)
    kept = np.flatnonzero(keep)
    if kept.size == 1:
        return "one-hot", kept, leader, radius, np.nan, None
    logits = _arm_logits(belief) if kept.size < belief.dim else None
    if logits is not None:
        return "quadrature", kept, leader, radius, np.nan, (logits[0][kept], logits[1][kept])
    outside = float(chdtrc(belief.dim, radius**2))
    return ("split" if outside <= _SPLIT_SHARE else "full"), kept, leader, radius, outside, None


def _chi2_tail(m: int, floor: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` draws of χ²(m) conditioned on being at least ``floor`` > 0.

    Dagpunar's (1978) exact rejection sampler for the upper tail of the
    gamma law: with y = ρ²/2, s = floor/2 and k = m/2, y has density
    ∝ y^(k−1) e^(−y) on [s, ∞). It is proposed as s + E/λ, E ~ Exp(1),
    and accepted with probability the density over the proposal's,
    scaled to 1 at its peak y* on [s, ∞). λ is the optimal rate, capped
    at 1: for k < 1 (one degree of freedom) the uncapped rate exceeds 1
    and the ratio grows without bound. The rejected proposals are redrawn,
    all at once, round by round, and the accepted ones kept in order.
    """
    s, k = 0.5 * floor, 0.5 * m
    rate = min(1.0, (s - k + np.sqrt((s - k) ** 2 + 4.0 * s)) / (2.0 * s))
    peak = max(s, (k - 1.0) / (1.0 - rate)) if rate < 1.0 else s
    accepted = []
    while count:
        y = s + rng.standard_exponential(count) / rate
        y = y[np.log(rng.random(count)) <= (k - 1.0) * np.log(y / peak) - (1.0 - rate) * (y - peak)]
        accepted.append(y)
        count -= y.size
    return 2.0 * np.concatenate(accepted)


def allocation_proportions(
    belief: GaussianBelief, n_draws: int, rng: np.random.Generator
) -> AllocationProportions:
    """Thompson proportions: the Monte Carlo winner frequency per arm.

    Each posterior draw is scored with the reference coordinate replaced by
    zero, which ranks arms by their log odds against the reference without
    moving the shared base rate; ties break toward the lowest arm index.

    A dominance screen runs first (``_gaussian_plan``). When it keeps the
    leader alone, or the belief has one arm, the result is one-hot on the
    leader and the generator is not touched. When it drops some arms but
    keeps two or more, and the arm logits are independent
    (``_arm_logits``), the kept arms' counts are one
    ``rng.multinomial(n_draws, π̂)`` draw, π̂ from ``_normal_win_chances``,
    within n_draws ‖π̂ − π‖₁ / 2 of the Monte Carlo law in total variation.

    Otherwise all K coordinates are drawn through L⁻¹, the base rate
    included, and the reference column is scored zero; the arms a screen
    of correlated logits drops are drawn too. The draws are tallied by
    ``_tally``, each block written into one reused buffer, so memory does
    not grow with ``n_draws``.

    Radial split. A row of K standard normals is z = ρ·u, with ρ² ~ χ²(K)
    and the direction u uniform on the sphere and independent of ρ. Rows
    with ρ below the screen's radius r* are won by the leader whatever u
    is. The split applies when q = P(χ²(K) ≥ r*²), the chance that a row
    falls outside the ball, is at most one half. A block of n rows then
    draws the number of its rows outside the ball, one ``binomial(n, q)``
    call, and adds the rest to the leader: rows inside the ball are
    interchangeable leader wins, so only their count matters. The rows
    outside, when there are any, draw their ρ² from χ²(K) conditioned on
    ρ ≥ r* (``_chi2_tail``), then their K normals, one ``standard_normal``
    call for all of them, each row rescaled to its ρ by ``_draw_into``,
    and are tallied as usual; a block with none draws nothing more. The
    stream is: per block, the count, then the radii, then the outside
    rows' normals. Given the count, the rows outside are independent rows
    conditioned on ρ ≥ r*, that is ρ·u with ρ from that conditioned law
    and u uniform, so the winner counts have exactly the law of the full
    draw. That rests on q, from ``chdtrc``, being accurate, as the full
    draw's split rested on numpy's χ² sampler. Otherwise the proportions
    and the generator state equal those of one full (n_draws, K) draw.

    Soundness of the screen: the kept arms' logits have the joint law of
    their coordinates in a full draw, so the two can be coupled. The
    screened result, one-hot or by quadrature, then differs from the full
    Monte Carlo result only if some dropped arm ties or beats the leader
    in some draw, and each of at most n_draws (K − 1) such events has
    probability below ε / (n_draws (K − 1)). By the union bound the two
    differ with probability below ε = ``SCREEN_EPS``, which bounds their
    total variation distance.
    """
    _check_count("n_draws", n_draws, 1)
    path, kept, leader, radius, outside, logits = _gaussian_plan(belief, n_draws)
    arms = belief.dim
    if path in ("one-hot", "quadrature"):
        return _decide(arms, n_draws, kept,
                       lambda: rng.multinomial(n_draws, _normal_win_chances(*logits)))
    buffer = np.empty((_block_rows(arms, n_draws), arms))

    def block(rows: int) -> np.ndarray:
        wins, norms = np.zeros(arms, dtype=np.int64), None
        if path == "split":
            drawn = rng.binomial(rows, outside)
            wins[leader] = rows - drawn
            if not drawn:
                return wins
            norms = np.sqrt(_chi2_tail(arms, radius**2, drawn, rng))
            rows = drawn
        scores = _draw_into(belief.inverse_factor, belief.mean, buffer[:rows], rng, norms)
        # The base rate is drawn too; the reference scores zero in its place.
        scores[:, -1] = 0.0
        return wins + np.bincount(scores.argmax(axis=1), minlength=arms)

    # The tally counts every arm, the ones a screen of correlated logits drops too.
    return _decide(arms, n_draws, np.arange(arms), lambda: _tally(arms, n_draws, block))


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
        raise ConfigError(f"data arms {data.arms} do not match state arms {state.arms}")
    return BetaState(state.alpha + data.c, state.beta + (data.n - data.c))


def _beta_survivors(state: BetaState, n_draws: int) -> np.ndarray:
    """Mask of the arms the dominance screen keeps.

    With δ = ε / (2 n_draws (K − 1)), arm j is dropped when its upper
    δ-quantile, ``betainccinv(a, b, δ)``, lies below the leader's lower
    δ-quantile, the leader being the arm of highest posterior mean. Then
    X_j ≥ X_i needs X_i below its quantile or X_j above its own, so arm j
    ties or beats the leader in one draw with probability at most 2δ. The
    leader is always kept: above a + b ≈ 1e19 the two quantiles of one
    arm can come out crossed.
    """
    arms = state.arms
    if arms < 2:
        return np.ones(arms, dtype=bool)
    leader = (state.alpha / (state.alpha + state.beta)).argmax()
    delta = SCREEN_EPS / (2.0 * n_draws * (arms - 1))
    floor = betaincinv(state.alpha[leader], state.beta[leader], delta)
    # Written so that a NaN keeps its arm.
    keep = ~(betainccinv(state.alpha, state.beta, delta) < floor)
    keep[leader] = True
    return keep


def _beta_plan(state: BetaState, n_draws: int) -> tuple[str, np.ndarray]:
    """How a Beta decision goes: its path and the arms the screen keeps
    (``_beta_survivors``).

    One arm kept: "one-hot". Every kept shape at least 1 and every kept
    a + b at most ``_QUAD_MAX_TOTAL``: "quadrature". Otherwise
    "monte-carlo", the tally.

    A shape below 1 makes the density unbounded at an end, and for tiny
    shapes much of the mass lies below the smallest double. A large a + b
    leaves the posterior's spread σ few doubles wide: the nodes, rounded
    to doubles, move by about 1e-16 √(a + b) σ, and the rule's distance
    from one with four times the nodes grew from 1.4e-13 at a + b = 1e9 to
    7.9e-12 at 1e12 and 2.2e-11 at 1e13 on four near-tied arms; near 1e20
    ``betainc`` returns NaN. Such states keep the tally, whose draws are
    rounded to doubles alike.
    """
    kept = np.flatnonzero(_beta_survivors(state, n_draws))
    if kept.size == 1:
        return "one-hot", kept
    alpha, beta = state.alpha[kept], state.beta[kept]
    quadrature = min(alpha.min(), beta.min()) >= 1.0 and (alpha + beta).max() <= _QUAD_MAX_TOTAL
    return ("quadrature" if quadrature else "monte-carlo"), kept


def _panels(mean: np.ndarray, sd: np.ndarray, lower: np.ndarray, upper: np.ndarray,
            to_zero: bool = False, to_one: bool = False) -> np.ndarray:
    """Edges of the quadrature panels for arms of means m_j, standard
    deviations σ_j and lower and upper ``_QUAD_DELTA``-quantiles.

    Below the second-largest lower quantile at least two arms lie below
    their own, and above the largest upper one every arm lies below its
    own, so each side holds at most about δ of any arm's chance to win.
    The panels run between the two. From each edge x the next lies
    min_j max(σ_j, |x − m_j| / 3) further: at most one σ near any mean,
    wider geometrically away from every mean. Captured Beta decisions took
    4 to 32 panels, at K = 10 and K = 200 alike. ``to_zero`` caps a panel
    at its distance from 0 and ``to_one`` at half the gap to 1, grading it
    toward an end where a density is singular (``_beta_bounds``).
    """
    x, end = float(np.partition(lower, -2)[-2]), float(upper.max())
    edges = [x]
    while x < end:
        step = float(np.maximum(sd, np.abs(x - mean) / 3.0).min())
        if to_zero:
            step = min(step, max(x, _TINY))
        if to_one:
            step = min(step, 0.5 * (1.0 - x))
        x += step
        edges.append(min(x, end))
    return np.array(edges)


def _win_chances(bounds: tuple, cdf, log_density, mass) -> np.ndarray:
    """Thompson probabilities π_j = ∫ f_j ∏_{i≠j} F_i of independent arms,
    by Gauss–Legendre quadrature, ``_QUAD_NODES`` nodes per panel of
    ``_panels(*bounds)``, scaled to sum to 1.

    ``cdf(x, arm)`` and ``log_density(x, arm)`` give F and log f, the
    latter up to a constant per arm, at nodes x for arm indices ``arm``,
    and ``mass(edge)`` each arm's chance above the first edge. F_i is read
    as 0 below arm i's lower quantile and 1 above its upper one, and f_i
    as 0 outside the two, each costing at most about δ per arm; they are
    evaluated only in between, in blocks of about ``_QUAD_ELEMENTS``
    (node, arm) pairs, so memory does not grow with arms times nodes.
    ∏_{i≠j} F_i comes from prefix and suffix products, so an F_i of 0
    costs no division. Each density is scaled so that the rule's integral
    of it over the panels equals the arm's mass there.
    """
    lower, upper = bounds[2], bounds[3]
    edges = _panels(*bounds)
    half = 0.5 * np.diff(edges)
    nodes = ((edges[:-1] + half)[:, None] + half[:, None] * _QUAD_NODES).ravel()
    weights = (half[:, None] * _QUAD_WEIGHTS).ravel()
    wins, norms = np.zeros(lower.size), np.zeros(lower.size)
    rows = max(1, _QUAD_ELEMENTS // lower.size)
    for start in range(0, nodes.size, rows):
        x = nodes[start : start + rows, None]
        node, arm = np.nonzero((x > lower) & (x < upper))
        at = x[node, 0]
        cdfs = (x >= upper).astype(float)
        cdfs[node, arm] = cdf(at, arm)
        density = np.zeros_like(cdfs)
        density[node, arm] = weights[start + node] * np.exp(log_density(at, arm))
        others = np.ones_like(cdfs)
        others[:, 1:] = np.cumprod(cdfs[:, :-1], axis=1)
        others[:, :-1] *= np.cumprod(cdfs[:, :0:-1], axis=1)[:, ::-1]
        norms += density.sum(axis=0)
        wins += (density * others).sum(axis=0)
    chances = np.zeros(lower.size)
    np.divide(wins * mass(edges[0]), norms, out=chances, where=norms > 0.0)
    return chances / chances.sum()


def _normal_win_chances(mean: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """Thompson probabilities of independent normal arms by
    ``_win_chances``: F = ``ndtr(z)`` and log f = −z²/2 for the
    standardized node z, quantiles ``_QUAD_REACH`` σ from the mean.

    The means are taken relative to the largest, which moves no z. At
    absolute logits a node's rounding, about 1e-16 of the logit, is a
    visible share of a small σ: 3.4e-10 in L1 at 1e16 trials a round."""
    mean = mean - mean.max()
    reach = _QUAD_REACH * sd
    return _win_chances(
        (mean, sd, mean - reach, mean + reach),
        lambda x, arm: ndtr((x - mean[arm]) / sd[arm]),
        lambda x, arm: -0.5 * np.square((x - mean[arm]) / sd[arm]),
        lambda edge: ndtr((mean - edge) / sd))


def _beta_bounds(alpha: np.ndarray, beta: np.ndarray) -> tuple:
    """``_panels``' arguments for Beta arms: means, standard deviations,
    lower and upper ``_QUAD_DELTA``-quantiles, and whether some a and some
    b is fractional. Near 0 the densities and distribution functions are
    x^(a − 1) and x^a times functions analytic there, and likewise near 1
    for b, so a fractional shape makes them singular at that end, where
    the panels are graded."""
    total = alpha + beta
    mean = alpha / total
    sd = np.sqrt(mean * (1.0 - mean) / (total + 1.0))
    lower = betaincinv(alpha, beta, _QUAD_DELTA)
    upper = betainccinv(alpha, beta, _QUAD_DELTA)
    return mean, sd, lower, upper, bool((alpha % 1.0).any()), bool((beta % 1.0).any())


def _log_ratio(value: np.ndarray, base: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """log(value / base) for value = base + delta, as log1p(delta / base)
    where value is within base / 2 of base, which keeps the digits of a
    small delta, and as the log of the ratio elsewhere, where delta / base
    would round to −1 for a value far below base."""
    out = np.log(value / base)
    near = np.abs(delta) < 0.5 * base
    out[near] = np.log1p(delta[near] / base[near])
    return out


def _beta_win_chances(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Thompson probabilities of Beta arms with both shapes at least 1, by
    ``_win_chances`` on the panels of ``_beta_bounds``: F is ``betainc``
    and the mass above the first edge ``betaincc``.

    The density is computed relative to its value at the mean m,
    f̃(x) = exp((a − 1) log(x / m) + (b − 1) log((1 − x) / (1 − m))), each
    log taken through log1p of the gap to m (``_log_ratio``). Written as
    (a − 1) log x + (b − 1) log1p(−x) − betaln(a, b) instead, the terms
    cancel at large shapes: on four near-tied arms with a + b ≈ 3e8 the
    chances then summed to 1 + 3.7e-7. A shape of 1 zeroes its term, so a
    mode at an end needs nothing special. Before the final rescale the
    chances summed to within 1e-14 of 1 on states captured from the
    benchmark's decision loops, and within 1e-12 on four near-tied arms
    with a + b = 1e9.
    """
    total = alpha + beta
    mean, rest = alpha / total, beta / total
    return _win_chances(
        _beta_bounds(alpha, beta),
        lambda x, arm: betainc(alpha[arm], beta[arm], x),
        lambda x, arm: ((alpha[arm] - 1.0) * _log_ratio(x, mean[arm], x - mean[arm])
                        + (beta[arm] - 1.0) * _log_ratio(1.0 - x, rest[arm], mean[arm] - x)),
        lambda edge: betaincc(alpha, beta, edge))


def beta_ts_proportions(
    state: BetaState, n_draws: int, rng: np.random.Generator
) -> AllocationProportions:
    """Thompson winner frequencies of ``n_draws`` draws under independent
    Beta posteriors.

    A dominance screen runs first (``_beta_plan``); only the arms it keeps
    take part, and a lone survivor, one arm included, is returned one-hot
    without touching the generator.

    When every survivor has both shapes at least 1 and a + b at most
    ``_QUAD_MAX_TOTAL``, the winner counts are
    one ``rng.multinomial(n_draws, π̂)`` draw, π̂ the survivors' Thompson
    probabilities from ``_beta_win_chances``, within n_draws ‖π̂ − π‖₁ / 2
    of the tally's law in total variation. Other states, a survivor with a
    shape below 1 such as a Beta(½, ½) prior's, keep the Monte Carlo tally
    (``_tally``) of the survivors, one ``rng.beta`` call a block, with
    the counts and generator state of one full draw.

    Screen soundness: the arms are independent, so the survivors' draws
    have the same joint law as their columns in a full draw; couple the
    two. The survivors keep their order, so ties break alike, and the
    results differ only if some dropped arm ties or beats the leader in
    some draw: at most n_draws (K − 1) events, each of probability at most
    2δ. By the union bound the screened result differs from the full
    Monte Carlo result with probability at most ε = ``SCREEN_EPS``, which
    bounds their total variation distance.
    """
    _check_count("n_draws", n_draws, 1)
    path, kept = _beta_plan(state, n_draws)
    alpha, beta = state.alpha[kept], state.beta[kept]
    if path != "monte-carlo":
        return _decide(state.arms, n_draws, kept,
                       lambda: rng.multinomial(n_draws, _beta_win_chances(alpha, beta)))
    # Each block is one rng.beta call; argmax breaks ties to the lowest arm.
    return _decide(state.arms, n_draws, kept, lambda: _tally(kept.size, n_draws, lambda rows:
        np.bincount(rng.beta(alpha, beta, (rows, kept.size)).argmax(axis=1), minlength=kept.size)))
