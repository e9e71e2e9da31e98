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
draws only the surviving arms, and nothing when the leader alone
survives or there is one arm. A Gaussian decision that drops an arm
draws the survivors' scores from their exact marginal, through one
triangular factor of their covariance.

The Gaussian draws that remain are made and tallied block by block: each
block of rows, about ``_BLOCK_ELEMENTS`` scores, is drawn, reduced to its
winners and added to an integer count. A decision's working memory is one
block, whatever ``n_draws`` is. The generator fills arrays in C order, so
the blocks consume exactly the stream of one full (n_draws, width) draw:
with every arm kept, the proportions and the generator state are those
of one full draw of all K coordinates, bit for bit.

That holds unless the radial split applies. A Gaussian draw whose m
normals have a norm below a radius r* from the screen is won by the
leader whatever their direction. When that holds for at least half the
draws in expectation, a block first draws how many of its rows fall
outside the ball, one binomial count, and gives the leader the rest:
rows inside the ball are interchangeable leader wins, so only their
number matters. Only the rows outside get a norm, from χ²(m) conditioned
on reaching r*², and normals, rescaled to that norm. The winner counts
keep the law of the full draw, with no tolerance of their own, on a
different stream.

A Beta decision draws no scores when every surviving shape is at least
1. Its winner counts would be Multinomial(n_draws, π), π the survivors'
Thompson probabilities, so it computes π by Gauss–Legendre quadrature of
∫ f_j ∏_{i≠j} F_i on panels graded to each arm's spread
(``_beta_win_chances``) and makes one ``multinomial`` draw. Its cost does
not grow with ``n_draws``, and its total variation from the tally's law
is at most n_draws ‖π̂ − π‖₁ / 2, with ‖π̂ − π‖₁ within 1e-11 on every
state tested. A state with a surviving shape below 1, or with a + b above
1e12, keeps the tally: its draws are made column by column, in chunks of ``_BETA_CHUNK`` draws,
each surviving arm's from one call of ``_beta_column``, which inverts the
distribution function exactly when the first shape is 1, and a running
best score per draw picks the winners. Memory is a few chunk-long
arrays, or one block of quadrature nodes, whatever ``n_draws`` is.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import betainc, betaincc, betaincinv, chdtrc, ndtri, roots_legendre

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

# Scores per block of the Gaussian Thompson tally: 2^18 float64 values,
# 2 MiB. Ten thousand draws of up to 26 arms fit in one block.
_BLOCK_ELEMENTS = 2**18

# Draws per chunk of the Beta tally: the default ``n_draws``, so that a
# default decision is one chunk of a few 80 kB arrays.
_BETA_CHUNK = 10_000

# The Beta quadrature: Gauss–Legendre nodes and weights on [−1, 1] per
# panel, the tail chance each arm may lose beyond the integration range,
# the (node, arm) pairs per block of betainc evaluations, and the largest
# a + b it takes (see ``_beta_by_quadrature``).
_QUAD_NODES, _QUAD_WEIGHTS = roots_legendre(10)
_QUAD_DELTA = 1e-17
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


def _one_hot(arms: int, leader: int) -> AllocationProportions:
    p = np.zeros(arms)
    p[leader] = 1.0
    return AllocationProportions(p)


def _block_rows(width: int, n_draws: int) -> int:
    """Rows of draws per block of the tally, for ``width`` columns."""
    return min(n_draws, max(1, _BLOCK_ELEMENTS // width))


def _leads(loadings: np.ndarray, mean: np.ndarray, leader: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The leader's lead in mean over each score, the standard deviation
    of that lead, and the radius of the ball of normals in which the
    leader wins every draw.

    Row j of ``loadings`` holds score j's loadings on the normals, zero
    for the reference, which scores 0. The lead over score j then has
    standard deviation ‖loadings[leader] − loadings[j]‖. That norm is
    exact, where var_i + var_j − 2 cov_ij loses digits to cancellation.

    By Cauchy–Schwarz, a row of normals z moves the leader's lead over
    score j by at most ‖z‖ times that lead's spread, so the leader strictly
    beats every score when ‖z‖ is below the least ratio of gap to spread.
    The radius is that ratio shrunk by the fraction ``REL_TOL``, or, where
    less, the ratio after the lead loses what rounding can take from the
    computed scores: for m normals a row, s = (m + 8) eps times the two
    means' sizes off the gap, and s times the two loading rows' norms onto
    the spread. That covers the m-term products, the added mean, the
    rescale of a row to its norm and the rounding of the radius; score j's
    sizes are bounded through the leader's, |μ_j| ≤ |μ_l| + gap and
    ‖ℓ_j‖ ≤ ‖ℓ_l‖ + spread. It binds only when an arm trails the leader by
    a sliver of the scores' size, as a near-duplicate arm can. The radius
    is never below 0, and infinite when the leader is the only score.
    """
    lead = loadings[leader]
    diff = loadings - lead
    gap = mean[leader] - mean
    spread = np.sqrt(np.square(diff, out=diff).sum(axis=1))
    slack = (loadings.shape[1] + 8) * _EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.fmin(gap / spread * (1.0 - REL_TOL),
                        (gap * (1.0 - slack) - 2.0 * slack * abs(float(mean[leader])))
                        / (spread * (1.0 + slack) + 2.0 * slack * float(np.sqrt(lead @ lead))))
    ratio[leader] = np.inf
    return gap, spread, max(float(ratio.min()), 0.0)


def _gaussian_survivors(belief: GaussianBelief, n_draws: int) -> tuple[np.ndarray, int, float]:
    """The dominance screen for a proper belief: the mask of the arms it
    keeps, the leader, and the radius r* of the ball of normals in which
    the leader wins every draw.

    Scores are the belief's coordinates with the reference fixed at zero,
    so with draws z @ L⁻¹ score j loads on the normals through column j
    of L⁻¹, read as zero for the reference (``_leads``). Arm j is dropped
    when its mean score trails the leader's by more than
    z = −Φ⁻¹(ε / (n_draws (K − 1))) standard deviations of the lead, so it
    ties or beats the leader in one draw with probability below
    ε / (n_draws (K − 1)). r* is the radius of ``_leads`` over every arm,
    dropped ones included, and infinite for one arm. A one-arm belief
    keeps its arm.
    """
    arms = belief.dim
    if arms < 2:
        return np.ones(arms, dtype=bool), 0, np.inf
    loadings = belief.inverse_factor.T.copy()
    loadings[-1] = 0.0
    mean = belief.mean.copy()
    mean[-1] = 0.0
    leader = int(mean.argmax())
    gap, spread, radius = _leads(loadings, mean, leader)
    z = -ndtri(SCREEN_EPS / (n_draws * (arms - 1)))
    # Written so that a NaN keeps its arm.
    return ~(gap > z * spread), leader, radius


def _kept_factor(belief: GaussianBelief, kept: np.ndarray, leader: int) -> tuple[np.ndarray, float]:
    """The law of the kept arms' scores: an upper triangular R with RᵀR
    the covariance of the kept arms' coordinates, the reference's left
    out, and the radius of the ball in R's normals.

    The coordinates' loadings on the belief's normals are their columns W
    of L⁻¹, and RᵀR = WᵀW. R is W's thin QR factor, rows scaled to a
    positive diagonal, so that it is the covariance's Cholesky factor
    whatever the sign convention of the QR. The Gram matrix WᵀW is never
    formed: for two near-duplicate arms its Cholesky factor loses the
    spread of their difference to cancellation. The radius is that of
    ``_leads`` over the kept arms, from R itself.
    """
    arms = belief.dim
    drawn = kept[kept < arms - 1]
    # W's rows above its first column are zero, L⁻¹ being lower triangular.
    factor = np.linalg.qr(belief.inverse_factor[drawn[0]:, drawn], mode="r")
    factor *= np.copysign(1.0, factor.diagonal())[:, None]
    loadings = np.zeros((kept.size, drawn.size))
    loadings[: drawn.size] = factor.T
    mean = belief.mean[kept]
    mean[drawn.size :] = 0.0
    return factor, _leads(loadings, mean, int(np.searchsorted(kept, leader)))[2]


def _gaussian_plan(
    belief: GaussianBelief, n_draws: int
) -> tuple[np.ndarray, int, np.ndarray | None, float, float]:
    """How a Gaussian decision draws: the arms the screen keeps, the
    leader, the triangular factor of the normals drawn (None when the
    leader alone is kept), the radius r* of the ball in those normals, and
    q = P(χ²(m) ≥ r*²), the chance that a row of the factor's m normals
    falls outside the ball (NaN when nothing is drawn).

    The factor is L⁻¹ when every arm is kept, else that of
    ``_kept_factor``. The radial split applies when q ≤ ``_SPLIT_SHARE``.
    """
    keep, leader, radius = _gaussian_survivors(belief, n_draws)
    kept = np.flatnonzero(keep)
    if kept.size == 1:
        return kept, leader, None, radius, np.nan
    if kept.size == belief.dim:
        factor = belief.inverse_factor
    else:
        factor, radius = _kept_factor(belief, kept, leader)
    return kept, leader, factor, radius, float(chdtrc(factor.shape[0], radius**2))


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

    A dominance screen runs first (``_gaussian_survivors``). When it drops
    every arm but the leader, or the belief has one arm, the result is
    one-hot on the leader and the generator is not touched. When it keeps
    every arm, all K coordinates are drawn through L⁻¹, the base rate
    included, and the reference column is then scored zero.

    When it drops some arms but keeps at least two, only the m scored
    coordinates of the kept arms are drawn: a decision needs only the law
    of the scores it ranks, and those scores are Gaussian with covariance
    WᵀW, for W their columns of L⁻¹. They are drawn as z @ R from m
    normals per row, R the triangular factor of ``_kept_factor``, and a
    kept reference scores zero without a normal of its own. Dropped arms
    get no draws and a share of 0.

    The draws are made and tallied in blocks of ``_block_rows`` rows, each
    written into one reused buffer, so memory does not grow with
    ``n_draws``. Each row's winner depends on that row alone.

    Radial split. A row of m standard normals is z = ρ·u, with ρ² ~ χ²(m)
    and the direction u uniform on the sphere and independent of ρ. Rows
    with ρ below the radius r* of the factor drawn are won by the leader
    whatever u is: the screen's r* when every arm is kept, else the one of
    ``_kept_factor``. The split applies when q = P(χ²(m) ≥ r*²), the
    chance that a row falls outside the ball, is at most one half. A
    block of n rows then draws the number of its rows outside the ball,
    one ``binomial(n, q)`` call, and adds the rest to the leader: rows
    inside the ball are interchangeable leader wins, so only their count
    matters. The rows outside, when there are any, draw their ρ² from
    χ²(m) conditioned on ρ ≥ r* (``_chi2_tail``), then their m normals,
    one ``standard_normal`` call for all of them, each row rescaled to its
    ρ by ``_draw_into``, and are tallied as usual; a block with none draws
    nothing more. The stream is: per block, the count, then the radii,
    then the outside rows' normals. Given the count, the rows outside are
    independent rows conditioned on ρ ≥ r*, that is ρ·u with ρ from that
    conditioned law and u uniform, so the winner counts have exactly the
    law of the full draw. That rests on q, from ``chdtrc``, being accurate,
    as the full draw's split rested on numpy's χ² sampler. Otherwise the
    stream is that of one full (n_draws, m) draw of normals, block by
    block; with every arm kept (m = K) the proportions and the generator
    state equal those of one full draw.

    Soundness of the screen: the kept arms' scores are drawn from their
    exact joint law, so a full draw of every coordinate can be coupled
    with them, drawn given the kept scores. The screened result, one-hot
    or not, then differs from the full Monte Carlo result only if some
    dropped arm ties or beats the leader in some draw, and each of at most
    n_draws (K − 1) such events has probability below ε / (n_draws
    (K − 1)). By the union bound the two differ with probability below
    ε = ``SCREEN_EPS``, which bounds their total variation distance.
    """
    _check_count("n_draws", n_draws, 1)
    kept, leader, factor, radius, outside = _gaussian_plan(belief, n_draws)
    arms = belief.dim
    if factor is None:
        return _one_hot(arms, leader)
    every = kept.size == arms
    width = factor.shape[0]
    mean = belief.mean[kept[:width]]
    split = outside <= _SPLIT_SHARE
    rows = _block_rows(width, n_draws)
    buffer = np.empty((rows, width))
    counts = np.zeros(arms, dtype=np.int64)
    for start in range(0, n_draws, rows):
        size = min(rows, n_draws - start)
        norms = None
        if split:
            drawn = rng.binomial(size, outside)
            counts[leader] += size - drawn
            if not drawn:
                continue
            norms = np.sqrt(_chi2_tail(width, radius**2, drawn, rng))
            size = drawn
        scores = _draw_into(factor, mean, buffer[:size], rng, norms, lower=every)
        if every:
            # The base rate is drawn too; the reference scores zero in its place.
            scores[:, -1] = 0.0
        winners = scores.argmax(axis=1)
        if kept.size > width:
            # The undrawn reference scores zero: it wins the rows whose
            # best drawn score is below zero.
            winners[scores[np.arange(size), winners] < 0.0] = width
        counts[kept] += np.bincount(winners, minlength=kept.size)
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
        raise ConfigError(f"data arms {data.arms} do not match state arms {state.arms}")
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


def _beta_tally(alpha: np.ndarray, beta: np.ndarray, n_draws: int, rng: np.random.Generator) -> np.ndarray:
    """Winner counts of ``n_draws`` Monte Carlo draws of the given arms.

    The draws are made in chunks of ``_BETA_CHUNK`` rows, column by column
    within a chunk: each arm, in order, takes the chunk's scores from one
    ``_beta_column`` call. A running best score and winning arm per draw
    are replaced only on a strictly greater score, so ties go to the
    lowest arm, as in one argmax over the (n_draws, arms) matrix of those
    columns. Memory is a few chunk-long arrays.
    """
    counts = np.zeros(alpha.size, dtype=np.int64)
    for start in range(0, n_draws, _BETA_CHUNK):
        rows = min(_BETA_CHUNK, n_draws - start)
        best = np.full(rows, -np.inf)
        winners = np.zeros(rows, dtype=np.intp)
        for arm in range(alpha.size):
            column = _beta_column(alpha[arm], beta[arm], rows, rng)
            winners[column > best] = arm
            np.maximum(best, column, out=best)
        counts += np.bincount(winners, minlength=alpha.size)
    return counts


def _beta_by_quadrature(alpha: np.ndarray, beta: np.ndarray) -> bool:
    """Whether the Thompson probabilities of these arms come by quadrature:
    every shape at least 1 and every a + b at most ``_QUAD_MAX_TOTAL``.

    A shape below 1 makes the density unbounded at an end, and for tiny
    shapes much of the mass lies below the smallest double. A large a + b
    leaves the posterior's spread σ few doubles wide: the nodes, rounded
    to doubles, move by about 1e-16 √(a + b) σ, and the rule's distance
    from one with four times the nodes grew from 1.4e-13 at a + b = 1e9 to
    7.9e-12 at 1e12 and 2.2e-11 at 1e13 on four near-tied arms; near 1e20
    ``betainc`` returns NaN. Such states keep the tally, whose draws are
    rounded to doubles alike.
    """
    return min(alpha.min(), beta.min()) >= 1.0 and (alpha + beta).max() <= _QUAD_MAX_TOTAL


def _beta_panels(alpha: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges of the quadrature panels, and each arm's lower and upper
    ``_QUAD_DELTA``-quantiles.

    Below the second-largest lower quantile at least two arms lie below
    their own, and above the largest upper one every arm lies below its
    own, so each side holds at most about δ of any arm's chance to win.
    The panels run between the two. From each edge x the next lies
    min_j max(σ_j, |x − m_j| / 3) further, for arm means m_j and standard
    deviations σ_j: a panel is at most one σ wide near any arm's mean and
    widens geometrically away from every mean, so the rule follows each
    density's local scale. Decisions captured from the benchmark's loops
    took 4 to 32 panels, at K = 10 and K = 200 alike.

    Near 0 the densities and distribution functions are x^(a − 1) and x^a
    times functions analytic there, so they are analytic when every a is a
    whole number, and likewise near 1 for b; a fractional shape makes them
    singular at that end, where the rule would lose digits. So with some fractional a each panel is at
    most as wide as its distance from 0, [x, 2x] at most, and with some
    fractional b at most as wide as the gap it leaves to 1.
    """
    total = alpha + beta
    mean = alpha / total
    sd = np.sqrt(mean * (1.0 - mean) / (total + 1.0))
    lower = betaincinv(alpha, beta, _QUAD_DELTA)
    upper = 1.0 - betaincinv(beta, alpha, _QUAD_DELTA)
    x, end = float(np.partition(lower, -2)[-2]), float(upper.max())
    to_zero, to_one = bool((alpha % 1.0).any()), bool((beta % 1.0).any())
    edges = [x]
    while x < end:
        step = float(np.maximum(sd, np.abs(x - mean) / 3.0).min())
        if to_zero:
            step = min(step, max(x, _TINY))
        if to_one:
            step = min(step, 0.5 * (1.0 - x))
        x += step
        edges.append(min(x, end))
    return np.array(edges), lower, upper


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
    """Thompson probabilities π_j = ∫ f_j(x) ∏_{i≠j} F_i(x) dx of arms
    with both shapes at least 1, by Gauss–Legendre quadrature with
    ``_QUAD_NODES`` nodes per panel of ``_beta_panels``.

    F_i is ``betainc``, read as 0 below arm i's lower δ-quantile and 1
    above its upper one, and the density is taken as 0 outside the two;
    each costs at most about δ per arm. ∏_{i≠j} F_i comes from prefix and
    suffix products, so an F_i of 0 costs no division.

    The density is computed relative to its value at the mean m,
    f̃(x) = exp((a − 1) log(x / m) + (b − 1) log((1 − x) / (1 − m))), each
    log taken through log1p of the gap to m (``_log_ratio``), and scaled
    so that the rule's own integral of it over the panels equals the arm's
    mass there, from ``betaincc``. Written as (a − 1) log x +
    (b − 1) log1p(−x) − betaln(a, b) instead, the terms cancel at large
    shapes: on four near-tied arms with a + b ≈ 3e8 the chances then
    summed to 1 + 3.7e-7. A shape of 1 zeroes its term, so a mode at an
    end needs nothing special.

    The betainc evaluations, the bulk of the cost, are made only where the
    node lies inside the arm's quantiles, in blocks of about
    ``_QUAD_ELEMENTS`` (node, arm) pairs, so memory does not grow with the
    arm count times the node count. The chances are returned scaled to sum
    to 1. Before that, their sum was within 1e-14 of 1 on states captured
    from the benchmark's decision loops, and within 1e-12 on four
    near-tied arms with a + b = 1e9.
    """
    edges, lower, upper = _beta_panels(alpha, beta)
    half = 0.5 * np.diff(edges)
    nodes = ((edges[:-1] + half)[:, None] + half[:, None] * _QUAD_NODES).ravel()
    weights = (half[:, None] * _QUAD_WEIGHTS).ravel()
    total = alpha + beta
    mean, rest = alpha / total, beta / total
    wins, norms = np.zeros(alpha.size), np.zeros(alpha.size)
    rows = max(1, _QUAD_ELEMENTS // alpha.size)
    for start in range(0, nodes.size, rows):
        x = nodes[start : start + rows, None]
        node, arm = np.nonzero((x > lower) & (x < upper))
        at, m, r = x[node, 0], mean[arm], rest[arm]
        cdf = (x >= upper).astype(float)
        cdf[node, arm] = betainc(alpha[arm], beta[arm], at)
        density = np.zeros_like(cdf)
        density[node, arm] = weights[start + node] * np.exp(
            (alpha[arm] - 1.0) * _log_ratio(at, m, at - m)
            + (beta[arm] - 1.0) * _log_ratio(1.0 - at, r, m - at))
        others = np.ones_like(cdf)
        others[:, 1:] = np.cumprod(cdf[:, :-1], axis=1)
        others[:, :-1] *= np.cumprod(cdf[:, :0:-1], axis=1)[:, ::-1]
        norms += density.sum(axis=0)
        wins += (density * others).sum(axis=0)
    mass = betaincc(alpha, beta, edges[0])
    chances = np.zeros(alpha.size)
    np.divide(wins * mass, norms, out=chances, where=norms > 0.0)
    return chances / chances.sum()


def beta_ts_proportions(
    state: BetaState, n_draws: int, rng: np.random.Generator
) -> AllocationProportions:
    """Thompson winner frequencies of ``n_draws`` draws under independent
    Beta posteriors.

    A dominance screen runs first (``_beta_survivors``); only the arms it
    keeps take part, and a lone survivor, one arm included, is returned
    one-hot without touching the generator.

    The draws of a Monte Carlo tally are iid and each row's winner follows
    Categorical(π), π the survivors' Thompson probabilities, so the winner
    counts are Multinomial(n_draws, π). When every survivor has both
    shapes at least 1 and a + b at most ``_QUAD_MAX_TOTAL``
    (``_beta_by_quadrature``), π is computed by quadrature
    (``_beta_win_chances``) and the counts are one
    ``rng.multinomial(n_draws, π̂)`` draw: the cost does not grow with
    ``n_draws``. The total variation from the tally's law is then at most
    n_draws ‖π̂ − π‖₁ / 2, with ‖π̂ − π‖₁ within 1e-11 on every state the
    tests hold against 30-digit arithmetic or a finer rule. Other states,
    a survivor with a shape below 1 such as a Beta(½, ½) prior's, keep
    the Monte Carlo tally (``_beta_tally``) of the survivors.

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
    survivors = np.flatnonzero(_beta_survivors(state, n_draws))
    if survivors.size == 1:
        return _one_hot(state.arms, int(survivors[0]))
    alpha, beta = state.alpha[survivors], state.beta[survivors]
    if _beta_by_quadrature(alpha, beta):
        kept = rng.multinomial(n_draws, _beta_win_chances(alpha, beta))
    else:
        kept = _beta_tally(alpha, beta, n_draws, rng)
    counts = np.zeros(state.arms, dtype=np.int64)
    counts[survivors] = kept
    return AllocationProportions(counts / float(n_draws))
