"""Property checks for the dominance screen in front of the Thompson draws.

The screened allocation must be the full draw's, bit for bit, whenever the
decision draws (or, for a Gaussian decision that takes the radial split,
the radial oracle's), and one multinomial draw with Thompson probabilities
within 1e-11 of the oracle's over the kept arms when it takes the
quadrature: a Beta decision without a shape below 1, or one on
independent arm logits (a ``LogitBelief``). A settled
decision must be one the full draw makes too; every arm the screen drops
must be one whose chance of tying or beating the leader is within the
screen's per-draw budget, computed here from the forward distribution
functions rather than the screen's own quantiles and factors; every
Gaussian draw inside the radial split's ball must be the leader's, near-
duplicate arms included; and the beliefs of the full-rank policy must
keep the arrow precision that makes their arm logits independent.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import betainc, betaincc, ndtr

import oracles
from orbandit import (
    SCREEN_EPS,
    BetaState,
    GaussianBelief,
    LogisticPolicyState,
    LogitBelief,
    RoundData,
    UpdateMode,
    allocation_proportions,
    beta_ts_proportions,
    full_ts_update,
    marginalize_keep,
    or_ts_update,
)
from orbandit.gaussian_belief import _draw_into, _move_reference
from orbandit.policy import _beta_plan, _beta_survivors, _gaussian_survivors, _logit_survivors

properties = settings(derandomize=True, deadline=None, max_examples=100)
seeds = st.integers(0, 2**32 - 1)
draw_counts = st.sampled_from([1, 50, 10_000])
# Draws of the oracle that must agree with a settled decision.
SETTLED_CHECK_DRAWS = 100_000
# Slack for the rounding of the check's own arithmetic.
RTOL = 1e-6


@st.composite
def beta_states(draw):
    """Posteriors after up to 3e7 trials per arm, at rates 0.02–0.6."""
    k = draw(st.integers(2, 6))
    rates = np.array(draw(st.lists(st.floats(0.02, 0.6), min_size=k, max_size=k)))
    trials = np.array(draw(st.lists(
        st.sampled_from([0, 30, 3_000, 300_000, 30_000_000]), min_size=k, max_size=k)))
    return BetaState(1.0 + rates * trials, 1.0 + (1.0 - rates) * trials)


@st.composite
def gaussian_beliefs(draw):
    """Proper beliefs with correlated coordinates, at precisions from 1 to
    1e6 times a random Gram matrix and means spread 0.1–5 wide."""
    k = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(seeds))
    scale = draw(st.sampled_from([1.0, 1e2, 1e4, 1e6]))
    spread = draw(st.sampled_from([0.1, 1.0, 5.0]))
    root = rng.normal(size=(k, k))
    return GaussianBelief(spread * rng.normal(size=k), scale * (root @ root.T + 0.5 * np.eye(k)))


@st.composite
def arrow_beliefs(draw):
    """Beliefs of independent arm logits: precisions ``d`` of 1 to 1e6 for
    the arms but the reference, its own D from 1e-2 to 1 times their sum,
    and logit means spread 0.1–5 wide, held as a ``LogitBelief`` or
    written in θ as a dense arrow."""
    k = draw(st.integers(3, 6))
    rng = np.random.default_rng(draw(seeds))
    d = 10.0 ** rng.uniform(0.0, 6.0, size=k - 1)
    rest = d.sum() * 10.0 ** rng.uniform(-2.0, 0.0)
    logits = draw(st.sampled_from([0.1, 1.0, 5.0])) * rng.normal(size=k)
    if draw(st.booleans()):
        return LogitBelief(logits, np.r_[d, rest])
    return GaussianBelief(np.r_[logits[:-1] - logits[-1], logits[-1]], oracles.arrow_precision(d, rest))


def assert_settled(p, leader, rng, seed, oracle):
    """One-hot on ``leader``, the generator untouched, and the full draw
    with ``SETTLED_CHECK_DRAWS`` draws from the same state agreeing."""
    expected = np.zeros(p.size)
    expected[leader] = 1.0
    np.testing.assert_array_equal(p, expected)
    assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state
    np.testing.assert_array_equal(
        oracle(SETTLED_CHECK_DRAWS, np.random.default_rng(seed)).p, expected)


@properties
@given(state=beta_states(), n_draws=draw_counts, seed=seeds)
@example(state=BetaState([3.1e5, 3.0e5], [6.9e5, 7.0e5]), n_draws=10_000, seed=0)
@example(state=BetaState([3.1e5, 3.0e5, 2e3], [6.9e5, 7.0e5, 8e3]), n_draws=10_000, seed=0)
# Shapes below 1, or a + b above 1e12, keep the Monte Carlo tally; the
# third arm is dropped.
@example(state=BetaState([0.5, 2.0, 1e3], [0.5, 3.0, 9e3]), n_draws=10_000, seed=0)
@example(state=BetaState([3e12, 3.0000004e12, 1e3], [7e12, 6.9999996e12, 9e3]),
         n_draws=10_000, seed=0)
# Rates near 1e-17, where an upper quantile taken as a complement reads 0.
@example(state=BetaState([41.0, 21.0], [2e18, 2e18]), n_draws=10_000, seed=0)
# a + b near 1e19, where SciPy can cross an arm's two quantiles.
@example(state=BetaState([4.29e18, 1.38e18], [9.55e18, 3.23e18]), n_draws=10_000, seed=0)
def test_beta_screen_matches_the_full_draw(state, n_draws, seed):
    """One arm kept: a settled decision. Otherwise, over the kept arms,
    one multinomial draw with Thompson probabilities held to independently
    computed ones (``oracles.beta_multinomial_proportions``), or for a
    kept shape below 1 or a + b above 1e12 the full draw, bit for bit and
    with the generator state; zero for the others."""
    keep = _beta_survivors(state, n_draws)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    p = beta_ts_proportions(state, n_draws, rng).p
    if keep.sum() == 1:
        assert_settled(p, np.flatnonzero(keep)[0], rng, seed,
                       lambda draws, r: oracles.beta_ts_proportions(state, draws, r))
        return
    kept = BetaState(state.alpha[keep], state.beta[keep])
    quadrature = _beta_plan(state, n_draws)[0] == "quadrature"
    oracle = oracles.beta_multinomial_proportions if quadrature else oracles.beta_ts_proportions
    np.testing.assert_array_equal(p[keep], oracle(kept, n_draws, oracle_rng).p)
    assert not p[~keep].any()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def lower_quantile(a, b, q):
    """The point t with P(Beta(a, b) ≤ t) = q, by bisection on ``betainc``."""
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if betainc(a, b, mid) <= q:
            lo = mid
        else:
            hi = mid
    return lo


@properties
@given(state=beta_states(), n_draws=draw_counts)
@example(state=BetaState([41.0, 21.0], [2e18, 2e18]), n_draws=10_000)
@example(state=BetaState([4.29e18, 1.38e18], [9.55e18, 3.23e18]), n_draws=10_000)
def test_beta_screen_drops_only_arms_within_budget(state, n_draws):
    """For a dropped arm j and the leader i, with t the leader's lower
    δ-quantile, P(X_i ≤ t) + P(X_j ≥ t) bounds P(X_j ≥ X_i); it must be
    within 2δ, δ = ε / (2 n_draws (K − 1))."""
    keep = _beta_survivors(state, n_draws)
    a, b = state.alpha, state.beta
    leader = int(np.argmax(a / (a + b)))
    assert keep[leader]
    delta = SCREEN_EPS / (2.0 * n_draws * (state.arms - 1))
    t = lower_quantile(a[leader], b[leader], delta)
    for j in np.flatnonzero(~keep):
        chance = betainc(a[leader], b[leader], t) + betaincc(a[j], b[j], t)
        assert chance <= 2.0 * delta * (1.0 + RTOL), (j, chance, delta)


@pytest.mark.blas_sensitive
@properties
@given(belief=st.one_of(gaussian_beliefs(), arrow_beliefs()), n_draws=draw_counts, seed=seeds)
# Decisions that drop arms from beliefs that are no arrows, so that all K
# coordinates are drawn: the reference dropped, then kept.
@example(belief=GaussianBelief([1.0, 0.9, -5.0, 0.0], 100.0 * np.eye(4)), n_draws=10_000, seed=0)
@example(belief=GaussianBelief([0.05, -5.0, 0.0], 100.0 * np.eye(3)), n_draws=10_000, seed=0)
def test_gaussian_screen_matches_the_full_draw(belief, n_draws, seed):
    """One arm kept: a settled decision. Arm logits (``LogitBelief``):
    one multinomial draw over the kept arms whose probabilities are held
    to the oracle's, and zero for the others. A dense belief, a dense
    arrow included: the full draw's bits and generator state, or the
    radial oracle's when the decision takes the split."""
    logits = isinstance(belief, LogitBelief)
    if logits:
        keep, _ = _logit_survivors(belief.logit_mean, belief.sd, n_draws)
    else:
        keep, _, _ = _gaussian_survivors(belief, n_draws)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    p = allocation_proportions(belief, n_draws, rng).p
    if keep.sum() == 1:
        assert_settled(p, np.flatnonzero(keep)[0], rng, seed,
                       lambda draws, r: oracles.allocation_proportions(belief, draws, r))
        return
    if logits:
        expected = oracles.normal_multinomial_counts(belief, keep, n_draws, oracle_rng) / float(n_draws)
    elif (split := oracles.radial_split(belief.mean, belief.precision)) is None:
        expected = oracles.allocation_proportions(belief, n_draws, oracle_rng).p
    else:
        expected = oracles.radial_winner_counts(
            belief.mean, belief.precision, n_draws, oracle_rng, *split) / float(n_draws)
    np.testing.assert_array_equal(p, expected)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@properties
@given(belief=gaussian_beliefs(), n_draws=draw_counts)
def test_gaussian_screen_drops_only_arms_within_budget(belief, n_draws):
    """No dropped arm ties or beats the leader in one draw with probability
    Φ(−gap / sd) above ε / (n_draws (K − 1)), with the score covariance
    taken from the inverse of the precision and the reference scored 0."""
    keep, _, _ = _gaussian_survivors(belief, n_draws)
    cov = np.linalg.inv(belief.precision)
    cov[-1, :] = 0.0
    cov[:, -1] = 0.0
    mean = belief.mean.copy()
    mean[-1] = 0.0
    leader = int(np.argmax(mean))
    assert keep[leader]
    budget = SCREEN_EPS / (n_draws * (belief.dim - 1))
    for j in np.flatnonzero(~keep):
        sd = np.sqrt(cov[leader, leader] + cov[j, j] - 2.0 * cov[leader, j])
        chance = ndtr(-(mean[leader] - mean[j]) / sd)
        assert chance <= budget * (1.0 + RTOL), (j, chance, budget)


class FixedNormals:
    """Stands in for a generator: fills ``out`` with preset rows."""

    def __init__(self, rows):
        self.rows = rows

    def standard_normal(self, out):
        out[...] = self.rows


def assert_rows_inside_the_ball_go_to_the_leader(belief, seed):
    """Rows of normals with a norm below the screen's radius, pushed
    through the tally's own rescale and multiply, are all won by the
    leader. Besides random directions, each arm j gets the direction that
    raises its score against the leader's fastest, at norms up to the
    largest float below the radius, where only the radius's margins keep
    rounding from handing the row to arm j."""
    _, leader, radius = _gaussian_survivors(belief, 10_000)
    if not 0.0 < radius < np.inf:
        return
    k = belief.dim
    loadings = belief.inverse_factor.T.copy()
    loadings[-1] = 0.0
    toward = loadings - loadings[leader]
    toward = np.delete(toward, leader, axis=0)
    toward = toward[np.linalg.norm(toward, axis=1) > 0]
    rng = np.random.default_rng(seed)
    directions = np.vstack([toward, rng.normal(size=(8, k))])
    fractions = np.array([0.0, 0.5, 0.9, 1.0 - 1e-6, np.nextafter(1.0, 0.0)])
    rows = np.repeat(directions, fractions.size, axis=0)
    norms = np.tile(fractions, directions.shape[0]) * radius
    scores = _draw_into(belief.inverse_factor, belief.mean, np.empty_like(rows), FixedNormals(rows), norms)
    scores[:, -1] = 0.0
    assert (np.argmax(scores, axis=1) == leader).all()


@properties
@given(belief=gaussian_beliefs(), seed=seeds)
def test_gaussian_rows_inside_the_ball_go_to_the_leader(belief, seed):
    """``assert_rows_inside_the_ball_go_to_the_leader`` on correlated
    beliefs, where the radius's ``REL_TOL`` margin binds."""
    assert_rows_inside_the_ball_go_to_the_leader(belief, seed)


@st.composite
def near_duplicate_beliefs(draw):
    """A proper belief whose scored arms i and j are coupled in precision
    by up to 1e14, c (e_i − e_j)(e_i − e_j)ᵀ on top of 1e2 to 1e6 times a
    random Gram matrix, so that their scores differ by about c^(−1/2)
    while each varies by about 1; the pair leads, its two means a few
    standard deviations of that difference apart."""
    k = draw(st.integers(3, 6))
    rng = np.random.default_rng(draw(seeds))
    scale = draw(st.sampled_from([1e2, 1e4, 1e6]))
    coupling = draw(st.sampled_from([1e4, 1e8, 1e12, 1e14]))
    pair = rng.permutation(k - 1)[:2]
    root = rng.normal(size=(k, k))
    v = np.zeros(k)
    v[pair] = 1.0, -1.0
    precision = scale * (root @ root.T + 0.5 * np.eye(k)) + coupling * np.outer(v, v)
    mean = rng.normal(size=k)
    mean[pair] = max(mean[:-1].max(), 0.0) + 1.0 + np.array([0.0, -rng.uniform(0.5, 5.0)])
    mean[pair[1]] += (mean[pair[1]] - mean[pair[0]]) * (1.0 / np.sqrt(coupling) - 1.0)
    belief = GaussianBelief(mean, precision)
    assume(belief.is_proper())
    return belief


@pytest.mark.blas_sensitive
@properties
@given(belief=near_duplicate_beliefs(), seed=seeds)
def test_near_duplicate_rows_inside_the_ball_go_to_the_leader(belief, seed):
    """``assert_rows_inside_the_ball_go_to_the_leader`` when an arm trails
    the leader by a sliver of the scores' size: at a coupling of 1e14 the
    leader's lead at the edge of the ball, once shrunk by ``REL_TOL``, is
    below one rounding of the scores, and only the radius's rounding
    margin keeps the leader's rows."""
    assert_rows_inside_the_ball_go_to_the_leader(belief, seed)


@st.composite
def full_rank_histories(draw):
    """A full-rank posterior after one to four rounds from a flat start at
    3 to 8 arms, with 10 to 1e6 trials an arm at rates 0.02–0.6, and a
    mask of the arms to keep that holds the reference and one more."""
    k = draw(st.integers(3, 8))
    rng = np.random.default_rng(draw(seeds))
    trials = draw(st.sampled_from([10, 1_000, 1_000_000]))
    rates = rng.uniform(0.02, 0.6, size=k)
    state = LogisticPolicyState.flat_start(k, UpdateMode.FULL)
    for _ in range(draw(st.integers(1, 4))):
        n = rng.integers(trials, 2 * trials, size=k)
        state = full_ts_update(state, RoundData(n, rng.binomial(n, rates)))
    keep = rng.random(k) < 0.5
    keep[[rng.integers(k - 1), k - 1]] = True
    return state.belief, keep, int(rng.integers(k - 1))


def assert_arrow_logits(belief):
    """The belief holds independent logits (``LogitBelief``) whose
    variances match the logits' variances from ``belief.covariance()``
    within 1e-9 relative, and whose means are the arms' log odds; its
    dense view is an arrow (``oracles.arrow_logits``)."""
    assert isinstance(belief, LogitBelief)
    assert oracles.arrow_logits(belief) is not None
    mean, sd = belief.logit_mean, belief.sd
    matrix = oracles.arm_logit_matrix(belief.dim)
    np.testing.assert_allclose(sd**2, np.diag(matrix @ belief.covariance() @ matrix.T), rtol=1e-9)
    np.testing.assert_allclose(mean, matrix @ belief.mean, rtol=1e-12, atol=1e-12)


@properties
@given(case=full_rank_histories())
def test_full_rank_beliefs_stay_arrows(case):
    """The arm logits of a chain of ``full_ts_update`` rounds are held as
    independent, and stay so under ``marginalize_keep`` to arms that hold
    the reference and under a re-anchor to another arm; after two
    ``or_ts_update`` rounds they are not."""
    belief, keep, anchor = case
    assert_arrow_logits(belief)
    assert_arrow_logits(marginalize_keep(belief, np.flatnonzero(keep)))
    assert_arrow_logits(_move_reference(belief, anchor))
    state = LogisticPolicyState(belief, UpdateMode.ODDS_RATIO)
    data = RoundData(np.full(belief.dim, 1_000), np.full(belief.dim, 300))
    assert oracles.arrow_logits(or_ts_update(or_ts_update(state, data), data).belief) is None
