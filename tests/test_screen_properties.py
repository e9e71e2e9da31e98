"""Property checks for the dominance screen in front of the Thompson draws.

The screened allocation must be the full draw's, bit for bit, whenever the
screen keeps every arm (or, for a Gaussian decision that takes the radial
split, the radial oracle's), and the kept-arm oracle's over the kept arms
when it keeps some; a settled decision must be one the full draw makes
too; every arm the screen drops must be one whose chance of tying or
beating the leader is within the screen's per-draw budget, computed here
from the forward distribution functions rather than the screen's own
quantiles and factors; every Gaussian draw inside the radial split's ball
must be the leader's; and the kept arms' factor must keep the spreads of
near-duplicate arms and the soundness of its own ball.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.special import betainc, betaincc, ndtr

import oracles
from orbandit import (
    SCREEN_EPS,
    BetaState,
    GaussianBelief,
    allocation_proportions,
    beta_ts_proportions,
)
from orbandit.gaussian_belief import _draw_into
from orbandit.policy import _beta_survivors, _gaussian_survivors, _kept_factor

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
def test_beta_screen_matches_the_full_draw(state, n_draws, seed):
    """Every arm kept: the full draw's bits and generator state. One arm
    kept: a settled decision. Some kept: the full draw over the kept arms,
    bit for bit, and zero for the others."""
    keep = _beta_survivors(state, n_draws)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    p = beta_ts_proportions(state, n_draws, rng).p
    if keep.sum() == 1:
        assert_settled(p, np.flatnonzero(keep)[0], rng, seed,
                       lambda draws, r: oracles.beta_ts_proportions(state, draws, r))
        return
    kept = BetaState(state.alpha[keep], state.beta[keep])
    np.testing.assert_array_equal(p[keep], oracles.beta_ts_proportions(kept, n_draws, oracle_rng).p)
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
@given(belief=gaussian_beliefs(), n_draws=draw_counts, seed=seeds)
# Kept-arm decisions without the split: the reference dropped, then kept.
@example(belief=GaussianBelief([1.0, 0.9, -5.0, 0.0], 100.0 * np.eye(4)), n_draws=10_000, seed=0)
@example(belief=GaussianBelief([0.05, -5.0, 0.0], 100.0 * np.eye(3)), n_draws=10_000, seed=0)
def test_gaussian_screen_matches_the_full_draw(belief, n_draws, seed):
    """Every arm kept: the full draw's bits and generator state, or the
    radial oracle's when the decision takes the split. One arm kept: a
    settled decision. Some kept: the kept-arm oracle's over the kept arms,
    bit for bit, and zero for the others."""
    keep, _, _ = _gaussian_survivors(belief, n_draws)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    p = allocation_proportions(belief, n_draws, rng).p
    if keep.sum() == 1:
        assert_settled(p, np.flatnonzero(keep)[0], rng, seed,
                       lambda draws, r: oracles.allocation_proportions(belief, draws, r))
        return
    if not keep.all():
        expected = oracles.kept_winner_counts(
            belief.mean, belief.precision, keep, n_draws, oracle_rng) / float(n_draws)
        assert not expected[~keep].any()
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


@properties
@given(belief=gaussian_beliefs(), seed=seeds)
def test_gaussian_rows_inside_the_ball_go_to_the_leader(belief, seed):
    """Rows of normals with a norm below the screen's radius, pushed
    through the tally's own rescale and multiply, are all won by the
    leader. Besides random directions, each arm j gets the direction that
    raises its score against the leader's fastest, at norms up to the
    largest float below the radius, where only the radius's ``REL_TOL``
    margin keeps rounding from handing the row to arm j."""
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


@st.composite
def near_duplicate_pairs(draw):
    """A proper belief whose scored arms i and j are coupled in precision
    by up to 1e12, c (e_i − e_j)(e_i − e_j)ᵀ on top of 1e2 to 1e6 times a
    random Gram matrix, so that their scores differ by about c^(−1/2)
    while each varies by about 1; the pair leads, its two means a few
    standard deviations of that difference apart. With it, a mask that
    keeps the pair and drops at least one other arm."""
    k = draw(st.integers(3, 6))
    rng = np.random.default_rng(draw(seeds))
    scale = draw(st.sampled_from([1e2, 1e4, 1e6]))
    coupling = draw(st.sampled_from([1e4, 1e8, 1e12]))
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
    keep = rng.random(k) < 0.5
    keep[pair] = True
    keep[rng.choice(np.flatnonzero(~keep)) if not keep.all() else
         rng.choice(np.setdiff1d(np.arange(k), pair))] = False
    return belief, keep


@pytest.mark.blas_sensitive
@properties
@given(case=near_duplicate_pairs(), seed=seeds)
def test_kept_factor_keeps_near_duplicate_spreads_and_its_ball(case, seed):
    """The kept arms' factor R gives every pair of kept scores, the
    reference's read as zero, the spread of their difference that a
    back-solve through the precision's Cholesky factor gives, within 1e-9
    relative, at couplings up to 1e12. And rows of normals with a norm
    below its radius, drawn through R by the tally's own rescale and
    multiply, are all the leader's: random directions, and for each kept
    arm the direction that raises it fastest against the leader, at norms
    up to the largest float below the radius."""
    belief, keep = case
    k = belief.dim
    kept = np.flatnonzero(keep)
    mean = belief.mean.copy()
    mean[-1] = 0.0
    leader = int(np.argmax(mean))
    factor, radius = _kept_factor(belief, kept, leader)
    m = factor.shape[0]
    loadings = np.zeros((kept.size, m))
    loadings[:m] = factor.T
    spreads = np.linalg.norm(loadings[:, None] - loadings[None], axis=2)
    leads = np.eye(k)[:, kept, None] - np.eye(k)[:, None, kept]
    leads[-1] = 0.0
    root = np.linalg.cholesky(belief.precision)
    expected = np.linalg.norm(
        solve_triangular(root, leads.reshape(k, -1), lower=True), axis=0).reshape(spreads.shape)
    np.testing.assert_allclose(spreads, expected, rtol=1e-9, atol=0.0)

    at = int(np.searchsorted(kept, leader))
    toward = np.delete(loadings - loadings[at], at, axis=0)
    toward = toward[np.linalg.norm(toward, axis=1) > 0]
    directions = np.vstack([toward, np.random.default_rng(seed).normal(size=(8, m))])
    fractions = np.array([0.0, 0.5, 0.9, 1.0 - 1e-6, np.nextafter(1.0, 0.0)])
    rows = np.repeat(directions, fractions.size, axis=0)
    norms = np.tile(fractions, directions.shape[0]) * radius
    scores = np.zeros((rows.shape[0], kept.size))
    scores[:, :m] = _draw_into(factor, belief.mean[kept[:m]], np.empty_like(rows),
                               FixedNormals(rows), norms, lower=False)
    assert (np.argmax(scores, axis=1) == at).all()
