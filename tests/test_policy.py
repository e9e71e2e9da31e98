"""Thompson-sampling policies: allocation and the three update rules."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import betainc, betaincinv

from orbandit import (
    AllocationProportions,
    ArmRegistry,
    BetaState,
    ConfigError,
    GaussianBelief,
    LogisticPolicyState,
    RoundData,
    UpdateMode,
    absorb_round,
    allocation_proportions,
    beta_ts_proportions,
    beta_ts_update,
    full_ts_update,
    initial_proportions,
    make_flat_belief,
    marginalize_keep,
    or_ts_update,
    sample,
)
from orbandit.policy import (
    _BETA_CHUNK,
    _beta_column,
    _beta_survivors,
    _block_rows,
    _gaussian_survivors,
)

import oracles
from oracles import backsolve_sample, backsolve_winner_counts


# --- proportions -------------------------------------------------------------


def test_initial_proportions_are_uniform():
    props = initial_proportions(4)
    np.testing.assert_allclose(props.p, np.full(4, 0.25))


def test_proportions_must_sum_to_one():
    with pytest.raises(ConfigError):
        AllocationProportions(np.array([0.5, 0.4]))
    with pytest.raises(ConfigError):
        AllocationProportions(np.array([0.5, -0.1, 0.6]))
    with pytest.raises(ConfigError, match="field 'p'"):
        AllocationProportions([np.nan])


def test_allocation_zero_mean_identity_is_symmetric_in_leading_arms():
    """With independent standard-normal scores and the reference fixed at
    zero, the two leading arms tie by symmetry: P = (3/8, 3/8, 1/4)."""
    belief = GaussianBelief(np.zeros(3), np.eye(3))
    rng = np.random.default_rng(100)
    props = allocation_proportions(belief, 400_000, rng)
    np.testing.assert_allclose(props.p, [0.375, 0.375, 0.25], atol=0.005)


def test_allocation_favors_dominant_arm():
    belief = GaussianBelief(np.array([3.0, 0.0, 0.0]), 25.0 * np.eye(3))
    rng = np.random.default_rng(101)
    props = allocation_proportions(belief, 50_000, rng)
    assert props.p[0] > 0.99


def test_allocation_requires_proper_belief():
    from orbandit import CannotSampleError

    rng = np.random.default_rng(102)
    with pytest.raises(CannotSampleError):
        allocation_proportions(make_flat_belief(3), 100, rng)
    with pytest.raises(ConfigError, match="field 'n_draws'"):
        allocation_proportions(GaussianBelief(np.zeros(2), np.eye(2)), 2.5, rng)


def test_allocation_is_deterministic_given_generator_state():
    belief = GaussianBelief(np.array([0.2, -0.1, 0.0]), 4.0 * np.eye(3))
    a = allocation_proportions(belief, 10_000, np.random.default_rng(103))
    b = allocation_proportions(belief, 10_000, np.random.default_rng(103))
    np.testing.assert_array_equal(a.p, b.p)


# --- allocation against the back-solve oracle ---------------------------------


def or_ts_belief(k, trials, seed, spread=0.25):
    """Belief after two odds-ratio rounds of ``trials`` split evenly, with
    arm rates spread over ``spread`` above 0.05."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.05, 0.05 + spread, size=k)
    state = LogisticPolicyState.flat_start(k, UpdateMode.ODDS_RATIO)
    for _ in range(2):
        n = np.full(k, trials // k)
        state = or_ts_update(state, RoundData(n, rng.binomial(n, p)))
    return state.belief


def continuous_marginal(seed):
    """Marginal over four of six tracked arms, the reference among them."""
    rng = np.random.default_rng(seed)
    arms = tuple("ABCDEF")
    registry = ArmRegistry.empty()
    for _ in range(2):
        n = np.full(6, 2000)
        data = RoundData(n, rng.binomial(n, rng.uniform(0.1, 0.3, size=6)))
        registry = absorb_round(registry, arms, data, UpdateMode.ODDS_RATIO)
    return marginalize_keep(registry.belief, [0, 2, 3, 5])


@pytest.mark.parametrize(
    "make",
    [
        lambda: or_ts_belief(2, 10_000, 2),
        lambda: or_ts_belief(10, 10_000, 10),
        lambda: or_ts_belief(50, 10_000, 50),
        lambda: or_ts_belief(200, 10_000, 200),
        lambda: or_ts_belief(10, 1_000_000, 3, spread=0.002),
        lambda: continuous_marginal(5),
    ],
    ids=["k2", "k10", "k50", "k200", "k10_1e6_trials", "continuous_marginal"],
)
def test_allocation_matches_the_backsolve_oracle(make):
    belief = make()
    assert belief.is_proper()
    rng, oracle_rng = np.random.default_rng(20), np.random.default_rng(20)
    props = allocation_proportions(belief, 10_000, rng)
    counts = backsolve_winner_counts(belief.mean, belief.precision, 10_000, oracle_rng)
    np.testing.assert_array_equal(props.p, counts / 10_000.0)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state

    draws = sample(belief, 2_000, np.random.default_rng(21))
    expected = backsolve_sample(belief.mean, belief.precision, 2_000, np.random.default_rng(21))
    np.testing.assert_allclose(draws, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


# --- beta-bernoulli baseline --------------------------------------------------


def test_beta_update_adds_successes_and_failures():
    state = BetaState.uniform_prior(3)
    data = RoundData(np.array([10, 20, 0]), np.array([3, 5, 0]))
    updated = beta_ts_update(state, data)
    np.testing.assert_array_equal(updated.alpha, [4.0, 6.0, 1.0])
    np.testing.assert_array_equal(updated.beta, [8.0, 16.0, 1.0])


def test_beta_proportions_favor_better_arm():
    state = BetaState(np.array([300.0, 30.0]), np.array([700.0, 70.0]))
    state = beta_ts_update(state, RoundData(np.array([1000, 1000]), np.array([350, 300])))
    props = beta_ts_proportions(state, 50_000, np.random.default_rng(104))
    assert props.p[0] > 0.9


def test_beta_screen_settles_a_clear_leader_without_drawing():
    """Arms 15 posterior standard deviations apart are settled before any
    draw. The upper quantile must be computed as 1 − betaincinv(b, a, δ):
    betaincinv(a, b, 1 − δ) reads 1.0 for δ below 1.1e-16, since 1 − δ
    rounds to 1, and no arm would ever be dropped."""
    assert betaincinv(3e5, 7e5, 1 - 1e-18) == 1.0
    rng = np.random.default_rng(105)
    before = rng.bit_generator.state
    props = beta_ts_proportions(BetaState([3.1e5, 3.0e5], [6.9e5, 7.0e5]), 10_000, rng)
    np.testing.assert_array_equal(props.p, [1.0, 0.0])
    assert rng.bit_generator.state == before


def test_beta_state_validates_positivity():
    with pytest.raises(ConfigError):
        BetaState(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    for alpha, beta, field in (([np.nan, 1.0], [1.0, 1.0], "alpha"), ([1.0], [np.inf], "beta")):
        with pytest.raises(ConfigError, match=f"field '{field}'"):
            BetaState(alpha, beta)


# --- Beta columns -------------------------------------------------------------


# Each branch of _beta_column: Beta(1, b) by the inverse distribution
# function, the rest by rng.beta.
BETA_SHAPES = [(1.0, 1.0), (1.0, 5e3), (7e2, 1.0), (0.5, 0.5), (3.0, 700.0), (3e5, 7e5)]


@pytest.mark.parametrize("a, b", BETA_SHAPES)
def test_beta_column_follows_the_beta_law(a, b):
    draws = _beta_column(a, b, 20_000, np.random.default_rng(40))
    assert draws.shape == (20_000,)
    assert stats.kstest(draws, stats.beta(a, b).cdf).pvalue > 1e-3


class FixedUniforms:
    """Stands in for a generator whose uniforms are the given values."""

    def __init__(self, values):
        self.values = np.asarray(values)

    def random(self, n):
        return np.resize(self.values, n)


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.0, 5e3), (1.0, 1e-3)])
def test_beta_column_maps_the_ends_of_the_uniform_without_warnings(a, b):
    """U = 0 and the largest U below 1 give finite draws in [0, 1]."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = _beta_column(a, b, 2, FixedUniforms([0.0, np.nextafter(1.0, 0.0)]))
    assert np.all((draws >= 0.0) & (draws <= 1.0))


def two_arm_win_chance(a0, b0, a1, b1, points=200_000):
    """P(X1 > X0) for independent X0 ~ Beta(a0, b0), X1 ~ Beta(a1, b1):
    the mean of F0(F1⁻¹(u)) over u in (0, 1), by the midpoint rule."""
    u = (np.arange(points) + 0.5) / points
    return float(betainc(a0, b0, betaincinv(a1, b1, u)).mean())


@pytest.mark.parametrize("alpha, beta", [
    ([1.0, 1.0], [1.0, 1.0]),
    ([1.0, 3.0], [1.0, 5.0]),
    ([1.0, 2.0], [4.0, 1.0]),
    ([0.5, 1.0], [0.5, 1.0]),
    ([30.0, 1.0], [70.0, 1.0]),
    ([3.0, 4.0], [700.0, 650.0]),
])
def test_two_arm_winner_frequency_matches_quadrature(alpha, beta):
    n_draws = 200_000
    state = BetaState(alpha, beta)
    assert _beta_survivors(state, n_draws).all()
    p = beta_ts_proportions(state, n_draws, np.random.default_rng(41)).p
    chance = two_arm_win_chance(alpha[0], beta[0], alpha[1], beta[1])
    assert abs(p[1] - chance) < 5.0 * np.sqrt(chance * (1.0 - chance) / n_draws) + 1e-4


# --- blocked draws and tally -------------------------------------------------


def spread_beta_state(k, seed):
    """Posterior after 30 trials per arm at rates 0.1–0.5: no arm is
    settled, so the screen keeps every arm."""
    rng = np.random.default_rng(seed)
    successes = rng.binomial(30, rng.uniform(0.1, 0.5, size=k))
    return BetaState(1.0 + successes, 31.0 - successes)


# (policy, its full-draw oracle, its screen, arm count -> a state the
# screen keeps whole, (arm count, n_draws) -> rows per block or chunk)
BLOCKED_POLICIES = {
    "gaussian": (allocation_proportions, oracles.allocation_proportions, _gaussian_survivors,
                 lambda k: or_ts_belief(k, 50 * k, k), _block_rows),
    "beta": (beta_ts_proportions, oracles.beta_ts_proportions, _beta_survivors,
             lambda k: spread_beta_state(k, k), lambda k, n_draws: min(n_draws, _BETA_CHUNK)),
}


@pytest.mark.parametrize("policy", sorted(BLOCKED_POLICIES))
@pytest.mark.parametrize("k, n_draws, spans_blocks", [
    (200, 10_007, True),
    (2, 300_001, True),
    (200, 1, False),
    (2, 1, False),
])
def test_blocked_tally_matches_one_full_draw(policy, k, n_draws, spans_blocks):
    """Draws tallied block by block (Gaussian) or column by column within
    chunks (Beta), with a last partial block or chunk, give the proportions
    and the generator state of one (n_draws, K) draw, bit for bit."""
    proportions, oracle, screen, make, block_rows = BLOCKED_POLICIES[policy]
    state = make(k)
    assert screen(state, n_draws).all()
    rows = block_rows(k, n_draws)
    assert (n_draws > rows and n_draws % rows != 0) == spans_blocks
    rng, oracle_rng = np.random.default_rng(30), np.random.default_rng(30)
    p = proportions(state, n_draws, rng).p
    np.testing.assert_array_equal(p, oracle(state, n_draws, oracle_rng).p)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


# Bound on the traced peak of one decision; a full (50_000, 200) draw is
# 77 MiB, a full (1_000_000, 20) draw 153 MiB, and one 1_000_000-long
# float64 array 8 MB.
DECISION_PEAK_BYTES = 8_000_000


@pytest.mark.parametrize("policy", sorted(BLOCKED_POLICIES))
def test_allocation_memory_does_not_grow_with_n_draws(policy):
    """At K=200 with 50k draws and at K=20 with 1M draws, with every arm
    kept, one decision's traced peak stays within one Gaussian block, or a
    few Beta chunks, and a few K-sized arrays."""
    proportions, _, screen, make, _ = BLOCKED_POLICIES[policy]
    for k, n_draws in ((200, 50_000), (20, 1_000_000)):
        state = make(k)
        assert screen(state, n_draws).all()
        tracemalloc.start()
        try:
            proportions(state, n_draws, np.random.default_rng(31))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < DECISION_PEAK_BYTES, (k, n_draws, peak)


# --- full-rank and odds-ratio updates ----------------------------------------


def test_first_update_identical_for_both_modes():
    """From a flat start the odds-ratio flattening is a no-op, so the first
    posterior must coincide exactly with the full-rank one."""
    data = RoundData(np.array([100, 100, 100]), np.array([31, 30, 28]))
    full = full_ts_update(LogisticPolicyState.flat_start(3, UpdateMode.FULL), data)
    odds = or_ts_update(LogisticPolicyState.flat_start(3, UpdateMode.ODDS_RATIO), data)
    np.testing.assert_allclose(full.belief.mean, odds.belief.mean, atol=1e-12)
    np.testing.assert_allclose(full.belief.precision, odds.belief.precision, atol=1e-12)
    assert full.round_index == odds.round_index == 1


def test_or_update_forgets_reference_level():
    """A pure base-rate shift moves the full-rank posterior's odds ratios,
    while the odds-ratio update re-estimates the level each round."""
    data1 = RoundData(np.array([2000, 2000, 2000]), np.array([700, 600, 500]))
    # same odds ratios, base rate shifted down by ~1 logit
    data2 = RoundData(np.array([2000, 2000, 2000]), np.array([380, 300, 240]))
    full = full_ts_update(LogisticPolicyState.flat_start(3, UpdateMode.FULL), data1)
    odds = or_ts_update(LogisticPolicyState.flat_start(3, UpdateMode.ODDS_RATIO), data1)
    full = full_ts_update(full, data2)
    odds = or_ts_update(odds, data2)
    # the odds-ratio posterior's last coordinate tracks the new level alone
    from scipy.special import logit

    np.testing.assert_allclose(odds.belief.mean[-1], logit(240 / 2000), atol=0.05)
    # and its odds ratios stay closer to the shared truth than full-rank's
    truth = np.array([logit(0.35) - logit(0.25), logit(0.30) - logit(0.25)])
    assert np.abs(odds.belief.mean[:2] - truth).max() < np.abs(
        full.belief.mean[:2] - truth
    ).max() + 0.05


def test_or_update_flattens_only_the_reference_coordinate():
    data = RoundData(np.array([500, 500, 500]), np.array([150, 160, 170]))
    state = or_ts_update(LogisticPolicyState.flat_start(3, UpdateMode.ODDS_RATIO), data)
    # posterior after data is proper again
    assert state.belief.is_proper()
    # feeding an empty round through the OR path exposes the flattening:
    # the reference marginal becomes non-identifying while odds ratios keep
    # their accumulated precision
    empty = RoundData(np.zeros(3, dtype=int), np.zeros(3, dtype=int))
    drained = or_ts_update(state, empty)
    assert not drained.belief.is_proper()
    np.testing.assert_array_equal(drained.belief.precision[-1], np.zeros(3))
    assert drained.belief.precision[0, 0] > 0.0


@pytest.mark.parametrize("update, mode", [
    (full_ts_update, UpdateMode.FULL),
    (or_ts_update, UpdateMode.ODDS_RATIO),
], ids=["full", "odds_ratio"])
@pytest.mark.parametrize("n, c", [
    ([10_000] * 5, [1, 0, 2, 1, 0]),
    ([10**6] * 5, [104, 95, 110, 99, 101]),
    ([500, 0, 500, 500], [150, 0, 160, 170]),
    ([200, 200, 200], [200, 200, 200]),
], ids=["rare_1e4", "rare_1e6", "zero_trial_arm", "all_success"])
def test_updates_finish_at_extreme_counts(update, mode, n, c):
    """Rare rates, an arm with no trials and arms with only successes: every
    round's mode search ends with a finite mean, and the arm with no trials
    keeps a flat precision row."""
    data = RoundData(np.array(n), np.array(c))
    state = LogisticPolicyState.flat_start(data.arms, mode)
    for _ in range(3):
        state = update(state, data)
        assert np.all(np.isfinite(state.belief.mean))
        for arm in np.flatnonzero(data.n == 0):
            np.testing.assert_array_equal(state.belief.precision[arm], 0.0)


def test_updates_reject_dimension_mismatch():
    state = LogisticPolicyState.flat_start(3, UpdateMode.FULL)
    with pytest.raises(ConfigError):
        full_ts_update(state, RoundData(np.array([5, 5]), np.array([1, 1])))
    with pytest.raises(ConfigError, match="field 'round_index'"):
        LogisticPolicyState(state.belief, UpdateMode.FULL, round_index=1.5)
    with pytest.raises(ConfigError, match="field 'mode' must be 'full' or 'odds_ratio'"):
        LogisticPolicyState(state.belief, "hybrid")


def test_round_counter_increments_per_update():
    state = LogisticPolicyState.flat_start(2, UpdateMode.ODDS_RATIO)
    data = RoundData(np.array([50, 50]), np.array([20, 25]))
    state = or_ts_update(state, data)
    state = or_ts_update(state, data)
    assert state.round_index == 2
