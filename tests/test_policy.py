"""Thompson-sampling policies: allocation and the three update rules."""

import importlib.util
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.special import betainc, betaincinv, chdtrc, chdtri, roots_legendre

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
    embed_flat_last,
    full_ts_update,
    initial_proportions,
    make_flat_belief,
    marginalize_drop_last,
    marginalize_keep,
    or_ts_update,
    policy,
    sample,
)
from orbandit.policy import (
    _BETA_CHUNK,
    _QUAD_NODES,
    _beta_column,
    _beta_survivors,
    _beta_win_chances,
    _block_rows,
    _chi2_tail,
    _gaussian_survivors,
)

import oracles
from oracles import WIN_CHANCE_L1, backsolve_sample, backsolve_winner_counts


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


def or_ts_belief(k, trials, seed, spread=0.25, p=None):
    """Belief after two odds-ratio rounds of ``trials`` split evenly, with
    arm rates ``p``, or else spread over ``spread`` above 0.05."""
    rng = np.random.default_rng(seed)
    if p is None:
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


# id -> (belief, the path its decision takes: "full" or "radial" with every
# arm kept, "kept" or "kept radial" with some arm dropped)
ORACLE_BELIEFS = {
    "k2": (lambda: or_ts_belief(2, 10_000, 2), "radial"),
    "k10": (lambda: or_ts_belief(10, 10_000, 10), "kept"),
    "k50": (lambda: or_ts_belief(50, 10_000, 50), "kept"),
    "k200": (lambda: or_ts_belief(200, 10_000, 200), "full"),
    "k10_1e6_trials": (lambda: or_ts_belief(10, 1_000_000, 3, spread=0.002), "full"),
    "continuous_marginal": (lambda: continuous_marginal(5), "kept"),
    "k10_clear_leader": (lambda: or_ts_belief(10, 200_000, 0, p=np.r_[0.31, np.full(9, 0.30)]),
                         "radial"),
    "k10_reference_dropped": (
        lambda: or_ts_belief(10, 20_000, 1, p=np.r_[0.32, 0.30, np.full(7, 0.2), 0.1]),
        "kept radial"),
    "k10_reference_kept": (
        lambda: or_ts_belief(10, 20_000, 2, p=np.r_[0.30, np.full(8, 0.2), 0.28]),
        "kept radial"),
}


def oracle_winner_counts(belief, n_draws, rng, path):
    """The oracle's counts for the path the case must take: the back-solve
    oracle's, the radial oracle's, or, when the screen drops an arm, the
    kept-arm oracle's over the arms it keeps."""
    keep = _gaussian_survivors(belief, n_draws)[0]
    if not keep.all():
        split = oracles.radial_split(belief.mean, belief.precision, keep)
        assert path == ("kept" if split is None else "kept radial")
        return oracles.kept_winner_counts(belief.mean, belief.precision, keep, n_draws, rng)
    split = oracles.radial_split(belief.mean, belief.precision)
    assert path == ("full" if split is None else "radial")
    if split is None:
        return backsolve_winner_counts(belief.mean, belief.precision, n_draws, rng)
    return oracles.radial_winner_counts(belief.mean, belief.precision, n_draws, rng, *split)


@pytest.mark.blas_sensitive
@pytest.mark.parametrize("case", list(ORACLE_BELIEFS))
def test_allocation_matches_the_backsolve_oracle(case):
    """With every arm kept and no radial split, the proportions and the
    generator state are the back-solve oracle's, bit for bit; with the
    split, the radial oracle's (the radii, then back-solved directions);
    with some arm dropped, the kept-arm oracle's (the kept arms' normals,
    split or not, through the covariance factor of their marginal)."""
    make, path = ORACLE_BELIEFS[case]
    belief = make()
    assert belief.is_proper()
    rng, oracle_rng = np.random.default_rng(20), np.random.default_rng(20)
    props = allocation_proportions(belief, 10_000, rng)
    counts = oracle_winner_counts(belief, 10_000, oracle_rng, path)
    np.testing.assert_array_equal(props.p, counts / 10_000.0)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state

    draws = sample(belief, 2_000, np.random.default_rng(21))
    expected = backsolve_sample(belief.mean, belief.precision, 2_000, np.random.default_rng(21))
    np.testing.assert_allclose(draws, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


# Significance of the law check, shared out over arms.
LAW_ALPHA = 1e-7


def covariance_factor_counts(belief, n_draws, rng, chunk=100_000):
    """Winner counts from draws through the covariance's Cholesky factor,
    a construction independent of the precision's."""
    cov = np.linalg.inv(belief.precision)
    factor = np.linalg.cholesky(0.5 * (cov + cov.T))
    counts = np.zeros(belief.dim, dtype=np.int64)
    for start in range(0, n_draws, chunk):
        normals = rng.standard_normal((min(chunk, n_draws - start), belief.dim))
        scores = belief.mean + normals @ factor.T
        scores[:, -1] = 0.0
        counts += np.bincount(np.argmax(scores, axis=1), minlength=belief.dim)
    return counts


# Law cases: every decision that splits with every arm kept, and one
# kept-arm decision that splits and leaves out the reference.
LAW_CASES = [case for case, (_, path) in ORACLE_BELIEFS.items() if path == "radial"]
LAW_CASES.append("k10_reference_dropped")


@pytest.mark.blas_sensitive
@pytest.mark.parametrize("case", LAW_CASES)
def test_radial_split_keeps_the_law_of_the_full_draw(case):
    """At 400 001 draws, the radial split (over every arm, or over the kept
    arms) matches its oracle bit for bit, and no arm's winner count
    differs from that of independent covariance-factor draws of every
    coordinate by more than chance allows. Given the sum of an arm's two
    counts, its count is hypergeometric under one law; the binomial with
    the same sum and the share of the draws is wider, so its tails make a
    conservative two-sided test."""
    make, path = ORACLE_BELIEFS[case]
    belief = make()
    n_draws = 400_001
    rng, oracle_rng = np.random.default_rng(22), np.random.default_rng(22)
    counts = np.rint(allocation_proportions(belief, n_draws, rng).p * n_draws).astype(np.int64)
    np.testing.assert_array_equal(counts, oracle_winner_counts(belief, n_draws, oracle_rng, path))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state

    ref_counts = covariance_factor_counts(belief, n_draws, np.random.default_rng(23))
    total = counts + ref_counts
    tail = np.minimum(stats.binom.cdf(counts, total, 0.5), stats.binom.sf(counts - 1, total, 0.5))
    assert np.all(2.0 * tail >= LAW_ALPHA / belief.dim), (counts, ref_counts)
    assert (counts[1:] > 0).any() and (ref_counts[1:] > 0).any()


def load_tool(name):
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


split_share = load_tool("split_share")
# The oracle cases' paths under the names tools/split_share.py prints.
SPLIT_SHARE_PATHS = {"full": "full", "kept": "kept", "radial": "split", "kept radial": "split"}


@pytest.mark.parametrize("case", list(ORACLE_BELIEFS))
def test_split_share_names_the_path_each_decision_takes(case):
    """The report's classifier agrees with the path the oracle cases are
    checked to take, and its q with the split rule."""
    make, path = ORACLE_BELIEFS[case]
    name, q = split_share.classify(make(), 10_000)
    assert name == SPLIT_SHARE_PATHS[path]
    assert (q <= 0.5) == (name == "split")


def test_split_share_reports_every_policy(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"policy": "all", "arms": 4, "rounds": 3, "trials": 100_000,
                                  "replications": 1, "d": 20.0, "seed": 1}))
    assert split_share.main(["--config", str(config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["beta_ts", "full_ts", "or_ts"]
    assert all(line.split(": ")[1].startswith("2 decisions") for line in lines)
    assert "quadrature" in lines[0] and "nodes quartiles" in lines[0]


@pytest.mark.parametrize("make, path", [
    (lambda: BetaState([3.1e5, 3.0e5], [6.9e5, 7.0e5]), "one-hot"),
    (lambda: spread_beta_state(10, 10), "quadrature"),
    (lambda: fractional_beta_state(10, 10), "monte-carlo"),
    (lambda: near_tie_state(1e13), "monte-carlo"),
], ids=["settled", "spread", "fractional", "near_tie_1e13"])
def test_split_share_names_the_path_each_beta_decision_takes(make, path):
    """The report's Beta classifier names the path the state's shapes and
    screen send it down, with nodes only for the quadrature."""
    name, nodes = split_share.classify_beta(make(), 10_000)
    assert name == path
    assert (nodes > 0) if path == "quadrature" else np.isnan(nodes)


@pytest.mark.parametrize("q", [0.5, 0.16, 1e-3])
@pytest.mark.parametrize("m", [1, 2, 3, 10, 50, 200])
def test_chi2_tail_follows_the_conditioned_chi2_law(m, q):
    """The split's radii: χ²(m) conditioned on reaching the floor t, the
    upper q-quantile, at every draw count a decision can draw (m = 1 when
    a kept-arm decision draws one coordinate) and every share of rows
    outside the ball the split allows (q ≤ ½). Every draw is at least t,
    and a KS test holds them against 1 − P(χ² > x) / q."""
    floor = chdtri(m, q)
    draws = _chi2_tail(m, floor, 20_000, np.random.default_rng(26))
    assert draws.shape == (20_000,)
    assert np.all(draws >= floor)
    tail = stats.chi2(m).sf(floor)
    assert stats.kstest(draws, lambda x: 1.0 - stats.chi2(m).sf(x) / tail).pvalue > 1e-3


def test_a_split_block_with_no_row_outside_draws_one_binomial(monkeypatch):
    """K = 2 with the arm 7.5 sd ahead of the reference: the screen keeps
    both, and a row falls outside the ball with chance about 6e-13. Each
    block then draws its binomial count, 0, and credits the leader,
    without drawing a radius or an empty block of normals."""
    belief = GaussianBelief(np.array([7.5, 0.3]), np.eye(2))
    n_draws = 400_000
    keep, leader, radius = _gaussian_survivors(belief, n_draws)
    assert keep.all() and leader == 0
    outside = chdtrc(2, radius**2)
    assert 1e-13 < outside < 1e-12

    def unused(*args, **kwargs):
        raise AssertionError("an empty block must draw nothing")

    monkeypatch.setattr(policy, "_chi2_tail", unused)
    monkeypatch.setattr(policy, "_draw_into", unused)
    rng, expected = np.random.default_rng(25), np.random.default_rng(25)
    np.testing.assert_array_equal(allocation_proportions(belief, n_draws, rng).p, [1.0, 0.0])
    rows = _block_rows(2, n_draws)
    assert rows < n_draws
    for start in range(0, n_draws, rows):
        assert expected.binomial(min(rows, n_draws - start), outside) == 0
    assert rng.bit_generator.state == expected.bit_generator.state
    assert rng.bit_generator.state != np.random.default_rng(25).bit_generator.state


def test_one_arm_decisions_draw_nothing():
    """One arm is one-hot, and neither policy touches the generator."""
    for proportions, state in (
        (allocation_proportions, GaussianBelief(np.array([0.3]), np.array([[2.0]]))),
        (beta_ts_proportions, BetaState.uniform_prior(1)),
    ):
        rng = np.random.default_rng(24)
        before = rng.bit_generator.state
        np.testing.assert_array_equal(proportions(state, 10_000, rng).p, [1.0])
        assert rng.bit_generator.state == before


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


# --- Beta quadrature ---------------------------------------------------------


def spread_beta_state(k, seed):
    """Posterior after 30 trials per arm at rates 0.1–0.5: no arm is
    settled, so the screen keeps every arm."""
    rng = np.random.default_rng(seed)
    successes = rng.binomial(30, rng.uniform(0.1, 0.5, size=k))
    return BetaState(1.0 + successes, 31.0 - successes)


def fractional_beta_state(k, seed):
    """``spread_beta_state`` with arm 0 at Beta(½, ½), which spans (0, 1),
    so the screen keeps every arm and the decision takes the tally."""
    state = spread_beta_state(k, seed)
    alpha, beta = state.alpha.copy(), state.beta.copy()
    alpha[0] = beta[0] = 0.5
    return BetaState(alpha, beta)


def wide_arms_beta_state(seed, rounds=5, arms=200, trials=10_000):
    """The Beta posterior after ``rounds`` rounds of beta_ts at K=200 with
    10k trials a round, one arm at 0.31 and the rest at 0.30, traffic
    following the policy's own proportions: the states a K=200 study
    decides on."""
    rng = np.random.default_rng(seed)
    rates = np.r_[0.31, np.full(arms - 1, 0.30)]
    state, shares = BetaState.uniform_prior(arms), np.full(arms, 1.0 / arms)
    for _ in range(rounds):
        n = rng.multinomial(trials, shares)
        state = beta_ts_update(state, RoundData(n, rng.binomial(n, rates)))
        shares = beta_ts_proportions(state, 10_000, rng).p
    return state


def mpmath_win_chances(alpha, beta):
    """π_j = ∫₀¹ f_j ∏_{i≠j} F_i in 30-digit arithmetic, by mpmath's
    tanh-sinh rule cut at each arm's mean and 4 standard deviations either
    side."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        a = [mpmath.mpf(v) for v in alpha]
        b = [mpmath.mpf(v) for v in beta]
        cuts = {mpmath.mpf(0), mpmath.mpf(1)}
        for ai, bi in zip(a, b):
            mean = ai / (ai + bi)
            sd = mpmath.sqrt(mean * (1 - mean) / (ai + bi + 1))
            cuts.update(x for x in (mean + k * sd for k in (-4, 0, 4)) if 0 < x < 1)

        def integrand(j, x):
            value = x ** (a[j] - 1) * (1 - x) ** (b[j] - 1) / mpmath.beta(a[j], b[j])
            for i in range(len(a)):
                if i != j:
                    value *= mpmath.betainc(a[i], b[i], 0, x, regularized=True)
            return value

        return np.array([float(mpmath.quad(lambda x: integrand(j, x), sorted(cuts)))
                         for j in range(len(a))])


@pytest.mark.parametrize("alpha, beta", [
    ([1.0, 3.0], [1.0, 5.0]),
    ([1.0, 2.0, 3.0], [12.0, 9.0, 20.0]),
    ([30.0, 25.0, 1.0], [70.0, 60.0, 1.0]),
    ([9.0, 20.0, 1.5], [1.0, 4.0, 2.5]),
    ([1.1, 1.3], [1.05, 1.9]),
    ([60.0, 50.0, 1.0], [140.0, 150.0, 3.0]),
])
def test_beta_win_chances_match_30_digit_arithmetic(alpha, beta):
    """Moderate shapes, among them Beta(1, 1), Beta(1, b) and Beta(a, 1),
    whose modes sit on an end, and fractional shapes near 1, whose
    densities are singular at an end."""
    chances = _beta_win_chances(np.array(alpha), np.array(beta))
    assert np.abs(chances - mpmath_win_chances(alpha, beta)).sum() <= WIN_CHANCE_L1


def near_tie_state(total, arms=4):
    """``arms`` arms at rates 0.3 apart by 0.3 standard deviations, with
    a + b = ``total``."""
    sd = np.sqrt(0.21 / total)
    rates = 0.3 + 0.3 * sd * np.arange(arms)
    return BetaState(rates * total, (1.0 - rates) * total)


LARGE_SHAPE_STATES = {
    **{f"near_tie_{total:.0e}": (lambda total=total: near_tie_state(total))
       for total in (1e5, 1e7, 3e8, 1e9)},
    "spread_k200": lambda: spread_beta_state(200, 200),
    "wide_arms_k200": lambda: wide_arms_beta_state(3),
}


@pytest.mark.parametrize("case", list(LARGE_SHAPE_STATES))
def test_beta_win_chances_match_a_finer_rule(case, monkeypatch):
    """Large shapes and K=200 against the same panels with four times the
    nodes, and against ``oracles.beta_win_chances`` where its density
    keeps enough digits (a + b up to 1e7)."""
    state = LARGE_SHAPE_STATES[case]()
    keep = _beta_survivors(state, 10_000)
    alpha, beta = state.alpha[keep], state.beta[keep]
    assert keep.sum() > 1
    chances = _beta_win_chances(alpha, beta)
    nodes, weights = roots_legendre(4 * _QUAD_NODES.size)
    monkeypatch.setattr(policy, "_QUAD_NODES", nodes)
    monkeypatch.setattr(policy, "_QUAD_WEIGHTS", weights)
    assert np.abs(chances - _beta_win_chances(alpha, beta)).sum() <= WIN_CHANCE_L1
    if (alpha + beta).max() <= 1e7:
        assert np.abs(chances - oracles.beta_win_chances(alpha, beta)).sum() <= WIN_CHANCE_L1


@pytest.mark.parametrize("state", [
    spread_beta_state(10, 10),
    BetaState([1.0, 1.0, 3.0, 2.0], [1.0, 4.0, 5.0, 1.0]),
    near_tie_state(1e7),
], ids=["spread_k10", "ends", "near_tie_1e7"])
def test_beta_quadrature_keeps_the_law_of_the_tally(state):
    """At 400 001 draws, no arm's count from the quadrature's multinomial
    differs from the Monte Carlo tally's by more than chance allows: the
    binomial-tail test of ``test_radial_split_keeps_the_law_of_the_full_draw``."""
    n_draws = 400_001
    assert _beta_survivors(state, n_draws).all()
    counts = np.rint(beta_ts_proportions(state, n_draws, np.random.default_rng(27)).p * n_draws)
    ref_counts = np.rint(oracles.beta_ts_proportions(state, n_draws, np.random.default_rng(28)).p
                         * n_draws)
    total = counts + ref_counts
    tail = np.minimum(stats.binom.cdf(counts, total, 0.5), stats.binom.sf(counts - 1, total, 0.5))
    assert np.all(2.0 * tail >= LAW_ALPHA / state.arms), (counts, ref_counts)


# --- blocked draws and tally -------------------------------------------------


# (policy, its oracle, its screen, arm count -> a state the screen keeps
# whole, (arm count, n_draws) -> rows per block or chunk). A Beta state
# with shapes at least 1 takes the quadrature, so its oracle is one
# multinomial draw with Thompson probabilities held to independently
# computed ones; one with a shape below 1 takes the tally, whose oracle is
# one full draw.
BLOCKED_POLICIES = {
    "gaussian": (allocation_proportions, oracles.allocation_proportions,
                 lambda belief, n_draws: _gaussian_survivors(belief, n_draws)[0],
                 lambda k: or_ts_belief(k, 50 * k, k), _block_rows),
    "beta": (beta_ts_proportions, oracles.beta_multinomial_proportions, _beta_survivors,
             lambda k: spread_beta_state(k, k), lambda k, n_draws: min(n_draws, _BETA_CHUNK)),
    "beta_tally": (beta_ts_proportions, oracles.beta_ts_proportions, _beta_survivors,
                   lambda k: fractional_beta_state(k, k),
                   lambda k, n_draws: min(n_draws, _BETA_CHUNK)),
}


@pytest.mark.blas_sensitive
@pytest.mark.parametrize("policy", sorted(BLOCKED_POLICIES))
@pytest.mark.parametrize("k, n_draws, spans_blocks", [
    (200, 10_007, True),
    (2, 300_001, True),
    (200, 1, False),
    (2, 1, False),
])
def test_blocked_tally_matches_one_full_draw(policy, k, n_draws, spans_blocks):
    """Draws tallied block by block (Gaussian) or column by column within
    chunks (a Beta state with a shape below 1), with a last partial block
    or chunk, give the proportions and the generator state of one
    (n_draws, K) draw, bit for bit; a Beta state with shapes at least 1
    gives those of one multinomial draw with probabilities within
    ``WIN_CHANCE_L1`` of the oracle's."""
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


@pytest.mark.blas_sensitive
@pytest.mark.parametrize("policy", sorted(BLOCKED_POLICIES))
def test_allocation_memory_does_not_grow_with_n_draws(policy):
    """At K=200 with 50k draws and at K=20 with 1M draws, with every arm
    kept, one decision's traced peak stays within one Gaussian block, a
    few Beta chunks or one block of quadrature nodes, and a few K-sized
    arrays; for the quadrature also at K=2000."""
    proportions, _, screen, make, _ = BLOCKED_POLICIES[policy]
    sizes = ((200, 50_000), (20, 1_000_000)) + (((2000, 10_000),) if policy == "beta" else ())
    for k, n_draws in sizes:
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


def _forget_cases():
    """Beliefs for the forget step, by name: random proper ones, flat last
    rows, a last diagonal of zero beside a coupling small enough to pass
    the semidefiniteness check, and dimension 1."""
    rng = np.random.default_rng(31)
    cases = {}
    for k in (2, 3, 10, 60):
        root = rng.normal(size=(k, k))
        cases[f"proper-{k}"] = GaussianBelief(rng.normal(size=k), root @ root.T + 0.1 * np.eye(k))
        precision = root @ root.T
        precision[-1] = precision[:, -1] = 0.0
        cases[f"flat_last_row-{k}"] = GaussianBelief(rng.normal(size=k), precision)
    precision = np.diag([2.0, 3.0, 0.0])
    precision[0, -1] = precision[-1, 0] = 1e-6
    cases["zero_last_diagonal"] = GaussianBelief(np.array([0.1, -0.2, 0.3]), precision)
    cases["dim_1"] = GaussianBelief(np.array([0.4]), np.array([[5.0]]))
    cases["flat_dim_1"] = make_flat_belief(1)
    return cases


FORGET_CASES = _forget_cases()


@pytest.mark.parametrize("case", sorted(FORGET_CASES))
def test_or_update_prior_is_bit_for_bit_the_embedded_drop_last_marginal(case, monkeypatch):
    """The forget step builds its prior as one belief; it must equal the
    two-step construction exactly, so that no output moves with it. The
    eigen-decomposition marginal, which the forget step once went
    through, rounds the same way for one dropped coordinate."""
    belief = FORGET_CASES[case]
    priors = []
    monkeypatch.setattr(policy, "laplace_update", lambda prior, data: priors.append(prior) or prior)
    or_ts_update(LogisticPolicyState(belief, UpdateMode.ODDS_RATIO), None)
    if belief.dim > 1:
        cores = [marginalize_drop_last(belief), oracles.marginalize_keep(belief, range(belief.dim - 1))]
    else:
        cores = [GaussianBelief(np.zeros(0), np.zeros((0, 0)))]
    (prior,) = priors
    for core in cores:
        expected = embed_flat_last(core, start_last=float(belief.mean[-1]))
        assert np.array_equal(prior.mean, expected.mean)
        assert np.array_equal(prior.precision, expected.precision)
        assert prior.is_proper() == expected.is_proper()


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
