"""Thompson-sampling policies: allocation and the three update rules."""

import importlib.util
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.special import betainc, betaincinv, chdtrc, chdtri, roots_legendre

from orbandit import (
    AllocationProportions,
    ArmRegistry,
    BetaState,
    CannotSampleError,
    ConfigError,
    ContinuousScenario,
    GaussianBelief,
    LogisticPolicyState,
    LogitBelief,
    RoundData,
    ScenarioRound,
    UpdateMode,
    ExperimentConfig,
    PolicyKind,
    absorb_round,
    allocation_proportions,
    beta_ts_proportions,
    beta_ts_update,
    drift_environment,
    embed_flat_last,
    full_ts_update,
    initial_proportions,
    make_flat_belief,
    marginalize_drop_last,
    marginalize_keep,
    or_ts_update,
    plan_round,
    policy,
    run_continuous,
    run_replications,
    sample,
    simulation,
)
from orbandit.gaussian_belief import _as_logits
from orbandit.policy import (
    _QUAD_DELTA,
    _QUAD_NODES,
    _arm_logits,
    _beta_bounds,
    _beta_quadrature,
    _beta_survivors,
    _beta_win_chances,
    _block_rows,
    _chi2_tail,
    _gaussian_plan,
    _gaussian_survivors,
    _logit_survivors,
    _normal_quadrature,
    _normal_win_chances,
    _panels,
    _quadrature_edges,
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


def full_ts_belief(k, trials, seed, p):
    """Belief after two full-rank rounds of ``trials`` split evenly, with
    arm rates ``p``: an arrow precision, whose arm logits are independent."""
    rng = np.random.default_rng(seed)
    state = LogisticPolicyState.flat_start(k, UpdateMode.FULL)
    for _ in range(2):
        n = np.full(k, trials // k)
        state = full_ts_update(state, RoundData(n, rng.binomial(n, p)))
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


# id -> (belief, the path its decision takes: "full" or "radial" when all
# K coordinates are drawn, "quadrature" when some arm is dropped from an
# arrow belief). The odds-ratio beliefs whose screen drops arms are not
# arrows, so they draw every coordinate.
ORACLE_BELIEFS = {
    "k2": (lambda: or_ts_belief(2, 10_000, 2), "radial"),
    "k10": (lambda: or_ts_belief(10, 10_000, 10), "full"),
    "k50": (lambda: or_ts_belief(50, 10_000, 50), "full"),
    "k200": (lambda: or_ts_belief(200, 10_000, 200), "full"),
    "k10_1e6_trials": (lambda: or_ts_belief(10, 1_000_000, 3, spread=0.002), "full"),
    "continuous_marginal": (lambda: continuous_marginal(5), "full"),
    "k10_clear_leader": (lambda: or_ts_belief(10, 200_000, 0, p=np.r_[0.31, np.full(9, 0.30)]),
                         "radial"),
    "k10_reference_dropped": (
        lambda: or_ts_belief(10, 20_000, 1, p=np.r_[0.32, 0.30, np.full(7, 0.2), 0.1]),
        "full"),
    "k10_reference_kept": (
        lambda: or_ts_belief(10, 20_000, 2, p=np.r_[0.30, np.full(8, 0.2), 0.28]),
        "full"),
    "k10_full_rank": (
        lambda: full_ts_belief(10, 20_000, 1, p=np.r_[0.32, 0.30, np.full(7, 0.2), 0.25]),
        "quadrature"),
}


def oracle_winner_counts(belief, n_draws, rng, path):
    """The oracle's counts for the path the case must take: for a screen
    that drops arms from an arrow belief, one multinomial draw over the
    kept arms whose probabilities are held to the oracle's; otherwise the
    back-solve oracle's, or the radial oracle's when the split applies."""
    keep = _gaussian_survivors(belief, n_draws)[0]
    if not keep.all() and _arm_logits(belief) is not None:
        assert path == "quadrature"
        return oracles.normal_multinomial_counts(belief, keep, n_draws, rng)
    split = oracles.radial_split(belief.mean, belief.precision)
    assert path == ("full" if split is None else "radial")
    if split is None:
        return backsolve_winner_counts(belief.mean, belief.precision, n_draws, rng)
    return oracles.radial_winner_counts(belief.mean, belief.precision, n_draws, rng, *split)


@pytest.mark.blas_sensitive
@pytest.mark.parametrize("case", list(ORACLE_BELIEFS))
def test_allocation_matches_the_backsolve_oracle(case):
    """With all K coordinates drawn and no radial split, the proportions
    and the generator state are the back-solve oracle's, bit for bit; with
    the split, the radial oracle's (the radii, then back-solved
    directions); with some arm dropped from an arrow belief, one
    multinomial draw's over the kept arms."""
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


# Law cases: every decision that splits, and one whose screen drops the
# reference from a belief that is no arrow, so that all K are drawn.
LAW_CASES = [case for case, (_, path) in ORACLE_BELIEFS.items() if path == "radial"]
LAW_CASES.append("k10_reference_dropped")


@pytest.mark.blas_sensitive
@pytest.mark.parametrize("case", LAW_CASES)
def test_radial_split_keeps_the_law_of_the_full_draw(case):
    """At 400 001 draws, the decision matches its oracle bit for bit, and
    no arm's winner count differs from that of independent
    covariance-factor draws of every coordinate by more than chance
    allows. Given the sum of an arm's two counts, its count is
    hypergeometric under one law; the binomial with the same sum and the
    share of the draws is wider, so its tails make a conservative
    two-sided test."""
    make, path = ORACLE_BELIEFS[case]
    belief = make()
    n_draws = 400_001
    rng, oracle_rng = np.random.default_rng(22), np.random.default_rng(22)
    counts = np.rint(allocation_proportions(belief, n_draws, rng).p * n_draws).astype(np.int64)
    np.testing.assert_array_equal(counts, oracle_winner_counts(belief, n_draws, oracle_rng, path))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state

    assert_same_law(counts, covariance_factor_counts(belief, n_draws, np.random.default_rng(23)))


def assert_same_law(counts, ref_counts):
    """No arm's count differs from the reference draw's by more than the
    binomial tails of ``test_radial_split_keeps_the_law_of_the_full_draw``
    allow, and some arm but the first wins in both."""
    total = counts + ref_counts
    tail = np.minimum(stats.binom.cdf(counts, total, 0.5), stats.binom.sf(counts - 1, total, 0.5))
    assert np.all(2.0 * tail >= LAW_ALPHA / counts.size), (counts, ref_counts)
    assert (counts[1:] > 0).any() and (ref_counts[1:] > 0).any()


@pytest.mark.blas_sensitive
def test_arrow_quadrature_keeps_the_law_of_the_full_draw():
    """At 400 001 draws, a full-rank belief whose screen drops arms but
    keeps two or more: one multinomial draw over the kept arms, whose
    counts hold to those of covariance-factor draws of every coordinate."""
    make, path = ORACLE_BELIEFS["k10_full_rank"]
    belief = make()
    n_draws = 400_001
    keep = _gaussian_survivors(belief, n_draws)[0]
    assert 1 < keep.sum() < belief.dim
    rng, oracle_rng = np.random.default_rng(22), np.random.default_rng(22)
    counts = np.rint(allocation_proportions(belief, n_draws, rng).p * n_draws).astype(np.int64)
    np.testing.assert_array_equal(counts, oracle_winner_counts(belief, n_draws, oracle_rng, path))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert_same_law(counts, covariance_factor_counts(belief, n_draws, np.random.default_rng(23)))


@pytest.mark.blas_sensitive
def test_full_mode_every_arm_quadrature_keeps_the_law_of_the_full_draw():
    """At 400 001 draws, full-mode arm logits that keep every arm: one
    multinomial draw over all K arms, whose counts hold to those of
    covariance-factor draws of every coordinate of their dense view."""
    belief = first_round(10, UpdateMode.FULL)[0].belief
    n_draws = 400_001
    assert _gaussian_survivors(belief, n_draws)[0].all()
    p = allocation_proportions(belief, n_draws, np.random.default_rng(22)).p
    counts = np.rint(p * n_draws).astype(np.int64)
    assert_same_law(counts, covariance_factor_counts(belief, n_draws, np.random.default_rng(23)))


def load_tool(name):
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


split_share = load_tool("split_share")
# The oracle cases' paths under the names tools/split_share.py prints.
SPLIT_SHARE_PATHS = {"full": "full", "radial": "split", "quadrature": "quadrature"}


@pytest.mark.parametrize("case", list(ORACLE_BELIEFS))
def test_split_share_names_the_path_each_decision_takes(case, monkeypatch):
    """The report's classifier agrees with the path the oracle cases are
    checked to take, its q with the split rule, and its nodes, given only
    for the quadrature, with the panels the decision integrates over."""
    make, path = ORACLE_BELIEFS[case]
    name, q, nodes = split_share.classify(make(), 10_000)
    assert name == SPLIT_SHARE_PATHS[path]
    assert (q <= 0.5) == (name == "split")
    assert np.isnan(nodes) == (name != "quadrature")
    if name == "quadrature":
        assert nodes == integrated_nodes(monkeypatch, lambda: allocation_proportions(
            make(), 10_000, np.random.default_rng(0)))


def test_split_share_reports_every_policy(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"policy": "all", "arms": 4, "rounds": 3, "trials": 100_000,
                                  "replications": 1, "d": 20.0, "seed": 1}))
    assert split_share.main(["--config", str(config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["beta_ts", "full_ts", "or_ts"]
    assert all(line.split(": ")[1].startswith("2 decisions") for line in lines)
    assert "quadrature" in lines[0] and "nodes quartiles" in lines[0]
    # full_ts's decision that keeps every arm is classified by its belief's type.
    assert "quadrature  50.0%  full   0.0%  split   0.0%" in lines[1]
    assert "q quartiles -  nodes quartiles " in lines[1] and "nodes quartiles -" not in lines[1]
    assert "full 100.0%" in lines[2] and lines[2].endswith("nodes quartiles -")


@pytest.mark.parametrize("make, path", [
    (lambda: BetaState([3.1e5, 3.0e5], [6.9e5, 7.0e5]), "one-hot"),
    (lambda: spread_beta_state(10, 10), "quadrature"),
    (lambda: fractional_beta_state(10, 10), "monte-carlo"),
    (lambda: near_tie_state(1e13), "monte-carlo"),
], ids=["settled", "spread", "fractional", "near_tie_1e13"])
def test_split_share_names_the_path_each_beta_decision_takes(make, path, monkeypatch):
    """The report's Beta classifier names the path the state's shapes and
    screen send it down, with nodes only for the quadrature: those the
    decision evaluates, fewer than the panels from the second-largest
    lower quantile hold."""
    name, nodes = split_share.classify_beta(make(), 10_000)
    assert name == path
    if path != "quadrature":
        assert np.isnan(nodes)
        return
    state = make()
    assert nodes == integrated_nodes(monkeypatch, lambda: beta_ts_proportions(
        state, 10_000, np.random.default_rng(0)))
    assert 0 < nodes < _QUAD_NODES.size * (_panels(*_beta_bounds(state.alpha, state.beta)).size - 1)


def integrated_nodes(monkeypatch, decide) -> float:
    """The quadrature nodes of the one integration ``decide()`` makes."""
    seen, edges = [], policy._quadrature_edges

    def recorded(*args):
        seen.append(edges(*args))
        return seen[-1]

    monkeypatch.setattr(policy, "_quadrature_edges", recorded)
    decide()
    assert len(seen) == 1
    return float(_QUAD_NODES.size * (seen[0].size - 1))


@pytest.mark.parametrize("q", [0.5, 0.16, 1e-3])
@pytest.mark.parametrize("m", [1, 2, 3, 10, 50, 200])
def test_chi2_tail_follows_the_conditioned_chi2_law(m, q):
    """The split's radii: χ²(m) conditioned on reaching the floor t, the
    upper q-quantile, at draw counts from one to a wide decision's and
    every share of rows outside the ball the split allows (q ≤ ½). Every
    draw is at least t, and a KS test holds them against
    1 − P(χ² > x) / q."""
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
    draw. The upper quantile must be computed as betainccinv(a, b, δ):
    betaincinv(a, b, 1 − δ) reads 1.0 for δ below 1.1e-16, since 1 − δ
    rounds to 1, and no arm would ever be dropped."""
    assert betaincinv(3e5, 7e5, 1 - 1e-18) == 1.0
    rng = np.random.default_rng(105)
    before = rng.bit_generator.state
    props = beta_ts_proportions(BetaState([3.1e5, 3.0e5], [6.9e5, 7.0e5]), 10_000, rng)
    np.testing.assert_array_equal(props.p, [1.0, 0.0])
    assert rng.bit_generator.state == before


def upper_quantile(a, b, delta):
    """The x with P(Beta(a, b) > x) = δ in 30-digit arithmetic, for an
    integer a: that chance is P(Binomial(a + b − 1, x) ≤ a − 1), a sum of
    a terms, solved for by mpmath's secant method on its log."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        n, target = mpmath.mpf(a) + mpmath.mpf(b) - 1, mpmath.mpf(delta)

        def tail(x):
            total, term = 0, mpmath.exp(n * mpmath.log1p(-x))
            for k in range(a):
                total += term
                term *= (n - k) / (k + 1) * x / (1 - x)
            return total

        start = mpmath.mpf(a) / (mpmath.mpf(a) + mpmath.mpf(b))
        return float(mpmath.findroot(lambda x: mpmath.log(tail(x) / target), (10 * start, 20 * start)))


def test_beta_upper_quantile_keeps_the_digits_of_small_rates():
    """The quadrature's upper δ-quantile, which the screen takes by the same
    call, against 30-digit arithmetic at rates near 1e-13 and 1e-16. Taken as
    1 − betaincinv(b, a, δ), the lower quantile of 1 − X, it is off by
    7.6e-6 and 0.66% relative there: the complement keeps only the digits
    of 1."""
    alpha, beta = np.array([1.0, 5.0]), np.array([1e13, 1e16])
    expected = [upper_quantile(int(a), b, _QUAD_DELTA) for a, b in zip(alpha, beta)]
    np.testing.assert_allclose(_beta_bounds(alpha, beta)[3], expected, rtol=1e-12)


def test_beta_state_validates_positivity():
    with pytest.raises(ConfigError):
        BetaState(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    for alpha, beta, field in (([np.nan, 1.0], [1.0, 1.0], "alpha"), ([1.0], [np.inf], "beta")):
        with pytest.raises(ConfigError, match=f"field '{field}'"):
            BetaState(alpha, beta)


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


# --- normal quadrature -------------------------------------------------------


def mpmath_normal_win_chances(mean, sd):
    """π_j = ∫ φ_j ∏_{i≠j} Φ_i in 30-digit arithmetic, by mpmath's
    tanh-sinh rule over the line cut at each arm's mean and 4 standard
    deviations either side."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        m = [mpmath.mpf(v) for v in mean]
        s = [mpmath.mpf(v) for v in sd]
        cuts = sorted({mi + k * si for mi, si in zip(m, s) for k in (-4, 0, 4)})

        def integrand(j, x):
            value = mpmath.npdf(x, m[j], s[j])
            for i in range(len(m)):
                if i != j:
                    value *= mpmath.ncdf(x, m[i], s[i])
            return value

        return np.array([float(mpmath.quad(lambda x: integrand(j, x), [-mpmath.inf, *cuts, mpmath.inf]))
                         for j in range(len(m))])


def mpmath_node_win_chances(mean, sd):
    """π_j in 30-digit arithmetic by one composite rule for every arm: 24
    Gauss–Legendre nodes a panel, from the second-lowest m_i − 10 σ_i to
    the highest m_i + 10 σ_i, each panel at most
    min_i max(σ_i / 2, |x − m_i| / 4) wide. Each node's Φ_i and φ_i are
    evaluated once for all arms, ∏_{i≠j} Φ_i from prefix and suffix
    products, so it costs about K times fewer evaluations than
    ``mpmath_normal_win_chances``, which it matches on that function's
    cases."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        m = [mpmath.mpf(float(v)) for v in mean]
        s = [mpmath.mpf(float(v)) for v in sd]
        x = sorted(mi - 10 * si for mi, si in zip(m, s))[1]
        end = max(mi + 10 * si for mi, si in zip(m, s))
        rule = mpmath.calculus.quadrature.GaussLegendre(mpmath.mp).calc_nodes(4, mpmath.mp.prec)
        root2, root2pi = mpmath.sqrt(2), mpmath.sqrt(2 * mpmath.pi)
        wins = [mpmath.mpf(0)] * len(m)
        while x < end:
            edge = min(x + min(max(si / 2, abs(x - mi) / 4) for mi, si in zip(m, s)), end)
            half = (edge - x) / 2
            for node, weight in rule:
                z = [(x + half * (node + 1) - mi) / si for mi, si in zip(m, s)]
                cdf = [mpmath.erfc(-zi / root2) / 2 for zi in z]
                below = [mpmath.mpf(1)]
                for value in cdf[:-1]:
                    below.append(below[-1] * value)
                above = mpmath.mpf(1)
                for j in reversed(range(len(m))):
                    density = mpmath.exp(-z[j] ** 2 / 2) / (s[j] * root2pi)
                    wins[j] += weight * half * density * below[j] * above
                    above *= cdf[j]
            x = edge
        return np.array([float(w) for w in wins])


@pytest.mark.parametrize("mean, sd", [
    ([0.0, 0.3], [1.0, 1.0]),
    ([0.0, 0.5, 1.0], [1.0, 0.5, 2.0]),
    ([2.0, 2.0, 2.0, 1.0], [0.1, 0.1, 0.1, 1.0]),
    ([-1.2, -1.1, -1.5], [0.05, 0.07, 1.5]),
    ([0.0, 1e-3, -30.0], [1e-3, 2e-3, 30.0]),
    ([0.85, 0.85 + 3e-10], [1e-9, 1.3e-9]),
    ([-0.85, -0.85 + 2e-9, -0.85 - 4e-9], [3e-9, 2e-9, 5e-9]),
    ([30.0, 30.0 + 2e-12, 30.0 - 1e-11], [1e-11, 1.3e-11, 2e-11]),
], ids=["k2", "k3", "three_tied", "wide_reference", "scales_1e4_apart",
        "spread_1e-9", "spread_1e-9_negative", "spread_1e-11_at_30"])
def test_normal_win_chances_match_30_digit_arithmetic(mean, sd):
    """Small states, ties among them, spreads up to 3e4 apart, as a
    starved reference's logit has, and spreads a billionth of the logits
    or less, as traffic of 1e16 trials a round leaves them."""
    chances = _normal_win_chances(np.array(mean), np.array(sd))
    exact = mpmath_normal_win_chances(mean, sd)
    assert np.abs(chances - exact).sum() <= WIN_CHANCE_L1
    assert np.abs(mpmath_node_win_chances(mean, sd) - exact).sum() <= 1e-15


def test_every_arm_decisions_match_30_digit_arithmetic(monkeypatch):
    """The ``full_ts`` decisions at K = 10 that keep every arm take the
    quadrature, and their chances are within ``WIN_CHANCE_L1`` of
    30-digit arithmetic."""
    plans = [plan for plan in full_ts_quadrature_plans(monkeypatch, 10, 12) if plan[0].size == 10]
    assert plans
    for mean, sd in plans:
        assert np.abs(_normal_win_chances(mean, sd) - mpmath_node_win_chances(mean, sd)).sum() \
            <= WIN_CHANCE_L1


def captured_beliefs(monkeypatch, run, kind):
    """The beliefs of every Thompson decision that ``run()`` makes,
    captured where ``simulation`` calls the allocation, each checked to be
    of type ``kind``."""
    seen = []
    allocate = simulation.allocation_proportions

    def capture(belief, n_draws, rng):
        assert isinstance(belief, kind)
        seen.append(belief)
        return allocate(belief, n_draws, rng)

    with monkeypatch.context() as patch:
        patch.setattr(simulation, "allocation_proportions", capture)
        run()
    return seen


def full_ts_beliefs(monkeypatch, k, rounds, seed=1, spec=None, trials=10_000):
    """The beliefs of the ``full_ts`` decisions of one replication of a
    study, by default a drifting one (K arms, 1e4 trials a round, d=20):
    the states the ``full_ts`` study decides on."""
    config = ExperimentConfig(rounds=rounds, trials_per_round=trials, replications=1,
                              policy=PolicyKind.FULL_TS, seed=seed, n_draws=10_000)
    spec = drift_environment(k, 0.31, 0.30, 20.0) if spec is None else spec
    return captured_beliefs(
        monkeypatch, lambda: run_replications(config, spec, policies=(PolicyKind.FULL_TS,)),
        LogitBelief)


def full_ts_quadrature_plans(monkeypatch, k, rounds, seed=1, spec=None, trials=10_000):
    """The kept arms' logit means and standard deviations of the
    ``full_ts`` decisions of ``full_ts_beliefs`` that take the
    quadrature."""
    plans = [_gaussian_plan(belief, 10_000)
             for belief in full_ts_beliefs(monkeypatch, k, rounds, seed, spec, trials)]
    return [plan[5] for plan in plans if plan[0] == "quadrature"]


def churn_beliefs(monkeypatch, mode, seed=5, rounds=12, pool=14, active=8):
    """The beliefs of the decisions of a ``run_continuous`` scenario in
    ``mode`` whose active set, ``active`` of ``pool`` arms, changes every
    round, each arm's rate within 0.25–0.35."""
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.25, 0.35, size=pool)
    scenario = ContinuousScenario(tuple(
        ScenarioRound(tuple(int(a) for a in rng.choice(pool, active, replace=False)),
                      dict(enumerate(rates)), 4_000)
        for _ in range(rounds)), mode=mode, seed=seed, n_draws=10_000)
    kind = LogitBelief if mode is UpdateMode.FULL else GaussianBelief
    return captured_beliefs(monkeypatch, lambda: run_continuous(scenario), kind)


@pytest.mark.parametrize("trials", [10**14, 10**16, 10**18])
def test_normal_win_chances_hold_at_high_traffic(trials, monkeypatch):
    """``full_ts`` on rates (0.3, 0.3, 0.2) sends the two tied arms to the
    quadrature; at 1e14 to 1e18 trials a round their logits' spreads are
    1e-7 to 1e-9 of the logits, and the chances stay within
    ``WIN_CHANCE_L1`` of the closed form Φ(Δ / √(σ₀² + σ₁²))."""
    plans = [plan
             for seed in (3, 4, 5)
             for plan in full_ts_quadrature_plans(
                 monkeypatch, 3, 6, seed, simulation.Stationary([0.3, 0.3, 0.2]), trials)]
    assert plans
    for mean, sd in plans:
        assert mean.size == 2
        z = (mean[0] - mean[1]) / np.hypot(sd[0], sd[1])
        exact = np.array([stats.norm.cdf(z), stats.norm.cdf(-z)])
        assert np.abs(_normal_win_chances(mean, sd) - exact).sum() <= WIN_CHANCE_L1


@pytest.mark.parametrize("trials", [10**14, 10**16, 10**18])
def test_every_arm_normal_win_chances_hold_at_high_traffic(trials, monkeypatch):
    """``full_ts`` on three tied rates keeps every arm, and each decision
    takes the quadrature; at 1e14 to 1e18 trials a round the chances stay
    within ``WIN_CHANCE_L1`` of 30-digit arithmetic."""
    plans = full_ts_quadrature_plans(monkeypatch, 3, 6, 3, simulation.Stationary([0.3] * 3), trials)
    assert len(plans) == 5
    for mean, sd in plans:
        assert mean.size == 3
        assert np.abs(_normal_win_chances(mean, sd) - mpmath_node_win_chances(mean, sd)).sum() \
            <= WIN_CHANCE_L1


@pytest.mark.parametrize("k, rounds", [(10, 12), (200, 6)], ids=["k10", "k200"])
def test_normal_win_chances_match_a_finer_rule(k, rounds, monkeypatch):
    """Every quadrature decision of a ``full_ts`` loop, at K = 10 and
    K = 200, those that keep every arm among them, against
    ``oracles.normal_win_chances`` and against the same panels with four
    times the nodes."""
    plans = full_ts_quadrature_plans(monkeypatch, k, rounds)
    assert any(mean.size == k for mean, _ in plans)
    chances = [_normal_win_chances(*logits) for logits in plans]
    for logits, found in zip(plans, chances):
        assert np.abs(found - oracles.normal_win_chances(*logits)).sum() <= WIN_CHANCE_L1
    nodes, weights = roots_legendre(4 * _QUAD_NODES.size)
    monkeypatch.setattr(policy, "_QUAD_NODES", nodes)
    monkeypatch.setattr(policy, "_QUAD_WEIGHTS", weights)
    for logits, found in zip(plans, chances):
        assert np.abs(found - _normal_win_chances(*logits)).sum() <= WIN_CHANCE_L1


# --- where the quadrature starts -----------------------------------------------


def near_tied_beta_state(arms=199, total=1e4, extra=()):
    """``arms`` Beta arms at rates 0.3 ± 1e-4, a + b = ``total``, then the
    arms ``extra`` gives as (rate, a + b) pairs."""
    rates = np.r_[0.3 + 1e-4 * np.linspace(-1.0, 1.0, arms), [rate for rate, _ in extra]]
    totals = np.r_[np.full(arms, total), [size for _, size in extra]]
    return BetaState(rates * totals, (1.0 - rates) * totals)


# One arm at rate 0.29 with a + b = 1e8 beside 199 near-tied arms and a
# leader at 0.32, all at 1e4: the screen keeps it, but its whole range,
# 0.29 ± 4e-4, lies below where the maximum lives, about one σ = 4.6e-3
# above 0.3.
BELOW_START = lambda: near_tied_beta_state(extra=[(0.32, 1e4), (0.29, 1e8)])  # noqa: E731


def kept_beta_quadrature(make):
    """``_beta_quadrature`` of the arms the screen keeps at 1e4 draws."""
    state = make()
    keep = _beta_survivors(state, 10_000)
    assert keep.sum() > 1
    return _beta_quadrature(state.alpha[keep], state.beta[keep])


START_STATES = {
    **{case: lambda make=make: kept_beta_quadrature(make) for case, make in LARGE_SHAPE_STATES.items()},
    "dominant_k200": lambda: kept_beta_quadrature(lambda: near_tied_beta_state(extra=[(0.32, 1e4)])),
    "below_start_k200": lambda: kept_beta_quadrature(BELOW_START),
    "narrow_k2": lambda: _normal_quadrature(np.array([0.0, 0.5]), np.array([1.0, 1e-6])),
    "narrow_leader_k2": lambda: _normal_quadrature(np.array([0.0, -0.5]), np.array([1e-6, 1.0])),
}


def read_cdfs(quadrature, x):
    """Every arm's F at x as the integrator reads it: 0 below the arm's
    lower quantile, 1 above its upper one, the family's ``cdf`` between."""
    (_, _, lower, upper, *_), cdf = quadrature[:2]
    cdfs = (x >= upper).astype(float)
    inside = np.flatnonzero((x > lower) & (x < upper))
    cdfs[inside] = cdf(np.full(inside.size, x), inside)
    return cdfs


def assert_starts_where_the_maximum_lives(quadrature):
    """The integration starts at an edge of ``_panels`` where
    K ∏F ≤ ``_QUAD_DELTA``, the next edge exceeds that bound, and the
    chances agree within 1e-15 in L1 with the rule over every panel."""
    bounds = quadrature[0]
    arms = bounds[2].size
    panels = _panels(*bounds)
    edges = _quadrature_edges(*quadrature[:2])
    start = panels.size - edges.size
    np.testing.assert_array_equal(edges, panels[start:])
    assert arms * read_cdfs(quadrature, edges[0]).prod() <= _QUAD_DELTA
    assert arms * read_cdfs(quadrature, edges[1]).prod() > _QUAD_DELTA
    full_range = oracles.full_range_win_chances(*quadrature)
    assert np.abs(policy._win_chances(*quadrature) - full_range).sum() <= 1e-15
    return start


@pytest.mark.parametrize("case", list(START_STATES))
def test_quadrature_starts_where_the_maximum_lives(case):
    """Near-tied Beta arms at a + b up to 1e9 and at K = 200, one dominant
    arm beside 199 near-tied ones, one whose range lies below the start,
    and two normal arms, one 1e-6 as wide as the other: each starts at the
    last edge with K ∏F ≤ δ, and each agrees with the full-range rule."""
    start = assert_starts_where_the_maximum_lives(START_STATES[case]())
    if case.endswith("k200"):
        assert start > 0


@pytest.mark.parametrize("trials", [10**12, 10**14, 10**16, 10**18])
def test_quadrature_start_holds_at_high_traffic(trials, monkeypatch):
    """``full_ts``'s decisions on three tied rates at 1e12 to 1e18 trials a
    round, whose logits' spreads are 1e-6 to 1e-9 of the logits."""
    plans = full_ts_quadrature_plans(monkeypatch, 3, 6, 3, simulation.Stationary([0.3] * 3), trials)
    assert len(plans) == 5
    for logits in plans:
        assert_starts_where_the_maximum_lives(_normal_quadrature(*logits))


def test_an_arm_below_the_start_wins_nothing():
    """A kept arm whose whole range lies below the start has no node and
    wins 0, and the decision is still one
    ``rng.multinomial(n_draws, π̂)`` over the kept arms, bit for bit,
    generator state included."""
    state = BELOW_START()
    keep = _beta_survivors(state, 10_000)
    assert keep.all()
    start = _quadrature_edges(*_beta_quadrature(state.alpha, state.beta)[:2])[0]
    assert _beta_bounds(state.alpha, state.beta)[3][-1] < start
    chances = _beta_win_chances(state.alpha, state.beta)
    assert chances[-1] == 0.0 and np.all(chances[:-1] > 0.0)
    rng, expected = np.random.default_rng(46), np.random.default_rng(46)
    counts = expected.multinomial(10_000, chances)
    np.testing.assert_array_equal(beta_ts_proportions(state, 10_000, rng).p, counts / 10_000.0)
    assert rng.bit_generator.state == expected.bit_generator.state


@pytest.mark.parametrize("case", ["spread_k200", "wide_arms_k200"])
def test_log_ratio_takes_one_log_per_element(case, monkeypatch):
    """Every call of ``_log_ratio`` in a K = 200 Beta decision matches,
    bit for bit, both logs taken over every element and log1p kept where
    the value is within half the base of it."""
    calls, log_ratio = [], policy._log_ratio

    def recorded(value, base, delta):
        out = log_ratio(value, base, delta)
        calls.append((value, base, delta, out))
        return out

    monkeypatch.setattr(policy, "_log_ratio", recorded)
    policy._win_chances(*kept_beta_quadrature(LARGE_SHAPE_STATES[case]))
    assert calls
    for value, base, delta, out in calls:
        expected = np.log(value / base)
        near = np.abs(delta) < 0.5 * base
        expected[near] = np.log1p(delta[near] / base[near])
        np.testing.assert_array_equal(out, expected)


def first_round(k, mode, seed=41):
    """A policy state and a registry over arms 0..K−1 after one round of
    100 trials an arm at rate 0.3, from a flat start in ``mode``:
    independent arm logits, a ``LogitBelief`` in the full mode and a
    dense arrow in the odds-ratio mode, that the screen keeps whole."""
    n = np.full(k, 100)
    data = RoundData(n, np.random.default_rng(seed).binomial(n, 0.3))
    arms = tuple(range(k))
    state = simulation._update(LogisticPolicyState.flat_start(k, mode), data)
    registry = absorb_round(ArmRegistry.fresh(arms), arms, data, mode)
    if mode is UpdateMode.FULL:
        assert isinstance(state.belief, LogitBelief)
    else:
        assert _arm_logits(state.belief) is not None
    assert _gaussian_survivors(state.belief, 10_000)[0].all()
    return state, registry, arms


@pytest.mark.blas_sensitive
@pytest.mark.parametrize("k", [2, 10, 200])
def test_full_mode_every_arm_arrow_takes_the_quadrature(k):
    """A full-mode decision on arm logits that keeps every arm is one
    multinomial draw with the arm logits' Thompson probabilities, bit for
    bit, through ``simulation``'s round step and through ``plan_round``."""
    state, registry, arms = first_round(k, UpdateMode.FULL)
    assert registry.mode is UpdateMode.FULL
    expected = np.random.default_rng(42)
    belief = state.belief
    counts = expected.multinomial(10_000, _normal_win_chances(belief.logit_mean, belief.sd))
    for decide in (lambda rng: simulation._propose(state, 10_000, rng),
                   lambda rng: plan_round(registry, arms, 10_000, rng).proportions):
        rng = np.random.default_rng(42)
        np.testing.assert_array_equal(decide(rng).p, counts / 10_000.0)
        assert rng.bit_generator.state == expected.bit_generator.state


@pytest.mark.blas_sensitive
@pytest.mark.parametrize("k", [2, 10, 200])
def test_odds_ratio_first_decision_stays_on_the_tally(k):
    """``or_ts``'s first decision is a dense arrow with the full mode's
    law, and it keeps the Monte Carlo tally of
    ``allocation_proportions(belief)`` bit for bit, through either round
    step, where the same arrow read as arm logits takes the quadrature."""
    state, registry, arms = first_round(k, UpdateMode.ODDS_RATIO)
    assert registry.mode is UpdateMode.ODDS_RATIO
    assert isinstance(state.belief, GaussianBelief)
    full = first_round(k, UpdateMode.FULL)[0].belief
    np.testing.assert_allclose(state.belief.precision, full.precision, rtol=1e-12)
    expected = np.random.default_rng(43)
    tally = allocation_proportions(state.belief, 10_000, expected).p
    for decide in (lambda rng: simulation._propose(state, 10_000, rng),
                   lambda rng: plan_round(registry, arms, 10_000, rng).proportions):
        rng = np.random.default_rng(43)
        np.testing.assert_array_equal(decide(rng).p, tally)
        assert rng.bit_generator.state == expected.bit_generator.state
    rng = np.random.default_rng(43)
    allocation_proportions(_as_logits(state.belief), 10_000, rng)
    assert rng.bit_generator.state != expected.bit_generator.state


LOGIT_DECISIONS = {
    "k10_drops_arms": lambda: full_ts_belief(10, 20_000, 1, p=np.r_[0.32, 0.30, np.full(7, 0.2), 0.25]),
    "k10_every_arm": lambda: first_round(10, UpdateMode.FULL)[0].belief,
    "k200_every_arm": lambda: first_round(200, UpdateMode.FULL)[0].belief,
    "settled": lambda: LogitBelief([0.0, -3.0, -3.0], [1e6, 1e6, 1e6]),
    "k1": lambda: LogitBelief([0.4], [2.0]),
}


@pytest.mark.parametrize("case", list(LOGIT_DECISIONS))
def test_logit_belief_decision_is_one_multinomial_draw(case):
    """A decision on independent arm logits is one
    ``rng.multinomial(n_draws, _normal_win_chances(m[kept], σ[kept]))``
    over the arms the O(K) screen keeps, bit for bit, generator state
    included; a lone kept arm wins every draw and draws nothing."""
    belief = LOGIT_DECISIONS[case]()
    sd = 1.0 / np.sqrt(belief.logit_precision)
    keep, _ = _logit_survivors(belief.logit_mean, sd, 10_000)
    rng, expected = np.random.default_rng(45), np.random.default_rng(45)
    counts = np.zeros(belief.dim, dtype=np.int64)
    if keep.sum() == 1:
        counts[keep] = 10_000
    else:
        counts[keep] = expected.multinomial(
            10_000, _normal_win_chances(belief.logit_mean[keep], sd[keep]))
    assert (keep.sum() == 1) == (case in ("settled", "k1"))
    assert keep.all() == (case not in ("k10_drops_arms", "settled"))
    np.testing.assert_array_equal(allocation_proportions(belief, 10_000, rng).p, counts / 10_000.0)
    assert rng.bit_generator.state == expected.bit_generator.state


def test_logit_belief_decision_needs_every_logit_proper():
    with pytest.raises(CannotSampleError):
        allocation_proportions(LogitBelief([0.0, 1.0, 0.5], [4.0, 0.0, 3.0]), 100,
                               np.random.default_rng(0))


def test_full_ts_forms_no_dense_belief_and_solves_nothing(monkeypatch):
    """``full_ts`` at K = 200 on a drifting environment, 6 rounds of 1e4
    trials: with ``GaussianBelief`` construction and ``np.linalg``'s
    solves and factorizations made to raise, the run completes, and its
    decisions after round 1 draw from the policy stream."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the full mode must not form a dense belief or solve")

    monkeypatch.setattr(GaussianBelief, "__init__", forbidden)
    for name in ("solve", "lstsq", "cholesky", "eigvalsh", "eigh", "inv"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    config = ExperimentConfig(rounds=6, trials_per_round=10_000, replications=1,
                              policy=PolicyKind.FULL_TS, seed=3, n_draws=10_000)
    result = simulation.run_experiment(config, drift_environment(200, 0.31, 0.30, 20.0))
    assert result.proportions.shape == (6, 200)
    assert not np.all(result.proportions[1:] == 1.0 / 200)


@pytest.mark.blas_sensitive
@pytest.mark.parametrize("beliefs", [
    lambda patch: full_ts_beliefs(patch, 10, 12),
    lambda patch: full_ts_beliefs(patch, 200, 6),
    lambda patch: churn_beliefs(patch, UpdateMode.FULL),
], ids=["full_ts_k10", "full_ts_k200", "continuous_full"])
def test_logit_screen_keeps_the_arms_of_the_loading_screen(beliefs, monkeypatch):
    """On every captured full-mode decision, all arm logits, the O(K)
    screen on the logits' standard deviations keeps the arms and the
    leader that ``_gaussian_survivors`` keeps from the rows of the dense
    view's L⁻¹, at 1, 1e4 and 1e6 draws."""
    captured = beliefs(monkeypatch)
    assert captured
    for belief in captured:
        for n_draws in (1, 10_000, 1_000_000):
            keep, leader = _logit_survivors(belief.logit_mean, belief.sd, n_draws)
            expected, expected_leader, _ = _gaussian_survivors(belief, n_draws)
            np.testing.assert_array_equal(keep, expected)
            assert leader == expected_leader


@pytest.mark.parametrize("ratio", [1.0, 39.0, 1504.0, 1e4])
@pytest.mark.parametrize("k", [10, 200])
def test_arm_logits_read_the_reference_precision_without_cancellation(k, ratio):
    """Arrow beliefs built from known (d, D), the corner Σd + D up to 1e4
    times D: the Thompson probabilities from ``_arm_logits`` lie within
    1e-11 of those from the exact (d, D)."""
    rng = np.random.default_rng(k)
    d = rng.uniform(1e3, 1e5, size=k - 1)
    rest = d.sum() / (ratio - 1.0) if ratio > 1.0 else 1e4
    logits = rng.normal(-0.8, 0.01, size=k)
    mean = logits - logits[-1]
    mean[-1] = logits[-1]
    read_mean, read_sd = _arm_logits(GaussianBelief(mean, oracles.arrow_precision(d, rest)))
    chances = _normal_win_chances(read_mean, read_sd)
    sd = 1.0 / np.sqrt(np.r_[d, rest])
    assert np.abs(chances - oracles.normal_win_chances(logits, sd)).sum() <= WIN_CHANCE_L1


def test_arm_logits_read_the_reference_precision_to_the_corner_rounding():
    """At K = 200, d spread over four decades and a corner 1e4 times D, on
    100 seeds: D is read within eps · (corner / D + 4) relative, the
    corner's own rounding and that of the standard deviation. A float sum
    of d exceeds that on some of them."""
    eps = np.finfo(float).eps
    for seed in range(100):
        d = 10.0 ** np.random.default_rng(seed).uniform(2.0, 6.0, size=199)
        rest = d.sum() / 1e4
        precision = oracles.arrow_precision(d, rest)
        read = _arm_logits(GaussianBelief(np.zeros(200), precision))[1][-1] ** -2
        assert abs(read / rest - 1.0) <= eps * (precision[-1, -1] / rest + 4.0), seed


def test_arm_logits_need_an_arrow_and_a_positive_reference_precision():
    """An odds-ratio belief after two rounds is no arrow; an arrow whose
    corner is not above Σd gives no reference precision."""
    assert _arm_logits(or_ts_belief(10, 10_000, 10)) is None
    precision = oracles.arrow_precision(np.array([2.0, 3.0]), 1.0)
    assert _arm_logits(GaussianBelief(np.zeros(3), precision)) is not None
    precision[-1, -1] = 5.0
    assert _arm_logits(GaussianBelief(np.zeros(3), precision)) is None


# --- blocked draws and tally -------------------------------------------------


# (policy, its oracle, its screen, arm count -> a state the screen keeps
# whole, (arm count, n_draws) -> rows per block). A Beta state
# with shapes at least 1 takes the quadrature, so its oracle is one
# multinomial draw with Thompson probabilities held to independently
# computed ones; one with a shape below 1 takes the tally, whose oracle is
# one full draw.
BLOCKED_POLICIES = {
    "gaussian": (allocation_proportions, oracles.allocation_proportions,
                 lambda belief, n_draws: _gaussian_survivors(belief, n_draws)[0],
                 lambda k: or_ts_belief(k, 50 * k, k), _block_rows),
    "beta": (beta_ts_proportions, oracles.beta_multinomial_proportions, _beta_survivors,
             lambda k: spread_beta_state(k, k), _block_rows),
    "beta_tally": (beta_ts_proportions, oracles.beta_ts_proportions, _beta_survivors,
                   lambda k: fractional_beta_state(k, k), _block_rows),
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
    """Draws tallied block by block (Gaussian, or a Beta state with a shape
    below 1), with a last partial block, give the proportions and the
    generator state of one (n_draws, K) draw, bit for bit; a Beta state
    with shapes at least 1
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
    kept, one decision's traced peak stays within one block of draws or
    of quadrature nodes, and a few K-sized arrays; for the quadrature also
    at K=2000."""
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
