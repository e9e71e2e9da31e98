"""Continuous experiments: registries, continuity, re-anchoring, planning."""

import numpy as np
import pytest
from scipy.special import expit

from orbandit import (
    ArmRegistry,
    ConfigError,
    Continuity,
    ContinuityError,
    ContinuousScenario,
    GaussianBelief,
    LogisticPolicyState,
    LogitBelief,
    ProbVector,
    RoundData,
    ScenarioRound,
    UpdateMode,
    absorb_round,
    allocate_trials,
    continuous,
    allocation_proportions,
    check_continuity,
    draw_rewards,
    full_ts_update,
    marginalize_keep,
    plan_round,
    reanchor_reference,
    run_continuous,
    sample,
    simulation,
)

import oracles


def seeded_registry(successes=(20, 15, 10), trials=(50, 50, 50)):
    registry = ArmRegistry.empty()
    data = RoundData(np.array(trials), np.array(successes))
    return absorb_round(registry, ("A", "B", "C"), data, UpdateMode.ODDS_RATIO)


# --- continuity --------------------------------------------------------------


def test_fresh_registry_reports_reinitialize():
    assert check_continuity(("A", "B"), ArmRegistry.empty()) is Continuity.REINITIALIZE


def test_two_shared_arms_continue_the_bandit():
    registry = seeded_registry()
    assert check_continuity(("B", "C", "D"), registry) is Continuity.CONTINUE_BANDIT


def test_single_shared_arm_breaks_continuity():
    registry = seeded_registry()
    assert check_continuity(("C", "D", "E"), registry) is Continuity.REINITIALIZE


def test_absorb_round_raises_on_broken_continuity():
    """An updated registry needs one shared arm for a full-rank update and
    two for an odds-ratio update."""
    registry = seeded_registry()
    data = RoundData(np.array([10, 10]), np.array([2, 3]))
    for active, mode in (
        (("D", "E"), UpdateMode.ODDS_RATIO),
        (("D", "E"), UpdateMode.FULL),
        (("C", "D"), UpdateMode.ODDS_RATIO),
    ):
        with pytest.raises(ContinuityError):
            absorb_round(registry, active, data, mode)
    absorbed = absorb_round(registry, ("C", "D"), data, UpdateMode.FULL)
    assert absorbed.arms == ("A", "B", "D", "C")
    assert absorbed.round == 2
    with pytest.raises(ConfigError, match="field 'round'"):
        ArmRegistry(registry.arms, registry.belief, round=1.5)


# --- registry bookkeeping -----------------------------------------------------


def test_first_round_tracks_arms_with_last_as_reference():
    registry = seeded_registry()
    assert registry.arms == ("A", "B", "C")
    assert registry.reference == "C"
    assert registry.round == 1
    assert registry.belief.is_proper()


def test_new_arms_insert_before_reference():
    registry = seeded_registry()
    data = RoundData(np.array([60, 60, 60]), np.array([25, 20, 15]))
    registry = absorb_round(registry, ("B", "C", "D"), data, UpdateMode.ODDS_RATIO)
    assert registry.arms == ("A", "B", "D", "C")
    assert registry.reference == "C"
    assert registry.round == 2


def test_untracked_arm_keeps_flat_marginal_until_observed():
    registry = seeded_registry()
    data = RoundData(np.array([60, 60, 60]), np.array([25, 20, 15]))
    registry = absorb_round(registry, ("A", "B", "C"), data, UpdateMode.ODDS_RATIO)
    # absorb a third round introducing D but giving it no successes yet
    data3 = RoundData(np.array([40, 40, 0, 40]), np.array([15, 12, 0, 10]))
    registry = absorb_round(
        registry, ("A", "B", "D", "C"), data3, UpdateMode.ODDS_RATIO
    )
    d_index = registry.arms.index("D")
    assert registry.belief.precision[d_index, d_index] == 0.0


def test_reanchor_moves_reference_and_preserves_distribution():
    registry = seeded_registry()
    moved = reanchor_reference(registry, "A")
    assert moved.reference == "A"
    assert set(moved.arms) == {"A", "B", "C"}
    # the joint law is unchanged: compare per-arm logit beliefs via sampling
    rng = np.random.default_rng(0)
    def arm_logits(reg, draws):
        scores = sample(reg.belief, draws, rng)
        logits = scores.copy()
        logits[:, :-1] += logits[:, -1:]
        return {arm: logits[:, i] for i, arm in enumerate(reg.arms)}
    old = arm_logits(registry, 200_000)
    new = arm_logits(moved, 200_000)
    for arm in ("A", "B", "C"):
        assert abs(old[arm].mean() - new[arm].mean()) < 0.01
        assert abs(old[arm].std() - new[arm].std()) < 0.01


def test_reanchor_to_unknown_arm_raises():
    with pytest.raises(ConfigError):
        reanchor_reference(seeded_registry(), "Z")


def test_reanchor_to_current_reference_is_identity():
    registry = seeded_registry()
    same = reanchor_reference(registry, "C")
    assert same.arms == registry.arms
    np.testing.assert_array_equal(same.belief.mean, registry.belief.mean)


def test_reference_reanchors_when_it_leaves_the_active_set():
    registry = seeded_registry()
    data = RoundData(np.array([70, 70]), np.array([30, 25]))
    registry = absorb_round(registry, ("A", "B"), data, UpdateMode.ODDS_RATIO)
    # C left; the lowest-registry-index overlap arm (A) becomes the anchor
    assert registry.reference == "A"
    assert set(registry.arms) == {"A", "B", "C"}


# --- round planning -----------------------------------------------------------


def test_plan_on_fresh_registry_is_uniform():
    rng = np.random.default_rng(1)
    registry = ArmRegistry.empty()
    plan = plan_round(registry, ("A", "B", "C"), 1000, rng)
    np.testing.assert_allclose(plan.proportions.p, np.full(3, 1 / 3))
    # no active arm is tracked, so each keeps exactly the manual share
    assert registry.arms == ()
    assert plan.active == ("A", "B", "C")
    assert plan.proportions.p.tolist() == [1 / 3] * 3


@pytest.mark.parametrize("n_draws", [0, -1, 2.5])
def test_plan_rejects_a_bad_draw_count_before_the_marginal_is_proper(n_draws):
    """A fresh registry's marginal is improper, so the split would be even
    without a draw; the draw count is checked first all the same."""
    with pytest.raises(ConfigError, match="field 'n_draws'"):
        plan_round(ArmRegistry.fresh(["a", "b"]), ["a", "b"], n_draws, np.random.default_rng(1))


def test_plan_splits_between_observed_and_new_arms():
    registry = seeded_registry((40, 15, 10), (80, 50, 50))
    rng = np.random.default_rng(2)
    plan = plan_round(registry, ("A", "B", "C", "D"), 20_000, rng)
    # A, B and C are tracked; D is new
    assert set(registry.arms) == {"A", "B", "C"}
    assert plan.active == ("A", "B", "C", "D")
    # the new arm gets exactly 1/|active|
    assert plan.proportions.p[3] == 1 / 4
    # observed arms share the remaining 3/4 by Thompson proportions
    assert plan.proportions.p[:3].sum() == pytest.approx(0.75)
    # arm A dominates the observed block
    assert plan.proportions.p[0] > plan.proportions.p[1]


def test_plan_marginalizes_to_the_active_subset():
    """Planning over a subset matches allocation on the marginal belief."""
    registry = seeded_registry((40, 15, 10), (80, 50, 50))
    plan = plan_round(registry, ("A", "C"), 100_000, np.random.default_rng(3))
    marginal = marginalize_keep(registry.belief, [0, 2])
    direct = allocation_proportions(marginal, 100_000, np.random.default_rng(4))
    np.testing.assert_allclose(plan.proportions.p, direct.p, atol=0.01)


def test_plan_proportions_sum_to_one():
    registry = seeded_registry()
    plan = plan_round(registry, ("B", "C", "D", "E", "F"), 5000, np.random.default_rng(5))
    assert plan.proportions.p.sum() == pytest.approx(1.0)


def test_plan_falls_back_to_uniform_when_marginal_is_improper():
    """A tracked-but-never-observed arm has a flat marginal; planning a
    round over it cannot sample, so the split is uniform."""
    registry = seeded_registry()
    data = RoundData(np.array([60, 60, 0, 60]), np.array([25, 20, 0, 15]))
    registry = absorb_round(registry, ("A", "B", "D", "C"), data, UpdateMode.ODDS_RATIO)
    plan = plan_round(registry, ("B", "D"), 2000, np.random.default_rng(6))
    # both active arms are tracked: D joined with zero trials
    assert "B" in registry.arms and "D" in registry.arms
    np.testing.assert_allclose(plan.proportions.p, [0.5, 0.5])


def test_plan_draws_when_only_the_reference_base_rate_is_flat():
    """The reference's base rate scores zero, so when its coordinate alone
    is flat the scored coordinates' law is proper: planning draws, bit for
    bit as allocation on the belief with that coordinate given unit
    precision, instead of falling back to an even split."""
    mean = np.array([0.5, -0.1, -1.0])
    precision = np.array([[40.0, -10.0, 0.0], [-10.0, 30.0, 0.0], [0.0, 0.0, 0.0]])
    registry = ArmRegistry(("A", "B", "C"), GaussianBelief(mean, precision), round=2)
    plan = plan_round(registry, ("A", "B", "C"), 10_000, np.random.default_rng(7))
    precision[-1, -1] = 1.0
    direct = allocation_proportions(GaussianBelief(mean, precision), 10_000,
                                    np.random.default_rng(7))
    np.testing.assert_array_equal(plan.proportions.p, direct.p)
    assert plan.proportions.p[0] > 0.9


@pytest.mark.parametrize("arms", [2, 3, 10, 50])
@pytest.mark.parametrize("mode", list(UpdateMode))
def test_fixed_arm_set_takes_the_same_bits_through_either_step(mode, arms):
    """Over an active set that never changes, plan_round and absorb_round
    give the proportions, belief mean and precision of simulation's own
    step from a flat start, bit for bit, on equal policy streams and equal
    counts; round 3 has no trials."""
    names = tuple(f"arm{i}" for i in range(arms))
    true_p = ProbVector(expit(-0.85 + 0.04 * np.linspace(1.0, -1.0, arms)))
    state = LogisticPolicyState.flat_start(arms, mode)
    registry = ArmRegistry.fresh(names)
    rng_step, rng_plan = np.random.default_rng(31), np.random.default_rng(31)
    rng_data = np.random.default_rng(32)
    drew = 0
    for trials in (300 * arms, 300 * arms, 0, 300 * arms, 300 * arms, 300 * arms):
        proposed = simulation._propose(state, 2000, rng_step)
        planned = plan_round(registry, names, 2000, rng_plan).proportions
        assert np.array_equal(proposed.p, planned.p)
        drew += not np.all(proposed.p == proposed.p[0])
        allocated = allocate_trials(proposed, trials, rng_data)
        data = RoundData(allocated, draw_rewards(allocated, true_p, rng_data))
        state = simulation._update(state, data)
        registry = absorb_round(registry, names, data, mode)
        assert registry.arms == names
        assert np.array_equal(state.belief.mean, registry.belief.mean)
        assert np.array_equal(state.belief.precision, registry.belief.precision)
    assert rng_step.bit_generator.state == rng_plan.bit_generator.state
    assert drew >= 3  # the rounds after round 1 reached the Thompson draws


def test_registry_records_the_mode_of_its_last_update():
    """A full-rank step on an odds-ratio history leaves a dense belief
    whose marginal is no arrow, and ``plan_round`` decides it by the
    Monte Carlo tally, bit for bit. The registry records no mode: the
    belief's type alone picks the rule."""
    registry = seeded_registry()
    data = RoundData(np.array([50, 50, 50]), np.array([18, 16, 9]))
    registry = absorb_round(registry, ("A", "B", "C"), data, UpdateMode.ODDS_RATIO)
    full = absorb_round(registry, ("C", "D"), RoundData(np.array([10, 10]), np.array([2, 3])),
                        UpdateMode.FULL)
    assert full.arms == ("A", "B", "D", "C")
    assert not hasattr(full, "mode")
    marginal = marginalize_keep(full.belief, [0, 1, 3])
    assert oracles.arrow_logits(marginal) is None
    expected = np.random.default_rng(44)
    tally = allocation_proportions(marginal, 2000, expected).p
    rng = np.random.default_rng(44)
    np.testing.assert_array_equal(plan_round(full, ("A", "B", "C"), 2000, rng).proportions.p, tally)
    assert rng.bit_generator.state == expected.bit_generator.state


def test_full_mode_registry_holds_each_arms_own_logit():
    """From an empty registry's first round on, through arms joining,
    sitting out and re-anchoring, a full-mode registry holds arm logits
    (``LogitBelief``), and each arm's is the one
    a fixed set of every arm reaches from the same counts, bit for bit:
    the update moves each logit alone and the registry only moves them."""
    pool = tuple("ABCDEFG")
    rng = np.random.default_rng(46)
    registry = ArmRegistry.empty()
    state = LogisticPolicyState.flat_start(len(pool), UpdateMode.FULL)
    for active in (("A", "B", "C"), ("B", "C", "D"), ("D", "E"), ("A", "E", "F", "G"), ("G", "B")):
        n = rng.integers(0, 400, size=len(active))
        data = RoundData(n, rng.binomial(n, 0.3))
        if registry.round and not set(active) & set(registry.arms):
            continue
        registry = absorb_round(registry, active, data, UpdateMode.FULL)
        assert isinstance(registry.belief, LogitBelief)
        assert isinstance(reanchor_reference(registry, registry.arms[0]).belief, LogitBelief)
        full_n, full_c = np.zeros(len(pool), dtype=np.int64), np.zeros(len(pool), dtype=np.int64)
        where = [pool.index(a) for a in active]
        full_n[where], full_c[where] = data.n, data.c
        state = full_ts_update(state, RoundData(full_n, full_c))
        order = [pool.index(a) for a in registry.arms]
        assert np.array_equal(registry.belief.logit_mean, state.belief.logit_mean[order])
        assert np.array_equal(registry.belief.logit_precision, state.belief.logit_precision[order])
    assert set(registry.arms) == set(pool)


def test_round_after_a_full_rank_fallback_decides_its_dense_marginal(monkeypatch):
    """An odds-ratio scenario that falls back to one full-rank update
    holds a dense belief whose marginal over the next round's arms is an
    exact arrow; that round's plan is ``allocation_proportions`` of the
    dense marginal, bit for bit, generator state included."""
    planned = []
    original = plan_round

    def record(registry, active, n_draws, rng):
        state = rng.bit_generator.state
        plan = original(registry, active, n_draws, rng)
        planned.append((registry, active, n_draws, state, plan, rng.bit_generator.state))
        return plan

    monkeypatch.setattr(continuous, "plan_round", record)
    rounds = (
        ScenarioRound(("A", "B", "C"), {"A": 0.32, "B": 0.30, "C": 0.28}, 2000),
        ScenarioRound(("C", "D"), {"C": 0.28, "D": 0.34}, 2000),
        ScenarioRound(("A", "B", "C", "D"), {"A": 0.32, "B": 0.30, "C": 0.28, "D": 0.34}, 2000),
    )
    result = run_continuous(ContinuousScenario(rounds, seed=5, n_draws=2000, on_break="full_rank"))
    assert [o.decision for o in result.rounds][1] is Continuity.FULL_RANK
    registry, active, n_draws, before, plan, after = planned[2]
    assert set(registry.arms) == set(active)
    marginal = marginalize_keep(registry.belief, list(range(len(active))))
    assert isinstance(marginal, GaussianBelief) and oracles.arrow_logits(marginal) is not None
    rng = np.random.default_rng()
    rng.bit_generator.state = before
    expected = allocation_proportions(marginal, n_draws, rng).p
    np.testing.assert_array_equal(plan.proportions.p, expected[[registry.arms.index(a) for a in active]])
    assert rng.bit_generator.state == after


def test_run_continuous_reinitializes_without_a_mode(monkeypatch):
    """After a break the scenario plans on a fresh registry, flat arm
    logits that no round has updated, and the full mode's next absorbed
    round keeps arm logits."""
    planned = []
    original = plan_round

    def record(registry, *args):
        planned.append((registry.round, isinstance(registry.belief, LogitBelief)))
        return original(registry, *args)

    monkeypatch.setattr(continuous, "plan_round", record)
    rounds = (
        ScenarioRound(("A", "B"), {"A": 0.32, "B": 0.30}, 1000),
        ScenarioRound(("A", "B"), {"A": 0.32, "B": 0.30}, 1000),
        ScenarioRound(("C", "D"), {"C": 0.30, "D": 0.28}, 1000),
    )
    result = run_continuous(ContinuousScenario(rounds, mode=UpdateMode.FULL, seed=13, n_draws=1000))
    assert planned == [(0, True), (1, True), (0, True)]
    assert isinstance(result.registry.belief, LogitBelief)


# --- scenario runner -----------------------------------------------------------


def scenario_rounds():
    return (
        ScenarioRound(("A", "B", "C"), {"A": 0.32, "B": 0.30, "C": 0.28}, 2000),
        ScenarioRound(("A", "B", "C"), {"A": 0.32, "B": 0.30, "C": 0.28}, 2000),
        ScenarioRound(("B", "C", "D"), {"B": 0.30, "C": 0.28, "D": 0.34}, 2000),
    )


def test_run_continuous_records_each_round():
    scenario = ContinuousScenario(scenario_rounds(), seed=11, n_draws=2000)
    result = run_continuous(scenario)
    assert len(result.rounds) == 3
    assert result.rounds[0].decision is Continuity.REINITIALIZE  # fresh start
    assert result.rounds[1].decision is Continuity.CONTINUE_BANDIT
    assert result.rounds[2].decision is Continuity.CONTINUE_BANDIT
    for outcome, spec_round in zip(result.rounds, scenario_rounds()):
        assert outcome.allocated.sum() == spec_round.trials
        assert np.all(outcome.successes <= outcome.allocated)
    assert set(result.registry.arms) == {"A", "B", "C", "D"}


def test_run_continuous_is_deterministic_in_seed():
    scenario = ContinuousScenario(scenario_rounds(), seed=12, n_draws=2000)
    a = run_continuous(scenario)
    b = run_continuous(scenario)
    for ra, rb in zip(a.rounds, b.rounds):
        np.testing.assert_array_equal(ra.allocated, rb.allocated)
        np.testing.assert_array_equal(ra.successes, rb.successes)


def test_run_continuous_reinitializes_on_break():
    rounds = (
        ScenarioRound(("A", "B"), {"A": 0.32, "B": 0.30}, 1000),
        ScenarioRound(("C", "D"), {"C": 0.30, "D": 0.28}, 1000),
    )
    scenario = ContinuousScenario(rounds, seed=13, n_draws=1000)
    result = run_continuous(scenario)
    assert result.rounds[1].decision is Continuity.REINITIALIZE
    # the new registry only tracks the arms active after the break
    assert set(result.registry.arms) == {"C", "D"}


def test_run_continuous_full_rank_fallback_keeps_shared_history():
    rounds = (
        ScenarioRound(("A", "B", "C"), {"A": 0.32, "B": 0.30, "C": 0.28}, 2000),
        ScenarioRound(("C", "D"), {"C": 0.28, "D": 0.31}, 2000),
    )
    scenario = ContinuousScenario(
        rounds, seed=14, n_draws=1000, on_break="full_rank"
    )
    result = run_continuous(scenario)
    assert result.rounds[1].decision is Continuity.FULL_RANK
    # with the full-rank fallback the registry still remembers A and B
    assert set(result.registry.arms) == {"A", "B", "C", "D"}


def test_scenario_round_validates_probabilities():
    """Probabilities and trials are checked by the round, naming the field."""
    for p, trials, named in (
        ({"A": 0.5}, 100, "field 'p' has no entry for arm 'B'"),
        ({"A": 0.5, "B": 1.5}, 100, "field 'p' for arm 'B'"),
        ({"A": 0.5, "B": 0.4}, 2.5, "field 'trials'"),
        ({"A": 0.5, "B": 0.4}, True, "field 'trials'"),
        ({"A": 0.5, "B": "0.3"}, 100, "field 'p' for arm 'B'"),
    ):
        with pytest.raises(ConfigError, match=named):
            ScenarioRound(("A", "B"), p, trials)


def test_scenario_rejects_unknown_break_strategy():
    """The scenario checks its rounds, break strategy, seed, draw count and
    mode, naming the field."""
    for field, value in (
        ("on_break", "carry_on"), ("seed", 1.5), ("seed", True), ("seed", "3"),
        ("n_draws", 2.5), ("n_draws", True), ("mode", "hybrid"),
        ("rounds", scenario_rounds()[:1] + ({"active": ["A"], "p": {"A": 0.3}, "trials": 9},)),
    ):
        with pytest.raises(ConfigError, match=f"field '{field}'"):
            ContinuousScenario(**{"rounds": scenario_rounds(), field: value})
