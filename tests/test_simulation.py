"""Simulation harness: environments, allocation arithmetic, replications."""

import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit, logit

from orbandit import (
    AllocationProportions,
    BetaState,
    CannotSampleError,
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    LogisticPolicyState,
    LogitDrift,
    PolicyKind,
    ProbVector,
    RegimeSchedule,
    RoundData,
    SimulationError,
    Stationary,
    UpdateMode,
    allocate_trials,
    beta_ts_proportions,
    draw_rewards,
    drift_environment,
    env_step,
    run_experiment,
    run_replications,
    sigma_from_d,
    simulation,
    single_best_arm_logits,
    two_regime_schedule,
)


# --- environments --------------------------------------------------------------


def test_sigma_from_d_frozen_values():
    assert sigma_from_d(20.0, 0.31, 0.30) == pytest.approx(0.9435712055018097, abs=1e-12)
    assert sigma_from_d(1.0, 0.31, 0.30) == pytest.approx(0.047178560275090486, abs=1e-12)
    assert sigma_from_d(0.0, 0.31, 0.30) == 0.0


def test_sigma_from_d_requires_ordered_probabilities():
    with pytest.raises(ConfigError):
        sigma_from_d(1.0, 0.30, 0.31)
    with pytest.raises(ConfigError):
        single_best_arm_logits(4, 0.30, 0.31)
    for d in ("2", -1.0):
        with pytest.raises(ConfigError, match="field 'd'"):
            sigma_from_d(d, 0.31, 0.30)
    with pytest.raises(ConfigError, match="field 'p_optimal'"):
        sigma_from_d(1.0, "0.31", 0.30)
    with pytest.raises(ConfigError, match="field 'p_suboptimal'"):
        single_best_arm_logits(3, 0.31, "0.30")
    with pytest.raises(ConfigError, match="need 0 < p_suboptimal < p_optimal < 1"):
        drift_environment(3, 0.31, 0.31, 1.0)


def test_stationary_environment_returns_same_probs_every_round():
    spec = Stationary(ProbVector(np.array([0.31, 0.30])))
    rng = np.random.default_rng(0)
    p1 = env_step(spec, 1, rng)
    p2 = env_step(spec, 7, rng)
    np.testing.assert_array_equal(p1.p, p2.p)
    # plain probabilities are checked into a ProbVector at construction
    np.testing.assert_array_equal(env_step(Stationary([0.31, 0.30]), 1, rng).p, p1.p)
    for p, named in (([0.3, 1.2], "inside"), (["0.3"], "field 'p'"), ([], "non-empty")):
        with pytest.raises(ConfigError, match=named):
            Stationary(p)


def test_logit_drift_applies_one_shared_shift_per_round():
    spec = LogitDrift(np.array([logit(0.31), logit(0.30)]), sigma=1.0)
    rng = np.random.default_rng(1)
    shift = np.random.default_rng(1).normal(0.0, 1.0)
    probs = env_step(spec, 1, rng)
    np.testing.assert_allclose(
        probs.p, expit(np.array([logit(0.31), logit(0.30)]) + shift), atol=1e-12
    )


def test_logit_drift_shift_of_one_frozen_value():
    """One +1.0 logit shift on p=0.30 lands at sigmoid(logit(0.30)+1)."""
    assert expit(logit(0.30) + 1.0) == pytest.approx(0.5381015262244488, abs=1e-12)


def test_logit_drift_preserves_arm_ordering():
    spec = drift_environment(5, 0.31, 0.30, 20.0)
    rng = np.random.default_rng(2)
    for round_index in range(1, 30):
        probs = env_step(spec, round_index, rng)
        assert np.argmax(probs.p) == 0
        np.testing.assert_allclose(probs.p[1:], np.full(4, probs.p[1]), atol=1e-12)


def test_single_best_arm_logits_layout():
    base = single_best_arm_logits(4, 0.31, 0.30)
    np.testing.assert_allclose(
        base, [logit(0.31), logit(0.30), logit(0.30), logit(0.30)], atol=1e-15
    )


def test_regime_schedule_returns_block_probs_and_trials():
    spec = RegimeSchedule(
        (
            (ProbVector(np.array([0.3, 0.2])), 100),
            (ProbVector(np.array([0.1, 0.05])), 200),
        )
    )
    rng = np.random.default_rng(3)
    np.testing.assert_array_equal(env_step(spec, 1, rng).p, [0.3, 0.2])
    np.testing.assert_array_equal(env_step(spec, 2, rng).p, [0.1, 0.05])
    assert [trials for _, trials in spec.rounds] == [100, 200]
    with pytest.raises(ConfigError):
        env_step(spec, 3, rng)
    with pytest.raises(ConfigError, match="unknown environment spec"):
        env_step(spec.rounds, 1, rng)
    for trials in (2.5, True, "100", -1):
        with pytest.raises(ValueError, match="field 'trials'"):
            RegimeSchedule(((ProbVector(np.array([0.3, 0.2])), trials),))
    plain = RegimeSchedule(((np.array([0.3, 0.2]), 100), ([0.1, 0.05], 200)))
    assert [p.p.tolist() for p, _ in plain.rounds] == [[0.3, 0.2], [0.1, 0.05]]
    for p in (np.array([0.3, 0.0]), ["0.3", "0.2"]):
        with pytest.raises(ConfigError):
            RegimeSchedule(((p, 100),))
    with pytest.raises(ConfigError, match="same arms"):
        RegimeSchedule((([0.3, 0.2], 100), ([0.3, 0.2, 0.1], 100)))


def test_two_regime_schedule_shapes_and_shift():
    spec = two_regime_schedule(
        (0.035, 0.030, 0.030, 0.030),
        block_rounds=(3, 2),
        boundary_shift=-1.0,
        daily_sigma=0.0,
        trials=5000,
        seed=0,
    )
    assert len(spec.rounds) == 5
    first_block = spec.rounds[0][0].p
    second_block = spec.rounds[3][0].p
    np.testing.assert_allclose(first_block, [0.035, 0.030, 0.030, 0.030], atol=1e-12)
    np.testing.assert_allclose(
        second_block, expit(logit(np.array([0.035, 0.030, 0.030, 0.030])) - 1.0), atol=1e-12
    )
    assert all(trials == 5000 for _, trials in spec.rounds)
    for field, options in (
        ("trials", {"trials": 2.5}),
        ("trials", {"trials": (5000, True)}),
        ("block_rounds", {"block_rounds": (3, 2.5)}),
        ("block_rounds", {"block_rounds": (3, 0)}),
        ("daily_sigma", {"daily_sigma": -1.0}),
        ("daily_sigma", {"daily_sigma": float("nan")}),
        ("daily_sigma", {"daily_sigma": "0.5"}),
        ("boundary_shift", {"boundary_shift": "x"}),
        ("seed", {"seed": -1}),
        ("seed", {"seed": 1.5}),
    ):
        with pytest.raises(ConfigError, match=f"field '{field}'"):
            two_regime_schedule((0.035, 0.030), **options)
    with pytest.raises(ConfigError, match="inside"):
        two_regime_schedule((0.035, 1.0))
    with pytest.raises(ConfigError, match="per block"):
        two_regime_schedule((0.035, 0.030), trials=(5000,))


def test_two_regime_schedule_daily_jitter_is_shared_and_seeded():
    spec_a = two_regime_schedule((0.03, 0.02), daily_sigma=0.3, seed=9)
    spec_b = two_regime_schedule((0.03, 0.02), daily_sigma=0.3, seed=9)
    for (pa, _), (pb, _) in zip(spec_a.rounds, spec_b.rounds):
        np.testing.assert_array_equal(pa.p, pb.p)
    # a shared logit shift preserves the log odds gap between arms
    for p, _ in spec_a.rounds:
        gap = logit(p.p[0]) - logit(p.p[1])
        assert gap == pytest.approx(logit(0.03) - logit(0.02), abs=1e-9)


# --- allocation arithmetic -------------------------------------------------------


def test_multinomial_allocation_sums_to_total():
    rng = np.random.default_rng(4)
    counts = allocate_trials(AllocationProportions(np.array([0.5, 0.3, 0.2])), 10_000, rng)
    assert counts.sum() == 10_000
    assert counts.min() >= 0


def test_draw_rewards_bounds_and_determinism():
    allocated = np.array([1000, 0, 500])
    p = ProbVector(np.array([0.3, 0.5, 0.9]))
    a = draw_rewards(allocated, p, np.random.default_rng(7))
    b = draw_rewards(allocated, p, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)
    assert np.all(a <= allocated)
    assert a[1] == 0


# --- experiment runner -----------------------------------------------------------


def small_config(policy, seed=21, **overrides):
    base = dict(
        rounds=8,
        trials_per_round=1500,
        replications=3,
        policy=policy,
        seed=seed,
        n_draws=1500,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_experiment_produces_one_record_per_round():
    config = small_config(PolicyKind.OR_TS)
    result = run_experiment(config, drift_environment(4, 0.31, 0.30, 0.0))
    assert isinstance(result, ExperimentResult)
    for column in (result.proportions, result.allocated, result.successes, result.true_p):
        assert column.shape == (8, 4)
    assert result.regret.shape == result.expected_clicks.shape == (8,)
    np.testing.assert_array_equal(result.allocated.sum(axis=1), np.full(8, 1500))
    assert np.all(result.regret >= 0.0)
    np.testing.assert_allclose(result.proportions.sum(axis=1), np.ones(8), atol=1e-12)


@pytest.mark.parametrize("policy", list(PolicyKind))
@pytest.mark.parametrize("rounds, arms", [(1, 1), (1, 5), (7, 1), (7, 5)])
def test_run_experiment_stacks_its_rounds_into_columns(policy, rounds, arms):
    """The stacked records keep their (rounds, arms) and (rounds,) shapes,
    one arm or one round included, and regret and expected clicks are the
    per-round sums, bit for bit."""
    config = small_config(policy, rounds=rounds)
    result = run_experiment(config, drift_environment(arms, 0.31, 0.30, 20.0))
    for column, dtype in ((result.proportions, np.float64), (result.allocated, np.int64),
                          (result.successes, np.int64), (result.true_p, np.float64)):
        assert column.shape == (rounds, arms) and column.dtype == dtype
    for column in (result.regret, result.expected_clicks):
        assert column.shape == (rounds,) and column.dtype == np.float64
    for row in range(rounds):
        allocated, true_p = result.allocated[row], result.true_p[row]
        assert result.regret[row] == np.sum(allocated * (np.max(true_p) - true_p))
        assert result.expected_clicks[row] == np.sum(allocated * true_p)


def test_regret_is_expected_shortfall_against_best_arm():
    config = small_config(PolicyKind.BETA_TS, rounds=1)
    result = run_experiment(config, drift_environment(4, 0.31, 0.30, 0.0))
    expected = np.sum(result.allocated[0] * (0.31 - result.true_p[0]))
    assert result.regret[0] == pytest.approx(expected, abs=1e-9)


def test_expected_clicks_complements_regret():
    config = small_config(PolicyKind.FULL_TS, rounds=2)
    result = run_experiment(config, drift_environment(4, 0.31, 0.30, 0.0))
    clicks = np.sum(result.allocated * result.true_p, axis=1)
    np.testing.assert_allclose(result.expected_clicks, clicks, rtol=0, atol=1e-9)


@pytest.mark.parametrize("trials", [10**6, 10**8, 10**10])
def test_logistic_policies_complete_at_heavy_traffic(trials):
    """At these counts the gradient's rounding noise sits above the mode
    search's absolute tolerance; the search must still converge in every
    round, stopping on the Newton decrement."""
    spec = drift_environment(10, 0.31, 0.30, 20.0)
    for kind in (PolicyKind.FULL_TS, PolicyKind.OR_TS):
        for seed in (1, 2, 3):
            config = ExperimentConfig(
                rounds=20, trials_per_round=trials, replications=1,
                policy=kind, seed=seed, n_draws=2000,
            )
            result = run_experiment(config, spec)
            np.testing.assert_array_equal(result.allocated.sum(axis=1), np.full(20, trials))
            assert np.all(np.isfinite(result.regret))


def test_unknown_environment_spec_is_a_config_error():
    config = small_config(PolicyKind.OR_TS)
    with pytest.raises(ConfigError, match="unknown environment spec"):
        run_experiment(config, object())
    with pytest.raises(ConfigError, match="unknown environment spec"):
        run_replications(config, {"kind": "stationary"})
    with pytest.raises(ConfigError, match="unknown environment spec"):
        env_step(object(), 1, np.random.default_rng(0))


def test_run_experiment_takes_the_arm_count_from_the_environment():
    config = small_config(PolicyKind.OR_TS, rounds=2)
    for arms in (2, 5):
        result = run_experiment(config, drift_environment(arms, 0.31, 0.30, 0.0))
        assert result.proportions.shape == result.true_p.shape == (2, arms)


def test_round_one_splits_evenly_and_later_rounds_keep_each_policys_rule():
    """Round 1 is an even split for every policy and draws nothing from the
    policy stream. Later, beta_ts always draws, while a logistic policy
    splits evenly as long as its scored coordinates are improper (here:
    after a first round without trials)."""
    p = ProbVector(np.array([0.3, 0.31, 0.29]))
    spec = RegimeSchedule(tuple((p, trials) for trials in (0, 100, 0, 5000)))
    runs = {
        kind: run_experiment(small_config(kind, seed=3, rounds=4, n_draws=1000), spec)
        for kind in PolicyKind
    }
    for result in runs.values():
        np.testing.assert_array_equal(result.proportions[0], np.full(3, 1 / 3))
    rng_policy = np.random.default_rng(np.random.SeedSequence(3).spawn(4)[3])
    expected = beta_ts_proportions(BetaState.uniform_prior(3), 1000, rng_policy)
    np.testing.assert_array_equal(runs[PolicyKind.BETA_TS].proportions[1], expected.p)
    np.testing.assert_array_equal(runs[PolicyKind.FULL_TS].proportions[1], np.full(3, 1 / 3))


def test_or_ts_draws_after_a_round_without_trials():
    """A round without trials leaves the odds-ratio belief flat only in the
    base-rate coordinate, which is scored as zero, so or_ts still draws
    from the proper law of the scored coordinates. That law is full_ts's
    here, since both saw the same counts: round 4 agrees with full_ts
    within Monte Carlo error, and is far from an even split. With every
    coordinate flat (round 2), both split evenly."""
    p = ProbVector(np.array([0.3, 0.31, 0.29]))
    spec = RegimeSchedule(tuple((p, trials) for trials in (0, 100, 0, 5000)))
    odds, full = (
        run_experiment(small_config(kind, seed=3, rounds=4, n_draws=1000), spec).proportions
        for kind in (PolicyKind.OR_TS, PolicyKind.FULL_TS)
    )
    np.testing.assert_array_equal(odds[1], np.full(3, 1 / 3))
    assert odds[3].max() > 0.9
    np.testing.assert_allclose(odds[3], full[3], atol=0.03)


def test_a_full_mode_round_sums_each_logit_belief_once(monkeypatch):
    """Proposing from a proper LogitBelief and then updating it reads its
    flat mask three times (the round step's properness check, the
    allocation's and the update's smoothing), but the exact sum behind
    the mask is taken once per belief."""
    data = RoundData(np.array([400, 500, 600]), np.array([120, 160, 170]))
    state = simulation._update(LogisticPolicyState.flat_start(3, UpdateMode.FULL), data)
    sums = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda values: sums.append(values) or fsum(values))
    simulation._propose(state, 1000, np.random.default_rng(5))
    simulation._update(state, data)
    assert sum(values is state.belief.logit_precision for values in sums) == 1


def test_regime_schedule_must_cover_all_rounds():
    config = small_config(PolicyKind.BETA_TS, rounds=3)
    spec = two_regime_schedule((0.03, 0.02, 0.02, 0.02), block_rounds=(1, 1), trials=1500)
    with pytest.raises(ConfigError):
        run_experiment(config, spec)


def test_same_seed_reproduces_run_exactly():
    config = small_config(PolicyKind.OR_TS)
    spec = drift_environment(4, 0.31, 0.30, 5.0)
    a = run_experiment(config, spec)
    b = run_experiment(config, spec)
    np.testing.assert_array_equal(a.allocated, b.allocated)
    np.testing.assert_array_equal(a.successes, b.successes)
    np.testing.assert_array_equal(a.true_p, b.true_p)


def test_policies_share_environment_within_a_replication():
    """Paired replications: the same seed gives every policy the same
    drift path, so true probabilities per round coincide across policies."""
    spec = drift_environment(4, 0.31, 0.30, 10.0)
    runs = {
        kind: run_experiment(small_config(kind), spec)
        for kind in (PolicyKind.BETA_TS, PolicyKind.FULL_TS, PolicyKind.OR_TS)
    }
    reference = runs[PolicyKind.BETA_TS].true_p
    assert reference.shape == (8, 4)
    for kind in (PolicyKind.FULL_TS, PolicyKind.OR_TS):
        np.testing.assert_array_equal(runs[kind].true_p, reference)


def test_run_replications_summary_shapes():
    config = small_config(PolicyKind.OR_TS, replications=4)
    spec = drift_environment(4, 0.31, 0.30, 0.0)
    policies = (PolicyKind.BETA_TS, PolicyKind.OR_TS)
    summary = run_replications(config, spec, policies=policies)
    assert summary.policies == policies
    with pytest.raises(ConfigError, match="field 'policy'"):
        summary.cumulative_regret("ucb")
    # A policy the summary did not run is a bad argument too, not a KeyError.
    for method in (summary.cumulative_regret, summary.mean_cumulative_regret,
                   summary.stderr_cumulative_regret, summary.total_expected_clicks):
        with pytest.raises(ConfigError, match="field 'policy' must be one of the summary's "
                                              r"policies \['beta_ts', 'or_ts'\], got 'full_ts'"):
            method(PolicyKind.FULL_TS)
    for kind in policies:
        cum = summary.cumulative_regret(kind)
        assert cum.shape == (4, 8)
        assert np.all(np.diff(cum, axis=1) >= -1e-9)
        assert summary.mean_cumulative_regret(kind).shape == (8,)
        assert summary.stderr_cumulative_regret(kind).shape == (8,)
        assert summary.total_expected_clicks(kind).shape == (4,)


def test_replications_stack_each_run_experiment_exactly():
    """Row r of a policy's columns is run_experiment at seed + r, bit for
    bit, and the click totals add each row left to right."""
    config = small_config(PolicyKind.OR_TS, replications=3)
    spec = drift_environment(4, 0.31, 0.30, 10.0)
    policies = (PolicyKind.BETA_TS, PolicyKind.FULL_TS, PolicyKind.OR_TS)
    summary = run_replications(config, spec, policies=policies)
    for kind in policies:
        regret, clicks = summary.regret[kind], summary.expected_clicks[kind]
        assert regret.shape == clicks.shape == (3, 8)
        totals = summary.total_expected_clicks(kind)
        for rep in range(3):
            single = run_experiment(replace(config, policy=kind, seed=config.seed + rep), spec)
            np.testing.assert_array_equal(regret[rep], single.regret)
            np.testing.assert_array_equal(clicks[rep], single.expected_clicks)
            assert totals[rep] == sum(clicks[rep].tolist())


def test_parallel_and_serial_replications_agree():
    config = small_config(PolicyKind.FULL_TS, replications=4)
    spec = drift_environment(4, 0.31, 0.30, 3.0)
    serial = run_replications(config, spec, policies=(PolicyKind.FULL_TS,), jobs=1)
    parallel = run_replications(config, spec, policies=(PolicyKind.FULL_TS,), jobs=3)
    np.testing.assert_array_equal(
        serial.cumulative_regret(PolicyKind.FULL_TS),
        parallel.cumulative_regret(PolicyKind.FULL_TS),
    )


def test_pool_never_exceeds_the_run_count(monkeypatch):
    """``jobs`` above the run count sizes the pool at the run count, and
    one run stays in this process; a serial stand-in records each pool."""
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(simulation, "ProcessPoolExecutor", SerialPool)
    spec = drift_environment(3, 0.31, 0.30, 0.0)
    config = small_config(PolicyKind.BETA_TS, rounds=2, replications=2)
    pooled = run_replications(config, spec, jobs=64)
    assert pools == [2]
    np.testing.assert_array_equal(pooled.regret[PolicyKind.BETA_TS],
                                  run_replications(config, spec).regret[PolicyKind.BETA_TS])
    run_replications(replace(config, replications=1), spec, jobs=64)
    assert pools == [2]


def test_simulation_error_names_the_failed_replication(monkeypatch):
    """The update fails in round 1 of the one replication whose round-1
    success counts are replication 2's: the error names that
    replication's seed, and keeps it through the pickling that brings it
    back from a pool worker."""
    config = small_config(PolicyKind.OR_TS, replications=3)
    spec = drift_environment(4, 0.31, 0.30, 0.0)
    first = [tuple(run_experiment(replace(config, rounds=1, seed=seed), spec).successes[0])
             for seed in range(config.seed, config.seed + 3)]
    assert first[2] not in first[:2]
    real_update = simulation.or_ts_update

    def failing_update(state, data):
        if state.round_index == 0 and tuple(data.c) == first[2]:
            raise CannotSampleError("forced")
        return real_update(state, data)

    monkeypatch.setattr(simulation, "or_ts_update", failing_update)
    with pytest.raises(SimulationError) as caught:
        run_replications(config, spec)
    for err in (caught.value, pickle.loads(pickle.dumps(caught.value))):
        assert type(err) is SimulationError
        assert (err.policy, err.round_index, err.seed) == ("or_ts", 1, 23)
        assert "policy or_ts failed at round 1 of the run with seed 23: forced" in str(err)


def test_stderr_uses_sample_standard_deviation():
    config = small_config(PolicyKind.BETA_TS, replications=3)
    spec = drift_environment(4, 0.31, 0.30, 0.0)
    summary = run_replications(config, spec, policies=(PolicyKind.BETA_TS,))
    cum = summary.cumulative_regret(PolicyKind.BETA_TS)
    expected = cum.std(axis=0, ddof=1) / np.sqrt(3)
    np.testing.assert_allclose(
        summary.stderr_cumulative_regret(PolicyKind.BETA_TS), expected, atol=1e-12
    )


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(PolicyKind.OR_TS, rounds=0)
    with pytest.raises(ValueError):
        small_config(PolicyKind.OR_TS, replications=0)
    with pytest.raises(ValueError):
        small_config(PolicyKind.OR_TS, seed=-1)
    for field, value in (("replications", 2.5), ("seed", 1.5), ("rounds", True), ("n_draws", "10")):
        with pytest.raises(ValueError, match=field):
            small_config(PolicyKind.OR_TS, **{field: value})
    config = small_config(PolicyKind.OR_TS, replications=np.int64(3), seed=np.uint32(21))
    for jobs in (0, 1.0):
        with pytest.raises(ValueError, match="jobs"):
            run_replications(config, drift_environment(4, 0.31, 0.30, 0.0), jobs=jobs)
    with pytest.raises(ConfigError, match="at least one policy"):
        run_replications(config, drift_environment(4, 0.31, 0.30, 0.0), policies=())
    with pytest.raises(ConfigError, match="field 'policies'"):
        run_replications(config, drift_environment(4, 0.31, 0.30, 0.0), policies=("ucb",))
    # A repeated policy would run twice and keep one of its two results.
    with pytest.raises(ConfigError, match=r"field 'policies' must not repeat a policy, "
                                          r"got \['or_ts', 'beta_ts', 'or_ts'\]"):
        run_replications(config, drift_environment(4, 0.31, 0.30, 0.0),
                         policies=[PolicyKind.OR_TS, PolicyKind.BETA_TS, PolicyKind.OR_TS])
    with pytest.raises(ConfigError, match="field 'policy' must be 'beta_ts', 'full_ts' or 'or_ts'"):
        small_config("ucb")
