"""The percentile rule, the host-speed scaling and the replication accounting."""

import numpy as np
import pytest

from orbandit import policy, simulation
from orbandit.errors import OptimizationFailureError
import harness
from workloads import POLICIES, WORKLOADS


@pytest.mark.parametrize("samples, expected", [(99, False), (100, True), (1000, True)])
def test_p90_needs_ten_samples_beyond(samples, expected):
    assert harness.enough_for_p90(samples) == expected


def test_ten_samples_lie_beyond_p90_of_one_hundred():
    values = np.random.default_rng(0).permutation(100).astype(float)
    assert np.sum(values > np.percentile(values, 90)) == 10


def test_timed_steps_are_scaled_by_the_probes_around_them():
    speed = harness.HostSpeed()
    ref = harness.PROBE_REFERENCE_S
    speed.starts, speed.ends = [0.9, 1.9, 2.9], [1.1, 2.1, 3.1]
    speed.costs = [ref, 2 * ref, ref]
    # Between two probes: their mean cost, 1.5 times the reference.
    assert speed.at_reference(1.2, 1.8) == pytest.approx(0.6 / 1.5)
    # Before the first probe or after the last: that probe alone.
    assert speed.at_reference(0.1, 0.3) == pytest.approx(0.2)
    assert speed.at_reference(3.5, 3.6) == pytest.approx(0.1)
    # A probe inside the interval is left out and splits it in two pieces.
    assert speed.at_reference(1.2, 2.6) == pytest.approx((0.7 + 0.5) / 1.5)
    assert speed.at_reference(0.5, 3.5) == pytest.approx(0.4 + 1.6 / 1.5 + 0.4)
    # A child's CPU time, timed while this process waited between probes.
    assert speed.at_reference(2.5, 2.5, seconds=0.9) == pytest.approx(0.9 / 1.5)
    assert speed.factor() == pytest.approx(1.0)


def test_mismatch_check_allows_rare_arms_and_catches_a_biased_sampler():
    # 5 wins in 10k draws against 0 in 50k: rare, but chance allows it.
    assert not harness.mismatched(np.array([9_995, 5]), 10_000, np.array([50_000, 0]), 50_000)
    assert not harness.mismatched(np.array([5_050, 4_950]), 10_000,
                                  np.array([25_000, 25_000]), 50_000)
    # A sampler that gives a fair coin's winner 55% of the time.
    assert harness.mismatched(np.array([5_500, 4_500]), 10_000,
                              np.array([25_000, 25_000]), 50_000)


def _injected(error: str):
    if error == "bandit":
        return OptimizationFailureError("injected", last_iterate=None, grad_norm=1.0)
    return ValueError("injected")


def _fail_second_update(original, error="bandit"):
    def update(state, data):
        if state.round_index == 1:
            raise _injected(error)
        return original(state, data)
    return update


@pytest.mark.parametrize("error", ["bandit", "other"])
def test_decision_loop_counts_every_replication_that_raised(monkeypatch, error):
    monkeypatch.setattr(policy, "or_ts_update", _fail_second_update(policy.or_ts_update, error))
    wl = WORKLOADS["desk_drift"].tiny()
    decisions = harness.decision_loop(wl, seed=5, budget_s=0.0, reps=4)
    acc = decisions.accounting
    assert decisions.passes == 4
    assert acc.attempted_by_policy == {p: 4 for p in POLICIES}
    assert acc.failed_by_policy == {"beta_ts": 0, "full_ts": 0, "or_ts": 4}
    # Only the first update of each failed replication was timed.
    assert len(decisions.latency["or_ts"]) == 4
    assert len(decisions.latency["full_ts"]) == 4 * wl.decision_rounds


def test_per_cell_study_counts_failed_cells(monkeypatch, tmp_path):
    monkeypatch.setattr(simulation, "or_ts_update", _fail_second_update(simulation.or_ts_update))
    wl = WORKLOADS["heavy_traffic"].tiny()
    study = harness.run_study(wl, seed=5, tmp=tmp_path)
    acc = study.accounting
    reps = wl.study_replications
    assert acc.attempted == len(POLICIES) * reps
    assert acc.failed_by_policy == {"beta_ts": 0, "full_ts": 0, "or_ts": reps}
    assert study.completed == 2 * reps
    # A failed cell still counts the rounds it finished before the raise.
    assert study.steps == 2 * reps * wl.study_rounds + reps * 1
    decisions = harness.decision_loop(wl, seed=5, budget_s=0.0, reps=1)
    assert harness._problems(wl, study, decisions, tiny=True) == []
    total = harness._totals(study, decisions)
    assert total.failed == reps


def test_study_that_raises_outside_bandit_errors_counts_all_its_replications(
        monkeypatch, tmp_path):
    monkeypatch.setattr(simulation, "or_ts_update",
                        _fail_second_update(simulation.or_ts_update, "other"))
    wl = WORKLOADS["desk_drift"].tiny()
    study = harness.run_study(wl, seed=5, tmp=tmp_path)
    acc = study.accounting
    # run_replications stops at the first raise, so the whole run failed.
    assert acc.attempted == acc.failed == len(POLICIES) * wl.study_replications
    assert study.completed == 0 and study.steps == 0
    decisions = harness.decision_loop(wl, seed=5, budget_s=0.0, reps=1)
    assert harness._problems(wl, study, decisions, tiny=True) == []


def test_study_is_probed_inside_its_cli_calls_and_the_hook_is_removed(tmp_path):
    original = simulation.env_step
    speed = harness.HostSpeed()
    study = harness.run_study(WORKLOADS["desk_drift"].tiny(), seed=5, tmp=tmp_path, speed=speed)
    assert simulation.env_step is original
    inside = [k for k, (start, end) in enumerate(zip(speed.starts, speed.ends))
              if any(a < start and end < b for a, b in study.intervals)]
    assert inside
