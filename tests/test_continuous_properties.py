"""Property checks for changing-arms experiments over random arm sequences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbandit import (
    ArmRegistry,
    ContinuityError,
    ContinuousScenario,
    RoundData,
    ScenarioRound,
    UpdateMode,
    absorb_round,
    run_continuous,
)

ARM_POOL = tuple("ABCDEF")
P = {arm: 0.2 + 0.03 * i for i, arm in enumerate(ARM_POOL)}

arm_sets = st.lists(st.sampled_from(ARM_POOL), min_size=1, max_size=5, unique=True)
modes = st.sampled_from(list(UpdateMode))
properties = settings(derandomize=True, deadline=None, max_examples=100)


def counts(active):
    n = np.full(len(active), 60)
    return RoundData(n, np.arange(10, 10 + 5 * len(active), 5))


@properties
@given(
    rounds=st.lists(arm_sets, min_size=1, max_size=5),
    mode=modes,
    on_break=st.sampled_from(["reinitialize", "full_rank"]),
)
def test_random_changing_arm_scenarios_complete(rounds, mode, on_break):
    scenario = ContinuousScenario(
        tuple(ScenarioRound(tuple(active), P, 300) for active in rounds),
        mode=mode, seed=3, n_draws=200, on_break=on_break,
    )
    result = run_continuous(scenario)
    assert len(result.rounds) == len(rounds)
    for outcome in result.rounds:
        assert outcome.plan.proportions.p.sum() == pytest.approx(1.0)
    assert set(rounds[-1]) <= set(result.registry.arms)


@properties
@given(tracked=st.one_of(st.none(), arm_sets), updated=st.booleans(), active=arm_sets, mode=modes)
def test_absorb_round_raises_exactly_when_too_few_arms_are_shared(tracked, updated, active, mode):
    """A registry that was never updated absorbs any round; an updated one
    needs one shared arm for a full-rank update and two for odds-ratio."""
    if tracked is None:
        registry = ArmRegistry.empty()
    elif updated:
        registry = absorb_round(ArmRegistry.empty(), tracked, counts(tracked), mode)
    else:
        registry = ArmRegistry.fresh(tracked)
    needed = {UpdateMode.FULL: 1, UpdateMode.ODDS_RATIO: 2}[mode]
    shared = set(active) & set(registry.arms)
    if registry.round > 0 and len(shared) < needed:
        with pytest.raises(ContinuityError):
            absorb_round(registry, active, counts(active), mode)
    else:
        absorbed = absorb_round(registry, active, counts(active), mode)
        assert absorbed.round == registry.round + 1
        assert set(absorbed.arms) == set(registry.arms) | set(active)
