"""Property checks for changing-arms experiments: random arm sequences,
and the reindexing and marginalization that carry beliefs between rounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbandit import (
    ArmRegistry,
    ContinuityError,
    ContinuousScenario,
    GaussianBelief,
    RoundData,
    ScenarioRound,
    UpdateMode,
    absorb_round,
    allocation_proportions,
    build_c_ind,
    compose_reindex,
    marginalize_keep,
    run_continuous,
    transform,
)

ARM_POOL = tuple("ABCDEF")
P = {arm: 0.2 + 0.03 * i for i, arm in enumerate(ARM_POOL)}

arm_sets = st.lists(st.sampled_from(ARM_POOL), min_size=1, max_size=5, unique=True)
modes = st.sampled_from(list(UpdateMode))
properties = settings(derandomize=True, deadline=None, max_examples=100)
seeds = st.integers(0, 2**32 - 1)
# perm[j] is the new position of the arm at position j; the last is the reference.
reindexes = st.integers(2, 5).flatmap(lambda k: st.permutations(range(k)))
reference_kept_last = st.integers(1, 5).flatmap(lambda m: st.permutations(range(m))).map(
    lambda perm: [*perm, len(perm)]
)


def counts(active):
    n = np.full(len(active), 60)
    return RoundData(n, np.arange(10, 10 + 5 * len(active), 5))


def random_belief(k, seed, flat=()):
    """A proper belief, or one flat along the given coordinates (arms never observed)."""
    rng = np.random.default_rng(seed)
    root = rng.normal(size=(k, k))
    precision = root @ root.T + 0.5 * np.eye(k)
    precision[list(flat), :] = 0.0
    precision[:, list(flat)] = 0.0
    return GaussianBelief(rng.normal(size=k), precision)


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


@properties
@given(perm=reindexes, seed=seeds)
def test_allocation_is_invariant_under_a_random_reindex(perm, seed):
    """Relabeling the arms, the reference included, permutes the law of the
    per-arm log odds exactly, and with it the Thompson allocation."""
    k = len(perm)
    belief = random_belief(k, seed)
    moved = transform(belief, compose_reindex(perm, k))
    to_logits = build_c_ind(k).entries
    np.testing.assert_allclose((to_logits @ moved.mean)[perm], to_logits @ belief.mean,
                               rtol=1e-9, atol=1e-12)
    covariance = to_logits @ moved.covariance() @ to_logits.T
    np.testing.assert_allclose(covariance[np.ix_(perm, perm)],
                               to_logits @ belief.covariance() @ to_logits.T,
                               rtol=1e-7, atol=1e-9)
    before = allocation_proportions(belief, 20_000, np.random.default_rng(seed))
    after = allocation_proportions(moved, 20_000, np.random.default_rng(seed))
    # Monte Carlo error of each difference is at most 0.005; allow six of it.
    np.testing.assert_allclose(after.p[perm], before.p, atol=0.03)


@properties
@given(perm=reference_kept_last, seed=seeds, data=st.data())
def test_marginalization_commutes_with_a_reindex_keeping_the_reference(perm, seed, data):
    """Marginalizing to a set of arms that includes the reference, then
    relabeling them, equals relabeling all arms, then marginalizing."""
    k = len(perm)
    keep = sorted(data.draw(st.sets(st.integers(0, k - 2)), label="kept")) + [k - 1]
    flat = data.draw(st.sets(st.integers(0, k - 2), max_size=1), label="flat")
    belief = random_belief(k, seed, flat)
    moved_keep = sorted(perm[i] for i in keep)
    sub_perm = [moved_keep.index(perm[i]) for i in keep]
    reindexed_first = marginalize_keep(transform(belief, compose_reindex(perm, k)), moved_keep)
    marginal_first = transform(marginalize_keep(belief, keep),
                               compose_reindex(sub_perm, len(keep)))
    np.testing.assert_allclose(reindexed_first.mean, marginal_first.mean, rtol=1e-12)
    np.testing.assert_allclose(reindexed_first.precision, marginal_first.precision,
                               rtol=1e-9, atol=1e-9)
