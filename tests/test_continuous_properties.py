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
    compose_reindex,
    marginalize_keep,
    reanchor_reference,
    run_continuous,
    transform,
)
import oracles
from oracles import build_c_ind

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


def random_belief(k, seed, flat=(), rank=None):
    """A proper belief, or one flat along the given coordinates (arms never
    observed), or with a precision of the given rank."""
    rng = np.random.default_rng(seed)
    root = rng.normal(size=(k, k if rank is None else rank))
    precision = root @ root.T + (0.5 * np.eye(k) if rank is None else 0.0)
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


@pytest.mark.parametrize("flat", ["none", "base_rate", "arm"])
@settings(derandomize=True, deadline=None, max_examples=40)
@given(k=st.integers(2, 60), seed=seeds, data=st.data())
def test_reanchor_by_index_arithmetic_matches_the_dense_transform(flat, k, seed, data):
    """Moving the reference by row and column operations gives the dense
    transform's mean bit for bit, its precision within 1e-12 relative and
    the same properness, also with a flat base rate (as after an odds-ratio
    forget) or a flat arm other than the reference."""
    r = data.draw(st.integers(0, k - 2), label="new reference")
    flat_coordinates = {"none": [], "base_rate": [k - 1],
                        "arm": [data.draw(st.integers(0, k - 2), label="flat arm")]}[flat]
    belief = random_belief(k, seed, flat_coordinates)
    arms = tuple(f"arm{i}" for i in range(k))
    moved = reanchor_reference(ArmRegistry(arms, belief), arms[r])
    perm = [*range(r), k - 1, *range(r, k - 1)]
    dense = transform(belief, compose_reindex(perm, k))
    assert moved.arms == arms[:r] + arms[r + 1:] + (arms[r],)
    assert np.array_equal(moved.belief.mean, dense.mean)
    error = np.abs(moved.belief.precision - dense.precision).max()
    assert error <= 1e-12 * np.abs(dense.precision).max()
    assert moved.belief.is_proper() == dense.is_proper()


@pytest.mark.parametrize("shape", ["proper", "flat_dropped_row", "singular_dropped_block"])
@settings(derandomize=True, deadline=None, max_examples=40)
@given(k=st.integers(3, 30), seed=seeds, data=st.data())
def test_cholesky_marginal_matches_the_pseudo_inverse_marginal(shape, k, seed, data):
    """The marginal through a Cholesky factor of the dropped block matches
    the pseudo-inverse marginal within 1e-9 relative. A flat dropped row
    and a singular dropped block with no zero row both fail the factor and
    take the eigenpair fallback."""
    keep = sorted(data.draw(st.sets(st.integers(0, k - 1), min_size=1, max_size=k - 2),
                            label="kept"))
    drop = [i for i in range(k) if i not in keep]
    if shape == "proper":
        belief = random_belief(k, seed)
    elif shape == "flat_dropped_row":
        belief = random_belief(k, seed, [data.draw(st.sampled_from(drop), label="flat")])
    else:
        # A precision of rank below the dropped count, plus some precision
        # of the kept coordinates' own so that the marginal is not zero.
        low_rank = random_belief(k, seed, rank=data.draw(st.integers(1, len(drop) - 1),
                                                         label="rank"))
        precision = low_rank.precision.copy()
        precision[keep, keep] += 1.0
        belief = GaussianBelief(low_rank.mean, precision)
    marginal = marginalize_keep(belief, keep)
    expected = oracles.marginalize_keep(belief, keep)
    assert np.array_equal(marginal.mean, expected.mean)
    error = np.abs(marginal.precision - expected.precision).max()
    assert error <= 1e-9 * np.abs(belief.precision).max()
