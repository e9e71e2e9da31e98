"""Running experiments whose arm set changes between rounds.

A registry tracks every arm seen so far, with the reference arm pinned to
the last parameter position. Each round the caller brings an arbitrary
active set: arms already tracked keep their accumulated belief, new arms
join with flat coordinates, and the reference is re-anchored whenever the
current one sits out the round. A round that shares fewer than two arms
with the tracked set cannot transfer any relative information, so the
registry either restarts from flat beliefs or, optionally, falls back to a
full-rank update, which needs only one shared arm.

Rounds are planned and absorbed through ``simulation``'s round step
(``_thompson``, ``_update``); this module maps arm ids onto its coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from numbers import Real
from typing import Hashable, Mapping, Sequence

import numpy as np

from .errors import (
    BanditError,
    ConfigError,
    ContinuityError,
    SimulationError,
    _check_choice,
    _check_count,
)
from .gaussian_belief import (
    GaussianBelief,
    LogitBelief,
    _embed_flat,
    _move_reference,
    marginalize_keep,
)
from .logistic_model import ProbVector, RoundData
from .policy import AllocationProportions, LogisticPolicyState, UpdateMode
from .simulation import _thompson, _update, allocate_trials, draw_rewards

__all__ = [
    "Continuity",
    "ArmRegistry",
    "RoundPlan",
    "check_continuity",
    "reanchor_reference",
    "plan_round",
    "absorb_round",
    "ScenarioRound",
    "ContinuousScenario",
    "RoundOutcome",
    "ContinuousResult",
    "run_continuous",
]

ArmId = Hashable

# Shared arms a round needs to extend an updated registry: a full-rank
# update carries absolute levels, an odds-ratio update only differences.
_SHARED_ARMS_NEEDED = {UpdateMode.FULL: 1, UpdateMode.ODDS_RATIO: 2}


class Continuity(Enum):
    """How a round relates to the running experiment: it extends the bandit,
    restarts it from flat beliefs, or keeps the tracked history through one
    full-rank update (the scenario's ``full_rank`` fallback)."""

    CONTINUE_BANDIT = "continue_bandit"
    REINITIALIZE = "reinitialize"
    FULL_RANK = "full_rank"


def _validated_active(active: Sequence[ArmId]) -> tuple[ArmId, ...]:
    active = tuple(active)
    if not active:
        raise ConfigError("a round must include at least one arm")
    if len(set(active)) != len(active):
        raise ConfigError(f"active arm identifiers must be unique, got {active!r}")
    return active


@dataclass(frozen=True)
class ArmRegistry:
    """Arms tracked so far, their joint belief, and the update count.

    ``arms`` fixes the parameter order; the reference arm is always the
    last position. A fresh registry, and a full-mode one, holds its arms'
    independent logits (``LogitBelief``), so re-anchoring, marginalizing
    and adding arms are index operations on K pairs; an updated
    odds-ratio registry, and one a ``full_rank`` fallback extends, holds a
    dense ``GaussianBelief``. The belief's type alone picks how a round is
    absorbed and decided, so a fixed arm set takes the bits of
    ``simulation``'s own round step in either mode. The registry is
    immutable: every operation returns a new one.
    """

    arms: tuple[ArmId, ...]
    belief: GaussianBelief | LogitBelief
    round: int = 0

    def __post_init__(self):
        arms = tuple(self.arms)
        if len(set(arms)) != len(arms):
            raise ConfigError(f"arm identifiers must be unique, got {arms!r}")
        if self.belief.dim != len(arms):
            raise ConfigError(
                f"belief dimension {self.belief.dim} does not match arm count {len(arms)}"
            )
        _check_count("round", self.round, 0)
        object.__setattr__(self, "arms", arms)

    @property
    def reference(self) -> ArmId | None:
        """Identifier of the reference arm, or None for an empty registry."""
        return self.arms[-1] if self.arms else None

    @classmethod
    def empty(cls) -> "ArmRegistry":
        return cls((), GaussianBelief(np.zeros(0), np.zeros((0, 0))), 0)

    @classmethod
    def fresh(cls, active: Sequence[ArmId]) -> "ArmRegistry":
        """New registry over the given arms with flat arm logits."""
        active = _validated_active(active)
        return cls(active, LogitBelief(np.zeros(len(active)), np.zeros(len(active))), 0)


@dataclass(frozen=True)
class RoundPlan:
    """Traffic shares for one round: ``proportions.p[i]`` goes to ``active[i]``."""

    active: tuple[ArmId, ...]
    proportions: AllocationProportions


def _shares_enough(registry: ArmRegistry, active: Sequence[ArmId], mode: UpdateMode) -> bool:
    """The continuity rule: enough tracked arms shared for a ``mode`` update."""
    return len(set(active) & set(registry.arms)) >= _SHARED_ARMS_NEEDED[mode]


def check_continuity(active: Sequence[ArmId], registry: ArmRegistry) -> Continuity:
    """Continue only when at least two active arms are already tracked.

    This is the odds-ratio rule: one anchor cannot order the arms competing
    this round. A full-rank update keeps absolute levels and can extend an
    updated registry through one shared arm (``absorb_round``);
    ``run_continuous`` takes that path only when the scenario opts in.
    """
    enough = _shares_enough(registry, _validated_active(active), UpdateMode.ODDS_RATIO)
    return Continuity.CONTINUE_BANDIT if enough else Continuity.REINITIALIZE


def _anchored(registry: ArmRegistry, active: Sequence[ArmId]) -> ArmRegistry:
    """Re-anchor to the first active arm in registry order when the reference sits out."""
    shared = [a for a in registry.arms if a in active]
    if not shared or registry.reference in shared:
        return registry
    return reanchor_reference(registry, shared[0])


def reanchor_reference(registry: ArmRegistry, new_reference: ArmId) -> ArmRegistry:
    """Move the reference role to another tracked arm.

    The arms are reordered so the new reference sits last (others keep
    their relative order) and the belief is re-expressed against it by
    index arithmetic (``_move_reference``), so per-arm probabilities are
    unchanged.
    """
    arms = registry.arms
    if new_reference not in arms:
        raise ConfigError(f"arm {new_reference!r} is not tracked")
    if registry.reference == new_reference:
        return registry
    r = arms.index(new_reference)
    new_arms = arms[:r] + arms[r + 1 :] + (new_reference,)
    return ArmRegistry(new_arms, _move_reference(registry.belief, r), registry.round)


def plan_round(
    registry: ArmRegistry,
    active: Sequence[ArmId],
    n_draws: int,
    rng: np.random.Generator,
) -> RoundPlan:
    """Split traffic between manual exploration and Thompson sampling.

    Every active arm starts at a manual 1/|active| share. The tracked
    active arms (``keep``) then take |keep|/|active| of the traffic, split
    by the Thompson winner frequencies of the belief marginalized to
    exactly them (re-anchored first if the reference sits out), which
    ``allocation_proportions`` decides by the marginal's type alone. While
    that marginal's scored coordinates, all but the reference's base rate,
    are improper, every active arm keeps 1/|active|.
    """
    _check_count("n_draws", n_draws, 1)
    active = _validated_active(active)
    working = _anchored(registry, active)
    m = len(active)
    shares = dict.fromkeys(active, 1.0 / m)
    keep = [i for i, a in enumerate(working.arms) if a in shares]
    if keep:
        base = _thompson(marginalize_keep(working.belief, keep), n_draws, rng)
        if base is not None:
            shares.update((working.arms[i], len(keep) / m * w) for i, w in zip(keep, base.p))
    return RoundPlan(active, AllocationProportions(np.array(list(shares.values()))))


def absorb_round(
    registry: ArmRegistry,
    active: Sequence[ArmId],
    data: RoundData,
    mode: UpdateMode,
) -> ArmRegistry:
    """Fold one round of counts into the registry.

    New arms are inserted immediately before the reference position with
    flat coordinates, arms sitting out the round contribute zero counts,
    and the reference is re-anchored into the overlap when it sits out.
    A registry that has never been updated absorbs any round; otherwise
    the round must share at least one tracked arm for a full-rank update
    and two for an odds-ratio update, or ``ContinuityError`` is raised.
    """
    active = _validated_active(active)
    mode = _check_choice("mode", UpdateMode, mode)
    if data.arms != len(active):
        raise ConfigError(f"count vectors cover {data.arms} arms but the round has {len(active)}")
    if registry.round > 0 and not _shares_enough(registry, active, mode):
        raise ContinuityError(f"a {mode.value} update needs {_SHARED_ARMS_NEEDED[mode]} arm(s) "
                              "shared with the tracked set; reinitialize instead")
    working = _anchored(registry, active)
    tracked = set(working.arms)
    new_arms = tuple(a for a in active if a not in tracked)
    arms = working.arms[:-1] + new_arms + working.arms[-1:]
    belief = working.belief
    if new_arms:
        belief = _embed_flat(belief, [i for i, a in enumerate(arms) if a in tracked], len(arms))
    where = [arms.index(a) for a in active]
    n_full = np.zeros(len(arms), dtype=np.int64)
    c_full = np.zeros(len(arms), dtype=np.int64)
    n_full[where], c_full[where] = data.n, data.c
    state = _update(LogisticPolicyState(belief, mode, working.round), RoundData(n_full, c_full))
    return ArmRegistry(arms, state.belief, working.round + 1)


@dataclass(frozen=True)
class ScenarioRound:
    """One round of a scripted changing-arms experiment."""

    active: tuple[ArmId, ...]
    p: Mapping[ArmId, float]
    trials: int

    def __post_init__(self):
        active = _validated_active(self.active)
        object.__setattr__(self, "active", active)
        object.__setattr__(self, "p", dict(self.p))
        for arm, value in self.p.items():
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ConfigError(f"field 'p' for arm {arm!r} must be a number, got {value!r}")
        for arm in active:
            if arm not in self.p:
                raise ConfigError(f"field 'p' has no entry for arm {arm!r}")
            if not 0.0 < self.p[arm] < 1.0:
                raise ConfigError(f"field 'p' for arm {arm!r} must be in (0, 1), got {self.p[arm]}")
        _check_count("trials", self.trials, 0)


@dataclass(frozen=True)
class ContinuousScenario:
    """A scripted sequence of rounds with possibly changing arm sets."""

    rounds: tuple[ScenarioRound, ...]
    mode: UpdateMode = UpdateMode.ODDS_RATIO
    seed: int = 0
    n_draws: int = 10_000
    on_break: str = "reinitialize"

    def __post_init__(self):
        object.__setattr__(self, "rounds", tuple(self.rounds))
        object.__setattr__(self, "mode", _check_choice("mode", UpdateMode, self.mode))
        if not self.rounds:
            raise ConfigError("scenario must contain at least one round")
        if not all(isinstance(entry, ScenarioRound) for entry in self.rounds):
            raise ConfigError("field 'rounds' must hold ScenarioRound entries")
        _check_count("seed", self.seed, 0)
        _check_count("n_draws", self.n_draws, 1)
        if self.on_break not in ("reinitialize", "full_rank"):
            raise ConfigError(
                f"field 'on_break' must be 'reinitialize' or 'full_rank', got {self.on_break!r}"
            )


@dataclass(frozen=True)
class RoundOutcome:
    """What happened in one executed scenario round."""

    round: int
    decision: Continuity
    plan: RoundPlan
    allocated: np.ndarray
    successes: np.ndarray
    true_p: np.ndarray


@dataclass(frozen=True)
class ContinuousResult:
    rounds: tuple[RoundOutcome, ...] = field(default_factory=tuple)
    registry: ArmRegistry = field(default_factory=ArmRegistry.empty)


def run_continuous(scenario: ContinuousScenario) -> ContinuousResult:
    """Execute a scripted changing-arms experiment end to end.

    Each round: decide continuity, reinitialize if required (or fall back
    to one full-rank update through the overlap when the scenario opts
    in), re-anchor, plan traffic, draw rewards, and absorb the counts.
    Deterministic for a fixed scenario seed, with separate streams for
    allocation noise, rewards, and policy sampling. An error inside round N
    is raised as ``SimulationError`` naming the round's update mode, N and
    the scenario's seed.
    """
    streams = np.random.SeedSequence(scenario.seed).spawn(3)
    rng_alloc, rng_reward, rng_policy = (np.random.default_rng(s) for s in streams)
    registry = ArmRegistry.empty()
    outcomes = []
    for index, rnd in enumerate(scenario.rounds, start=1):
        mode = scenario.mode
        try:
            decision = check_continuity(rnd.active, registry)
            if decision is Continuity.REINITIALIZE:
                if (scenario.on_break == "full_rank" and registry.round > 0
                        and _shares_enough(registry, rnd.active, UpdateMode.FULL)):
                    decision, mode = Continuity.FULL_RANK, UpdateMode.FULL
                else:
                    registry = ArmRegistry.fresh(rnd.active)
            registry = _anchored(registry, rnd.active)
            plan = plan_round(registry, rnd.active, scenario.n_draws, rng_policy)
            allocated = allocate_trials(plan.proportions, rnd.trials, rng_alloc)
            # A round's p may hold any real number, a Fraction included.
            true_p = ProbVector([float(rnd.p[a]) for a in rnd.active])
            successes = draw_rewards(allocated, true_p, rng_reward)
            registry = absorb_round(registry, rnd.active, RoundData(allocated, successes), mode)
        except BanditError as exc:
            raise SimulationError(mode.value, index, str(exc), scenario.seed) from exc
        outcomes.append(RoundOutcome(index, decision, plan, allocated, successes, true_p.p))
    return ContinuousResult(tuple(outcomes), registry)
