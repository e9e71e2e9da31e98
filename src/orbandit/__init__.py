"""Batch Thompson sampling for binary rewards with odds-ratio posteriors.

The package implements three policies for batched A/B-style experiments:
classic Beta-Bernoulli Thompson sampling, a full-rank logistic model with
Gaussian (Laplace) posteriors, and an odds-ratio variant that keeps the
shared baseline diffuse so relative arm effects survive non-stationary
traffic.  A continuous-experiment layer carries beliefs across rounds with
changing arm sets, and a simulation harness with a CLI reproduces regret
comparisons between the policies.
"""

from .continuous import (
    ArmRegistry,
    Continuity,
    ContinuousResult,
    ContinuousScenario,
    RoundOutcome,
    RoundPlan,
    ScenarioRound,
    absorb_round,
    check_continuity,
    plan_round,
    reanchor_reference,
    run_continuous,
)
from .errors import (
    BanditError,
    CannotSampleError,
    ConfigError,
    ContinuityError,
    InvalidDimensionError,
    InvalidPermutationError,
    InvalidRoundError,
    InvalidTransformError,
    OptimizationFailureError,
    SimulationError,
    UnknownArmError,
)
from .gaussian_belief import (
    GaussianBelief,
    TransformMatrix,
    build_c_f,
    build_c_ind,
    compose_reindex,
    embed_flat_last,
    make_flat_belief,
    marginalize_drop_last,
    marginalize_keep,
    sample,
    transform,
)
from .logistic_model import (
    ProbVector,
    RoundData,
    fit_map,
    hessian_lambda,
    laplace_update,
    neg_log_posterior,
    probs_from_params,
)
from .policy import (
    AllocationProportions,
    BetaState,
    LogisticPolicyState,
    UpdateMode,
    allocation_proportions,
    beta_ts_proportions,
    beta_ts_update,
    full_ts_update,
    initial_proportions,
    or_ts_update,
)
from .simulation import (
    ExperimentConfig,
    ExperimentResult,
    LogitDrift,
    PolicyKind,
    RegimeSchedule,
    SimulationSummary,
    Stationary,
    allocate_trials,
    draw_rewards,
    drift_environment,
    env_step,
    run_experiment,
    run_replications,
    sigma_from_d,
    single_best_arm_logits,
    two_regime_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # beliefs
    "GaussianBelief",
    "TransformMatrix",
    "make_flat_belief",
    "build_c_ind",
    "build_c_f",
    "compose_reindex",
    "transform",
    "marginalize_keep",
    "marginalize_drop_last",
    "embed_flat_last",
    "sample",
    # logistic model
    "RoundData",
    "ProbVector",
    "probs_from_params",
    "neg_log_posterior",
    "hessian_lambda",
    "fit_map",
    "laplace_update",
    # policies
    "UpdateMode",
    "BetaState",
    "LogisticPolicyState",
    "AllocationProportions",
    "initial_proportions",
    "allocation_proportions",
    "full_ts_update",
    "or_ts_update",
    "beta_ts_update",
    "beta_ts_proportions",
    # continuous experiments
    "Continuity",
    "ArmRegistry",
    "RoundPlan",
    "ScenarioRound",
    "ContinuousScenario",
    "RoundOutcome",
    "ContinuousResult",
    "check_continuity",
    "reanchor_reference",
    "plan_round",
    "absorb_round",
    "run_continuous",
    # simulation
    "Stationary",
    "LogitDrift",
    "RegimeSchedule",
    "PolicyKind",
    "ExperimentConfig",
    "ExperimentResult",
    "SimulationSummary",
    "sigma_from_d",
    "env_step",
    "allocate_trials",
    "draw_rewards",
    "run_experiment",
    "run_replications",
    "single_best_arm_logits",
    "drift_environment",
    "two_regime_schedule",
    # errors
    "BanditError",
    "InvalidDimensionError",
    "InvalidPermutationError",
    "InvalidTransformError",
    "CannotSampleError",
    "OptimizationFailureError",
    "InvalidRoundError",
    "ContinuityError",
    "UnknownArmError",
    "SimulationError",
    "ConfigError",
]
