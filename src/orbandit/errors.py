"""Exception types raised by the bandit engine."""

from __future__ import annotations

__all__ = [
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


class BanditError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDimensionError(BanditError, ValueError):
    """A dimension or shape argument is inconsistent or out of range."""


class InvalidPermutationError(BanditError, ValueError):
    """A relabeling map is not a bijection on the arm positions."""


class InvalidTransformError(BanditError, ValueError):
    """A parameter transform matrix is not square or not invertible."""


class CannotSampleError(BanditError):
    """The belief is improper (precision not positive definite), so it has
    no normalizable density to draw from."""


class OptimizationFailureError(BanditError):
    """The posterior-mode search did not converge.

    Carries the last iterate and its gradient infinity-norm so callers can
    inspect how far the solve got.
    """

    def __init__(self, message: str, last_iterate, grad_norm: float):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.grad_norm = float(grad_norm)

    def __reduce__(self):
        return (type(self), (self.args[0], self.last_iterate, self.grad_norm))


class InvalidRoundError(BanditError, ValueError):
    """A round's inputs are malformed (empty arm set, mismatched counts,
    or a round index outside the schedule)."""


class ContinuityError(BanditError):
    """The new round shares too few arms with an updated tracked set for the
    requested update (one for full-rank, two for odds-ratio), so the running
    experiment cannot absorb it without reinitializing."""


class UnknownArmError(BanditError, ValueError):
    """An arm identifier is not present in the registry."""


class SimulationError(BanditError):
    """A policy failed during a simulated experiment.

    Carries the policy name and the 1-based round index where it failed.
    """

    def __init__(self, policy: str, round_index: int, message: str):
        super().__init__(f"policy {policy} failed at round {round_index}: {message}")
        self.policy = policy
        self.round_index = int(round_index)
        self._message = message

    def __reduce__(self):
        return (type(self), (self.policy, self.round_index, self._message))


class ConfigError(BanditError, ValueError):
    """A field of a library config or scenario, or of the file it was read
    from, failed validation."""
