"""Exception types raised by the bandit engine, and the input rules that
raise ``ConfigError``.

There is one class per kind of fault. ``ConfigError`` is a bad argument;
``CannotSampleError``, ``OptimizationFailureError`` and
``ContinuityError`` are faults of the computation itself; and
``SimulationError`` names the run and the round in which it failed. So
whether an input was bad or a run failed is decided here, by the class
raised.

Every layer checks its inputs with the four rules kept here, next to the
error they raise, and each rule names the field it rejects:
``_check_count`` for integer counts and indices, ``_check_number`` for
real scalars, ``_check_choice`` for enum values, and ``_numbers`` for
numeric arrays. ``_frozen_numbers`` applies ``_numbers`` to a field of a
frozen dataclass and stores the read-only result in its place.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from numbers import Integral, Real

import numpy as np

__all__ = [
    "BanditError",
    "CannotSampleError",
    "OptimizationFailureError",
    "ContinuityError",
    "SimulationError",
    "ConfigError",
]


class BanditError(Exception):
    """Base class of every error the package raises."""


class CannotSampleError(BanditError):
    """The belief is improper (precision not positive definite), so it has
    no normalizable density to draw from."""


class OptimizationFailureError(BanditError):
    """The posterior-mode search did not converge.

    Carries the last iterate, its gradient infinity-norm, the last Newton
    decrement and the number of Newton iterations run, so callers can
    inspect how far the solve got.
    """

    def __init__(self, message: str, last_iterate, grad_norm: float,
                 decrement: float = math.nan, iterations: int = 0):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.grad_norm = float(grad_norm)
        self.decrement = float(decrement)
        self.iterations = int(iterations)

    def __reduce__(self):
        return (type(self), (self.args[0], self.last_iterate, self.grad_norm,
                             self.decrement, self.iterations))


class ContinuityError(BanditError):
    """The new round shares too few arms with an updated tracked set for the
    requested update (one for full-rank, two for odds-ratio), so the running
    experiment cannot absorb it without reinitializing."""


class SimulationError(BanditError):
    """A policy failed during a simulated experiment or a changing-arms
    scenario.

    Carries the policy name (a scenario's update mode), the 1-based round
    index where it failed and the seed of the failed run (a replication's
    own seed, or the scenario's), which reruns that run alone.
    """

    def __init__(self, policy: str, round_index: int, message: str, seed: int):
        super().__init__(
            f"policy {policy} failed at round {round_index} of the run with seed {seed}: {message}")
        self.policy = policy
        self.round_index = int(round_index)
        self.seed = int(seed)
        self._message = message

    def __reduce__(self):
        return (type(self), (self.policy, self.round_index, self._message, self.seed))


class ConfigError(BanditError, ValueError):
    """A bad argument: a field of a config, scenario or value type, or of
    the file it came from.

    It is a ``ValueError`` too, so ``except ValueError`` code keeps working.
    """


def _check_count(name: str, value, minimum: int):
    """Return ``value`` if it is an integer (bools excluded) of at least
    ``minimum`` that fits int64, as ``_numbers`` asks of count arrays;
    otherwise raise ``ConfigError`` naming the field."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigError(f"field '{name}' must be an integer, got {value!r}")
    if not minimum <= value <= np.iinfo(np.int64).max:
        raise ConfigError(f"field '{name}' must be >= {minimum} and fit int64, got {value}")
    return value


def _check_number(name: str, value, low: float, high: float = math.inf) -> float:
    """Return ``value`` as a float if it is a finite real number (bools
    excluded) within [low, high]; otherwise raise ``ConfigError`` naming
    the field."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigError(f"field '{name}' must be a number, got {value!r}")
    # The magnitude bound also rejects nan, infinities and integers too
    # large for a float.
    if not (low <= value <= high and abs(value) <= sys.float_info.max):
        raise ConfigError(f"field '{name}' must be finite and within [{low}, {high}], got {value}")
    return float(value)


def _check_choice(name: str, kind: type[Enum], value):
    """Return ``value`` as a member of the enum ``kind``; otherwise raise
    ``ConfigError`` naming the field and the values it takes."""
    try:
        return kind(value)
    except ValueError as exc:
        *others, last = (repr(member.value) for member in kind)
        raise ConfigError(
            f"field '{name}' must be {', '.join(others)} or {last}, got {value!r}"
        ) from exc


def _numbers(name: str, value, dtype=float, vector: bool = True) -> np.ndarray:
    """A read-only ``dtype`` copy of ``value``, flattened when ``vector``.

    The value must hold integers or floats (bools, strings and objects are
    rejected), every element must be finite and, for an integer ``dtype``,
    whole and within its range; otherwise ``ConfigError`` names the field.
    """
    try:
        array = np.asarray(value)
    except ValueError as exc:
        raise ConfigError(f"field '{name}' must be a rectangular array: {exc}") from exc
    kind = array.dtype.kind
    if kind not in "iuf":
        raise ConfigError(f"field '{name}' must hold integers or floats, got dtype {array.dtype}")
    if kind == "f" and not np.isfinite(array).all():
        raise ConfigError(f"field '{name}' must be finite")
    stored = array.astype(dtype)
    if kind == "f" and stored.dtype.kind != "f" and not np.array_equal(stored, array):
        raise ConfigError(f"field '{name}' must hold whole numbers that fit {stored.dtype}")
    if vector:
        stored = stored.reshape(-1)
    stored.setflags(write=False)
    return stored


def _frozen_numbers(owner, name: str, dtype=float, vector: bool = True) -> np.ndarray:
    """Check the field ``name`` of the frozen dataclass ``owner`` with
    ``_numbers``, store the result in its place and return it."""
    stored = _numbers(name, getattr(owner, name), dtype, vector)
    object.__setattr__(owner, name, stored)
    return stored
