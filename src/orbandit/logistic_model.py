"""Binomial likelihood in odds-ratio form and its Gaussian batch update.

A round of a K-arm experiment is summarized by per-arm trial and success
counts. The success probability of arm i < K is sigmoid(b_i + b_K) and the
reference arm's is sigmoid(b_K), so each b_i is the log odds ratio of arm i
against the reference and b_K carries the shared base rate. The posterior
after a round is approximated by a Gaussian centered at the posterior mode
with the curvature of the batch likelihood added to the prior precision.
One likelihood evaluation per Newton iterate serves its step, its Hessian
and, at the mode, the posterior curvature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ConfigError, OptimizationFailureError, _frozen_numbers
from .gaussian_belief import GaussianBelief, _zero_floor

__all__ = [
    "RoundData",
    "ProbVector",
    "laplace_update",
]

# Convergence tolerance on the gradient infinity-norm of the mode search.
GRAD_TOL = 1e-10

# The mode search also stops once the Newton decrement -grad.step is this
# small: at large counts the gradient's rounding noise (about n * eps) sits
# far above GRAD_TOL, while the affine-invariant decrement still reaches the
# float floor. A stalled search accepts a decrement within _NOISE_FLOOR.
DECREMENT_TOL = 1e-20

MAX_NEWTON_ITER = 100
MAX_HALVINGS = 30

# Largest Newton step (infinity-norm) attempted in one iteration.
MAX_STEP_NORM = 100.0

# The objective's float noise relative to 1 + |value|: line-search slack and stall bound.
_NOISE_FLOOR = 16.0 * np.finfo(float).eps


@dataclass(frozen=True)
class RoundData:
    """Per-arm trial counts ``n`` and success counts ``c`` for one round."""

    n: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        n = _frozen_numbers(self, "n", np.int64)
        c = _frozen_numbers(self, "c", np.int64)
        if n.size < 1 or n.shape != c.shape:
            raise ConfigError(
                f"count vectors must be non-empty and equal length, got {n.shape} and {c.shape}"
            )
        if np.any(n < 0) or np.any(c < 0) or np.any(c > n):
            raise ConfigError("counts must satisfy 0 <= c_i <= n_i")

    @property
    def arms(self) -> int:
        return self.n.size


@dataclass(frozen=True)
class ProbVector:
    """Per-arm success probabilities, each strictly inside (0, 1)."""

    p: np.ndarray

    def __post_init__(self):
        p = _frozen_numbers(self, "p")
        if p.size < 1:
            raise ConfigError("probability vector must be non-empty")
        if not np.all((p > 0.0) & (p < 1.0)):
            raise ConfigError("probabilities must lie strictly inside (0, 1)")

    @property
    def arms(self) -> int:
        return self.p.size


def _evaluate(mu: np.ndarray, n: np.ndarray, c: np.ndarray, prior: GaussianBelief):
    """Negative log posterior (up to constants), its gradient and the
    per-arm success probabilities at ``mu``.

    The per-arm log odds add the reference coordinate to every other one.
    The likelihood part, c*softplus(-q) + (n-c)*softplus(q) per arm, equals
    n*softplus(q) - c*q but sums non-negative terms, so it does not cancel at
    large counts and ``_NOISE_FLOOR`` bounds its rounding. The prior part is
    the quadratic form in the prior precision, zero along flat directions.
    """
    q = mu.copy()
    q[:-1] += q[-1]
    diff = mu - prior.mean
    prior_pull = prior.precision @ diff
    likelihood = c * np.logaddexp(0.0, -q) + (n - c) * np.logaddexp(0.0, q)
    value = float(np.add.reduce(likelihood) + 0.5 * diff @ prior_pull)
    p = expit(q)
    grad = n * p - c
    grad[-1] = np.add.reduce(grad)
    grad += prior_pull
    return value, grad, p


def _hessian(p: np.ndarray, n: np.ndarray, precision: np.ndarray) -> np.ndarray:
    """``precision`` plus the likelihood curvature at success probabilities
    ``p``: an arrow with per-arm weights n_i * p_i * (1 - p_i) on the
    diagonal and reference row/column, and the total weight in the corner."""
    w = n * p * (1.0 - p)
    h = np.diag(w)
    h[:-1, -1] = w[:-1]
    h[-1, :-1] = w[:-1]
    h[-1, -1] = np.add.reduce(w)
    h += precision
    return h


def _effective_counts(data: RoundData, prior: GaussianBelief) -> tuple[np.ndarray, np.ndarray]:
    """Counts actually used by the mode search.

    An arm whose observed counts are degenerate (all failures or all
    successes) has its maximizing log odds at infinity; when the prior is
    also flat in that arm's coordinate (within its ``_zero_floor``) nothing
    tempers the divergence, so such arms get half a success and one extra
    trial. Arms with no trials are left untouched: they contribute no
    likelihood, and their flat directions are handled by the minimal-norm
    step in the solver.
    """
    n, c = data.n.astype(float), data.c.astype(float)
    flat = np.abs(prior.precision.diagonal()) <= _zero_floor(prior.precision)
    if not flat.any():
        return n, c
    smooth = flat & (n >= 1.0) & ((c == 0.0) | (c == n))
    return np.where(smooth, n + 1.0, n), np.where(smooth, c + 0.5, c)


def _newton_mode(n: np.ndarray, c: np.ndarray, prior: GaussianBelief):
    """Damped Newton minimization of the negative log posterior; returns
    the mode and its per-arm success probabilities.

    Starts at the prior mean, solves (curvature + prior precision) for the
    step, and halves the step until the objective decreases. Singular
    systems (flat directions with no data) fall back to the minimal-norm
    solution, which leaves those coordinates at the prior mean because
    their gradient is zero. Stops on a small gradient or a small Newton
    decrement, or, out of iterations or halvings, on a decrement within the
    objective's float noise. One likelihood evaluation per candidate gives
    its value, gradient and probabilities; the accepted iterate's
    probabilities serve the next step's Hessian and, at the mode, the
    posterior curvature.
    """
    mu = prior.mean.copy()
    value, grad, p = _evaluate(mu, n, c, prior)
    grad_norm = np.maximum.reduce(np.abs(grad))
    decrement = np.inf
    iterations = 0
    for iterations in range(1, MAX_NEWTON_ITER + 1):
        if grad_norm <= GRAD_TOL:
            return mu, p
        hess = _hessian(p, n, prior.precision)
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        decrement = float(-grad @ step)
        if decrement <= DECREMENT_TOL:
            return mu, p
        # The likelihood saturates within a few tens of logits, so a longer
        # step only reflects a near-singular curvature; cap it to keep the
        # line search inside representable territory.
        step_norm = np.maximum.reduce(np.abs(step))
        if step_norm > MAX_STEP_NORM:
            step = step * (MAX_STEP_NORM / step_norm)
        # Accept on strict descent; once the value change is below the float
        # noise floor, accept on a gradient-norm drop instead (near the mode
        # Newton keeps shrinking the gradient after the value has saturated).
        noise = _NOISE_FLOOR * (1.0 + abs(value))
        scale = 1.0
        for _ in range(MAX_HALVINGS + 1):
            candidate = mu + scale * step
            cand_value, cand_grad, cand_p = _evaluate(candidate, n, c, prior)
            if cand_value <= value + noise:
                cand_norm = np.maximum.reduce(np.abs(cand_grad))
                if cand_value < value or cand_norm < grad_norm:
                    mu, value, grad, p, grad_norm = candidate, cand_value, cand_grad, cand_p, cand_norm
                    break
            scale *= 0.5
        else:
            break
    if grad_norm <= GRAD_TOL or decrement <= _NOISE_FLOOR * (1.0 + abs(value)):
        return mu, p
    raise OptimizationFailureError(
        f"mode search did not converge after {iterations} Newton iterations (gradient "
        f"infinity-norm {grad_norm:.3e}, Newton decrement {decrement:.3e})",
        mu, grad_norm, decrement, iterations)


def laplace_update(prior: GaussianBelief, data: RoundData) -> GaussianBelief:
    """Gaussian posterior approximation after absorbing one round.

    The mean is the posterior mode; the precision is the prior precision
    plus the likelihood curvature at that mode, from the mode search's
    last likelihood evaluation. A round with no trials leaves the belief
    unchanged.
    """
    if data.arms != prior.dim:
        raise ConfigError(f"data arms {data.arms} do not match prior dimension {prior.dim}")
    n, c = _effective_counts(data, prior)
    mu, p = _newton_mode(n, c, prior)
    return GaussianBelief(mu, _hessian(p, n, prior.precision))
