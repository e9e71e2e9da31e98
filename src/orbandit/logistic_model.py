"""Binomial likelihood in odds-ratio form and its Gaussian batch update.

A round of a K-arm experiment is summarized by per-arm trial and success
counts. The success probability of arm i < K is sigmoid(b_i + b_K) and the
reference arm's is sigmoid(b_K), so each b_i is the log odds ratio of arm i
against the reference and b_K carries the shared base rate. The posterior
after a round is approximated by a Gaussian centered at the posterior mode
with the curvature of the batch likelihood added to the prior precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ConfigError, OptimizationFailureError, _frozen_numbers, _numbers
from .gaussian_belief import GaussianBelief

__all__ = [
    "RoundData",
    "ProbVector",
    "probs_from_params",
    "neg_log_posterior",
    "hessian_lambda",
    "fit_map",
    "laplace_update",
]

# Convergence tolerance on the gradient infinity-norm of the mode search.
GRAD_TOL = 1e-10

# The mode search also stops once the Newton decrement -grad.step is this
# small, and when it ends without converging it still accepts the last
# iterate if the last decrement is below the looser bound. At large counts
# the gradient's rounding noise (about n * eps) sits far above GRAD_TOL,
# while the decrement is affine-invariant and still reaches the float floor.
DECREMENT_TOL = 1e-20
STALLED_DECREMENT_TOL = 1e-12

# A prior precision diagonal at or below this is treated as flat in that
# coordinate when deciding whether degenerate counts need smoothing.
FLAT_DIAG_TOL = 1e-10

MAX_NEWTON_ITER = 100
MAX_HALVINGS = 30

# Largest Newton step (infinity-norm) attempted in one iteration.
MAX_STEP_NORM = 100.0

# Clip probabilities into the open unit interval at the float64 boundary.
_P_LO = float(np.finfo(float).tiny)
_P_HI = float(np.nextafter(1.0, 0.0))


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


def _arm_logits(params: np.ndarray) -> np.ndarray:
    """Per-arm log odds: add the reference coordinate to every other one."""
    q = np.array(params, dtype=float).reshape(-1)
    q[:-1] += q[-1]
    return q


def probs_from_params(params) -> ProbVector:
    """Map a parameter vector to per-arm success probabilities.

    Overflow-safe for arbitrarily large parameters; results are clipped to
    the open unit interval at the float64 boundary.
    """
    params = _numbers("params", params)
    if params.size < 1:
        raise ConfigError("parameter vector must be non-empty")
    return ProbVector(np.clip(expit(_arm_logits(params)), _P_LO, _P_HI))


def _value_and_grad(
    mu: np.ndarray, n: np.ndarray, c: np.ndarray, prior: GaussianBelief
) -> tuple[float, np.ndarray]:
    """Negative log posterior (up to constants) and its gradient.

    The likelihood part is evaluated as n*softplus(q) - c*q per arm, which
    is exact and never overflows; the prior part is the quadratic form in
    the prior precision, which contributes nothing along flat directions.
    """
    q = _arm_logits(mu)
    softplus = np.logaddexp(0.0, q)
    diff = mu - prior.mean
    prior_pull = prior.precision @ diff
    value = float(np.sum(n * softplus - c * q) + 0.5 * diff @ prior_pull)
    residual = n * expit(q) - c
    grad = residual.copy()
    grad[-1] = residual.sum()
    grad += prior_pull
    return value, grad


def neg_log_posterior(mu, data: RoundData, prior: GaussianBelief) -> tuple[float, np.ndarray]:
    """Objective minimized by the posterior-mode search, with its gradient.

    Constant terms (binomial coefficients, the Gaussian normalizer) are
    dropped. An improper prior contributes only through directions where
    its precision is non-zero.
    """
    mu = _numbers("mu", mu)
    if mu.size != data.arms or mu.size != prior.dim:
        raise ConfigError(
            f"parameter length {mu.size}, data arms {data.arms}, prior dim {prior.dim} must agree"
        )
    return _value_and_grad(mu, data.n.astype(float), data.c.astype(float), prior)


def _curvature(mu: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Likelihood curvature at ``mu``: arrow pattern with per-arm weights
    n_i * p_i * (1 - p_i) on the diagonal and reference row/column, and the
    total weight in the corner."""
    p = expit(_arm_logits(mu))
    w = n * p * (1.0 - p)
    h = np.diag(w)
    h[:-1, -1] = w[:-1]
    h[-1, :-1] = w[:-1]
    h[-1, -1] = w.sum()
    return h


def hessian_lambda(mu, data: RoundData) -> np.ndarray:
    """Hessian of the round's negative log likelihood at ``mu``.

    Positive semidefinite always, and positive definite whenever every arm
    has at least one trial.
    """
    mu = _numbers("mu", mu)
    if mu.size != data.arms:
        raise ConfigError(
            f"parameter length {mu.size} does not match data arms {data.arms}"
        )
    return _curvature(mu, data.n.astype(float))


def _effective_counts(data: RoundData, prior: GaussianBelief) -> tuple[np.ndarray, np.ndarray]:
    """Counts actually used by the mode search.

    An arm whose observed counts are degenerate (all failures or all
    successes) has its maximizing log odds at infinity; when the prior is
    also flat in that arm's coordinate nothing tempers the divergence, so
    such arms get half a success and one extra trial. Arms with no trials
    are left untouched: they contribute no likelihood, and their flat
    directions are handled by the minimal-norm step in the solver.
    """
    n = data.n.astype(float)
    c = data.c.astype(float)
    flat = np.abs(np.diag(prior.precision)) <= FLAT_DIAG_TOL
    smooth = flat & (n >= 1.0) & ((c == 0.0) | (c == n))
    n = np.where(smooth, n + 1.0, n)
    c = np.where(smooth, c + 0.5, c)
    return n, c


def _newton_mode(n: np.ndarray, c: np.ndarray, prior: GaussianBelief) -> np.ndarray:
    """Damped Newton minimization of the negative log posterior.

    Starts at the prior mean, solves (curvature + prior precision) for the
    step, and halves the step until the objective decreases. Singular
    systems (flat directions with no data) fall back to the minimal-norm
    solution, which leaves those coordinates at the prior mean because
    their gradient is zero. Stops on a small gradient or a small Newton
    decrement.
    """
    mu = prior.mean.copy()
    value, grad = _value_and_grad(mu, n, c, prior)
    decrement = np.inf
    for _ in range(MAX_NEWTON_ITER):
        grad_norm = np.max(np.abs(grad))
        if grad_norm <= GRAD_TOL:
            return mu
        hess = _curvature(mu, n) + prior.precision
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        decrement = float(-grad @ step)
        if decrement <= DECREMENT_TOL:
            return mu
        # The likelihood saturates within a few tens of logits, so a longer
        # step only reflects a near-singular curvature; cap it to keep the
        # line search inside representable territory.
        step_norm = np.max(np.abs(step))
        if step_norm > MAX_STEP_NORM:
            step = step * (MAX_STEP_NORM / step_norm)
        # Accept on strict descent; once the value change is below the float
        # noise floor, accept on a gradient-norm drop instead (near the mode
        # Newton keeps shrinking the gradient after the value has saturated).
        noise = 16.0 * np.finfo(float).eps * (1.0 + abs(value))
        scale = 1.0
        improved = False
        for _ in range(MAX_HALVINGS + 1):
            candidate = mu + scale * step
            cand_value, cand_grad = _value_and_grad(candidate, n, c, prior)
            descent = cand_value < value
            polish = cand_value <= value + noise and np.max(np.abs(cand_grad)) < grad_norm
            if descent or polish:
                mu, value, grad = candidate, cand_value, cand_grad
                improved = True
                break
            scale *= 0.5
        if not improved:
            break
    grad_norm = float(np.max(np.abs(grad)))
    if grad_norm <= GRAD_TOL or decrement <= STALLED_DECREMENT_TOL:
        return mu
    raise OptimizationFailureError(
        f"mode search did not converge (gradient infinity-norm {grad_norm:.3e})",
        last_iterate=mu,
        grad_norm=grad_norm,
    )


def fit_map(data: RoundData, prior: GaussianBelief) -> np.ndarray:
    """Posterior mode of one round's counts under a Gaussian prior.

    With a fully flat prior and interior counts this is the closed-form
    per-arm log odds re-expressed against the reference arm.
    """
    if data.arms != prior.dim:
        raise ConfigError(
            f"data arms {data.arms} do not match prior dimension {prior.dim}"
        )
    n, c = _effective_counts(data, prior)
    return _newton_mode(n, c, prior)


def laplace_update(prior: GaussianBelief, data: RoundData) -> GaussianBelief:
    """Gaussian posterior approximation after absorbing one round.

    The mean is the posterior mode; the precision is the prior precision
    plus the likelihood curvature at that mode. A round with no trials
    leaves the belief unchanged.
    """
    if data.arms != prior.dim:
        raise ConfigError(
            f"data arms {data.arms} do not match prior dimension {prior.dim}"
        )
    n, c = _effective_counts(data, prior)
    mu = _newton_mode(n, c, prior)
    return GaussianBelief(mu, prior.precision + _curvature(mu, n))
