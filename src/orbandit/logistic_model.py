"""Binomial likelihood in odds-ratio form and its Gaussian batch update.

A round of a K-arm experiment is summarized by per-arm trial and success
counts. The success probability of arm i < K is sigmoid(b_i + b_K) and the
reference arm's is sigmoid(b_K), so each b_i is the log odds ratio of arm i
against the reference and b_K carries the shared base rate. The posterior
after a round is approximated by a Gaussian centered at the posterior mode
with the curvature of the batch likelihood added to the prior precision.
One likelihood evaluation per Newton iterate serves its step, its Hessian
and, at the mode, the posterior curvature.

In the arm logits η_j the likelihood separates, so a prior with
independent logits (``LogitBelief``) keeps them independent:
``logit_update`` finds each arm's mode by its own scalar search, all arms
at once, with no linear solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ConfigError, OptimizationFailureError, _frozen_numbers
from .gaussian_belief import GaussianBelief, LogitBelief, _flat_logits, _zero_floor

__all__ = [
    "RoundData",
    "ProbVector",
    "laplace_update",
    "logit_update",
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

# A per-arm logit search stops once its Newton step is within this
# fraction of 1 + |η|.
_LOGIT_STEP_TOL = 1e-13


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
    return _smoothed(n, c, np.abs(prior.precision.diagonal()) <= _zero_floor(prior.precision))


def _smoothed(n: np.ndarray, c: np.ndarray, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The counts with half a success and one trial added to each arm in
    the mask ``flat`` whose counts are degenerate."""
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


def _logit_modes(mean: np.ndarray, precision: np.ndarray, n: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Each arm's mode of ½D(η − m)² + n softplus(η) − cη, for logit
    prior means m and precisions D; an arm without trials keeps m.

    The derivative g(η) = D(η − m) + (n − c)σ(η) − cσ(−η) increases, with
    slope h(η) = D + nσ(η)σ(−η), and its terms are each non-negative
    before their signs, so it keeps its digits at any count. Its root lies
    between m, where the prior term vanishes, and the data's logit
    ℓ = log(c / (n − c)), where the likelihood term does, and within
    [m − (n − c)/D, m + c/D], since the likelihood term lies within
    [−c, n − c]. For an arm with trials that bracket is finite: a flat arm
    (D = 0) has 0 < c < n once ``_smoothed``. The search starts at the
    precision-weighted mean of m and ℓ, (Dm + wℓ)/(D + w) with the data's
    curvature w = n s(1 − s) at s = c/n (at m when ℓ is infinite), and
    takes Newton steps, all arms at once, each arm stopping on its own
    once a step is within ``_LOGIT_STEP_TOL`` of 1 + |η|. Each point where
    g's sign is known narrows its arm's bracket, and a step that would
    leave the bracket, or that is not below half the step before the last,
    bisects it instead (Press et al.'s ``rtsafe``), so every search
    converges: Newton alone can cycle across the root of a saturating
    likelihood far from a strong prior.
    """
    modes = mean.copy()
    (arms,) = np.nonzero(n > 0.0)
    m, d, n, c = mean[arms], precision[arms], n[arms], c[arms]
    # A NaN or infinite step bisects; no warning is wanted for it.
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(c) - np.log(n - c)
        lower = np.maximum(np.fmin(m, data), m - (n - c) / d)
        upper = np.minimum(np.fmax(m, data), m + c / d)
        share = c / n
        weight = n * share * (1.0 - share)
        eta = np.clip(np.where(np.isfinite(data), (d * m + weight * data) / (d + weight), m),
                      lower, upper)
        # The last step and the one before it, both the bracket at first.
        older = upper - lower
        last = older.copy()
        todo = np.arange(arms.size)
        for iterations in range(1, MAX_NEWTON_ITER + 1):
            x, dk, mk, nk, ck = eta[todo], d[todo], m[todo], n[todo], c[todo]
            up, down = expit(x), expit(-x)
            grad = dk * (x - mk) + (nk - ck) * up - ck * down
            step = -grad / (dk + nk * up * down)
            low = lower[todo] = np.where(grad < 0.0, x, lower[todo])
            high = upper[todo] = np.where(grad > 0.0, x, upper[todo])
            done = np.abs(step) <= _LOGIT_STEP_TOL * (1.0 + np.abs(x))
            new = x + step
            # Written so that a NaN step bisects.
            bisect = ~done & ~((new > low) & (new < high) & (np.abs(step) <= 0.5 * older[todo]))
            new[bisect] = 0.5 * (low[bisect] + high[bisect])
            eta[todo] = new
            older[todo], last[todo] = last[todo], np.abs(new - x)
            todo = todo[~done]
            if not todo.size:
                modes[arms] = eta
                return modes
    modes[arms] = eta
    raise OptimizationFailureError(
        f"logit mode search did not converge after {iterations} Newton iterations "
        f"({todo.size} arms left)", modes, float(np.abs(grad[~done]).max()), math.nan, iterations)


def logit_update(prior: LogitBelief, data: RoundData) -> LogitBelief:
    """``laplace_update`` for a prior with independent arm logits.

    Each arm's logit mode is found alone (``_logit_modes``), and its
    precision becomes D + n σ(η)σ(−η) there. An arm whose counts are
    degenerate gets ``_smoothed`` when its logit is flat
    (``_flat_logits``): the same rule as the dense update's, with the
    reference's flatness read from its own precision rather than from the
    corner of the odds-ratio precision. A round with no trials leaves the
    belief unchanged.
    """
    if data.arms != prior.dim:
        raise ConfigError(f"data arms {data.arms} do not match prior dimension {prior.dim}")
    n, c = _smoothed(data.n.astype(float), data.c.astype(float), _flat_logits(prior))
    modes = _logit_modes(prior.logit_mean, prior.logit_precision, n, c)
    return LogitBelief(modes, prior.logit_precision + n * expit(modes) * expit(-modes))
