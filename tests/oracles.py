"""Independent reference implementations used to check the package.

Everything here is deliberately written from first principles — dense
matrices, finite differences, grid quadrature — rather than reusing the
package's own formulas, so agreement is evidence and not tautology. The
exceptions are the two full-draw allocation functions, which check the
screen and the tally: the Gaussian one is the package's allocation before
it screened arms or drew in blocks, and the Beta one draws each arm's
column, chunk by chunk, with the package's own ``_beta_column`` into one
full matrix.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from orbandit import AllocationProportions, BetaState, GaussianBelief, sample
from orbandit.errors import _check_count
from orbandit.policy import _BETA_CHUNK, _beta_column

__all__ = [
    "allocation_proportions",
    "arm_logit_matrix",
    "backsolve_sample",
    "backsolve_winner_counts",
    "beta_ts_proportions",
    "dense_objective",
    "fd_gradient",
    "fd_hessian",
    "grid_allocation_probs",
]


def arm_logit_matrix(k: int) -> np.ndarray:
    """Dense matrix sending odds-ratio parameters to per-arm logits."""
    matrix = np.eye(k)
    matrix[:, -1] = 1.0
    return matrix


def dense_objective(n, c, prior_mean=None, prior_precision=None):
    """Scalar negative log posterior built from dense primitives.

    Returns a callable f(mu). With no prior arguments the prior term is
    omitted (flat prior).
    """
    n = np.asarray(n, dtype=float)
    c = np.asarray(c, dtype=float)
    matrix = arm_logit_matrix(len(n))

    def objective(mu: np.ndarray) -> float:
        q = matrix @ np.asarray(mu, dtype=float)
        value = float(np.sum(n * np.logaddexp(0.0, q) - c * q))
        if prior_precision is not None:
            diff = np.asarray(mu, dtype=float) - np.asarray(prior_mean, dtype=float)
            value += 0.5 * float(diff @ np.asarray(prior_precision, dtype=float) @ diff)
        return value

    return objective


def fd_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (f(x + step) - f(x - step)) / (2.0 * h)
    return grad


def fd_hessian(f, x: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Central-difference Hessian of a scalar function.

    Diagonal entries use the three-point second difference; off-diagonals
    use the four-point cross difference. Only f itself is evaluated, so
    this is independent of any analytic gradient.
    """
    x = np.asarray(x, dtype=float)
    k = x.size
    hess = np.zeros((k, k))
    f0 = f(x)
    for i in range(k):
        ei = np.zeros(k)
        ei[i] = h
        hess[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / (h * h)
        for j in range(i + 1, k):
            ej = np.zeros(k)
            ej[j] = h
            cross = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * h * h)
            hess[i, j] = cross
            hess[j, i] = cross
    return hess


def grid_allocation_probs(mean: np.ndarray, cov: np.ndarray, n_points: int = 1201,
                          half_width: float = 8.0) -> np.ndarray:
    """Probability that each of three arms has the top sampled score.

    The third arm is the reference with score fixed at zero, so only the
    bivariate marginal of the first two parameters matters:
    p1 = P(b1 > b2, b1 > 0), p2 = P(b2 > b1, b2 > 0), p3 the complement.
    Computed by midpoint quadrature of the bivariate normal density on a
    rectangle of +/- half_width standard deviations per axis, renormalized
    by the grid's total mass to remove truncation bias.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    sd = np.sqrt(np.diag(cov))
    xs = np.linspace(mean[0] - half_width * sd[0], mean[0] + half_width * sd[0], n_points)
    ys = np.linspace(mean[1] - half_width * sd[1], mean[1] + half_width * sd[1], n_points)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    diff = np.stack([gx - mean[0], gy - mean[1]], axis=-1)
    prec = np.linalg.inv(cov)
    quad = np.einsum("...i,ij,...j->...", diff, prec, diff)
    density = np.exp(-0.5 * quad)
    first = (gx > gy) & (gx > 0.0)
    second = (gy > gx) & (gy > 0.0)
    total = density.sum()
    p1 = density[first].sum() / total
    p2 = density[second].sum() / total
    return np.array([p1, p2, 1.0 - p1 - p2])


def backsolve_sample(mean, precision, count: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian draws by back-solving the precision's Cholesky factor.

    With precision = L Lᵀ, each row solves Lᵀ x = z for a row of standard
    normals z, so x has covariance (L Lᵀ)⁻¹. Draws ``count × dim`` normals
    in one call, in the same order as the package's sampler.
    """
    mean = np.asarray(mean, dtype=float)
    factor = np.linalg.cholesky(np.asarray(precision, dtype=float))
    z = rng.standard_normal((count, mean.size))
    return mean + solve_triangular(factor, z.T, lower=True, trans="T").T


def backsolve_winner_counts(mean, precision, n_draws: int, rng: np.random.Generator) -> np.ndarray:
    """Thompson winner counts per arm from back-solved draws.

    The last (reference) coordinate is scored as zero and ties go to the
    lowest index, the allocation rule of the odds-ratio parameterization.
    """
    scores = backsolve_sample(mean, precision, n_draws, rng)
    scores[:, -1] = 0.0
    return np.bincount(np.argmax(scores, axis=1), minlength=scores.shape[1])


def allocation_proportions(
    belief: GaussianBelief, n_draws: int, rng: np.random.Generator
) -> AllocationProportions:
    """Thompson proportions: the Monte Carlo winner frequency per arm.

    Each posterior draw is scored with the reference coordinate replaced by
    zero, which ranks arms by their log odds against the reference without
    moving the shared base rate; ties break toward the lowest arm index.
    """
    _check_count("n_draws", n_draws, 1)
    scores = sample(belief, n_draws, rng)
    scores[:, -1] = 0.0
    winners = np.argmax(scores, axis=1)
    counts = np.bincount(winners, minlength=belief.dim)
    return AllocationProportions(counts / float(n_draws))


def beta_ts_proportions(
    state: BetaState, n_draws: int, rng: np.random.Generator
) -> AllocationProportions:
    """Monte Carlo winner frequencies under independent Beta posteriors:
    for each chunk of ``_BETA_CHUNK`` rows, one ``_beta_column`` call per
    arm, in arm order, fills its part of one full (n_draws, K) matrix, and
    one argmax picks each draw's winner."""
    _check_count("n_draws", n_draws, 1)
    draws = np.empty((n_draws, state.arms))
    for start in range(0, n_draws, _BETA_CHUNK):
        rows = draws[start : start + _BETA_CHUNK]
        for arm in range(state.arms):
            rows[:, arm] = _beta_column(state.alpha[arm], state.beta[arm], len(rows), rng)
    winners = np.argmax(draws, axis=1)
    counts = np.bincount(winners, minlength=state.arms)
    return AllocationProportions(counts / float(n_draws))
