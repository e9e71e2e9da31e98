"""Independent reference implementations used to check the package.

Everything here is deliberately written from first principles — dense
matrices, finite differences, grid quadrature — rather than reusing the
package's own formulas, so agreement is evidence and not tautology. The
exceptions:

- the Gaussian full-draw allocation function, which checks the screen
  and the tally: it is the package's allocation before it screened arms
  or drew in blocks;
- ``radial_winner_counts``, which lays out its stream in the package's
  blocks of ``_block_rows`` rows, since the radial split's stream depends
  on them; its radius comes from ``radial_split``, a back-solve per arm.
  It splits a block through ``split_block``, which makes the package's
  draws in its order: the binomial count of rows outside the ball, then
  their radii from ``chi2_tail``, a copy of the package's rejection
  sampler written from the gamma density;
- ``marginalize_keep``, the package's marginal before it went through a
  Cholesky factor: an eigen-decomposition pseudo-inverse of the dropped
  block;
- ``laplace_update``, the package's Laplace update before one likelihood
  evaluation served each Newton step, its Hessian and the posterior
  curvature: it evaluates the objective and gradient at each candidate and
  recomputes the curvature from the iterate. Its objective, its flat-prior
  rule and its stall bound are the package's current ones.
  ``neg_log_posterior`` and ``hessian_lambda`` put argument checks in front
  of its objective, gradient and curvature, so that tests can hold those
  against ``dense_objective``, ``fd_gradient`` and ``fd_hessian``;
- ``full_range_win_chances``, the package's quadrature before it started
  at the last panel edge with K ∏F ≤ δ: the same panels, nodes and
  normalization over the whole of ``_panels``, in one block.

``beta_win_chances`` and ``normal_win_chances`` share nothing with the
package's quadrature but ``betainc`` and ``ndtr``: they take normalized
densities, the Beta one from the saddle-point form of Loader (2000), and
integrate by adaptive bisection to an error tolerance, where the package
fixes its panels in advance and normalizes each density by the rule's own
integral. ``logit_law`` reads the arm logits' law from the inverted
precision, where the package holds them as a ``LogitBelief``.

``random_proper_belief``, ``arrow_precision`` and ``arrow_logits`` are no
oracles but the tests' one seeded random belief, one arrow precision and
one reading of a dense arrow's arm logits, kept here so that every test
module builds and reads them alike; the package never reads logits out
of a dense belief.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import betainc, betaln, expit, gammaincc, gammaln, ndtr, roots_legendre

from orbandit import (
    AllocationProportions,
    BetaState,
    ConfigError,
    GaussianBelief,
    LogitBelief,
    OptimizationFailureError,
    ProbVector,
    RoundData,
    sample,
)
from orbandit.errors import _check_count, _numbers
from orbandit.gaussian_belief import REL_TOL, _permutation_matrix
from orbandit.logistic_model import (
    DECREMENT_TOL,
    GRAD_TOL,
    MAX_HALVINGS,
    MAX_NEWTON_ITER,
    MAX_STEP_NORM,
)
from orbandit.policy import (
    _QUAD_NODES,
    _QUAD_WEIGHTS,
    _beta_win_chances,
    _block_rows,
    _normal_win_chances,
    _panels,
)

__all__ = [
    "allocation_proportions",
    "arm_logit_matrix",
    "arrow_logits",
    "arrow_precision",
    "backsolve_sample",
    "backsolve_winner_counts",
    "beta_multinomial_proportions",
    "beta_ts_proportions",
    "beta_win_chances",
    "build_c_f",
    "WIN_CHANCE_L1",
    "build_c_ind",
    "chi2_tail",
    "dense_objective",
    "fd_gradient",
    "fd_hessian",
    "full_range_win_chances",
    "grid_allocation_probs",
    "hessian_lambda",
    "laplace_update",
    "logit_law",
    "marginalize_keep",
    "neg_log_posterior",
    "normal_multinomial_counts",
    "normal_win_chances",
    "probs_from_params",
    "radial_split",
    "radial_winner_counts",
    "random_proper_belief",
    "split_block",
]


def random_proper_belief(k: int, rng: np.random.Generator, ridge: float = 1.0) -> GaussianBelief:
    """Precision R Rᵀ + ridge·I for a standard normal (k, k) matrix R, then
    a standard normal mean: drawn from ``rng`` in that order."""
    root = rng.normal(size=(k, k))
    return GaussianBelief(rng.normal(size=k), root @ root.T + ridge * np.eye(k))


def arrow_precision(d, rest) -> np.ndarray:
    """The odds-ratio precision whose arm logits are independent, with
    precisions ``d`` and, for the reference, ``rest``: Aᵀ diag(d, rest) A
    for A = ``arm_logit_matrix``, with the corner Σd + rest rounded once."""
    precision = np.diag(np.r_[d, math.fsum([*d, rest])])
    precision[:-1, -1] = precision[-1, :-1] = d
    return precision


def arrow_logits(belief: GaussianBelief) -> tuple[np.ndarray, np.ndarray] | None:
    """The arm logits' means and precisions (m, D) of a dense belief whose
    precision is an arrow, bit for bit, else None; D_K may come out ≤ 0.

    The odds block must be diag(d) and the last column above the corner
    d. D_K = corner − Σd cancels: the corner reached 1504 D_K on the
    benchmark's beliefs. ``math.fsum`` rounds the difference of the
    stored entries once, so D_K carries only the corner's own rounding, a
    relative error of about eps · corner / D_K, where a running sum adds up
    to K eps · corner / D_K.
    """
    precision = belief.precision
    d = precision.diagonal()[:-1]
    if not (np.array_equal(precision[:-1, -1], d) and np.array_equal(precision[:-1, :-1], np.diag(d))):
        return None
    return _arm_logits(belief.mean), np.r_[d, math.fsum(np.r_[precision[-1, -1], -d])]


def arm_logit_matrix(k: int) -> np.ndarray:
    """Dense matrix sending odds-ratio parameters to per-arm logits."""
    matrix = np.eye(k)
    matrix[:, -1] = 1.0
    return matrix


def build_c_ind(num_arms: int) -> np.ndarray:
    """The paper's C_ind: odds-ratio parameters to per-arm log odds.

    Row i < K adds the reference coordinate to coordinate i; the last row
    passes the reference coordinate through unchanged.
    """
    return arm_logit_matrix(_check_count("num_arms", num_arms, 1))


def build_c_f(perm: Sequence[int]) -> np.ndarray:
    """The paper's C_f: the permutation matrix relabeling arm positions.

    ``perm[j]`` is the new (0-based) position of the arm currently at
    position j; applying the matrix to a per-arm vector moves entry j to
    position ``perm[j]``.
    """
    return _permutation_matrix(perm)


def _arm_logits(params: np.ndarray) -> np.ndarray:
    """Per-arm log odds: add the reference coordinate to every other one."""
    q = np.array(params, dtype=float).reshape(-1)
    q[:-1] += q[-1]
    return q


def _value_and_grad(
    mu: np.ndarray, n: np.ndarray, c: np.ndarray, prior: GaussianBelief
) -> tuple[float, np.ndarray]:
    """Negative log posterior (up to constants) and its gradient.

    The likelihood part is evaluated as c*softplus(-q) + (n-c)*softplus(q)
    per arm, which equals n*softplus(q) - c*q, never overflows and sums
    non-negative terms; the prior part is the quadratic form in the prior
    precision, which contributes nothing along flat directions.
    """
    q = _arm_logits(mu)
    diff = mu - prior.mean
    prior_pull = prior.precision @ diff
    likelihood = c * np.logaddexp(0.0, -q) + (n - c) * np.logaddexp(0.0, q)
    value = float(np.sum(likelihood) + 0.5 * diff @ prior_pull)
    residual = n * expit(q) - c
    grad = residual.copy()
    grad[-1] = residual.sum()
    grad += prior_pull
    return value, grad


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


def _effective_counts(data: RoundData, prior: GaussianBelief) -> tuple[np.ndarray, np.ndarray]:
    """Counts actually used by the mode search.

    An arm whose observed counts are degenerate (all failures or all
    successes) has its maximizing log odds at infinity; when the prior is
    also flat in that arm's coordinate (its diagonal within ``REL_TOL`` of
    the largest) nothing tempers the divergence, so such arms get half a
    success and one extra trial. Arms with no trials are left untouched:
    they contribute no likelihood, and their flat directions are handled
    by the minimal-norm step in the solver.
    """
    n = data.n.astype(float)
    c = data.c.astype(float)
    diagonal = np.diag(prior.precision)
    flat = np.abs(diagonal) <= REL_TOL * max(np.max(diagonal), 0.0)
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
    decrement, or, once the search stalls, on a decrement within the
    objective's float noise.
    """
    noise_floor = 16.0 * np.finfo(float).eps
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
        noise = noise_floor * (1.0 + abs(value))
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
    if grad_norm <= GRAD_TOL or decrement <= noise_floor * (1.0 + abs(value)):
        return mu
    raise OptimizationFailureError(
        f"mode search did not converge (gradient infinity-norm {grad_norm:.3e})",
        last_iterate=mu,
        grad_norm=grad_norm,
    )


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


def probs_from_params(params) -> ProbVector:
    """Per-arm success probabilities of a parameter vector, through the
    package's own log odds map, clipped to the open unit interval at the
    float64 boundary."""
    params = _numbers("params", params)
    if params.size < 1:
        raise ConfigError("parameter vector must be non-empty")
    p = expit(_arm_logits(params))
    return ProbVector(np.clip(p, np.finfo(float).tiny, np.nextafter(1.0, 0.0)))


def neg_log_posterior(mu, data: RoundData, prior: GaussianBelief) -> tuple[float, np.ndarray]:
    """The package's mode-search objective at ``mu`` (constants dropped),
    with its gradient, after checking that the arguments agree."""
    mu = _numbers("mu", mu)
    if mu.size != data.arms or mu.size != prior.dim:
        raise ConfigError(
            f"parameter length {mu.size}, data arms {data.arms}, prior dim {prior.dim} must agree"
        )
    return _value_and_grad(mu, data.n.astype(float), data.c.astype(float), prior)


def hessian_lambda(mu, data: RoundData) -> np.ndarray:
    """The package's likelihood curvature at ``mu``, the Hessian of the
    round's negative log likelihood, after checking the arguments."""
    mu = _numbers("mu", mu)
    if mu.size != data.arms:
        raise ConfigError(f"parameter length {mu.size} does not match data arms {data.arms}")
    return _curvature(mu, data.n.astype(float))


def marginalize_keep(belief: GaussianBelief, keep: Sequence[int]) -> GaussianBelief:
    """Marginal over the ``keep`` coordinates, in that order: the kept
    precision block minus the coupling through the pseudo-inverse of the
    whole dropped block, from its eigenpairs with a 1e-12 cut-off relative
    to the largest. Flat dropped directions carry no coupling."""
    keep = list(keep)
    drop = [i for i in range(belief.dim) if i not in keep]
    p = belief.precision
    marginal = p[np.ix_(keep, keep)]
    if drop:
        eigvals, eigvecs = np.linalg.eigh(p[np.ix_(drop, drop)])
        scale = np.abs(eigvals)
        live = scale > 1e-12 * scale.max()
        coupling = p[np.ix_(keep, drop)] @ eigvecs[:, live]
        outer = coupling[:, None, :] * coupling[None, :, :]
        marginal = marginal - (outer / eigvals[live]).sum(axis=2)
    return GaussianBelief(belief.mean[keep], marginal)


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


def radial_split(mean, precision) -> tuple[int, float] | None:
    """The leader and the radius of the radial split of a Thompson
    decision, or None when the split does not apply.

    With precision = L Lᵀ, a row of normals z gives the scores x = L⁻ᵀ z,
    and the leader l's lead over arm j moves by z · L⁻¹ c_j, where c_j is
    e_l − e_j with its reference entry set to zero (the reference scores
    zero). Each L⁻¹ c_j is one back-solve, as is the leader's loading
    vector L⁻¹ e_l (zero for the reference). The split draws K normals a
    row. The radius is the least over every j ≠ l of two ratios, with
    gap_j the lead in mean and d_j = ‖L⁻¹ c_j‖: gap_j / d_j shrunk by the
    fraction ``REL_TOL``; and, with s = (K + 8) eps, (gap_j (1 − s) −
    2 s |mean_l|) / (d_j (1 + s) + 2 s ‖L⁻¹ e_l‖), the room left once the
    scores' rounding is taken off. It is never below zero. The split
    applies when a χ²(K) draw exceeds the radius squared with probability
    at most one half, the regularized upper incomplete gamma Q(K/2, r²/2).
    """
    mean = np.array(mean, dtype=float)
    mean[-1] = 0.0
    k = mean.size
    leader = int(np.argmax(mean))
    others = [j for j in range(k) if j != leader]
    units = np.eye(k)
    units[-1] = 0.0
    factor = np.linalg.cholesky(np.asarray(precision, dtype=float))
    spreads = np.linalg.norm(solve_triangular(factor, units[:, [leader]] - units[:, others],
                                              lower=True), axis=0)
    size = np.linalg.norm(solve_triangular(factor, units[:, leader], lower=True))
    gaps = mean[leader] - mean[others]
    slack = (k + 8) * np.finfo(float).eps
    with np.errstate(divide="ignore", invalid="ignore"):
        shrunk = gaps / spreads * (1.0 - REL_TOL)
        rounded = ((gaps * (1.0 - slack) - 2.0 * slack * abs(mean[leader]))
                   / (spreads * (1.0 + slack) + 2.0 * slack * size))
    radius = max(float(np.min(np.fmin(shrunk, rounded))), 0.0)
    if not gammaincc(k / 2.0, radius * radius / 2.0) <= 0.5:
        return None
    return leader, radius


def chi2_tail(m: int, floor: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` draws of χ²(m) conditioned on being at least ``floor``, by
    rejection from a shifted exponential (Dagpunar 1978), in the package's
    draw order.

    Half a χ²(m) draw is Gamma(m/2, 1). Above h = floor/2 its density is
    proportional to y^(m/2 − 1) e^(−y); the proposal h + Exp(rate) has
    density rate e^(−rate (y − h)). Their log ratio, up to a constant, is
    (m/2 − 1) log y − (1 − rate) y, largest on [h, ∞) at its stationary
    point or at h. The rate maximizes the acceptance, the root of
    h rate² − (h − m/2) rate − 1 = 0, but never above 1, where the ratio
    would grow without bound for m = 1. Each round draws ``count``
    exponentials, then ``count`` uniforms; a proposal is kept when the
    uniform's log is at most its log ratio less the largest, and the
    rejected ones are redrawn in the next round.
    """
    h = floor / 2.0
    shape = m / 2.0
    rate = min(1.0, ((h - shape) + np.sqrt((h - shape) * (h - shape) + 4.0 * h)) / (2.0 * h))

    def log_ratio(y):
        return (shape - 1.0) * np.log(y) - (1.0 - rate) * y

    top = h if rate == 1.0 else max(h, (shape - 1.0) / (1.0 - rate))
    kept = np.empty(0)
    while kept.size < count:
        need = count - kept.size
        y = h + rng.standard_exponential(need) / rate
        accept = np.log(rng.random(need)) <= log_ratio(y) - log_ratio(top)
        kept = np.concatenate([kept, y[accept]])
    return 2.0 * kept


def split_block(m: int, size: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """The norms of the rows of normals outside the ball of ``radius``, for
    one block of ``size`` rows of m normals split radially, in the
    package's draw order: the number of rows outside, one binomial draw
    with the chance Q(m/2, r²/2) that a χ²(m) draw reaches r², then, when
    there are any, their squared norms from ``chi2_tail``. The other rows
    are inside the ball."""
    outside = rng.binomial(size, gammaincc(m / 2.0, radius * radius / 2.0))
    if not outside:
        return np.empty(0)
    return np.sqrt(chi2_tail(m, radius * radius, outside, rng))


def radial_winner_counts(mean, precision, n_draws: int, rng: np.random.Generator,
                         leader: int, radius: float) -> np.ndarray:
    """Thompson winner counts per arm with each draw split into its norm
    and its direction.

    In blocks of the package's ``_block_rows`` rows: the norms of the rows
    outside the ball from ``split_block``, the other rows going to
    ``leader``; then one (rows outside, K) draw of normals, each row
    rescaled to its norm and back-solved as in ``backsolve_sample``. The
    reference scores zero and ties go to the lowest index.
    """
    mean = np.asarray(mean, dtype=float)
    k = mean.size
    factor = np.linalg.cholesky(np.asarray(precision, dtype=float))
    rows = _block_rows(k, n_draws)
    counts = np.zeros(k, dtype=np.int64)
    for start in range(0, n_draws, rows):
        size = min(rows, n_draws - start)
        norms = split_block(k, size, radius, rng)
        counts[leader] += size - norms.size
        if not norms.size:
            continue
        directions = rng.standard_normal((norms.size, k))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        z = directions * norms[:, None]
        scores = mean + solve_triangular(factor, z.T, lower=True, trans="T").T
        scores[:, -1] = 0.0
        counts += np.bincount(np.argmax(scores, axis=1), minlength=k)
    return counts


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
    one full (n_draws, K) ``rng.beta`` draw, and one argmax picks each
    draw's winner. It is the Monte Carlo law the Beta quadrature replaces,
    and the package's tally for the other Beta states."""
    _check_count("n_draws", n_draws, 1)
    draws = rng.beta(state.alpha, state.beta, (n_draws, state.arms))
    winners = np.argmax(draws, axis=1)
    counts = np.bincount(winners, minlength=state.arms)
    return AllocationProportions(counts / float(n_draws))


# Bound on ‖π̂ − π‖₁ for the package's Beta Thompson probabilities.
WIN_CHANCE_L1 = 1e-11

_LN_2PI = float(np.log(2.0 * np.pi))
_GAUSS_NODES, _GAUSS_WEIGHTS = roots_legendre(8)


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """log Γ(n + 1) − (n + ½) log n + n − ½ log 2π, by its asymptotic
    series above 15 and directly below."""
    nn = n * n
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n
    direct = gammaln(n + 1.0) - (n + 0.5) * np.log(n) + n - 0.5 * _LN_2PI
    return np.where(n > 15.0, series, direct)


def _bd0(x: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """The deviance x log(x / mean) + mean − x, by its series in
    v = (x − mean) / (x + mean) when |v| < 0.1, where 11 terms leave
    v^24 < 1e-24 of the first."""
    v = (x - mean) / (x + mean)
    total, term = (x - mean) * v, 2.0 * x * v
    for j in range(1, 12):
        term = term * v * v
        total = total + term / (2 * j + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = x * np.log(x / mean) + mean - x
    return np.where(np.abs(v) < 0.1, total, direct)


def beta_log_density(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log of the Beta(a, b) density at x in (0, 1). With both shapes above
    2 it is (a + b − 1) times the binomial probability of a − 1 successes
    in a + b − 2 trials at rate x, in Loader's saddle-point form, which
    keeps its digits at large shapes; otherwise the direct formula."""
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x) - betaln(a, b)
        k, n = a - 1.0, a + b - 2.0
        deviance = (_stirlerr(n) - _stirlerr(k) - _stirlerr(n - k)
                    - _bd0(k, n * x) - _bd0(n - k, n * (1.0 - x)))
        saddle = np.log(a + b - 1.0) + deviance - 0.5 * (_LN_2PI + np.log(k) + np.log1p(-k / n))
    return np.where((a > 2.0) & (b > 2.0), saddle, direct)


def _win_integrals(lo: np.ndarray, hi: np.ndarray, cdf, density) -> np.ndarray:
    """Per interval and arm j, ∫ f_j ∏_{i≠j} F_i over [lo, hi] by 8-node
    Gauss–Legendre, for F = ``cdf(x)`` and f = ``density(x)`` at an
    (intervals, nodes, 1) array of nodes: an (intervals, arms) array."""
    half = 0.5 * (hi - lo)
    x = ((lo + half)[:, None] + half[:, None] * _GAUSS_NODES)[..., None]
    cdfs = cdf(x)
    others = np.ones_like(cdfs)
    others[..., 1:] = np.cumprod(cdfs[..., :-1], axis=-1)
    others[..., :-1] *= np.cumprod(cdfs[..., :0:-1], axis=-1)[..., ::-1]
    return np.einsum("n,inj->ij", _GAUSS_WEIGHTS, density(x) * others) * half[:, None]


def _bisected_win_chances(edges: np.ndarray, cdf, density, arms: int,
                          tol: float = 1e-16, max_levels: int = 100) -> np.ndarray:
    """∫ f_j ∏_{i≠j} F_i over [edges[0], edges[-1]] for each of ``arms``
    arms: each interval between edges is bisected until the rule on its
    halves moves the integrals, summed over arms, by at most ``tol``."""
    lo, hi = edges[:-1], edges[1:]
    whole = _win_integrals(lo, hi, cdf, density)
    chances = np.zeros(arms)
    for _ in range(max_levels):
        if lo.size == 0:
            return chances
        mid = 0.5 * (lo + hi)
        left, right = _win_integrals(lo, mid, cdf, density), _win_integrals(mid, hi, cdf, density)
        done = np.abs(whole - left - right).sum(axis=1) <= tol
        chances += (left + right)[done].sum(axis=0)
        split = ~done
        lo, hi = np.r_[lo[split], mid[split]], np.r_[mid[split], hi[split]]
        whole = np.r_[left[split], right[split]]
    raise RuntimeError(f"no convergence in {max_levels} bisections")


def beta_win_chances(alpha, beta) -> np.ndarray:
    """Thompson probabilities π_j = ∫₀¹ f_j ∏_{i≠j} F_i of independent
    Beta arms with both shapes at least 1.

    The interval [0, 1] is first cut at each arm's mean and at 2, 8 and 32
    standard deviations either side, so that no density's bulk falls
    between nodes, then bisected (``_bisected_win_chances``).
    """
    a, b = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    mean = a / (a + b)
    sd = np.sqrt(mean * (1.0 - mean) / (a + b + 1.0))
    offsets = np.array([0.0, 2, -2, 8, -8, 32, -32])
    cuts = (mean[:, None] + sd[:, None] * offsets).ravel()
    edges = np.unique(np.r_[0.0, 1.0, cuts[(cuts > 0.0) & (cuts < 1.0)]])
    return _bisected_win_chances(edges, lambda x: betainc(a, b, x),
                                 lambda x: np.exp(beta_log_density(a, b, x)), a.size)


def normal_win_chances(mean, sd) -> np.ndarray:
    """Thompson probabilities π_j = ∫ φ_j ∏_{i≠j} Φ_i of independent
    normal arms, over 40 standard deviations either side of every mean,
    cut at each mean and at 2, 8 and 32 standard deviations either side,
    then bisected (``_bisected_win_chances``)."""
    m, s = np.asarray(mean, dtype=float), np.asarray(sd, dtype=float)
    cuts = (m[:, None] + s[:, None] * np.array([0.0, 2, -2, 8, -8, 32, -32])).ravel()
    edges = np.unique(np.r_[(m - 40.0 * s).min(), (m + 40.0 * s).max(), cuts])
    return _bisected_win_chances(
        edges, lambda x: ndtr((x - m) / s),
        lambda x: np.exp(-0.5 * np.square((x - m) / s)) / (s * np.sqrt(2.0 * np.pi)), m.size)


def full_range_win_chances(bounds: tuple, cdf, log_density, mass) -> np.ndarray:
    """The package's Thompson probabilities (``policy._win_chances``) on
    the arguments a family's quadrature builder returns, integrated over
    every panel of ``_panels(*bounds)``, from the second-largest lower
    quantile: the rule before its start moved to the last edge with
    K ∏F ≤ δ. Its nodes, weights, reading of F and f outside the quantiles
    and normalization to the mass above the first edge are the package's;
    it evaluates every (node, arm) pair in one block."""
    lower, upper = bounds[2], bounds[3]
    edges = _panels(*bounds)
    half = 0.5 * np.diff(edges)
    x = ((edges[:-1] + half)[:, None] + half[:, None] * _QUAD_NODES).reshape(-1, 1)
    weights = (half[:, None] * _QUAD_WEIGHTS).ravel()
    node, arm = np.nonzero((x > lower) & (x < upper))
    cdfs = (x >= upper).astype(float)
    cdfs[node, arm] = cdf(x[node, 0], arm)
    density = np.zeros_like(cdfs)
    density[node, arm] = weights[node] * np.exp(log_density(x[node, 0], arm))
    others = np.ones_like(cdfs)
    others[:, 1:] = np.cumprod(cdfs[:, :-1], axis=1)
    others[:, :-1] *= np.cumprod(cdfs[:, :0:-1], axis=1)[:, ::-1]
    norms = density.sum(axis=0)
    chances = np.zeros(lower.size)
    np.divide((density * others).sum(axis=0) * mass(edges[0]), norms, out=chances, where=norms > 0.0)
    return chances / chances.sum()


def logit_law(belief: GaussianBelief) -> tuple[np.ndarray, np.ndarray]:
    """The arm logits' means A μ and standard deviations, the roots of the
    diagonal of A Σ Aᵀ for Σ = ``np.linalg.inv(precision)``, with A the
    odds-ratio-to-logit matrix; their correlations must be within 1e-9."""
    matrix = arm_logit_matrix(belief.dim)
    cov = matrix @ np.linalg.inv(belief.precision) @ matrix.T
    sd = np.sqrt(np.diag(cov))
    correlation = cov / np.outer(sd, sd) - np.eye(belief.dim)
    assert np.abs(correlation).max() <= 1e-9, np.abs(correlation).max()
    return matrix @ belief.mean, sd


def normal_multinomial_counts(belief: LogitBelief, keep, n_draws: int,
                              rng: np.random.Generator) -> np.ndarray:
    """Winner counts per arm of a decision by quadrature over the arms in
    the mask ``keep``: one ``rng.multinomial`` draw with the package's
    Thompson probabilities π̂ (``_normal_win_chances`` of the kept logits),
    held first to ‖π̂ − π‖₁ ≤ ``WIN_CHANCE_L1`` against π from
    ``normal_win_chances`` of ``logit_law``; the other arms win nothing.
    The draw takes π̂ for the reason ``beta_multinomial_proportions``
    gives."""
    keep = np.asarray(keep, dtype=bool)
    chances = _normal_win_chances(belief.logit_mean[keep], belief.sd[keep])
    law_mean, law_sd = logit_law(belief)
    error = np.abs(chances - normal_win_chances(law_mean[keep], law_sd[keep])).sum()
    assert error <= WIN_CHANCE_L1, error
    counts = np.zeros(belief.dim, dtype=np.int64)
    counts[keep] = rng.multinomial(n_draws, chances)
    return counts


def beta_multinomial_proportions(
    state: BetaState, n_draws: int, rng: np.random.Generator
) -> AllocationProportions:
    """The law of the Monte Carlo tally drawn directly: the winner counts
    of n_draws iid draws are one ``rng.multinomial`` draw with the arms'
    Thompson probabilities.

    The draw takes the package's probabilities π̂ (``_beta_win_chances``)
    after holding them to ‖π̂ − π‖₁ ≤ ``WIN_CHANCE_L1`` against π from
    ``beta_win_chances``. It does not take π itself: numpy's binomial
    sampler branches at p = ½, and a state such as Beta(1, 1) against
    Beta(16, 16), with π = (½, ½) by symmetry, can put the two a rounding
    apart on either side of it, where they draw different bits.
    """
    chances = _beta_win_chances(state.alpha, state.beta)
    error = np.abs(chances - beta_win_chances(state.alpha, state.beta)).sum()
    assert error <= WIN_CHANCE_L1, (error, state)
    return AllocationProportions(rng.multinomial(n_draws, chances) / float(n_draws))
