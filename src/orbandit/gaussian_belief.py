"""Gaussian beliefs over bandit parameters, stored in precision form.

Beliefs are kept as (mean, precision) rather than (mean, covariance) so the
uniform starting prior is representable exactly as a zero precision matrix,
and batch updates can add curvature terms in place. Each belief factors its
precision once, at construction; that lower Cholesky factor decides
properness. Its triangular inverse is computed at most once per belief, on
first use, and serves every caller: it maps standard normals to draws,
yields the covariance, and gives the allocation screen its score spreads,
so no covariance is formed unless a caller asks for one.

The parameter vector for a K-arm model is (b_1, ..., b_{K-1}, b_K), where
b_i for i < K is the log odds ratio of arm i against the last (reference)
arm and b_K is the reference arm's own log odds. ``build_c_ind`` maps this
vector to per-arm log odds; ``compose_reindex`` relabels arms, including
moving the reference, without changing the per-arm probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dtrtri

from .errors import CannotSampleError, ConfigError, _check_count, _frozen_numbers, _numbers

__all__ = [
    "GaussianBelief",
    "TransformMatrix",
    "make_flat_belief",
    "build_c_ind",
    "build_c_f",
    "compose_reindex",
    "transform",
    "marginalize_drop_last",
    "marginalize_keep",
    "embed_flat_last",
    "sample",
]

# Cholesky pivots must clear this floor for a precision matrix to count as
# positive definite (and the belief as proper).
PIVOT_TOL = 1e-10

# Slack allowed on the smallest eigenvalue when validating positive
# semidefiniteness after symmetrization; checked only for precisions whose
# Cholesky factorization fails.
EIG_TOL = 1e-9


@dataclass(frozen=True)
class GaussianBelief:
    """Multivariate Gaussian in precision form.

    Zero rows and columns of ``precision`` encode flat (improper)
    directions; a belief with any flat direction is not proper and cannot
    be sampled, but it can still be transformed, updated, and embedded.
    A zero-dimensional belief is permitted as the degenerate base case for
    ``embed_flat_last``.

    Construction factors the precision once and caches the lower Cholesky
    factor (None when a pivot falls below ``PIVOT_TOL``, or when any row is
    exactly zero). Exactly-zero rows are flat, so only the remaining block
    is factored; a precision whose remaining block fails that factorization
    is checked for positive semidefiniteness by its eigenvalues.
    """

    mean: np.ndarray
    precision: np.ndarray
    _factor: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = _frozen_numbers(self, "mean").size
        precision = _numbers("precision", self.precision, vector=False)
        if precision.shape != (d, d):
            raise ConfigError(
                f"precision shape {precision.shape} does not match mean length {d}"
            )
        # Symmetrize on every construction for numerical cleanliness.
        precision = 0.5 * (precision + precision.T)
        # The precision is a permutation of diag(block, 0) over its
        # exactly-zero rows, so it is PSD exactly when the block is.
        flat = ~precision.any(axis=1)
        block = precision[np.ix_(~flat, ~flat)] if flat.any() else precision
        try:
            factor = np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            factor = None
        if block.size and factor is not None and factor.diagonal().min() ** 2 <= PIVOT_TOL:
            factor = None
        if factor is None:
            min_eig = float(np.linalg.eigvalsh(precision)[0])
            if min_eig < -EIG_TOL:
                raise ConfigError(
                    f"precision is not positive semidefinite (min eigenvalue {min_eig:.3e})"
                )
        elif flat.any():
            factor = None
        else:
            factor.setflags(write=False)
        precision.setflags(write=False)
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "_factor", factor)

    @property
    def dim(self) -> int:
        return self.mean.size

    def is_proper(self) -> bool:
        """True when the precision is positive definite."""
        return self._factor is not None

    @cached_property
    def inverse_factor(self) -> np.ndarray:
        """L⁻¹ for the precision's lower Cholesky factor L, read-only and
        lower triangular like L; a draw z @ L⁻¹ has the belief's covariance,
        so column j holds coordinate j's loadings on the normals. Computed
        on first use and kept; requires a proper belief."""
        if self._factor is None:
            raise CannotSampleError("an improper belief has no covariance and cannot be sampled")
        if not self._factor.size:
            return self._factor
        inverse, _ = dtrtri(self._factor, lower=1)
        inverse.setflags(write=False)
        return inverse

    def covariance(self) -> np.ndarray:
        """Materialized covariance; requires a proper belief."""
        inv_factor = self.inverse_factor
        cov = inv_factor.T @ inv_factor
        return 0.5 * (cov + cov.T)


@dataclass(frozen=True)
class TransformMatrix:
    """Invertible linear reparameterization of the belief coordinates,
    kept with its inverse for ``transform``."""

    entries: np.ndarray
    inverse: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries = _frozen_numbers(self, "entries", vector=False)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or entries.shape[0] < 1:
            raise ConfigError(f"transform must be square, got shape {entries.shape}")
        try:
            inverse = np.linalg.solve(entries, np.eye(entries.shape[0]))
        except np.linalg.LinAlgError as exc:
            raise ConfigError("transform is singular") from exc
        if not np.all(np.isfinite(inverse)):
            raise ConfigError("transform is numerically singular")
        inverse.setflags(write=False)
        object.__setattr__(self, "inverse", inverse)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def make_flat_belief(dim: int) -> GaussianBelief:
    """Improper uniform belief: zero mean, zero precision."""
    _check_count("dim", dim, 1)
    return GaussianBelief(np.zeros(dim), np.zeros((dim, dim)))


def build_c_ind(num_arms: int) -> TransformMatrix:
    """Matrix sending odds-ratio parameters to per-arm log odds.

    Row i < K adds the reference coordinate to coordinate i; the last row
    passes the reference coordinate through unchanged.
    """
    entries = np.eye(_check_count("num_arms", num_arms, 1))
    entries[:, -1] = 1.0
    return TransformMatrix(entries)


def _permutation_matrix(perm: Sequence[int]) -> np.ndarray:
    """Entries of ``build_c_f``, after checking ``perm`` is a permutation."""
    perm = _numbers("perm", perm, int)
    k = perm.size
    if k < 1:
        raise ConfigError("permutation must be non-empty")
    if not np.array_equal(np.sort(perm), np.arange(k)):
        raise ConfigError(f"{perm.tolist()} is not a permutation of 0..{k - 1}")
    entries = np.zeros((k, k))
    entries[perm, np.arange(k)] = 1.0
    return entries


def build_c_f(perm: Sequence[int]) -> TransformMatrix:
    """Permutation matrix for relabeling arm positions.

    ``perm[j]`` is the new (0-based) position of the arm currently at
    position j; applying the matrix to a per-arm vector moves entry j to
    position ``perm[j]``.
    """
    return TransformMatrix(_permutation_matrix(perm))


def compose_reindex(perm: Sequence[int], num_arms: int) -> TransformMatrix:
    """Parameter-space transform realizing an arm relabeling.

    Conjugates the positional permutation by the per-arm log-odds basis, so
    applying the result to an odds-ratio parameter vector produces the
    parameter vector of the relabeled model: per-arm probabilities follow
    the permutation exactly, including when the reference arm moves.
    """
    k = _check_count("num_arms", num_arms, 1)
    entries = _permutation_matrix(perm)
    if entries.shape[0] != k:
        raise ConfigError(f"permutation length {entries.shape[0]} does not match arm count {k}")
    # C_ind⁻¹ C_f C_ind from 0/1 rows, exactly and without a solve:
    entries[:, -1] = 1.0  # C_f C_ind, as every row of C_f sums to one
    entries[:-1] -= entries[-1]  # C_ind⁻¹ subtracts the last row from the others
    return TransformMatrix(entries)


def transform(belief: GaussianBelief, matrix: TransformMatrix) -> GaussianBelief:
    """Push a belief through an invertible reparameterization.

    The mean maps forward; the precision maps by inverse conjugation, so a
    zero precision stays zero and proper beliefs stay proper.
    """
    if matrix.dim != belief.dim:
        raise ConfigError(
            f"transform dimension {matrix.dim} does not match belief dimension {belief.dim}"
        )
    inverse = matrix.inverse
    return GaussianBelief(matrix.entries @ belief.mean, inverse.T @ belief.precision @ inverse)


def marginalize_keep(belief: GaussianBelief, keep: Sequence[int]) -> GaussianBelief:
    """Marginal belief over a subset of coordinates, in the given order.

    Works directly in precision form: the retained block minus the coupling
    through the dropped block's pseudo-inverse. The pseudo-inverse makes
    this total over valid (positive semidefinite) precisions: flat dropped
    directions carry no coupling, so they integrate out to nothing, and a
    fully flat belief marginalizes to a flat belief.
    """
    keep = _numbers("keep", keep, int).tolist()
    d = belief.dim
    if len(keep) < 1:
        raise ConfigError("must keep at least one coordinate")
    kept = set(keep)
    if len(kept) != len(keep) or any(i < 0 or i >= d for i in keep):
        raise ConfigError(f"invalid coordinate subset {keep} for dimension {d}")
    drop = [i for i in range(d) if i not in kept]
    m = len(keep)
    order = keep + drop
    p = belief.precision.take(order, axis=0).take(order, axis=1)
    marginal = p[:m, :m]
    if drop:
        # Pseudo-inverse of the dropped block from its eigenpairs, with a
        # 1e-12 cut-off relative to the largest.
        eigvals, eigvecs = np.linalg.eigh(p[m:, m:])
        scale = np.abs(eigvals)
        live = scale > 1e-12 * scale.max()
        coupling = p[:m, m:] @ eigvecs[:, live]
        # Outer products over their eigenvalues: one dropped coordinate
        # rounds exactly as the rank-one Schur complement does.
        outer = coupling[:, None, :] * coupling[None, :, :]
        marginal = marginal - (outer / eigvals[live]).sum(axis=2)
    return GaussianBelief(belief.mean[keep], marginal)


def marginalize_drop_last(belief: GaussianBelief) -> GaussianBelief:
    """Marginal over all coordinates but the last."""
    return marginalize_keep(belief, range(belief.dim - 1))


def embed_flat_last(belief: GaussianBelief, start_last: float = 0.0) -> GaussianBelief:
    """Append one flat coordinate after the existing ones.

    The new coordinate gets mean ``start_last`` and a zero precision row
    and column, so the result is always improper in that direction; the
    mean entry only seeds later mode searches.
    """
    return _embed_flat(belief, np.arange(belief.dim), belief.dim + 1, float(start_last))


def _embed_flat(belief: GaussianBelief, positions, dim: int, start: float = 0.0) -> GaussianBelief:
    """``belief`` at ``positions`` of a ``dim``-wide belief, flat elsewhere with mean ``start``."""
    mean = np.full(dim, start)
    mean[positions] = belief.mean
    precision = np.zeros((dim, dim))
    precision[np.ix_(positions, positions)] = belief.precision
    return GaussianBelief(mean, precision)


def sample(belief: GaussianBelief, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` vectors from a proper belief, shape (count, dim).

    With the precision factored as L Lᵀ, the standard normals z become
    draws ``z @ L⁻¹``: one triangular multiply, written into the normals'
    own buffer, so no covariance matrix is formed.
    """
    _check_count("count", count, 1)
    return _draw_into(belief, np.empty((count, belief.dim)), rng)


def _draw_into(belief: GaussianBelief, out: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Fill the C-contiguous (rows, dim) array ``out`` with draws from a
    proper belief, in place, and return it.

    The normals fill ``out`` in C order, the order of one
    ``standard_normal((rows, dim))`` call, and the triangular multiply runs
    in place, so ``sample`` and the blocked Thompson tally share one path
    from normals to draws.
    """
    inverse = belief.inverse_factor
    rng.standard_normal(out=out)
    draws = dtrmm(1.0, inverse, out.T, side=0, lower=1, trans_a=1, overwrite_b=1).T
    draws += belief.mean
    return draws
