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
arm and b_K is the reference arm's own log odds. ``_move_reference``
relabels the reference by index arithmetic, in O(K²); ``compose_reindex``
and ``transform`` are the same relabeling as a dense parameter transform,
for any permutation. Marginals go through one Cholesky factor of the
dropped block (``marginalize_keep``), or one rank-one Schur complement
when only the last coordinate is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.linalg.blas import dtrmm, dtrsm
from scipy.linalg.lapack import dtrtri

from .errors import CannotSampleError, ConfigError, _check_count, _frozen_numbers, _numbers

__all__ = [
    "GaussianBelief",
    "make_flat_belief",
    "compose_reindex",
    "transform",
    "marginalize_drop_last",
    "marginalize_keep",
    "embed_flat_last",
    "sample",
]

# Squared pivots, eigenvalues and diagonal entries within this fraction of a
# symmetric matrix's largest diagonal entry count as zero, at any scale.
REL_TOL = 1e-10


def _zero_floor(matrix: np.ndarray) -> float:
    """``REL_TOL`` times the largest diagonal entry of ``matrix`` (0 if none)."""
    return REL_TOL * np.maximum.reduce(matrix.diagonal(), initial=0.0)


def _cholesky(block: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of a symmetric block, or None when the
    factorization fails or a squared pivot is within its ``_zero_floor``."""
    try:
        factor = np.linalg.cholesky(block)
    except np.linalg.LinAlgError:
        return None
    if block.size and factor.diagonal().min() ** 2 <= _zero_floor(block):
        return None
    return factor


@dataclass(frozen=True)
class GaussianBelief:
    """Multivariate Gaussian in precision form.

    Zero rows and columns of ``precision`` encode flat (improper)
    directions; a belief with any flat direction is not proper and cannot
    be sampled, but it can still be transformed, updated, and embedded.
    A zero-dimensional belief is permitted as the degenerate base case for
    ``embed_flat_last``.

    Construction factors the precision once and caches the lower Cholesky
    factor (None when a pivot's square is within ``_zero_floor``, or when
    any row is exactly zero). Exactly-zero rows are flat, so only the
    remaining block is factored; if that fails, the precision is positive
    semidefinite unless an eigenvalue is below minus ``_zero_floor``.
    """

    mean: np.ndarray
    precision: np.ndarray
    _factor: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = _frozen_numbers(self, "mean").size
        precision = _numbers("precision", self.precision, vector=False)
        if precision.shape != (d, d):
            raise ConfigError(f"precision shape {precision.shape} does not match mean length {d}")
        # Symmetrize on every construction for numerical cleanliness.
        precision = 0.5 * (precision + precision.T)
        # The precision is a permutation of diag(block, 0) over its
        # exactly-zero rows, so it is PSD exactly when the block is.
        flat = ~precision.any(axis=1)
        block = precision[np.ix_(~flat, ~flat)] if flat.any() else precision
        factor = _cholesky(block)
        if factor is None:
            min_eig = float(np.linalg.eigvalsh(precision)[0])
            if min_eig < -_zero_floor(precision):
                raise ConfigError(f"precision is not positive semidefinite "
                                  f"(min eigenvalue {min_eig:.3e})")
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


def make_flat_belief(dim: int) -> GaussianBelief:
    """Improper uniform belief: zero mean, zero precision."""
    _check_count("dim", dim, 1)
    return GaussianBelief(np.zeros(dim), np.zeros((dim, dim)))


def _permutation_matrix(perm: Sequence[int]) -> np.ndarray:
    """Permutation matrix moving entry j of a per-arm vector to position
    ``perm[j]``, after checking ``perm`` is a permutation."""
    perm = _numbers("perm", perm, int)
    k = perm.size
    if k < 1:
        raise ConfigError("permutation must be non-empty")
    if not np.array_equal(np.sort(perm), np.arange(k)):
        raise ConfigError(f"{perm.tolist()} is not a permutation of 0..{k - 1}")
    entries = np.zeros((k, k))
    entries[perm, np.arange(k)] = 1.0
    return entries


def compose_reindex(perm: Sequence[int], num_arms: int) -> np.ndarray:
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
    return entries


def transform(belief: GaussianBelief, matrix: np.ndarray) -> GaussianBelief:
    """Push a belief through an invertible reparameterization, a square
    matrix of the belief's size.

    The mean maps forward; the precision maps by inverse conjugation, so a
    zero precision stays zero and proper beliefs stay proper. A matrix that
    is not finite, not square, of another size, or singular to working
    precision raises ``ConfigError``.
    """
    matrix = _numbers("transform", matrix, vector=False)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.shape[0] < 1:
        raise ConfigError(f"transform must be square, got shape {matrix.shape}")
    if len(matrix) != belief.dim:
        raise ConfigError(f"transform dimension {len(matrix)} does not match "
                          f"belief dimension {belief.dim}")
    try:
        inverse = np.linalg.solve(matrix, np.eye(belief.dim))
    except np.linalg.LinAlgError as exc:
        raise ConfigError("transform is singular") from exc
    if not np.all(np.isfinite(inverse)):
        raise ConfigError("transform is numerically singular")
    return GaussianBelief(matrix @ belief.mean, inverse.T @ belief.precision @ inverse)


def _move_reference(belief: GaussianBelief, r: int) -> GaussianBelief:
    """The belief over the same arms after arm ``r`` becomes the reference.

    The coordinates are reordered so that arm r sits last and the old
    reference second to last, the others keeping their order. With b_r
    arm r's coordinate and b_K the base rate, every other odds-ratio
    coordinate b_i becomes b_i − b_r, the old reference's becomes −b_r and
    the base rate becomes b_K + b_r, so every arm keeps its log odds. That
    is the mean. The precision P, reordered alike, goes through the
    inverse map c = T b', where T is the identity except that column K−1
    is v = (−1, …, −1, 1, −1) and column K is e_{K−1}. So Tᵀ P T differs
    from P only in the last two rows and columns: row and column K−1
    become P v, with vᵀ P v on the diagonal, and the last row and column
    take the old reference's row and column of P. The
    cost is one reordering copy and one matrix-vector product, O(K²). This
    is ``transform(belief, compose_reindex(perm, K))`` for the permutation
    that moves arm r last; the mean matches it bit for bit.
    """
    k = belief.dim
    order = np.r_[0:r, r + 1 : k, r]
    mean = belief.mean[order]
    shift, base = mean[-1], mean[-2]
    mean[:-2] -= shift
    mean[-2] = -shift
    mean[-1] = base + shift
    precision = belief.precision.take(order, 0).take(order, 1)
    v = np.full(k, -1.0)
    v[-2] = 1.0
    column = precision @ v
    column[-2], column[-1] = v @ column, column[-2]
    precision[:, -1] = precision[:, -2]
    precision[-1] = precision[-2]
    precision[:, -2] = column
    precision[-2] = column
    return GaussianBelief(mean, precision)


def marginalize_keep(belief: GaussianBelief, keep: Sequence[int]) -> GaussianBelief:
    """Marginal belief over a subset of coordinates, in the given order.

    Works directly in precision form: the kept block minus B A⁻¹ Bᵀ, for
    the dropped block A and the coupling B of kept to dropped coordinates.
    A is factored as L Lᵀ, and the coupling enters as WᵀW with W = L⁻¹Bᵀ,
    one triangular solve. A block that fails that factorization (see
    ``_cholesky``), such as one with a flat row, is singular or nearly so;
    it goes through its eigenpairs instead, as a pseudo-inverse that drops
    the eigenvalues within its ``_zero_floor``, which keeps this
    total over valid (positive semidefinite) precisions. A flat dropped
    coordinate couples to nothing and integrates out to nothing, so a
    fully flat belief marginalizes to a flat belief.
    """
    keep = _numbers("keep", keep, int).tolist()
    d = belief.dim
    if len(keep) < 1:
        raise ConfigError("must keep at least one coordinate")
    kept = set(keep)
    if len(kept) != len(keep) or any(i < 0 or i >= d for i in keep):
        raise ConfigError(f"invalid coordinate subset {keep} for dimension {d}")
    p = belief.precision
    marginal = p.take(keep, 0).take(keep, 1)
    drop = np.array([i for i in range(d) if i not in kept], dtype=np.intp)
    if drop.size:
        rows = p.take(drop, 0)
        block = rows.take(drop, 1)
        # The precision is symmetric, so Bᵀ is the dropped rows' kept columns.
        coupling_t = rows.take(keep, 1)
        factor = _cholesky(block)
        if factor is not None:
            # Lᵀ in Fortran order is L's own buffer, so L is not copied.
            root = dtrsm(1.0, factor.T, coupling_t, lower=0, trans_a=1)
            marginal -= root.T @ root
        else:
            eigvals, eigvecs = np.linalg.eigh(block)
            nonzero = np.abs(eigvals) > _zero_floor(block)
            loadings = coupling_t.T @ eigvecs[:, nonzero]
            marginal -= (loadings / eigvals[nonzero]) @ loadings.T
    return GaussianBelief(belief.mean[keep], marginal)


def _drop_last_precision(precision: np.ndarray) -> np.ndarray:
    """Precision of the marginal over all coordinates but the last: the
    rank-one Schur complement P[:-1, :-1] − p pᵀ / P[-1, -1] with
    p = P[:-1, -1], or P[:-1, :-1] when the last coordinate is flat."""
    pivot = precision[-1, -1]
    if pivot == 0.0:
        return precision[:-1, :-1]
    coupling = precision[:-1, -1]
    return precision[:-1, :-1] - np.multiply.outer(coupling, coupling) / pivot


def marginalize_drop_last(belief: GaussianBelief) -> GaussianBelief:
    """Marginal over all coordinates but the last."""
    if belief.dim < 2:
        raise ConfigError("must keep at least one coordinate")
    return GaussianBelief(belief.mean[:-1], _drop_last_precision(belief.precision))


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
    return _draw_into(belief.inverse_factor, belief.mean, np.empty((count, belief.dim)), rng)


def _draw_into(factor: np.ndarray, mean: np.ndarray, out: np.ndarray, rng: np.random.Generator,
               norms: np.ndarray | None = None) -> np.ndarray:
    """Fill the C-contiguous (rows, dim) array ``out`` with the draws
    ``mean + z @ factor`` of standard normals z, in place, and return it.

    ``factor`` is a belief's L⁻¹, a (dim, dim) lower triangular matrix, so
    the draws have the belief's law. The normals fill ``out`` in
    C order, the order of one ``standard_normal((rows, dim))`` call, and
    the triangular multiply runs in place, so ``sample`` and the blocked
    Thompson tally share one path from normals to draws. Given ``norms``,
    each row of normals is first rescaled to the Euclidean norm given for
    it: a row of standard normals has a uniform direction independent of
    its norm, so the rows are those of standard normals with that norm.
    With squared ``norms`` drawn from χ²(dim) conditioned on reaching r²,
    as the radial split draws them, they are rows of standard normals
    conditioned on a norm of at least r.
    """
    rng.standard_normal(out=out)
    if norms is not None:
        out *= (norms / np.sqrt(np.einsum("ij,ij->i", out, out)))[:, None]
    draws = dtrmm(1.0, factor, out.T, side=0, lower=1, trans_a=1, overwrite_b=1).T
    draws += mean
    return draws
