"""Gaussian beliefs in precision form: construction, transforms, marginals."""

import itertools

import numpy as np
import pytest

from orbandit import (
    CannotSampleError,
    ConfigError,
    GaussianBelief,
    compose_reindex,
    embed_flat_last,
    make_flat_belief,
    marginalize_drop_last,
    marginalize_keep,
    sample,
    transform,
)
from oracles import backsolve_sample, build_c_f, build_c_ind, random_proper_belief


# --- construction -----------------------------------------------------------


def test_flat_belief_is_improper_with_zero_precision():
    belief = make_flat_belief(4)
    assert belief.dim == 4
    assert not belief.is_proper()
    np.testing.assert_array_equal(belief.mean, np.zeros(4))
    np.testing.assert_array_equal(belief.precision, np.zeros((4, 4)))


def test_constructor_symmetrizes_small_asymmetry():
    precision = np.array([[2.0, 1.0 + 1e-12], [1.0, 2.0]])
    belief = GaussianBelief(np.zeros(2), precision)
    np.testing.assert_array_equal(belief.precision, belief.precision.T)


def test_constructor_rejects_mismatched_shapes():
    with pytest.raises(ConfigError):
        GaussianBelief(np.zeros(3), np.eye(2))
    with pytest.raises(ConfigError, match="field 'dim'"):
        make_flat_belief(2.5)


def test_constructor_rejects_non_finite_entries():
    precision = np.eye(2)
    precision[0, 1] = np.nan
    precision[1, 0] = np.nan
    with pytest.raises(ValueError):
        GaussianBelief(np.zeros(2), precision)


def test_constructor_rejects_indefinite_precision():
    with pytest.raises(ConfigError):
        GaussianBelief(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_belief_arrays_are_frozen():
    belief = make_flat_belief(2)
    with pytest.raises(ValueError):
        belief.mean[0] = 1.0


def test_covariance_matches_inverse_for_proper_belief():
    rng = np.random.default_rng(0)
    belief = random_proper_belief(5, rng)
    np.testing.assert_allclose(
        belief.covariance(), np.linalg.inv(belief.precision), atol=1e-10
    )


def test_covariance_of_improper_belief_raises():
    with pytest.raises(CannotSampleError):
        make_flat_belief(3).covariance()


def test_nearly_singular_precision_counts_as_improper():
    precision = np.diag([1.0, 1e-14])
    assert not GaussianBelief(np.zeros(2), precision).is_proper()


@pytest.mark.blas_sensitive
@pytest.mark.parametrize("scale", [1e-11, 1.0, 1e8])
def test_properness_and_validity_do_not_depend_on_the_precision_scale(scale):
    """Pivots and eigenvalues are judged against the largest diagonal
    entry: a well-conditioned precision is proper at any scale, a pivot
    1e-14 of the largest is flat at any scale, and an indefinite one is
    rejected at any scale."""
    assert GaussianBelief(np.zeros(3), scale * np.eye(3)).is_proper()
    assert not GaussianBelief(np.zeros(2), scale * np.diag([1.0, 1e-14])).is_proper()
    with pytest.raises(ConfigError, match="not positive semidefinite"):
        GaussianBelief(np.zeros(2), scale * np.array([[1.0, 2.0], [2.0, 1.0]]))


def no_eigvalsh(*args, **kwargs):
    raise AssertionError("eigvalsh ran")


def test_proper_belief_is_checked_by_its_cholesky_factor_alone(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    belief = random_proper_belief(4, np.random.default_rng(3))
    assert belief.is_proper()
    assert sample(belief, 5, np.random.default_rng(0)).shape == (5, 4)
    np.testing.assert_allclose(belief.covariance() @ belief.precision, np.eye(4), atol=1e-10)


def test_rank_deficient_psd_precision_is_valid_but_improper(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def spy(matrix):
        calls.append(matrix)
        return eigvalsh(matrix)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    belief = GaussianBelief(np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert len(calls) == 1
    assert not belief.is_proper()
    with pytest.raises(CannotSampleError):
        sample(belief, 3, np.random.default_rng(0))


def test_exactly_zero_rows_are_flat_without_eigvalsh(monkeypatch):
    core = random_proper_belief(4, np.random.default_rng(11))
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    embedded = embed_flat_last(core, start_last=0.5)
    assert not embedded.is_proper()
    np.testing.assert_array_equal(embedded.precision[:4, :4], core.precision)
    assert not make_flat_belief(5).is_proper()
    precision = np.zeros((3, 3))
    precision[np.ix_([0, 2], [0, 2])] = [[2.0, 0.5], [0.5, 1.0]]
    assert not GaussianBelief(np.zeros(3), precision).is_proper()


def test_flat_row_beside_an_indefinite_block_is_rejected():
    precision = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ConfigError):
        GaussianBelief(np.zeros(3), precision)


def test_flat_row_beside_a_singular_psd_block_is_valid_but_improper():
    precision = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    assert not GaussianBelief(np.zeros(3), precision).is_proper()


# --- transforms -------------------------------------------------------------


def test_c_ind_maps_odds_ratio_params_to_arm_logits():
    matrix = build_c_ind(3)
    np.testing.assert_array_equal(
        matrix, np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    )
    params = np.array([0.5, -0.2, -1.0])
    np.testing.assert_allclose(matrix @ params, [-0.5, -1.2, -1.0])


def test_transform_matrix_rejects_singular_input():
    """An exact zero pivot, and an inverse that overflows."""
    with pytest.raises(ConfigError, match="transform is singular"):
        transform(make_flat_belief(2), np.ones((2, 2)))
    with pytest.raises(ConfigError, match="transform is numerically singular"):
        transform(make_flat_belief(2), np.diag([1.0, 1e-320]))


def test_transform_rejects_a_non_finite_matrix():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError, match="field 'transform' must be finite"):
            transform(make_flat_belief(2), np.array([[1.0, 0.0], [bad, 1.0]]))


def test_permutation_matrix_moves_positions():
    # arm at position j lands at position perm[j]
    matrix = build_c_f((1, 0, 2))
    v = np.array([10.0, 20.0, 30.0])
    np.testing.assert_array_equal(matrix @ v, [20.0, 10.0, 30.0])


def test_permutation_must_be_bijection():
    with pytest.raises(ConfigError):
        build_c_f((0, 0, 2))
    with pytest.raises(ConfigError, match="field 'perm'"):
        build_c_f([0, 1.7])


def test_compose_reindex_is_integer_exact():
    matrix = compose_reindex((2, 1, 0), 3)
    np.testing.assert_array_equal(matrix, np.round(matrix))


def test_compose_reindex_is_the_conjugated_permutation_for_every_small_perm():
    """The entries equal C_ind⁻¹ C_f C_ind exactly, for every permutation
    of up to six arms."""
    for k in range(1, 7):
        c_ind = build_c_ind(k)
        for perm in itertools.permutations(range(k)):
            expected = np.linalg.inv(c_ind) @ build_c_f(perm) @ c_ind
            np.testing.assert_array_equal(compose_reindex(perm, k), expected)


def test_transform_preserves_distribution():
    """Transforming mean/precision agrees with transforming samples."""
    rng = np.random.default_rng(1)
    belief = random_proper_belief(4, rng)
    entries = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
    moved = transform(belief, entries)
    np.testing.assert_allclose(moved.mean, entries @ belief.mean, atol=1e-12)
    expected_cov = entries @ belief.covariance() @ entries.T
    np.testing.assert_allclose(moved.covariance(), expected_cov, atol=1e-9)


def test_reindex_round_trip_restores_belief():
    rng = np.random.default_rng(2)
    belief = random_proper_belief(5, rng)
    perm = (3, 0, 4, 1, 2)
    inverse = tuple(int(i) for i in np.argsort(perm))
    there = transform(belief, compose_reindex(perm, 5))
    back = transform(there, compose_reindex(inverse, 5))
    np.testing.assert_allclose(back.mean, belief.mean, atol=1e-10)
    np.testing.assert_allclose(back.precision, belief.precision, atol=1e-9)


def test_transform_dimension_mismatch_raises():
    """A matrix of another size than the belief, or not square."""
    with pytest.raises(ConfigError, match="transform dimension 2 does not match belief dimension 3"):
        transform(make_flat_belief(3), np.eye(2))
    for shape in ((3, 2), (3,), (1, 3, 3), (0, 0)):
        with pytest.raises(ConfigError, match="transform must be square"):
            transform(make_flat_belief(3), np.ones(shape))


# --- marginalization --------------------------------------------------------


def test_drop_last_matches_covariance_block():
    precision = np.array([[2.0, 1.0], [1.0, 2.0]])
    belief = GaussianBelief(np.array([0.3, -0.7]), precision)
    marginal = marginalize_drop_last(belief)
    # Schur complement: 2 - 1*1/2 = 1.5
    np.testing.assert_allclose(marginal.precision, [[1.5]], atol=1e-12)
    np.testing.assert_allclose(marginal.mean, [0.3], atol=1e-12)


def test_drop_last_rounds_exactly_as_the_rank_one_schur_complement():
    rng = np.random.default_rng(7)
    for k in (2, 10, 50):
        belief = random_proper_belief(k, rng, ridge=1e3)
        p = belief.precision
        rank_one = p[:-1, :-1] - np.outer(p[:-1, -1], p[-1, :-1]) / p[-1, -1]
        expected = GaussianBelief(belief.mean[:-1], rank_one)
        np.testing.assert_array_equal(marginalize_drop_last(belief).precision, expected.precision)


def test_drop_last_of_flat_belief_stays_flat():
    marginal = marginalize_drop_last(make_flat_belief(3))
    assert marginal.dim == 2
    np.testing.assert_array_equal(marginal.precision, np.zeros((2, 2)))


def test_drop_last_requires_two_dimensions():
    with pytest.raises(ConfigError):
        marginalize_drop_last(make_flat_belief(1))


def test_embed_then_drop_is_identity():
    rng = np.random.default_rng(3)
    belief = random_proper_belief(3, rng)
    embedded = embed_flat_last(belief, start_last=0.25)
    assert embedded.dim == 4
    assert embedded.mean[-1] == 0.25
    assert not embedded.is_proper()
    back = marginalize_drop_last(embedded)
    np.testing.assert_allclose(back.mean, belief.mean, atol=1e-12)
    np.testing.assert_allclose(back.precision, belief.precision, atol=1e-12)


def test_marginalize_keep_matches_covariance_block():
    rng = np.random.default_rng(4)
    belief = random_proper_belief(6, rng)
    keep = [1, 3, 4]
    marginal = marginalize_keep(belief, keep)
    expected = belief.covariance()[np.ix_(keep, keep)]
    np.testing.assert_allclose(marginal.covariance(), expected, atol=1e-9)
    np.testing.assert_allclose(marginal.mean, belief.mean[keep], atol=1e-12)


def test_marginalize_keep_of_flat_belief_stays_flat():
    marginal = marginalize_keep(make_flat_belief(4), [0, 2])
    np.testing.assert_array_equal(marginal.precision, np.zeros((2, 2)))


def test_marginalize_keep_rejects_bad_indices():
    belief = make_flat_belief(3)
    with pytest.raises(ConfigError):
        marginalize_keep(belief, [0, 3])
    with pytest.raises(ConfigError):
        marginalize_keep(belief, [1, 1])
    with pytest.raises(ConfigError):
        marginalize_keep(belief, [])
    with pytest.raises(ConfigError, match="field 'keep'"):
        marginalize_keep(belief, [0.5, 2])


def test_marginalize_keep_partially_flat_belief():
    """A flat coordinate can be dropped without touching the proper block."""
    precision = np.zeros((3, 3))
    precision[:2, :2] = np.array([[2.0, 0.5], [0.5, 1.0]])
    belief = GaussianBelief(np.array([1.0, 2.0, 3.0]), precision)
    marginal = marginalize_keep(belief, [0, 1])
    np.testing.assert_allclose(marginal.precision, precision[:2, :2], atol=1e-12)


def _counting_eigh(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    return calls


def test_marginalize_keep_factors_the_dropped_block_without_eigh(monkeypatch):
    """A positive definite dropped block is factored; it needs no
    eigenpairs."""
    calls = _counting_eigh(monkeypatch)
    belief = random_proper_belief(7, np.random.default_rng(5))
    keep = [4, 0, 2]
    marginal = marginalize_keep(belief, keep)
    expected = belief.covariance()[np.ix_(keep, keep)]
    np.testing.assert_allclose(marginal.covariance(), expected, atol=1e-9)
    assert calls == []


def test_marginalize_keep_takes_eigenpairs_for_a_singular_dropped_block(monkeypatch):
    """The arrow curvature of a round in which arm 0 and the reference had
    no trials, plus prior precision on arm 0: with arm 0 kept, the dropped
    block (arms 1 and 2 and the reference) is singular along (1, 1, -1)
    and has no zero row, so the factorization fails and the pseudo-inverse
    integrates it out."""
    weights = np.array([0.0, 3.0, 5.0, 0.0])
    precision = np.diag(weights)
    precision[:-1, -1] = precision[-1, :-1] = weights[:-1]
    precision[-1, -1] = weights.sum()
    precision[0, 0] += 2.0
    belief = GaussianBelief(np.array([0.1, 0.2, 0.3, 0.4]), precision)
    calls = _counting_eigh(monkeypatch)
    marginal = marginalize_keep(belief, [0])
    assert calls == [(3, 3)]
    np.testing.assert_allclose(marginal.precision, [[2.0]], rtol=1e-12)


# --- sampling ---------------------------------------------------------------


def test_samples_match_moments():
    rng = np.random.default_rng(5)
    belief = random_proper_belief(3, rng)
    draws = sample(belief, 200_000, rng)
    np.testing.assert_allclose(draws.mean(axis=0), belief.mean, atol=0.02)
    np.testing.assert_allclose(np.cov(draws.T), belief.covariance(), atol=0.03)


def test_sampling_improper_belief_raises():
    rng = np.random.default_rng(6)
    with pytest.raises(CannotSampleError):
        sample(make_flat_belief(2), 10, rng)


def test_sampling_is_deterministic_given_seed():
    belief = GaussianBelief(np.zeros(2), np.eye(2))
    a = sample(belief, 5, np.random.default_rng(7))
    b = sample(belief, 5, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("k", [0, 1, 2, 10])
def test_sample_matches_the_backsolve_oracle_and_spends_count_times_dim_normals(k):
    belief = random_proper_belief(k, np.random.default_rng(30 + k))
    rng, oracle_rng = np.random.default_rng(31), np.random.default_rng(31)
    draws = sample(belief, 500, rng)
    expected = backsolve_sample(belief.mean, belief.precision, 500, oracle_rng)
    assert draws.shape == (500, k)
    scale = np.abs(expected).max(initial=0.0)
    np.testing.assert_allclose(draws, expected, rtol=1e-12, atol=1e-12 * scale)
    spent = np.random.default_rng(31)
    spent.standard_normal(500 * k)
    assert rng.bit_generator.state == spent.bit_generator.state
    assert belief.covariance().shape == (k, k)


def test_sample_count_must_be_positive():
    belief = GaussianBelief(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        sample(belief, 0, np.random.default_rng(8))
    with pytest.raises(ConfigError, match="field 'count'"):
        sample(belief, 2.5, np.random.default_rng(8))
