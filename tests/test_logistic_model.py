"""Batch likelihood, curvature, and the Laplace posterior update."""

import numpy as np
import pytest
from scipy.special import expit, logit

from orbandit import (
    ConfigError,
    GaussianBelief,
    OptimizationFailureError,
    ProbVector,
    RoundData,
    fit_map,
    hessian_lambda,
    laplace_update,
    logistic_model,
    make_flat_belief,
    neg_log_posterior,
    probs_from_params,
)
from oracles import dense_objective, fd_gradient, fd_hessian


def random_belief(k, rng, scale=1.0):
    root = rng.normal(size=(k, k))
    return GaussianBelief(rng.normal(size=k), root @ root.T + scale * np.eye(k))


# --- round data and probabilities -------------------------------------------


def test_round_data_validates_counts():
    with pytest.raises(ConfigError):
        RoundData(np.array([10, 10]), np.array([11, 0]))
    with pytest.raises(ConfigError):
        RoundData(np.array([10, -1]), np.array([0, 0]))
    with pytest.raises(ValueError):
        RoundData(np.array([], dtype=int), np.array([], dtype=int))
    for n in ([2.5, 3], ["4", 3], [[1, 2], [3]]):
        with pytest.raises(ConfigError, match="field 'n'"):
            RoundData(n, [1, 1])


def test_prob_vector_requires_open_interval():
    with pytest.raises(ConfigError):
        ProbVector(np.array([0.0, 0.5]))
    with pytest.raises(ConfigError):
        ProbVector(np.array([0.5, 1.0]))
    with pytest.raises(ConfigError, match="field 'params'"):
        probs_from_params(["0.5", "1"])


def test_probs_from_params_reference_and_offsets():
    params = np.array([0.7, -0.3, -1.0])
    probs = probs_from_params(params)
    np.testing.assert_allclose(
        probs.p, expit(np.array([0.7 - 1.0, -0.3 - 1.0, -1.0])), atol=1e-15
    )


def test_probs_from_params_saturates_without_leaving_open_interval():
    probs = probs_from_params(np.array([800.0, -800.0]))
    assert 0.0 < probs.p[0] < 1.0
    assert 0.0 < probs.p[1] < 1.0


# --- objective and derivatives ----------------------------------------------


def test_objective_value_matches_dense_reference():
    rng = np.random.default_rng(10)
    n = np.array([40, 55, 70])
    c = np.array([10, 20, 30])
    data = RoundData(n, c)
    prior = random_belief(3, rng)
    reference = dense_objective(n, c, prior.mean, prior.precision)
    for _ in range(5):
        mu = rng.normal(size=3)
        value, _ = neg_log_posterior(mu, data, prior)
        assert value == pytest.approx(reference(mu), rel=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    for k in (2, 4, 7):
        n = rng.integers(20, 200, size=k)
        c = rng.binomial(n, 0.4)
        data = RoundData(n, c)
        prior = random_belief(k, rng)
        reference = dense_objective(n, c, prior.mean, prior.precision)
        mu = rng.normal(size=k)
        _, grad = neg_log_posterior(mu, data, prior)
        np.testing.assert_allclose(grad, fd_gradient(reference, mu), atol=1e-5)


def test_hessian_lambda_frozen_symmetric_example():
    """K=2, n=(10,10), mu=0: p=1/2 everywhere, each weight 10/4."""
    data = RoundData(np.array([10, 10]), np.array([5, 5]))
    hess = hessian_lambda(np.zeros(2), data)
    np.testing.assert_allclose(hess, [[2.5, 2.5], [2.5, 5.0]], atol=1e-12)


def test_hessian_lambda_matches_weighted_design_product():
    rng = np.random.default_rng(12)
    k = 5
    n = rng.integers(10, 100, size=k)
    data = RoundData(n, rng.binomial(n, 0.3))
    mu = rng.normal(size=k)
    design = np.eye(k)
    design[:, -1] = 1.0
    p = expit(design @ mu)
    weights = n * p * (1.0 - p)
    expected = design.T @ np.diag(weights) @ design
    np.testing.assert_allclose(hessian_lambda(mu, data), expected, atol=1e-12)


def test_hessian_lambda_ignores_unobserved_arms():
    data = RoundData(np.array([0, 50]), np.array([0, 20]))
    hess = hessian_lambda(np.zeros(2), data)
    assert hess[0, 0] == 0.0
    assert hess[0, 1] == 0.0


# --- posterior mode ----------------------------------------------------------


def test_flat_prior_map_equals_closed_form_logits():
    data = RoundData(np.array([100, 100, 100]), np.array([31, 30, 28]))
    mode = fit_map(data, make_flat_belief(3))
    expected = np.array(
        [logit(0.31) - logit(0.28), logit(0.30) - logit(0.28), logit(0.28)]
    )
    np.testing.assert_allclose(mode, expected, atol=1e-10)


def test_map_respects_informative_prior():
    """The mode of likelihood + quadratic prior has zero total gradient."""
    rng = np.random.default_rng(13)
    n = np.array([60, 80, 90, 40])
    data = RoundData(n, rng.binomial(n, 0.35))
    prior = random_belief(4, rng, scale=3.0)
    mode = fit_map(data, prior)
    _, grad = neg_log_posterior(mode, data, prior)
    assert np.max(np.abs(grad)) <= 1e-10


def test_map_with_unobserved_arm_keeps_prior_mean_coordinate():
    prior = make_flat_belief(3)
    data = RoundData(np.array([0, 100, 100]), np.array([0, 40, 50]))
    mode = fit_map(data, prior)
    assert mode[0] == 0.0
    np.testing.assert_allclose(mode[2], logit(0.5), atol=1e-10)
    np.testing.assert_allclose(mode[1], logit(0.4) - logit(0.5), atol=1e-10)


def test_map_smooths_degenerate_counts_under_flat_prior():
    """All-success and all-failure arms land at the half-success logits."""
    data = RoundData(np.array([20, 20, 50]), np.array([20, 0, 25]))
    mode = fit_map(data, make_flat_belief(3))
    # the reference arm's counts are interior, so it is not smoothed
    np.testing.assert_allclose(mode[2], logit(0.5), atol=1e-10)
    np.testing.assert_allclose(mode[0], logit(20.5 / 21.0) - logit(0.5), atol=1e-10)
    np.testing.assert_allclose(mode[1], logit(0.5 / 21.0) - logit(0.5), atol=1e-10)


def test_degenerate_counts_with_informative_prior_need_no_smoothing():
    """A proper prior tempers all-success data by itself."""
    prior = GaussianBelief(np.zeros(2), 4.0 * np.eye(2))
    data = RoundData(np.array([15, 15]), np.array([15, 7]))
    mode = fit_map(data, prior)
    assert np.all(np.isfinite(mode))
    _, grad = neg_log_posterior(mode, data, prior)
    assert np.max(np.abs(grad)) <= 1e-10


def test_map_converges_at_large_counts():
    rng = np.random.default_rng(14)
    n = rng.integers(100_000, 500_000, size=6)
    data = RoundData(n, rng.binomial(n, 0.05))
    mode = fit_map(data, make_flat_belief(6))
    _, grad = neg_log_posterior(mode, data, make_flat_belief(6))
    assert np.max(np.abs(grad)) <= 1e-10


def test_map_dimension_mismatch_raises():
    with pytest.raises(ConfigError):
        fit_map(RoundData(np.array([5, 5]), np.array([1, 1])), make_flat_belief(3))
    data = RoundData(np.array([5, 5]), np.array([1, 1]))
    with pytest.raises(ConfigError, match="field 'mu'"):
        hessian_lambda(["0.1", True], data)
    with pytest.raises(ConfigError, match="field 'mu'"):
        neg_log_posterior([0.0, np.inf], data, make_flat_belief(2))


def test_optimization_failure_reports_last_iterate():
    error = OptimizationFailureError("no", np.array([1.0]), 2.0)
    assert error.grad_norm == 2.0
    np.testing.assert_array_equal(error.last_iterate, [1.0])


def test_unconverged_mode_search_raises_with_last_iterate(monkeypatch):
    monkeypatch.setattr(logistic_model, "MAX_NEWTON_ITER", 1)
    data = RoundData(np.array([100, 100, 100]), np.array([31, 30, 28]))
    with pytest.raises(OptimizationFailureError) as caught:
        laplace_update(make_flat_belief(3), data)
    assert np.all(np.isfinite(caught.value.last_iterate))
    assert caught.value.grad_norm > logistic_model.GRAD_TOL


# --- Laplace update ----------------------------------------------------------


def test_laplace_update_adds_curvature_to_prior_precision():
    rng = np.random.default_rng(15)
    prior = random_belief(3, rng, scale=2.0)
    n = np.array([120, 90, 150])
    data = RoundData(n, rng.binomial(n, 0.25))
    posterior = laplace_update(prior, data)
    expected = prior.precision + hessian_lambda(posterior.mean, data)
    np.testing.assert_allclose(posterior.precision, expected, atol=1e-12)


def test_laplace_posterior_precision_matches_fd_hessian():
    rng = np.random.default_rng(16)
    prior = random_belief(4, rng, scale=2.0)
    n = np.array([200, 150, 180, 220])
    c = rng.binomial(n, 0.4)
    data = RoundData(n, c)
    posterior = laplace_update(prior, data)
    reference = dense_objective(n, c, prior.mean, prior.precision)
    fd = fd_hessian(reference, posterior.mean, h=1e-3)
    np.testing.assert_allclose(posterior.precision, fd, rtol=5e-5, atol=1e-6)


def test_flat_start_posterior_is_proper_after_one_round():
    data = RoundData(np.array([50, 60, 70]), np.array([10, 20, 30]))
    posterior = laplace_update(make_flat_belief(3), data)
    assert posterior.is_proper()


def test_unobserved_arm_marginal_is_untouched():
    """No data for an arm leaves its precision row flat and mean unchanged."""
    prior = make_flat_belief(3)
    data = RoundData(np.array([0, 80, 90]), np.array([0, 30, 40]))
    posterior = laplace_update(prior, data)
    assert posterior.mean[0] == 0.0
    np.testing.assert_array_equal(posterior.precision[0], np.zeros(3))
    assert not posterior.is_proper()


def test_all_zero_round_keeps_belief_unchanged():
    rng = np.random.default_rng(17)
    prior = random_belief(3, rng)
    data = RoundData(np.zeros(3, dtype=int), np.zeros(3, dtype=int))
    posterior = laplace_update(prior, data)
    np.testing.assert_allclose(posterior.mean, prior.mean, atol=1e-12)
    np.testing.assert_allclose(posterior.precision, prior.precision, atol=1e-12)


def test_two_sequential_updates_approximate_one_pooled_update():
    """Batched conjugate-style accumulation: splitting a round in half gives
    nearly the pooled posterior at these counts."""
    n_all = np.array([400, 400, 400])
    c_all = np.array([120, 140, 100])
    pooled = laplace_update(make_flat_belief(3), RoundData(n_all, c_all))
    half1 = laplace_update(make_flat_belief(3), RoundData(n_all // 2, c_all // 2))
    half2 = laplace_update(half1, RoundData(n_all - n_all // 2, c_all - c_all // 2))
    np.testing.assert_allclose(half2.mean, pooled.mean, atol=5e-3)
    np.testing.assert_allclose(
        half2.precision, pooled.precision, rtol=5e-2, atol=1e-8
    )
