"""Batch likelihood, curvature, and the Laplace posterior update."""

import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, logit

from orbandit import (
    BanditError,
    ConfigError,
    GaussianBelief,
    LogisticPolicyState,
    LogitBelief,
    OptimizationFailureError,
    ProbVector,
    RoundData,
    UpdateMode,
    full_ts_update,
    laplace_update,
    logistic_model,
    logit_update,
    make_flat_belief,
)
from orbandit.gaussian_belief import REL_TOL
import oracles
from oracles import (
    dense_objective,
    fd_gradient,
    fd_hessian,
    hessian_lambda,
    neg_log_posterior,
    probs_from_params,
    random_proper_belief,
)


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
    prior = random_proper_belief(3, rng)
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
        prior = random_proper_belief(k, rng)
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
    mode = laplace_update(make_flat_belief(3), data).mean
    expected = np.array(
        [logit(0.31) - logit(0.28), logit(0.30) - logit(0.28), logit(0.28)]
    )
    np.testing.assert_allclose(mode, expected, atol=1e-10)


def test_map_respects_informative_prior():
    """The mode of likelihood + quadratic prior has zero total gradient."""
    rng = np.random.default_rng(13)
    n = np.array([60, 80, 90, 40])
    data = RoundData(n, rng.binomial(n, 0.35))
    prior = random_proper_belief(4, rng, ridge=3.0)
    mode = laplace_update(prior, data).mean
    _, grad = neg_log_posterior(mode, data, prior)
    assert np.max(np.abs(grad)) <= 1e-10


def test_map_with_unobserved_arm_keeps_prior_mean_coordinate():
    prior = make_flat_belief(3)
    data = RoundData(np.array([0, 100, 100]), np.array([0, 40, 50]))
    mode = laplace_update(prior, data).mean
    assert mode[0] == 0.0
    np.testing.assert_allclose(mode[2], logit(0.5), atol=1e-10)
    np.testing.assert_allclose(mode[1], logit(0.4) - logit(0.5), atol=1e-10)


def test_map_smooths_degenerate_counts_under_flat_prior():
    """All-success and all-failure arms land at the half-success logits."""
    data = RoundData(np.array([20, 20, 50]), np.array([20, 0, 25]))
    mode = laplace_update(make_flat_belief(3), data).mean
    # the reference arm's counts are interior, so it is not smoothed
    np.testing.assert_allclose(mode[2], logit(0.5), atol=1e-10)
    np.testing.assert_allclose(mode[0], logit(20.5 / 21.0) - logit(0.5), atol=1e-10)
    np.testing.assert_allclose(mode[1], logit(0.5 / 21.0) - logit(0.5), atol=1e-10)


@pytest.mark.blas_sensitive
@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_flatness_for_smoothing_is_relative_to_the_prior_precision(scale):
    """A coordinate is flat when its prior precision is within 1e-10 of
    the largest, at any scale: only the second arm here is smoothed."""
    prior = GaussianBelief(np.zeros(2), scale * np.diag([1.0, 1e-11]))
    n, c = logistic_model._effective_counts(RoundData(np.array([20, 20]), np.array([20, 0])), prior)
    np.testing.assert_array_equal(n, [20.0, 21.0])
    np.testing.assert_array_equal(c, [20.0, 0.5])


def test_degenerate_counts_with_informative_prior_need_no_smoothing():
    """A proper prior tempers all-success data by itself."""
    prior = GaussianBelief(np.zeros(2), 4.0 * np.eye(2))
    data = RoundData(np.array([15, 15]), np.array([15, 7]))
    mode = laplace_update(prior, data).mean
    assert np.all(np.isfinite(mode))
    _, grad = neg_log_posterior(mode, data, prior)
    assert np.max(np.abs(grad)) <= 1e-10


def test_map_converges_at_large_counts():
    rng = np.random.default_rng(14)
    n = rng.integers(100_000, 500_000, size=6)
    data = RoundData(n, rng.binomial(n, 0.05))
    mode = laplace_update(make_flat_belief(6), data).mean
    _, grad = neg_log_posterior(mode, data, make_flat_belief(6))
    assert np.max(np.abs(grad)) <= 1e-10


@pytest.mark.blas_sensitive
@pytest.mark.parametrize("prior, trials", [
    (GaussianBelief(np.zeros(2), np.diag([2.0, 0.0])), 10**6),
    (GaussianBelief(np.zeros(2), np.diag([2.0, 0.0])), 10**7),
    (make_flat_belief(19), 10**8),
])
def test_all_success_rounds_converge_at_large_counts(prior, trials):
    """Every arm all successes at 1e6-1e8 trials, the reference smoothed
    for a prior flat in it: the objective must not lose its value to
    cancellation between n*softplus(q) and c*q, or the line search stalls
    short of the mode."""
    data = RoundData(np.full(prior.dim, trials), np.full(prior.dim, trials))
    posterior = laplace_update(prior, data)
    assert posterior.is_proper()
    n, c = logistic_model._effective_counts(data, prior)
    _, grad, _ = logistic_model._evaluate(posterior.mean, n, c, prior)
    assert np.max(np.abs(grad)) <= 1e-12 * trials


@pytest.mark.blas_sensitive
def test_flat_prior_with_an_idle_reference_gives_a_valid_improper_posterior():
    """With the reference idle under a flat prior, shifting the base rate
    against every odds ratio leaves the likelihood unchanged, so the
    posterior precision is singular; at 2.5e8 trials its rounding must not
    read as a negative eigenvalue."""
    data = RoundData(np.array([1_532_848, 63_557, 252_949_069, 0]),
                     np.array([0, 0, 75_876_968, 0]))
    posterior = laplace_update(make_flat_belief(4), data)
    assert np.all(np.isfinite(posterior.mean))
    assert not posterior.is_proper()


def test_map_dimension_mismatch_raises():
    with pytest.raises(ConfigError):
        laplace_update(make_flat_belief(3), RoundData(np.array([5, 5]), np.array([1, 1])))
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
    """One Newton step settles neither round: the error carries the last
    iterate, the gradient norm, the last decrement and the iteration count,
    prints the three numbers, and survives the pickling that ``--jobs``
    applies to it."""
    monkeypatch.setattr(logistic_model, "MAX_NEWTON_ITER", 1)
    rounds = (([100, 100, 100], [31, 30, 28]),
              ([10**6] * 4, [310_000, 300_000, 295_000, 305_000]))
    for n, c in rounds:
        prior, data = make_flat_belief(len(n)), RoundData(np.array(n), np.array(c))
        with pytest.raises(OptimizationFailureError) as caught:
            laplace_update(prior, data)
        error = caught.value
        assert np.all(np.isfinite(error.last_iterate))
        assert error.grad_norm > logistic_model.GRAD_TOL
        # neither round has degenerate counts, so the search ran on these
        value, _ = neg_log_posterior(error.last_iterate, data, prior)
        assert error.decrement > logistic_model._NOISE_FLOOR * (1.0 + abs(value))
        assert error.iterations == 1
        message = str(error)
        for part in (f"{error.grad_norm:.3e}", f"{error.decrement:.3e}", "after 1 Newton iteration"):
            assert part in message, message
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is OptimizationFailureError and str(copy) == message
        assert (copy.grad_norm, copy.decrement, copy.iterations) == (
            error.grad_norm, error.decrement, error.iterations)
        np.testing.assert_array_equal(copy.last_iterate, error.last_iterate)
    # Cut off after four steps, the 1e6-trial round's last decrement (about
    # 1e-9) is within the objective's float noise (about 9e-9 at its value
    # of about 2.5e6), so the search accepts its last iterate.
    monkeypatch.setattr(logistic_model, "MAX_NEWTON_ITER", 4)
    n, c = rounds[1]
    laplace_update(make_flat_belief(len(n)), RoundData(np.array(n), np.array(c)))


def _reference_prior(k, kind, rng):
    """A proper prior, a fully flat one, or a proper one whose last row and
    column are flat, as ``or_ts`` leaves the reference after its forget."""
    if kind == "flat":
        return make_flat_belief(k)
    root = rng.normal(size=(k, k))
    precision = (root @ root.T + 0.1 * np.eye(k)) * 10.0 ** rng.uniform(-2.0, 6.0)
    if kind == "flat_last":
        precision[-1, :] = 0.0
        precision[:, -1] = 0.0
    return GaussianBelief(rng.normal(scale=2.0, size=k), precision)


@pytest.mark.blas_sensitive
@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    k=st.integers(2, 50),
    kind=st.sampled_from(["proper", "flat", "flat_last"]),
    arms=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_laplace_update_matches_the_reference_bit_for_bit(k, kind, arms, seed):
    """The update that evaluates the likelihood once per Newton step gives
    exactly the mean and precision of the update that evaluated it twice,
    or fails as it did, at 1e2-1e9 trials per arm."""
    rng = np.random.default_rng(seed)
    prior = _reference_prior(k, kind, rng)
    shapes = arms.draw(st.lists(st.sampled_from(["none", "failures", "successes", "mixed"]),
                                min_size=k, max_size=k))
    n = np.rint(10.0 ** rng.uniform(2.0, 9.0, size=k)).astype(np.int64)
    c = rng.binomial(n, rng.uniform(0.01, 0.6, size=k))
    for arm, shape in enumerate(shapes):
        if shape == "none":
            n[arm] = c[arm] = 0
        elif shape == "failures":
            c[arm] = 0
        elif shape == "successes":
            c[arm] = n[arm]
    data = RoundData(n, c)
    try:
        expected = oracles.laplace_update(prior, data)
    except BanditError as failure:
        with pytest.raises(type(failure)) as caught:
            laplace_update(prior, data)
        assert type(caught.value) is type(failure)
        if isinstance(failure, OptimizationFailureError):
            assert caught.value.grad_norm == failure.grad_norm
            np.testing.assert_array_equal(caught.value.last_iterate, failure.last_iterate)
        return
    posterior = laplace_update(prior, data)
    assert np.array_equal(posterior.mean, expected.mean)
    assert np.array_equal(posterior.precision, expected.precision)


# --- Laplace update ----------------------------------------------------------


def test_laplace_update_adds_curvature_to_prior_precision():
    rng = np.random.default_rng(15)
    prior = random_proper_belief(3, rng, ridge=2.0)
    n = np.array([120, 90, 150])
    data = RoundData(n, rng.binomial(n, 0.25))
    posterior = laplace_update(prior, data)
    expected = prior.precision + hessian_lambda(posterior.mean, data)
    np.testing.assert_allclose(posterior.precision, expected, atol=1e-12)


def test_laplace_posterior_precision_matches_fd_hessian():
    rng = np.random.default_rng(16)
    prior = random_proper_belief(4, rng, ridge=2.0)
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
    prior = random_proper_belief(3, rng)
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


# --- per-arm logit update ----------------------------------------------------


def logit_steps(belief, prior, data):
    """Each arm's Newton step |g / h| at ``belief``'s logits for the
    objective of ``logit_update`` from ``prior`` on ``data``, relative to
    max(1, |η|); NaN for a flat arm without trials."""
    n, c = logistic_model._smoothed(data.n.astype(float), data.c.astype(float), prior.flat)
    m, d, eta = prior.logit_mean, prior.logit_precision, belief.logit_mean
    up, down = expit(eta), expit(-eta)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = (d * (eta - m) + (n - c) * up - c * down) / (d + n * up * down)
    return np.abs(step) / np.maximum(1.0, np.abs(eta))


def sweep_calls(calls=300):
    """The seeded sweep: K in 2..12; even calls from a flat prior, odd ones
    from logit precisions 10^U(−1, 6), a fifth of them 0, around means
    N(−1, 2²); round(10^U(0, 12)) trials an arm, each arm idle,
    all-success, all-failure or Binomial at a rate U(0.01, 0.99)."""
    rng = np.random.default_rng([32, 11])
    for call in range(calls):
        k = int(rng.integers(2, 13))
        if call % 2 == 0:
            mean, precision = np.zeros(k), np.zeros(k)
        else:
            mean, precision = rng.normal(-1.0, 2.0, k), 10.0 ** rng.uniform(-1.0, 6.0, k)
            precision[rng.random(k) < 0.2] = 0.0
        n = np.round(10.0 ** rng.uniform(0.0, 12.0, k)).astype(np.int64)
        kind = rng.integers(4, size=k)
        n[kind == 0] = 0
        c = np.where(kind == 1, n, np.where(kind == 2, 0, rng.binomial(n, rng.uniform(0.01, 0.99, k))))
        yield LogitBelief(mean, precision), RoundData(n, c)


def test_logit_update_matches_the_dense_update_on_a_seeded_sweep():
    """On 300 seeded updates (``sweep_calls``), the per-arm update raises
    nothing, stops within 1e-12 relative of every arm's mode, and agrees
    with the dense ``laplace_update`` of its odds-ratio view on each arm
    proper in both where the dense search reached that arm's mode (its
    own Newton step there within 1e-10 relative): means within 1e-9
    relative to max(1, |η|), and precisions within 1e-9 relative plus the
    dense update's own rounding. That rounding is n eps, from the dense
    curvature n p (1 − p) with p rounded near 1, and for the reference eps
    times the corner ΣD, of which the dense belief holds D_K as a
    difference. The dense search raises on some calls and stops short of
    some arms' modes: its stop is global, so an arm of small curvature
    beside arms of 1e12 trials keeps a gradient within the objective's
    float noise. The per-arm updates take well under a second."""
    eps = np.finfo(float).eps
    compared = short = dense_failures = 0
    elapsed = 0.0
    for prior, data in sweep_calls():
        start = time.process_time()
        posterior = logit_update(prior, data)
        elapsed += time.process_time() - start
        assert not (logit_steps(posterior, prior, data) > 1e-12).any()
        try:
            dense = laplace_update(GaussianBelief(prior.mean, prior.precision), data)
        except OptimizationFailureError:
            dense_failures += 1
            continue
        mean, precision = oracles.arrow_logits(dense)
        corner = dense.precision[-1, -1]
        reached = logit_steps(LogitBelief(mean, np.zeros_like(mean)), prior, data) <= 1e-10
        both = ~posterior.flat & (precision > REL_TOL * corner)
        short += (both & ~reached).sum()
        arms = both & reached
        compared += arms.sum()
        eta, d = posterior.logit_mean[arms], posterior.logit_precision[arms]
        assert np.all(np.abs(mean[arms] - eta) <= 1e-9 * np.maximum(1.0, np.abs(eta)))
        rounding = eps * data.n[arms] + np.where(np.flatnonzero(arms) == data.arms - 1, eps * corner, 0.0)
        assert np.all(np.abs(precision[arms] - d) <= 1e-9 * d + 2.0 * rounding)
    # 1425 arms compared, 130 that the dense search stopped short of, and 12
    # dense failures, at this seed.
    assert compared > 1000 and short < compared / 5 and dense_failures < 30
    assert elapsed < 0.5


def test_logit_update_smooths_the_reference_like_any_arm():
    """K = 4 from a flat start: round 1 leaves the reference idle, and in
    round 2 it fails 3 trials of 3. Its logit is flat, so it is smoothed
    to half a success in 4 trials, as arm 0 is with the same counts, and
    the belief is proper. The dense update reads the reference's flatness
    from the corner ΣD, which is not flat, leaves it unsmoothed, runs its
    logit toward −∞ and turns improper."""
    first = RoundData(np.array([50, 50, 50, 0]), np.array([15, 14, 16, 0]))
    second = RoundData(np.array([50, 50, 50, 3]), np.array([15, 14, 16, 0]))
    state = full_ts_update(LogisticPolicyState.flat_start(4, UpdateMode.FULL), first)
    posterior = full_ts_update(state, second).belief
    assert posterior.is_proper()
    np.testing.assert_allclose(posterior.logit_mean[-1], logit(0.5 / 4.0), rtol=1e-14)
    swapped = [3, 1, 2, 0]
    moved = full_ts_update(full_ts_update(LogisticPolicyState.flat_start(4, UpdateMode.FULL),
                                          RoundData(first.n[swapped], first.c[swapped])),
                           RoundData(second.n[swapped], second.c[swapped])).belief
    assert moved.logit_mean[0] == posterior.logit_mean[-1]
    dense = laplace_update(GaussianBelief(state.belief.mean, state.belief.precision), second)
    assert not dense.is_proper() and dense.mean[-1] < -20.0


@st.composite
def relabeled_rounds(draw):
    """One to three rounds of counts at 2 to 6 arms, each arm idle,
    degenerate or Binomial at 1 to 1e9 trials, and a relabeling of the
    arms that may move the reference."""
    k = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rounds = []
    for _ in range(draw(st.integers(1, 3))):
        n = np.round(10.0 ** rng.uniform(0.0, 9.0, k)).astype(np.int64)
        kind = rng.integers(4, size=k)
        n[kind == 0] = 0
        c = np.where(kind == 1, n, np.where(kind == 2, 0, rng.binomial(n, rng.uniform(0.05, 0.95, k))))
        rounds.append(RoundData(n, c))
    return rounds, np.array(draw(st.permutations(range(k))))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(case=relabeled_rounds())
def test_full_ts_update_commutes_with_every_relabeling(case):
    """Relabeling the arms, the reference included, and then updating
    gives the relabeled update bit for bit: each arm's logit moves alone,
    and its flatness is read against an exactly rounded ΣD."""
    rounds, order = case
    k = order.size
    state = LogisticPolicyState.flat_start(k, UpdateMode.FULL)
    moved = LogisticPolicyState.flat_start(k, UpdateMode.FULL)
    for data in rounds:
        state = full_ts_update(state, data)
        moved = full_ts_update(moved, RoundData(data.n[order], data.c[order]))
        assert np.array_equal(moved.belief.logit_mean, state.belief.logit_mean[order])
        assert np.array_equal(moved.belief.logit_precision, state.belief.logit_precision[order])
