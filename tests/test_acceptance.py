"""Acceptance gate: ten end-to-end properties the package must satisfy.

Each test pins its tolerances and seeds; the seeded statistical gates
06–09 keep their configs and bounds in ``acceptance_gates``, which
``tools/gates.py`` also runs on more seeds. The conftest hook prints one
PASS/FAIL line per criterion in the terminal summary. Oracles are
independent constructions (closed forms, finite differences, grid
quadrature, dense matrix identities), not the package's own formulas.
"""

import json
import time

import numpy as np
from scipy.special import logit

import acceptance_gates
from acceptance_gates import TIER1_SEEDS
from orbandit import (
    RoundData,
    allocation_proportions,
    compose_reindex,
    laplace_update,
    make_flat_belief,
    marginalize_drop_last,
    transform,
)
from orbandit.cli import main as cli_main
from oracles import (
    build_c_f,
    build_c_ind,
    dense_objective,
    fd_hessian,
    grid_allocation_probs,
    hessian_lambda,
    random_proper_belief,
)


def test_acceptance_01_posterior_mode_oracle():
    """Flat-prior MAP equals the closed-form saturated-model logits and the
    posterior precision equals the weighted arrow matrix at the mode."""
    started = time.perf_counter()
    n = np.array([100, 100, 100, 100])
    c = np.array([30, 31, 28, 35])
    data = RoundData(n, c)

    posterior = laplace_update(make_flat_belief(4), data)
    mode = posterior.mean
    rates = c / 100.0
    expected = np.array(
        [
            logit(rates[0]) - logit(rates[3]),
            logit(rates[1]) - logit(rates[3]),
            logit(rates[2]) - logit(rates[3]),
            logit(rates[3]),
        ]
    )
    np.testing.assert_allclose(mode, expected, atol=1e-8)

    # independent entry-by-entry arrow table with weights n * p * (1 - p)
    weights = n * rates * (1.0 - rates)
    table = np.zeros((4, 4))
    for i in range(3):
        table[i, i] = weights[i]
        table[i, 3] = weights[i]
        table[3, i] = weights[i]
    table[3, 3] = weights.sum()
    np.testing.assert_allclose(posterior.precision, table, atol=1e-10)
    np.testing.assert_allclose(posterior.mean, expected, atol=1e-8)

    assert time.perf_counter() - started < 1.0


def test_acceptance_02_hessian_finite_difference_oracle():
    """Analytic curvature matches the finite-difference Hessian of the
    flat-prior objective at 20 random points, within 1e-4 relative."""
    started = time.perf_counter()
    rng = np.random.default_rng(20240201)
    cases = [2] * 7 + [5] * 7 + [10] * 6
    for k in cases:
        n = rng.integers(20, 300, size=k)
        c = rng.binomial(n, rng.uniform(0.1, 0.9))
        data = RoundData(n, c)
        mu = rng.normal(size=k)
        analytic = hessian_lambda(mu, data)
        numeric = fd_hessian(dense_objective(n, c), mu, h=1e-3)
        scale = max(1.0, float(np.linalg.norm(analytic)))
        assert np.linalg.norm(numeric - analytic) / scale < 1e-4
    assert time.perf_counter() - started < 5.0


def test_acceptance_03_reference_invariance():
    """Relabeling arms permutes allocation proportions and commutes with
    the map to per-arm-logit coordinates."""
    started = time.perf_counter()
    rng = np.random.default_rng(20240301)
    k = 5
    c_ind = build_c_ind(k)
    for _ in range(20):
        belief = random_proper_belief(k, rng, ridge=0.5)
        perm = tuple(int(i) for i in rng.permutation(k))

        moved = transform(belief, compose_reindex(perm, k))
        base = allocation_proportions(belief, 100_000, np.random.default_rng(7))
        relabeled = allocation_proportions(moved, 100_000, np.random.default_rng(8))
        expected = np.empty(k)
        expected[list(perm)] = base.p
        np.testing.assert_allclose(relabeled.p, expected, atol=0.01)

        # both routes to per-arm logits must agree: reindex-then-map
        # versus map-then-permute
        route_a = transform(moved, c_ind)
        route_b = transform(transform(belief, c_ind), build_c_f(perm))
        np.testing.assert_allclose(route_a.mean, route_b.mean, atol=1e-8)
        np.testing.assert_allclose(route_a.precision, route_b.precision, atol=1e-8)
    assert time.perf_counter() - started < 30.0


def test_acceptance_04_marginalization_consistency():
    """Dropping the last coordinate reproduces the leading covariance block."""
    rng = np.random.default_rng(20240401)
    for index in range(100):
        k = 2 + index % 9
        belief = random_proper_belief(k, rng, ridge=0.5)
        marginal = marginalize_drop_last(belief)
        np.testing.assert_allclose(
            marginal.covariance(), belief.covariance()[:-1, :-1], atol=1e-10
        )
        np.testing.assert_allclose(marginal.mean, belief.mean[:-1], atol=1e-12)


def test_acceptance_05_allocation_quadrature_oracle():
    """Monte Carlo proportions for three arms match 2-D grid quadrature of
    the argmax probabilities within 0.01."""
    rng = np.random.default_rng(20240501)
    for _ in range(10):
        belief = random_proper_belief(3, rng, ridge=0.5)
        mc = allocation_proportions(belief, 100_000, np.random.default_rng(11))
        cov = belief.covariance()
        quad = grid_allocation_probs(belief.mean[:2], cov[:2, :2])
        np.testing.assert_allclose(mc.p, quad, atol=0.01)


def test_acceptance_06_stationary_regret_parity():
    """Ten stationary arms (0.31 vs nine at 0.30): the two full-rank
    policies land within 25% of each other, and the odds-ratio policy pays
    at most a factor-two premium over full-rank."""
    started = time.perf_counter()
    values, margins, passed = acceptance_gates.gate_06(TIER1_SEEDS["06"], jobs=4)
    assert passed, (values, margins)
    assert time.perf_counter() - started < 600.0


def test_acceptance_07_drift_robustness():
    """Under shared drift of twenty logit gaps the odds-ratio policy has the
    lowest mean cumulative regret and wins most paired replications."""
    values, margins, passed = acceptance_gates.gate_07(TIER1_SEEDS["07"], jobs=4)
    assert passed, (values, margins)


def test_acceptance_08_two_regime_uplift():
    """A large shared logit drop mid-experiment (with day-to-day jitter):
    the odds-ratio policy collects at least as many expected clicks as each
    baseline, with a positive mean uplift."""
    values, margins, passed = acceptance_gates.gate_08(TIER1_SEEDS["08"], jobs=4)
    assert passed, (values, margins)


def test_acceptance_09_continuous_transitivity():
    """Arms never observed together are still comparable through shared
    arms: after {A,B,C} then {B,C,D}, the posterior puts high probability
    on A beating D even though the two never ran concurrently."""
    values, margins, passed = acceptance_gates.gate_09(TIER1_SEEDS["09"])
    assert passed, margins


def test_acceptance_10_manifest_determinism(tmp_path):
    """Rerunning a simulation from its own manifest reproduces the CSV
    outputs byte for byte."""
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "arms": 3,
                "rounds": 5,
                "trials": 1000,
                "replications": 2,
                "policy": "all",
                "seed": 7,
                "n_draws": 2000,
                "d": 0.0,
            }
        ),
        encoding="utf-8",
    )
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert cli_main(["simulate", "--config", str(config_path), "--out", str(first)]) == 0
    assert (
        cli_main(
            ["simulate", "--config", str(first / "manifest.json"), "--out", str(second)]
        )
        == 0
    )
    for name in ("regret.csv", "summary.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
