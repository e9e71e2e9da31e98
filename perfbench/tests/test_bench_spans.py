"""Self-time arithmetic and rebinding of the span tracer."""

import numpy as np
import pytest

import orbandit
from orbandit import policy, simulation
import spans


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        traced_leaf()
        clock.now += 3.0

    def outer():
        clock.now += 5.0
        traced_middle()
        traced_leaf()

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    tracer.wrap("outer", outer)()

    assert tracer.stats["leaf"].calls == 2
    assert tracer.stats["leaf"].self_s == pytest.approx(4.0)
    assert tracer.stats["middle"].self_s == pytest.approx(4.0)
    assert tracer.stats["outer"].self_s == pytest.approx(5.0)
    total = sum(s.self_s for s in tracer.stats.values())
    assert total == pytest.approx(clock.now)


def test_failures_are_counted_and_reraised():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError("boom")

    outer = tracer.wrap("outer", lambda: tracer.wrap("boom", boom)())
    with pytest.raises(ValueError):
        outer()
    assert tracer.stats["boom"].failures == 1
    assert tracer.stats["outer"].failures == 1
    assert tracer.stats["outer"].self_s == pytest.approx(0.0)


def test_install_rebinds_every_package_namespace_and_uninstall_restores():
    original = policy.allocation_proportions
    tracer = spans.Tracer()
    undo = spans.install(tracer, {"policy.allocation_proportions": original}, {
        "gaussian_belief.is_proper": (orbandit.GaussianBelief, "is_proper")})
    try:
        assert simulation.allocation_proportions is policy.allocation_proportions
        assert orbandit.allocation_proportions is not original
        belief = orbandit.GaussianBelief([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        simulation.allocation_proportions(belief, 10, np.random.default_rng(0))
        belief.is_proper()
    finally:
        spans.uninstall(undo)
    assert policy.allocation_proportions is original
    assert simulation.allocation_proportions is original
    assert "is_proper" in orbandit.GaussianBelief.__dict__
    assert orbandit.GaussianBelief.is_proper.__name__ == "is_proper"
    assert tracer.stats["policy.allocation_proportions"].calls == 1
    assert tracer.stats["gaussian_belief.is_proper"].calls == 1
