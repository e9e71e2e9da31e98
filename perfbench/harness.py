"""Study, decision loop, accuracy panel and set-up timing for one workload.

Everything here calls the package through its public modules, looking
each function up on its module at call time, so the tracer in ``spans``
sees the same calls the package's own callers make.

A run has two measured parts:

* the study: ``orbandit simulate`` (or ``orbandit continuous`` on the
  changing-arms workload) run in-process through ``orbandit.cli.main``;
* the decision loop: one closed-loop client that, each round, hands the
  policy the round's counts and asks for the next proportions, with the
  counts drawn from this module's own seeded environment.

A replication that raises is counted as failed and the loop moves on to
the next one; nothing that raised is dropped. That holds for any exception
the package raises, not only its own ``BanditError`` types.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import ctypes
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg import solve_triangular
from scipy.special import bdtr, bdtrc, expit

import orbandit
from orbandit import cli, continuous, gaussian_belief, logistic_model, policy, simulation

import spans
from workloads import P_OPTIMAL, P_SUBOPTIMAL, POLICIES, WORKLOADS, Workload, churn_scenario

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent

# Samples that must lie beyond a reported p90.
MIN_BEYOND = 10

# Draws of the independent reference allocation, by belief dimension.
REFERENCE_DRAWS_SMALL = 200_000
REFERENCE_DRAWS_LARGE = 50_000
REFERENCE_CHUNK = 10_000
MIN_EXPECTED_WINS = 5
# Significance of the per-allocation accuracy check, shared out over arms.
MISMATCH_ALPHA = 1e-7
# Beliefs captured per panel slot, leaving room for skipped ones.
PANEL_CAPTURE = 3
# Set-up probes use one fixed seed, so set-up work is the same on every run.
SETUP_SEED = 0

# Times are CPU time of this process (of the child process for set-up).
# The measured work runs in one thread with one BLAS thread, so this equals
# wall time except for time the machine gives to other work; on a shared
# two-CPU virtual machine, stolen time alone stretched wall-clock runs by up
# to 60%.
CLOCK = time.process_time

# Host-speed probe: a fixed kernel of pure-Python arithmetic, 100,000
# normal draws and an argmax over them, and a small dense Cholesky factor,
# triangular solve and eigendecomposition. Its CPU time on
# the machine the baseline was recorded on, in its usual state, is
# PROBE_REFERENCE_S; every timing metric is scaled to that speed.
PROBE_LOOP = 12_000
PROBE_BLOCK = (500, 200)
PROBE_DIM = 100
PROBE_REFERENCE_S = 0.004
# A probe runs before a timed step once this much CPU time has passed
# since the previous probe.
PROBE_GAP_S = 0.05

_FAILED_ROUND = re.compile(r"failed at round (\d+)")

# Safety stop for a decision loop whose replications keep failing.
MAX_PASSES = 1000


def enough_for_p90(samples: int) -> bool:
    """Whether at least ``MIN_BEYOND`` of ``samples`` lie beyond their p90."""
    return samples >= 10 * MIN_BEYOND


def valid_allocation(alloc, arms: int) -> bool:
    p = getattr(alloc, "p", None)
    return (
        isinstance(alloc, policy.AllocationProportions)
        and p.shape == (arms,)
        and bool(np.all(np.isfinite(p)))
        and bool(np.all(p >= 0.0))
        and abs(float(p.sum()) - 1.0) <= 1e-9
    )


@dataclass
class Accounting:
    """Replications attempted and failed, overall and per policy."""

    attempted: int = 0
    failed: int = 0
    failed_by_policy: dict = field(default_factory=lambda: {p: 0 for p in POLICIES})
    attempted_by_policy: dict = field(default_factory=lambda: {p: 0 for p in POLICIES})

    def record(self, policy_name: str, raised: bool, count: int = 1) -> None:
        self.attempted += count
        self.attempted_by_policy[policy_name] += count
        if raised:
            self.failed += count
            self.failed_by_policy[policy_name] += count

    def merge(self, other: "Accounting") -> None:
        for p in POLICIES:
            self.record(p, False, other.attempted_by_policy[p] - other.failed_by_policy[p])
            self.record(p, True, other.failed_by_policy[p])


# ---------------------------------------------------------- host speed


class HostSpeed:
    """CPU time of a fixed probe kernel, sampled between timed steps.

    On a shared virtual machine the same code runs at speeds up to about
    1.4x apart, in states that last from a second to minutes, so whole
    runs can fall in one state. Every timed step is scaled by
    ``PROBE_REFERENCE_S`` over the mean cost of the probes on either side
    of it, which reports it at the reference speed. The probes run outside
    the timed steps and use none of the package's code, so a change to the
    package moves the timed step and not its scale.
    """

    def __init__(self):
        self._rng = np.random.default_rng(0)
        self._block = np.empty(PROBE_BLOCK)
        self._matrix = self._rng.standard_normal((PROBE_DIM, PROBE_DIM))
        self._spd = self._matrix @ self._matrix.T + PROBE_DIM * np.eye(PROBE_DIM)
        # CPU times at which each probe started and ended, and its cost.
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.costs: list[float] = []
        for _ in range(3):
            self._kernel()

    def _kernel(self) -> int:
        total = 0
        for i in range(PROBE_LOOP):
            total += i * i % 7
        self._rng.standard_normal(out=self._block)
        np.argmax(self._block, axis=1)
        factor = np.linalg.cholesky(self._spd)
        solve_triangular(factor, self._matrix, lower=True)
        np.linalg.eigvalsh(self._spd)
        return total

    def probe(self) -> None:
        start = CLOCK()
        self._kernel()
        end = CLOCK()
        self.starts.append(start)
        self.ends.append(end)
        self.costs.append(end - start)

    def maybe_probe(self) -> None:
        if not self.ends or CLOCK() - self.ends[-1] >= PROBE_GAP_S:
            self.probe()

    def _scale(self, gap: int) -> float:
        """Reference cost over the mean cost of the probes that bound the
        time between probe ``gap`` and probe ``gap + 1``."""
        return PROBE_REFERENCE_S / statistics.fmean(self.costs[max(gap, 0):gap + 2])

    def at_reference(self, start: float, end: float, seconds: float | None = None) -> float:
        """The CPU time from ``start`` to ``end`` at the reference speed.

        Probes that ran inside the interval are left out of it and split
        it; each piece is scaled by the probes on either side of it. With
        ``seconds``, the CPU time of a child process this process waited
        for from ``start`` to ``end``, that is scaled instead.
        """
        gap = bisect.bisect_right(self.ends, start) - 1
        if seconds is not None:
            return seconds * self._scale(gap)
        total, edge = 0.0, start
        while gap + 1 < len(self.ends) and self.ends[gap + 1] <= end:
            total += (self.starts[gap + 1] - edge) * self._scale(gap)
            edge = self.ends[gap + 1]
            gap += 1
        return total + (end - edge) * self._scale(gap)

    def factor(self) -> float:
        """Median probe cost over the reference cost: above 1 is slower."""
        return statistics.median(self.costs) / PROBE_REFERENCE_S


# ---------------------------------------------------------------- study


@dataclass
class Study:
    steps: int = 0
    # (start, end) CPU times of the study's CLI runs.
    intervals: list = field(default_factory=list)
    accounting: Accounting = field(default_factory=Accounting)
    reinitializations: int = 0
    # Replications whose output files were read back.
    completed: int = 0
    runs: int = 0


def _cli(argv: list[str], speed: HostSpeed | None = None) -> tuple[int, tuple, str]:
    """Run the CLI in-process; returns exit code, (start, end) CPU times
    and stderr. A probe of ``speed`` may run first, outside the timing."""
    if speed is not None:
        speed.maybe_probe()
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        start = CLOCK()
        try:
            code = cli.main(argv)
        except Exception as exc:  # the CLI itself reports only BanditError
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
        end = CLOCK()
    return code, (start, end), err.getvalue()


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _simulate_config(wl: Workload, seed: int, rounds: int, replications: int) -> dict:
    return {
        "arms": wl.arms, "rounds": rounds, "trials": wl.trials,
        "replications": replications, "policy": "all", "seed": seed,
        "n_draws": wl.n_draws, "d": wl.d,
        "p_optimal": P_OPTIMAL, "p_suboptimal": P_SUBOPTIMAL,
    }


def _write_json(path: Path, value) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(value), encoding="utf-8")
    return str(path)


def _churn_config(wl: Workload, seed: int, mode: str, rounds: int | None = None) -> dict:
    scenario = churn_scenario(seed, wl.study_rounds, wl.arms, wl.trials)
    return {"seed": seed, "n_draws": wl.n_draws, "mode": mode,
            "rounds": scenario[:rounds] if rounds else scenario}


def _count_completed(out: Path, rounds: int, study: Study) -> None:
    """Count the replications whose last round is in regret.csv."""
    study.completed += sum(int(row["round"]) == rounds for row in _read_csv(out / "regret.csv"))


def _study_once(wl: Workload, seed: int, tmp: Path, study: Study, speed) -> None:
    if wl.churn:
        for name, mode in (("or_ts", "odds_ratio"), ("full_ts", "full")):
            config = _write_json(tmp / f"churn-{mode}.json", _churn_config(wl, seed, mode))
            out = tmp / f"churn-{mode}"
            code, interval, _ = _cli(["continuous", "--config", config, "--out", str(out)], speed)
            study.intervals.append(interval)
            study.accounting.record(name, code != 0)
            if code == 0:
                study.steps += wl.study_rounds
                study.completed += 1
                decisions = _read_csv(out / "continuity.csv")
                study.reinitializations += sum(
                    row["decision"] == "reinitialize" for row in decisions[1:])
        return
    if not wl.study_per_cell:
        config = _write_json(
            tmp / "study.json",
            _simulate_config(wl, seed, wl.study_rounds, wl.study_replications))
        out = tmp / "study"
        code, interval, _ = _cli(
            ["simulate", "--config", config, "--out", str(out), "--jobs", "1"], speed)
        study.intervals.append(interval)
        for name in POLICIES:
            study.accounting.record(name, code != 0, wl.study_replications)
        if code == 0:
            study.steps += len(POLICIES) * wl.study_replications * wl.study_rounds
            _count_completed(out, wl.study_rounds, study)
        return
    # One CLI run per (policy, replication): run_replications stops at the
    # first replication that raises, which would hide the ones after it.
    config = _write_json(tmp / "cell.json", _simulate_config(wl, seed, wl.study_rounds, 1))
    for name in POLICIES:
        for rep in range(wl.study_replications):
            out = tmp / f"cell-{name}-{rep}"
            code, interval, err = _cli([
                "simulate", "--config", config, "--policy", name, "--seed", str(seed + rep),
                "--out", str(out), "--jobs", "1"], speed)
            study.intervals.append(interval)
            study.accounting.record(name, code != 0)
            if code == 0:
                study.steps += wl.study_rounds
                _count_completed(out, wl.study_rounds, study)
            else:
                match = _FAILED_ROUND.search(err)
                study.steps += int(match.group(1)) - 1 if match else 0


@dataclass
class _ProbeHook:
    """Stands in for a ``spans.Tracer``: its wrapper lets ``speed`` probe
    before each call, so that a CLI call lasting seconds is probed from
    inside, once a round, and not only at its ends."""

    speed: HostSpeed

    def wrap(self, name: str, fn):
        speed = self.speed

        def probed(*args, **kwargs):
            speed.maybe_probe()
            return fn(*args, **kwargs)
        return probed


# Functions the study calls once a round.
STUDY_PROBE_POINTS = {
    "simulation.env_step": simulation.env_step,
    "continuous.plan_round": continuous.plan_round,
}


def run_study(wl: Workload, seed: int, tmp: Path, budget_s: float = 0.0,
              speed: HostSpeed | None = None) -> Study:
    """Run the study, and again with the same seed while ``budget_s``
    seconds have not passed since the start. With ``speed``, the host is
    probed between and inside the CLI calls."""
    study = Study()
    start = time.perf_counter()
    undo = spans.install(_ProbeHook(speed), STUDY_PROBE_POINTS, {}) if speed else []
    try:
        while True:
            _study_once(wl, seed, tmp, study, speed)
            study.runs += 1
            if time.perf_counter() - start >= budget_s:
                break
    finally:
        spans.uninstall(undo)
    if speed is not None:
        speed.probe()
    return study


def rerun_identical(wl: Workload, seed: int, tmp: Path) -> bool:
    """Two small study runs with one seed must write identical bytes."""
    outputs = []
    for attempt in range(2):
        out = tmp / f"rerun-{attempt}"
        if wl.churn:
            config = _write_json(tmp / "rerun.json", _churn_config(wl, seed, "odds_ratio", 6))
            code, _, err = _cli(["continuous", "--config", config, "--out", str(out)])
            name = "rounds.csv"
        else:
            config = _write_json(tmp / "rerun.json", _simulate_config(wl, seed, 2, 1))
            code, _, err = _cli(["simulate", "--config", config, "--out", str(out), "--jobs", "1"])
            name = "regret.csv"
        outputs.append((code, (out / name).read_bytes() if code == 0 else err))
    return outputs[0] == outputs[1]


# -------------------------------------------------------- decision loop


@dataclass
class Decisions:
    # (start, end) CPU times of each timed decision, per policy.
    latency: dict = field(default_factory=lambda: {p: [] for p in POLICIES})
    accounting: Accounting = field(default_factory=Accounting)
    # (replication, mean regret share of its rounds) per policy.
    regret: dict = field(default_factory=lambda: {p: [] for p in POLICIES})
    invalid_allocations: int = 0
    reinitializations: int = 0
    # Replications started per policy.
    passes: int = 0
    # Probed before timed decisions when set.
    speed: HostSpeed | None = None

    def start_timing(self) -> float:
        if self.speed is not None:
            self.speed.maybe_probe()
        return CLOCK()


def _streams(seed: int, rep: int, count: int):
    return [np.random.default_rng(s) for s in np.random.SeedSequence([seed, rep]).spawn(count)]


def _drift_decide(name: str, state, data, wl: Workload, rng):
    if name == "beta_ts":
        state = policy.beta_ts_update(state, data)
        return state, policy.beta_ts_proportions(state, wl.n_draws, rng)
    update = policy.or_ts_update if name == "or_ts" else policy.full_ts_update
    state = update(state, data)
    if state.belief.is_proper():
        return state, policy.allocation_proportions(state.belief, wl.n_draws, rng)
    return state, policy.initial_proportions(wl.arms)


def _initial_state(name: str, arms: int):
    if name == "beta_ts":
        return policy.BetaState.uniform_prior(arms)
    mode = policy.UpdateMode.ODDS_RATIO if name == "or_ts" else policy.UpdateMode.FULL
    return policy.LogisticPolicyState.flat_start(arms, mode)


def _regret_share(n: np.ndarray, p: np.ndarray) -> float:
    """A round's expected regret as a share of what an even split of the
    same traffic would lose."""
    return float(np.sum(n * (p.max() - p))) / (n.sum() * float(p.max() - p.mean()))


def _record_regret(wl: Workload, name: str, rep: int, shares: list, out: "Decisions") -> None:
    """Mean regret share over the rounds the replication reached, up to
    ``regret_rounds``; a replication that raised keeps the rounds before."""
    if shares:
        out.regret[name].append((rep, float(np.mean(shares[: wl.regret_rounds or None]))))


def drift_replication(wl: Workload, name: str, seed: int, rep: int, out: Decisions,
                      trials: int | None = None) -> None:
    """One replication of ``decision_rounds`` rounds under shared logit drift."""
    rng_env, rng_traffic, rng_policy = _streams(seed, rep, 3)
    trials = trials or wl.trials
    base = simulation.single_best_arm_logits(wl.arms, P_OPTIMAL, P_SUBOPTIMAL)
    sigma = simulation.sigma_from_d(wl.d, P_OPTIMAL, P_SUBOPTIMAL)
    state = _initial_state(name, wl.arms)
    shares = np.full(wl.arms, 1.0 / wl.arms)
    samples = out.latency[name]
    regret = []
    for _ in range(wl.decision_rounds):
        p = expit(base + rng_env.normal(0.0, sigma))
        n = rng_traffic.multinomial(trials, shares)
        data = logistic_model.RoundData(n, rng_traffic.binomial(n, p))
        regret.append(_regret_share(n, p))
        start = out.start_timing()
        try:
            state, alloc = _drift_decide(name, state, data, wl, rng_policy)
        except Exception:
            out.accounting.record(name, True)
            _record_regret(wl, name, rep, regret, out)
            return
        samples.append((start, CLOCK()))
        if not valid_allocation(alloc, wl.arms):
            out.invalid_allocations += 1
            break
        shares = alloc.p
    out.accounting.record(name, False)
    _record_regret(wl, name, rep, regret, out)


def _beta_state(table: dict, active: list):
    """Beta posterior over the active arms; unseen arms start at (1, 1)."""
    params = [table.get(a, (1.0, 1.0)) for a in active]
    return policy.BetaState([a for a, _ in params], [b for _, b in params])


def churn_replication(wl: Workload, name: str, seed: int, rep: int, out: Decisions,
                      scenario: list) -> None:
    """One pass over the changing-arms scenario.

    A decision absorbs the previous round's counts and plans the next
    round; for the logistic modes it also checks continuity and
    reinitializes on a break, as ``run_continuous`` does.
    """
    rng_traffic, rng_policy = _streams(seed, rep, 2)
    mode = policy.UpdateMode.FULL if name == "full_ts" else policy.UpdateMode.ODDS_RATIO
    registry = continuous.ArmRegistry.empty()
    table: dict = {}
    samples = out.latency[name]
    regret = []
    previous = None
    for rnd in scenario:
        active = rnd["active"]
        start = out.start_timing()
        try:
            if name == "beta_ts":
                if previous:
                    seen, data = previous
                    state = policy.beta_ts_update(_beta_state(table, seen), data)
                    table.update(zip(seen, zip(state.alpha, state.beta)))
                alloc = policy.beta_ts_proportions(_beta_state(table, active), wl.n_draws,
                                                   rng_policy)
            else:
                if previous:
                    registry = continuous.absorb_round(registry, *previous, mode)
                if continuous.check_continuity(active, registry) is continuous.Continuity.REINITIALIZE:
                    if previous:
                        out.reinitializations += 1
                    registry = continuous.ArmRegistry.fresh(active)
                alloc = continuous.plan_round(registry, active, wl.n_draws, rng_policy).proportions
        except Exception:
            out.accounting.record(name, True)
            _record_regret(wl, name, rep, regret, out)
            return
        if previous:
            samples.append((start, CLOCK()))
        if not valid_allocation(alloc, len(active)):
            out.invalid_allocations += 1
            break
        p = np.array([rnd["p"][a] for a in active])
        n = rng_traffic.multinomial(rnd["trials"], alloc.p)
        regret.append(_regret_share(n, p))
        previous = (active, logistic_model.RoundData(n, rng_traffic.binomial(n, p)))
    out.accounting.record(name, False)
    _record_regret(wl, name, rep, regret, out)


def _replication(wl: Workload, name: str, seed: int, rep: int, out: Decisions,
                 scenario, trials: int | None = None) -> None:
    if wl.churn:
        churn_replication(wl, name, seed, rep, out, scenario)
    else:
        drift_replication(wl, name, seed, rep, out, trials)


def decision_loop(wl: Workload, seed: int, budget_s: float, reps: int | None = None,
                  speed: HostSpeed | None = None) -> Decisions:
    """Round-robin over policies, one replication each per pass, until the
    budget is spent and every policy has ``min_decisions`` timed decisions
    (and ``regret_reps`` passes); or for exactly ``reps`` passes.
    Gives up after ``MAX_PASSES`` passes, which the checks then report."""
    out = Decisions(speed=speed)
    scenario = churn_scenario(seed, wl.study_rounds, wl.arms, wl.trials) if wl.churn else None
    start = time.perf_counter()
    while out.passes < (reps if reps is not None else MAX_PASSES):
        if reps is None and (
            time.perf_counter() - start >= budget_s
            and min(len(s) for s in out.latency.values()) >= wl.min_decisions
            and out.passes >= wl.regret_reps
        ):
            break
        for name in POLICIES:
            _replication(wl, name, seed, out.passes, out, scenario)
        out.passes += 1
    if speed is not None:
        speed.probe()
    return out


@dataclass
class _BeliefRecorder:
    """Stands in for a ``spans.Tracer``: its wrapper keeps the belief that
    each ``allocation_proportions`` call receives."""

    beliefs: list = field(default_factory=list)

    def wrap(self, name: str, fn):
        def recorded(belief, *args, **kwargs):
            self.beliefs.append(belief)
            return fn(belief, *args, **kwargs)
        return recorded


def capture_panel(wl: Workload, seed: int) -> list:
    """Beliefs the logistic policies allocated from, taken from the
    decision loop's first replications (with ``panel_trials`` per round
    when set). The policies only allocate from proper beliefs."""
    wanted = PANEL_CAPTURE * wl.panel_size
    recorder = _BeliefRecorder()
    undo = spans.install(
        recorder, {"policy.allocation_proportions": policy.allocation_proportions}, {})
    scenario = churn_scenario(seed, wl.study_rounds, wl.arms, wl.trials) if wl.churn else None
    try:
        for rep in range(MAX_PASSES):
            for name in ("full_ts", "or_ts"):
                _replication(wl, name, seed, rep, Decisions(), scenario, wl.panel_trials or None)
                if len(recorder.beliefs) >= wanted:
                    return recorder.beliefs[:wanted]
    finally:
        spans.uninstall(undo)
    return recorder.beliefs


# ------------------------------------------------------ accuracy panel


def reference_allocation(belief, draws: int, rng) -> np.ndarray:
    """Winner counts over ``draws`` draws from the covariance's Cholesky
    factor, an independent construction from the package's precision
    back-solve."""
    cov = np.linalg.inv(belief.precision)
    factor = np.linalg.cholesky(0.5 * (cov + cov.T))
    counts = np.zeros(belief.dim)
    for begin in range(0, draws, REFERENCE_CHUNK):
        size = min(REFERENCE_CHUNK, draws - begin)
        scores = belief.mean + rng.standard_normal((size, belief.dim)) @ factor.T
        scores[:, -1] = 0.0
        counts += np.bincount(np.argmax(scores, axis=1), minlength=belief.dim)
    return counts


def mismatched(counts: np.ndarray, draws: int, ref_counts: np.ndarray, ref_draws: int) -> bool:
    """Whether some arm's winner count differs from the reference's by
    more than chance allows.

    If both samplers draw from one distribution, an arm's count given the
    two counts' sum is hypergeometric. The binomial with the same sum and
    share ``draws / (draws + ref_draws)`` is wider, so its tails make a
    conservative test; unlike a normal tolerance it holds for rare arms.
    An arm fails when its two-sided tail probability is below
    ``MISMATCH_ALPHA`` shared out over the arms. (``scipy.stats`` would
    give the hypergeometric tails, but importing it doubles the set-up
    processes' time.)
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = counts + np.asarray(ref_counts, dtype=np.int64)
    share = draws / (draws + ref_draws)
    tail = np.minimum(bdtr(counts, total, share), bdtrc(counts - 1, total, share))
    return bool(np.any(2.0 * tail < MISMATCH_ALPHA / counts.size))


def allocation_error(panel: list, wl: Workload, seed: int) -> tuple[float, int, int]:
    """Root-mean-square per-arm error of ``allocation_proportions`` against
    the reference, in standard errors of that difference, over the first
    ``panel_size`` beliefs with at least two arms to measure; also the
    number of checks and how many of them were ``mismatched``.

    An arm is measured when its reference share would win at least
    ``MIN_EXPECTED_WINS`` of ``n_draws`` draws and lose as many. A sampler
    as accurate as independent draws scores about 1; halving its draws
    scores about 1.4.
    """
    rng = np.random.default_rng([seed, 7])
    squares, checks, violations, used = [], 0, 0, 0
    for belief in panel:
        if used == wl.panel_size:
            break
        draws = REFERENCE_DRAWS_SMALL if belief.dim <= 32 else REFERENCE_DRAWS_LARGE
        ref_counts = reference_allocation(belief, draws, rng)
        ref = ref_counts / draws
        variance = ref * (1.0 - ref) * (1.0 / wl.n_draws + 1.0 / draws)
        measured = np.minimum(ref, 1.0 - ref) * wl.n_draws >= MIN_EXPECTED_WINS
        if measured.sum() < 2:
            continue
        used += 1
        for _ in range(wl.panel_repeats):
            p = policy.allocation_proportions(belief, wl.n_draws, rng).p
            diff = p - ref
            squares.extend(diff[measured] ** 2 / variance[measured])
            checks += 1
            violations += mismatched(np.rint(p * wl.n_draws), wl.n_draws, ref_counts, draws)
    return (float(np.sqrt(np.mean(squares))) if squares else float("nan")), checks, violations


# ------------------------------------------------------------- set-up


def setup_probe(name: str, tiny: bool = False) -> None:
    """What a fresh process pays before its first live decision: importing
    the package (done by importing this module), building the study inputs
    and one warm-up decision per policy. The warm-up uses ``SETUP_SEED``
    and, on heavy traffic, the panel's trials per round, so that it does
    not depend on the run's seed or on where the mode search fails."""
    wl = WORKLOADS[name].tiny() if tiny else WORKLOADS[name]
    warm = Decisions()
    if wl.churn:
        scenario = churn_scenario(SETUP_SEED, wl.study_rounds, wl.arms, wl.trials)
        for name_ in POLICIES:
            churn_replication(wl, name_, SETUP_SEED, 0, warm, scenario[:2])
    else:
        simulation.drift_environment(wl.arms, P_OPTIMAL, P_SUBOPTIMAL, wl.d)
        for name_ in POLICIES:
            drift_replication(replace(wl, decision_rounds=1), name_, SETUP_SEED, 0, warm,
                              wl.panel_trials or None)


def setup_seconds(name: str, repeats: int, tiny: bool, speed: HostSpeed) -> list[float]:
    """CPU time (user + system) of ``repeats`` fresh set-up processes, each
    at the reference speed of the probes run just before and after it."""
    code = (f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(PERFBENCH)!r}]; "
            f"import harness; harness.setup_probe({name!r}, {tiny})")
    times = []
    for _ in range(repeats):
        speed.probe()
        start = CLOCK()
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        end = CLOCK()
        speed.probe()
        cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
        times.append(speed.at_reference(start, end, cpu))
    return times


# ----------------------------------------------------------- tracing

TRACED_FUNCTIONS = {
    "simulation.run_replications": simulation.run_replications,
    "simulation.run_experiment": simulation.run_experiment,
    "simulation.allocate_trials": simulation.allocate_trials,
    "simulation.draw_rewards": simulation.draw_rewards,
    "simulation.env_step": simulation.env_step,
    "cli.cmd_simulate": cli.cmd_simulate,
    "cli.cmd_continuous": cli.cmd_continuous,
    "policy.allocation_proportions": policy.allocation_proportions,
    "policy.beta_ts_proportions": policy.beta_ts_proportions,
    "policy.or_ts_update": policy.or_ts_update,
    "policy.full_ts_update": policy.full_ts_update,
    "policy.beta_ts_update": policy.beta_ts_update,
    "logistic_model.laplace_update": logistic_model.laplace_update,
    "gaussian_belief.sample": gaussian_belief.sample,
    "gaussian_belief.marginalize_drop_last": gaussian_belief.marginalize_drop_last,
    "gaussian_belief.marginalize_keep": gaussian_belief.marginalize_keep,
    "gaussian_belief.embed_flat_last": gaussian_belief.embed_flat_last,
    "gaussian_belief.transform": gaussian_belief.transform,
    "gaussian_belief.compose_reindex": gaussian_belief.compose_reindex,
    "continuous.plan_round": continuous.plan_round,
    "continuous.absorb_round": continuous.absorb_round,
    "continuous.reanchor_reference": continuous.reanchor_reference,
}
TRACED_METHODS = {
    "gaussian_belief.GaussianBelief": (gaussian_belief.GaussianBelief, "__init__"),
    "gaussian_belief.is_proper": (gaussian_belief.GaussianBelief, "is_proper"),
}


# --------------------------------------------------------------- runs


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    samples: dict
    problems: list
    failed_by_policy: dict
    attempted_by_policy: dict
    # Probe count and median probe cost over the reference, on timed runs.
    host_speed: dict | None = None


def _problems(wl: Workload, study: Study, decisions: Decisions, tiny: bool) -> list[str]:
    problems = []
    if decisions.invalid_allocations:
        problems.append(f"{decisions.invalid_allocations} allocation(s) were not valid proportions")
    expected = study.runs * (2 if wl.churn else len(POLICIES) * wl.study_replications)
    acc = study.accounting
    if acc.attempted != expected or acc.attempted - acc.failed != study.completed:
        problems.append(
            f"study: {acc.attempted} replications attempted (expected {expected}), "
            f"{acc.failed} failed, {study.completed} completed with output")
    for name in POLICIES:
        if decisions.accounting.attempted_by_policy[name] != decisions.passes:
            problems.append(f"decision loop: {name} ran {decisions.passes} replications "
                            f"but accounted for {decisions.accounting.attempted_by_policy[name]}")
        count = len(decisions.latency[name])
        if not tiny and not enough_for_p90(count):
            problems.append(f"decision loop: {name} has {count} decisions, too few for p90")
    return problems


def _totals(study: Study, decisions: Decisions) -> Accounting:
    total = Accounting()
    total.merge(study.accounting)
    total.merge(decisions.accounting)
    return total


def _result(problems: list, total: Accounting, metrics: dict) -> Result:
    return Result(
        correct=not problems, attempted=total.attempted, failed=total.failed,
        metrics={k: {"value": float(v), "unit": u} for k, (v, u, _) in metrics.items()},
        samples={k: n for k, (_, _, n) in metrics.items()}, problems=problems,
        failed_by_policy=dict(total.failed_by_policy),
        attempted_by_policy=dict(total.attempted_by_policy))


def timed_run(wl: Workload, seed: int, seconds: float, tmp: Path, tiny: bool) -> Result:
    # Set-up probes run in three batches, before, between and after the
    # measured parts, so that their median spans the run's length.
    batches = [wl.setup_repeats // 3 + (i < wl.setup_repeats % 3) for i in range(3)]
    speed = HostSpeed()
    setup = setup_seconds(wl.name, batches[0], tiny, speed)
    study = run_study(wl, seed, tmp / "study", seconds / 4.0, speed)
    setup += setup_seconds(wl.name, batches[1], tiny, speed)
    decisions = decision_loop(wl, seed, seconds / 2.0, speed=speed)
    # The peak is read before the checks below, whose own arrays are as
    # large as the package's, so that it stays a figure of the package.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += setup_seconds(wl.name, batches[2], tiny, speed)
    problems = _problems(wl, study, decisions, tiny)
    if not rerun_identical(wl, seed, tmp / "rerun"):
        problems.append("two study runs with one seed wrote different output files")
    alloc_err, checks, violations = allocation_error(capture_panel(wl, seed), wl, seed)
    if violations or not checks:
        problems.append(f"alloc_err: {violations} of {checks} allocations differ from the "
                        "reference by more than chance allows")
    total = _totals(study, decisions)
    metrics = {"setup_s": (statistics.median(setup), "s", len(setup))}
    latency_ms = {name: [speed.at_reference(*span) * 1e3 for span in spans_]
                  for name, spans_ in decisions.latency.items()}
    for q in (50, 90):
        for name, samples in latency_ms.items():
            metrics[f"decision_ms_p{q}.{name}"] = (np.percentile(samples, q), "ms", len(samples))
    study_s = sum(speed.at_reference(*span) for span in study.intervals)
    metrics["study_rounds_per_s"] = (study.steps / study_s, "1/s", study.steps)
    metrics["completed_share"] = (1.0 - total.failed / total.attempted, "ratio", total.attempted)
    for name in POLICIES:
        finals = [value for rep, value in decisions.regret[name] if rep < wl.regret_reps]
        if not finals:
            problems.append(f"regret_share.{name}: no replication reached a round")
        metrics[f"regret_share.{name}"] = (
            np.mean(finals) if finals else float("nan"), "ratio", len(finals))
    metrics["alloc_err"] = (alloc_err, "se", checks)
    metrics["peak_rss_mb"] = (peak, "MB", 1)
    result = _result(problems, total, metrics)
    result.host_speed = {"probes": len(speed.costs), "median_factor": speed.factor()}
    return result


def traced_run(wl: Workload, seed: int, tmp: Path) -> Result:
    """The same fixed work three times: a warm-up, then untraced, then
    traced. Call counts repeat exactly for a seed, and the difference in
    time between the last two passes is the tracing overhead."""
    def work(name: str):
        start = CLOCK()
        study = run_study(wl, seed, tmp / name)
        decisions = decision_loop(wl, seed, 0.0, reps=wl.trace_reps)
        return study, decisions, CLOCK() - start

    work("warm-up")
    _, _, untraced = work("untraced")
    tracer = spans.Tracer(clock=CLOCK)
    undo = spans.install(tracer, TRACED_FUNCTIONS, TRACED_METHODS)
    try:
        study, decisions, traced = work("traced")
    finally:
        spans.uninstall(undo)
    problems = _problems(wl, study, decisions, tiny=True)
    metrics = {}
    for span in list(TRACED_FUNCTIONS) + list(TRACED_METHODS):
        stats = tracer.stats[span]
        metrics[f"{span}.calls"] = (stats.calls, "count", 1)
        metrics[f"{span}.self_ms"] = (stats.self_s * 1e3, "ms", stats.calls)
    metrics["logistic_model.laplace_update.failures"] = (
        tracer.stats["logistic_model.laplace_update"].failures, "count", 1)
    metrics["continuous.reinitializations"] = (
        study.reinitializations + decisions.reinitializations, "count", 1)
    metrics["trace.untraced_s"] = (untraced, "s", 1)
    metrics["trace.traced_s"] = (traced, "s", 1)
    metrics["trace.overhead_s"] = (traced - untraced, "s", 1)
    return _result(problems, _totals(study, decisions), metrics)


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> Result:
    wl = WORKLOADS[name].tiny() if tiny else WORKLOADS[name]
    tmp = ROOT / ".perfbench_tmp" / f"{name}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        return traced_run(wl, seed, tmp) if trace else timed_run(wl, seed, seconds, tmp, tiny)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()


# ------------------------------------------------------- machine facts

_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports, from the copy loaded by numpy."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "orbandit": orbandit.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in _THREAD_VARIABLES if k in os.environ},
    }
