"""Command-line interface: configs, outputs, manifests, exit codes."""

import csv
import json
import subprocess
import sys

import pytest

from orbandit import OptimizationFailureError, cli, simulation
from orbandit.cli import main


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")


def simulate_config(**overrides):
    config = {
        "arms": 3,
        "rounds": 4,
        "trials": 800,
        "replications": 2,
        "policy": "all",
        "seed": 9,
        "n_draws": 800,
        "d": 0.0,
    }
    config.update(overrides)
    return config


def manifest_config(**overrides):
    """An emitted manifest's layout: the run's fields sit under 'config'."""
    return {"artifact": "orbandit", "config": simulate_config(**overrides), "seed": 9}


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def test_simulate_writes_expected_files(tmp_path):
    config = tmp_path / "config.json"
    write_json(config, simulate_config())
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "regret.csv").exists()
    assert (out / "summary.csv").exists()
    assert (out / "manifest.json").exists()

    regret = read_csv(out / "regret.csv")
    assert regret[0] == [
        "policy",
        "replication",
        "round",
        "regret",
        "cumulative_regret",
        "expected_clicks",
    ]
    # 3 policies x 2 replications x 4 rounds data rows
    assert len(regret) == 1 + 3 * 2 * 4

    summary = read_csv(out / "summary.csv")
    assert summary[0] == ["policy", "round", "mean_cum_regret", "stderr_cum_regret"]
    assert len(summary) == 1 + 3 * 4


def test_simulate_runs_at_the_largest_trial_count(tmp_path):
    """At 2^63 − 1 trials a round the Beta posterior reaches a + b ≈ 1e19,
    where SciPy can put an arm's lower quantile above its upper one; the
    screen still keeps the leader, and every policy runs its rounds."""
    config, out = tmp_path / "config.json", tmp_path / "out"
    write_json(config, {"policy": "all", "arms": 2, "rounds": 3, "trials": 2**63 - 1,
                        "replications": 1, "seed": 0})
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    rows = read_csv(out / "regret.csv")[1:]
    assert [row[0] for row in rows] == ["beta_ts"] * 3 + ["full_ts"] * 3 + ["or_ts"] * 3


def test_simulate_single_policy_and_flag_overrides(tmp_path):
    config = tmp_path / "config.json"
    write_json(config, simulate_config(policy="or_ts", rounds=2))
    out = tmp_path / "out"
    code = main(
        ["simulate", "--config", str(config), "--out", str(out), "--rounds", "3"]
    )
    assert code == 0
    regret = read_csv(out / "regret.csv")
    assert {row[0] for row in regret[1:]} == {"or_ts"}
    assert max(int(row[2]) for row in regret[1:]) == 3  # flag beats file


def test_manifest_rerun_is_byte_identical(tmp_path):
    config = tmp_path / "config.json"
    write_json(config, simulate_config())
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["simulate", "--config", str(config), "--out", str(first)]) == 0
    manifest = first / "manifest.json"
    assert main(["simulate", "--config", str(manifest), "--out", str(second)]) == 0
    assert (first / "regret.csv").read_bytes() == (second / "regret.csv").read_bytes()
    assert (first / "summary.csv").read_bytes() == (second / "summary.csv").read_bytes()
    # The artifact name, version and duration are a record of the run only.
    edited = tmp_path / "edited.json"
    write_json(edited, {**json.loads(manifest.read_text(encoding="utf-8")),
                        "artifact": "copy", "version": "0.0.0", "duration_seconds": -1.0})
    assert main(["simulate", "--config", str(edited), "--out", str(tmp_path / "third")]) == 0
    assert (first / "regret.csv").read_bytes() == (tmp_path / "third" / "regret.csv").read_bytes()


def test_manifest_contents(tmp_path):
    config = tmp_path / "config.json"
    write_json(config, simulate_config())
    out = tmp_path / "out"
    main(["simulate", "--config", str(config), "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["artifact"] == "orbandit"
    assert manifest["seed"] == 9
    assert manifest["config"]["rounds"] == 4
    assert manifest["environment"]["kind"] == "stationary"
    assert manifest["duration_seconds"] >= 0.0


def test_csv_uses_lf_line_endings(tmp_path):
    config = tmp_path / "config.json"
    write_json(config, simulate_config())
    out = tmp_path / "out"
    main(["simulate", "--config", str(config), "--out", str(out)])
    raw = (out / "regret.csv").read_bytes()
    assert b"\r" not in raw


def test_explicit_environment_block(tmp_path):
    config = tmp_path / "config.json"
    payload = simulate_config(arms=2, policy="beta_ts")
    payload["environment"] = {
        "kind": "regime_schedule",
        "rounds": [
            {"p": [0.3, 0.2], "trials": 400},
            {"p": [0.1, 0.05], "trials": 400},
            {"p": [0.1, 0.05], "trials": 400},
            {"p": [0.1, 0.05], "trials": 400},
        ],
    }
    write_json(config, payload)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["environment"]["kind"] == "regime_schedule"

    payload = simulate_config(arms=2, policy="or_ts", rounds=3)
    payload["environment"] = {"kind": "logit_drift", "base_beta": [-0.8, -0.85], "sigma": 0.5}
    write_json(config, payload)
    first, second = tmp_path / "drift1", tmp_path / "drift2"
    assert main(["simulate", "--config", str(config), "--out", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["environment"] == payload["environment"]
    assert main(["simulate", "--config", str(first / "manifest.json"), "--out", str(second)]) == 0
    for name in ("regret.csv", "summary.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_invalid_config_returns_exit_code_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    write_json(config, simulate_config(rounds=-1))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "rounds" in capsys.readouterr().err
    write_json(config, simulate_config(d=-0.5))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "'d'" in capsys.readouterr().err
    without_rounds = simulate_config()
    del without_rounds["rounds"]
    without_policy = simulate_config()
    del without_policy["policy"]
    unknown_kind = simulate_config(environment={"kind": "random_walk"})
    fractional_trials = simulate_config(arms=2, environment={
        "kind": "regime_schedule", "rounds": [{"p": [0.3, 0.2], "trials": 2.5}] * 4,
    })
    # Counts beyond int64 would overflow the multinomial draw.
    huge_schedule_trials = simulate_config(arms=2, environment={
        "kind": "regime_schedule", "rounds": [{"p": [0.3, 0.2], "trials": 10**20}] * 4,
    })
    string_p = simulate_config(arms=2, environment={
        "kind": "regime_schedule", "rounds": [{"p": [0.3, "0.2"], "trials": 400}] * 4,
    })
    short_schedule = simulate_config(arms=2, rounds=4, policy="beta_ts", environment={
        "kind": "regime_schedule", "rounds": [{"p": [0.3, 0.2], "trials": 400}],
    })
    stationary = {"kind": "stationary", "p": [0.3, 0.2]}
    arms_mismatch = simulate_config(arms=3, environment=stationary)

    def drift(sigma):
        return simulate_config(arms=2, environment={
            "kind": "logit_drift", "base_beta": [-0.8, -0.85], "sigma": sigma,
        })

    for payload, named in (
        (without_rounds, "field 'rounds' is required"),
        (without_policy, "field 'policy' is required"),
        (unknown_kind, "field 'environment.kind'"),
        (fractional_trials, "field 'environment' (regime_schedule): field 'trials'"),
        (huge_schedule_trials, "field 'environment' (regime_schedule): field 'trials'"),
        (simulate_config(trials=10**20), "field 'trials'"),
        (string_p, "field 'environment' (regime_schedule): field 'p'"),
        (drift("0.5"), "field 'environment' (logit_drift): field 'sigma'"),
        (drift(True), "field 'environment' (logit_drift): field 'sigma'"),
        (simulate_config(d=10**400), "field 'd'"),
        # The drift saturates the rates in round 1's environment step: a bad
        # input, not a failure of the policy.
        (simulate_config(d=1e6), "probabilities must lie strictly inside (0, 1)"),
        (short_schedule, "config asks for 4 rounds but the schedule has 1"),
        (arms_mismatch, "environment covers 2 arms, config expects 3"),
        # A misspelt field would otherwise run, silently, on its default.
        (simulate_config(n_draw=10), "unknown field(s) 'n_draw'"),
        # Valid alone, but replication 2 would run on seed 2^63.
        (simulate_config(policy="beta_ts", arms=2, rounds=2, trials=100, replications=2,
                         seed=2**63 - 1), "fields 'seed' + 'replications' - 1 must fit int64"),
        (simulate_config(p_optimum=0.9), "unknown field(s) 'p_optimum'"),
        (manifest_config(n_draw=10), "unknown field(s) 'n_draw'"),
        # A manifest runs on its 'config' block, so a top-level seed or
        # environment that says otherwise would be ignored without a word.
        ({**manifest_config(), "seed": 123}, "manifest field 'seed' disagrees"),
        ({**manifest_config(arms=2, environment=stationary), "environment": {**stationary, "p": [0.3, 0.25]}},
         "manifest field 'environment' disagrees"),
        ({**manifest_config(), "n_draws": 5}, "manifest: unknown field(s) 'n_draws'"),
    ):
        write_json(config, payload)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and named in err, (payload, err)
    write_json(config, simulate_config())
    for jobs in ("0", "-2"):
        argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "o"), "--jobs", jobs]
        assert main(argv) == 2
        assert "jobs" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_missing_config_file_returns_exit_code_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["simulate", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_malformed_json_returns_exit_code_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("{not json", encoding="utf-8")
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_unknown_policy_returns_exit_code_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    write_json(config, simulate_config(policy="epsilon_greedy"))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "policy" in capsys.readouterr().err


def test_runtime_failure_returns_exit_code_1(tmp_path, capsys, monkeypatch):
    """A mode search that fails in round 2 is a runtime failure in both
    commands: exit 1, the round named, and no output written."""
    config = tmp_path / "config.json"
    real_update = simulation.or_ts_update

    def failing_update(state, data):
        if state.round_index == 1:
            raise OptimizationFailureError("forced", last_iterate=None, grad_norm=1.0)
        return real_update(state, data)

    monkeypatch.setattr(simulation, "or_ts_update", failing_update)
    write_json(config, simulate_config())
    argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "o"), "--policy", "or_ts"]
    assert main(argv) == 1
    assert "policy or_ts failed at round 2 of the run with seed 9" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()

    absorbs = []

    def failing_absorb(state, data):
        absorbs.append(state)
        if len(absorbs) == 2:
            raise OptimizationFailureError("forced", last_iterate=None, grad_norm=1.0)
        return real_update(state, data)

    monkeypatch.setattr(simulation, "or_ts_update", failing_absorb)
    write_json(config, continuous_scenario())
    assert main(["continuous", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("runtime error") and "failed at round 2 of the run with seed 5" in err, err
    assert not (tmp_path / "o").exists()


def test_unusable_out_returns_exit_code_2(tmp_path, capsys, monkeypatch):
    """An --out that is a regular file, or lies under one, exits 2 before
    either command runs anything, and creates nothing."""

    def no_run(*args, **kwargs):
        raise AssertionError("ran before checking --out")

    monkeypatch.setattr(cli, "run_replications", no_run)
    monkeypatch.setattr(cli, "run_continuous", no_run)
    afile = tmp_path / "afile"
    afile.write_text("kept", encoding="utf-8")
    config, scenario = tmp_path / "config.json", tmp_path / "scenario.json"
    write_json(config, simulate_config())
    write_json(scenario, continuous_scenario())
    for command, path in (("simulate", config), ("continuous", scenario)):
        for out in (afile, afile / "sub"):
            assert main([command, "--config", str(path), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error") and "--out" in err, err
            assert f"{afile} exists and is not a directory" in err, err
    assert afile.read_text(encoding="utf-8") == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "config.json", "scenario.json"]


def continuous_scenario():
    return {
        "trials": 500,
        "seed": 5,
        "n_draws": 500,
        "mode": "odds_ratio",
        "rounds": [
            {"active": ["A", "B", "C"], "p": {"A": 0.32, "B": 0.30, "C": 0.28}},
            {"active": ["B", "C", "D"], "p": {"B": 0.30, "C": 0.28, "D": 0.34}},
            {"active": ["D", "E"], "p": {"D": 0.34, "E": 0.20}},
        ],
    }


def test_continuous_writes_rounds_and_decisions(tmp_path):
    """Round 3 shares one arm with the tracked set: by default it
    reinitializes, and with the full-rank fallback it keeps the history and
    records that."""
    config = tmp_path / "scenario.json"
    for on_break, round_3 in ((None, "reinitialize"), ("full_rank", "full_rank")):
        scenario = continuous_scenario()
        if on_break is not None:
            scenario["on_continuity_break"] = on_break
        write_json(config, scenario)
        out = tmp_path / round_3
        assert main(["continuous", "--config", str(config), "--out", str(out)]) == 0

        rounds = read_csv(out / "rounds.csv")
        assert rounds[0] == ["round", "arm_id", "proportion", "allocated", "successes", "true_p"]
        assert len(rounds) == 1 + 3 + 3 + 2  # one row per active arm per round

        decisions = read_csv(out / "continuity.csv")
        assert decisions[0] == ["round", "decision"]
        assert decisions[1] == ["1", "reinitialize"]
        assert decisions[2] == ["2", "continue_bandit"]
        assert decisions[3] == ["3", round_3]


def test_continuous_rejects_bad_round(tmp_path, capsys):
    """Each malformed scenario exits 2 with a message naming the field."""

    def top(**fields):
        return lambda scenario: scenario.update(fields)

    def first_round(field, key, value):
        def mutate(scenario):
            scenario["rounds"][0][field][key] = value
        return mutate

    def in_round(index, **fields):
        return lambda scenario: scenario["rounds"][index - 1].update(fields)

    cases = [
        (lambda scenario: scenario["rounds"][0].update(p={"A": 0.32}), "round 1: field 'p'"),
        (top(seed="5"), "'seed'"),
        (top(seed=1.5), "'seed'"),
        (top(seed=-1), "'seed'"),
        (top(n_draws="10"), "'n_draws'"),
        (top(n_draws=True), "'n_draws'"),
        (top(n_draws=0), "'n_draws'"),
        (top(on_continuity_break="carry_on"), "field 'on_break'"),
        (first_round("p", "A", "x"), "round 1: field 'p' for arm 'A'"),
        (first_round("p", "A", None), "round 1: field 'p' for arm 'A'"),
        (first_round("p", "A", True), "round 1: field 'p' for arm 'A'"),
        (first_round("p", "A", 10**400), "round 1: field 'p' for arm 'A'"),
        (first_round("p", "A", 1), "round 1: field 'p' for arm 'A'"),
        (first_round("active", 0, ["A"]), "round 1: field 'active'"),
        (first_round("active", 0, 1), "round 1: field 'active'"),
        (in_round(2, trials=2.5), "round 2: field 'trials'"),
        (in_round(1, trials=True), "round 1: field 'trials'"),
        (in_round(3, trials=-1), "round 3: field 'trials'"),
        (top(trials=10**20), "round 1: field 'trials'"),
        (in_round(2, trials=10**20), "round 2: field 'trials'"),
        (lambda scenario: scenario.pop("trials"), "round 1: field 'trials'"),
        (top(on_continuity_brake="full_rank"), "unknown field(s) 'on_continuity_brake'"),
        (top(ndraws=10), "unknown field(s) 'ndraws'"),
        (in_round(2, trial=100), "round 2: unknown field(s) 'trial'"),
    ]
    config = tmp_path / "scenario.json"
    for mutate, named in cases:
        scenario = continuous_scenario()
        mutate(scenario)
        write_json(config, scenario)
        assert main(["continuous", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and named in err, (scenario, err)
    assert not (tmp_path / "o").exists()


def test_continuous_rejects_unknown_mode(tmp_path, capsys):
    scenario = continuous_scenario()
    scenario["mode"] = "hybrid"
    config = tmp_path / "scenario.json"
    write_json(config, scenario)
    assert main(["continuous", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "mode" in capsys.readouterr().err


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "orbandit.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "simulate" in result.stdout
    assert "continuous" in result.stdout
