"""Command-line front end: batch simulations and scripted scenarios.

``orbandit simulate`` runs the replication harness from a JSON config and
writes regret.csv, summary.csv, and manifest.json; feeding an emitted
manifest back in as the config reproduces the CSV output byte for byte.
``orbandit continuous`` executes a changing-arms scenario file and writes
rounds.csv plus the per-round continuity decisions.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path
from typing import Any, Mapping

from . import __version__
from .continuous import ContinuousScenario, ScenarioRound, run_continuous
from .errors import BanditError, ConfigError, _check_count, _check_number
from .simulation import (
    EnvironmentSpec,
    ExperimentConfig,
    LogitDrift,
    PolicyKind,
    RegimeSchedule,
    Stationary,
    _environment,
    drift_environment,
    run_replications,
)

__all__ = ["main", "cmd_simulate", "cmd_continuous"]

_ALL_POLICIES = tuple(PolicyKind)
_POLICY_CHOICES = [p.value for p in _ALL_POLICIES] + ["all"]

_INF = float("inf")
_MANIFEST_FIELDS = ("artifact", "version", "config", "environment", "seed", "duration_seconds")

# One row per numeric `simulate` config field: type, bounds and default, in
# the order of the --<field> flags. A field whose default is None is required.
_SIMULATE_FIELDS: dict[str, tuple[type, float, float, Any]] = {
    "rounds": (int, 1, _INF, None),
    "trials": (int, 1, _INF, None),
    "replications": (int, 1, _INF, None),
    "d": (float, 0.0, _INF, 0.0),
    "seed": (int, 0, _INF, None),
    "n_draws": (int, 1, _INF, 10_000),
    "arms": (int, 1, _INF, None),
    "p_optimal": (float, 0.0, 1.0, 0.31),
    "p_suboptimal": (float, 0.0, 1.0, 0.30),
}


def _fmt(value: Any) -> str:
    """CSV cell: floats at 10 significant digits, everything else as-is."""
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _check_fields(block: Mapping[str, Any], known, where: str = "") -> None:
    """``ConfigError`` naming every field of ``block`` that is not ``known``."""
    unknown = [name for name in block if name not in known]
    if unknown:
        raise ConfigError(f"{where}unknown field(s) {', '.join(map(repr, unknown))}")


def _load_json(path: str) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON (line {exc.lineno}, column {exc.colno})") from exc


def _out_dir(path: str) -> Path:
    """``--out`` as a ``Path``, checked before anything runs: it must be a
    directory or not exist yet, and its nearest existing ancestor must be a
    directory, so that the outputs can be written once the run ends."""
    out = Path(path)
    for candidate in (out, *out.parents):
        if candidate.exists():
            if not candidate.is_dir():
                raise ConfigError(f"--out {path}: {candidate} exists and is not a directory")
            break
    return out


def _parse_environment(block: Mapping[str, Any]) -> EnvironmentSpec:
    if not isinstance(block, Mapping) or "kind" not in block:
        raise ConfigError("field 'environment' must be an object with a 'kind'")
    kind = block["kind"]
    try:
        if kind == "stationary":
            return Stationary(block["p"])
        if kind == "logit_drift":
            return LogitDrift(block["base_beta"], block["sigma"])
        if kind == "regime_schedule":
            return RegimeSchedule(tuple((r["p"], r["trials"]) for r in block["rounds"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"field 'environment' ({kind}): {exc}") from exc
    raise ConfigError(f"field 'environment.kind' must be one of stationary, "
                      f"logit_drift, regime_schedule; got {kind!r}")


def _serialize_environment(spec: EnvironmentSpec) -> dict[str, Any]:
    if isinstance(spec, Stationary):
        return {"kind": "stationary", "p": spec.p.p.tolist()}
    if isinstance(spec, LogitDrift):
        return {"kind": "logit_drift", "base_beta": spec.base_beta.tolist(), "sigma": spec.sigma}
    return {
        "kind": "regime_schedule",
        "rounds": [{"p": p.p.tolist(), "trials": trials} for p, trials in spec.rounds],
    }


def _resolve_simulate_config(args: argparse.Namespace) -> tuple[dict[str, Any], EnvironmentSpec]:
    """Merge defaults, the config file (or a manifest), and flag overrides."""
    raw = _load_json(args.config)
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if isinstance(raw.get("config"), dict):  # an emitted manifest doubles as a config
        manifest = raw
        raw = dict(manifest["config"])
        _check_fields(manifest, _MANIFEST_FIELDS, "manifest: ")
        raw.setdefault("environment", manifest.get("environment"))
        for field in ("seed", "environment"):  # the rest of the top level is record-only
            if field in manifest and manifest[field] != raw.get(field):
                raise ConfigError(f"manifest field '{field}' disagrees with its 'config' block")
    _check_fields(raw, {*_SIMULATE_FIELDS, "policy", "environment"})
    cfg = {field: default for field, (*_, default) in _SIMULATE_FIELDS.items()
           if default is not None}
    cfg.update(raw)
    for field in ("policy", *_SIMULATE_FIELDS):
        if getattr(args, field) is not None:
            cfg[field] = getattr(args, field)

    for field in (*_SIMULATE_FIELDS, "policy"):
        if field not in cfg:
            raise ConfigError(f"field '{field}' is required")
    resolved = {
        field: _check_count(field, cfg[field], low) if kind is int
        else _check_number(field, cfg[field], low, high)
        for field, (kind, low, high, _) in _SIMULATE_FIELDS.items()
    }
    if cfg["policy"] not in _POLICY_CHOICES:
        raise ConfigError(
            f"field 'policy' must be one of {sorted(_POLICY_CHOICES)}, got {cfg['policy']!r}"
        )
    resolved["policy"] = cfg["policy"]

    if "environment" in cfg and cfg["environment"] is not None:
        spec = _parse_environment(cfg["environment"])
        arms, _ = _environment(spec)
        if arms != resolved["arms"]:
            raise ConfigError(f"environment covers {arms} arms, config expects {resolved['arms']}")
    else:
        spec = drift_environment(
            resolved["arms"], resolved["p_optimal"], resolved["p_suboptimal"], resolved["d"]
        )
    resolved["environment"] = _serialize_environment(spec)
    return resolved, spec


def _add_simulate_flags(parser: argparse.ArgumentParser) -> None:
    """Add the flags ``_resolve_simulate_config`` reads: ``--config``,
    ``--policy`` and one ``--<field>`` per ``_SIMULATE_FIELDS`` row."""
    parser.add_argument("--config", required=True, help="JSON config or a previously emitted manifest.json")
    parser.add_argument("--policy", choices=_POLICY_CHOICES)
    for field, (kind, *_) in _SIMULATE_FIELDS.items():
        parser.add_argument("--" + field.replace("_", "-"), dest=field, type=kind)


def _experiment_config(resolved: Mapping[str, Any], policy: PolicyKind) -> ExperimentConfig:
    """The ``ExperimentConfig`` of a resolved ``simulate`` config, for ``policy``."""
    return ExperimentConfig(rounds=resolved["rounds"], trials_per_round=resolved["trials"],
                            replications=resolved["replications"], policy=policy,
                            seed=resolved["seed"], n_draws=resolved["n_draws"])


def _write_csv(path: Path, header: list[str], rows: list[list[Any]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def cmd_simulate(args: argparse.Namespace) -> int:
    out_dir = _out_dir(args.out)
    resolved, spec = _resolve_simulate_config(args)
    policies = _ALL_POLICIES if resolved["policy"] == "all" else (PolicyKind(resolved["policy"]),)
    config = _experiment_config(resolved, policies[0])
    started = time.perf_counter()
    summary = run_replications(config, spec, policies=policies, jobs=args.jobs)
    duration = time.perf_counter() - started

    regret_rows = []
    summary_rows = []
    for policy in policies:
        regret = summary.regret[policy].tolist()
        cumulative = summary.cumulative_regret(policy).tolist()
        clicks = summary.expected_clicks[policy].tolist()
        for rep in range(config.replications):
            for row in range(config.rounds):
                regret_rows.append([
                    policy.value, rep, row + 1,
                    regret[rep][row], cumulative[rep][row], clicks[rep][row],
                ])
        means = summary.mean_cumulative_regret(policy).tolist()
        stderrs = summary.stderr_cumulative_regret(policy).tolist()
        for row in range(config.rounds):
            summary_rows.append([policy.value, row + 1, means[row], stderrs[row]])

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "regret.csv",
        ["policy", "replication", "round", "regret", "cumulative_regret", "expected_clicks"],
        regret_rows,
    )
    _write_csv(
        out_dir / "summary.csv",
        ["policy", "round", "mean_cum_regret", "stderr_cum_regret"],
        summary_rows,
    )
    # Self-contained record of the run, reusable as its config.
    manifest = {
        "artifact": "orbandit",
        "version": __version__,
        "config": {k: v for k, v in resolved.items() if k != "environment"},
        "environment": resolved["environment"],
        "seed": resolved["seed"],
        "duration_seconds": duration,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    for policy in policies:
        final = summary.mean_cumulative_regret(policy)[-1]
        print(f"{policy.value}: mean cumulative regret {final:.10g} after {config.rounds} rounds")
    print(f"wrote {out_dir / 'regret.csv'}, {out_dir / 'summary.csv'}, {out_dir / 'manifest.json'}")
    return 0


def _parse_scenario(path: str) -> ContinuousScenario:
    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise ConfigError("scenario must be a JSON object")
    _check_fields(raw, ("rounds", "trials", "mode", "seed", "n_draws", "on_continuity_break"))
    rounds_block = raw.get("rounds")
    if not isinstance(rounds_block, list) or not rounds_block:
        raise ConfigError("field 'rounds' must be a non-empty list")
    default_trials = raw.get("trials")
    rounds = []
    for index, block in enumerate(rounds_block, start=1):
        if not isinstance(block, dict):
            raise ConfigError(f"round {index} must be an object")
        _check_fields(block, ("active", "p", "trials"), f"round {index}: ")
        active = block.get("active")
        if not isinstance(active, list) or not active:
            raise ConfigError(f"round {index}: field 'active' must be a non-empty list")
        if not all(isinstance(arm, str) for arm in active):
            raise ConfigError(f"round {index}: field 'active' must list arm ids as strings, "
                              f"got {active!r}")
        p = block.get("p")
        if not isinstance(p, dict):
            raise ConfigError(f"round {index}: field 'p' must map arm ids to probabilities")
        try:
            rounds.append(ScenarioRound(tuple(active), p, block.get("trials", default_trials)))
        except ValueError as exc:
            raise ConfigError(f"round {index}: {exc}") from exc
    # Only the fields the file sets are passed on, unchecked, so the
    # scenario's own defaults and checks are the only ones.
    options = {field: raw[field] for field in ("mode", "seed", "n_draws") if field in raw}
    if "on_continuity_break" in raw:
        options["on_break"] = raw["on_continuity_break"]
    return ContinuousScenario(tuple(rounds), **options)


def cmd_continuous(args: argparse.Namespace) -> int:
    out_dir = _out_dir(args.out)
    scenario = _parse_scenario(args.config)
    result = run_continuous(scenario)
    round_rows = []
    decision_rows = []
    for outcome in result.rounds:
        decision_rows.append([outcome.round, outcome.decision.value])
        for position, arm in enumerate(outcome.plan.active):
            round_rows.append(
                [
                    outcome.round,
                    arm,
                    float(outcome.plan.proportions.p[position]),
                    int(outcome.allocated[position]),
                    int(outcome.successes[position]),
                    float(outcome.true_p[position]),
                ]
            )
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "rounds.csv",
        ["round", "arm_id", "proportion", "allocated", "successes", "true_p"],
        round_rows,
    )
    _write_csv(out_dir / "continuity.csv", ["round", "decision"], decision_rows)
    print(f"wrote {out_dir / 'rounds.csv'} and {out_dir / 'continuity.csv'}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbandit",
        description="Batch Thompson sampling simulations for binary rewards.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run the replication harness from a JSON config")
    _add_simulate_flags(simulate)
    simulate.add_argument("--jobs", type=int, default=1)
    simulate.add_argument("--out", required=True, help="output directory")
    simulate.set_defaults(handler=cmd_simulate)

    continuous = sub.add_parser("continuous", help="run a changing-arms scenario file")
    continuous.add_argument("--config", required=True, help="JSON scenario file")
    continuous.add_argument("--out", required=True, help="output directory")
    continuous.set_defaults(handler=cmd_continuous)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except BanditError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
