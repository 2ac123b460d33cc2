"""Experiment runner: flat key=value config files in, metrics.csv and
summary.json out.

Exit codes: 0 success, 1 configuration error, 2 invariant violation
(including failed security probes).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import errors, security
from .cost_model import COMPONENTS, WORKLOADS, CostParams, default_params
from .workload_harness import (
    DbModel,
    ExecutionModel,
    Metrics,
    Variant,
    gen_burst,
    gen_poisson,
    run_database,
    run_serverless,
)

SCENARIOS = {
    "serverless_latency": {"required": {"model", "workload", "seed"},
                           "optional": {"n_requests", "workers"}},
    "serverless_memory": {"required": {"model", "workload", "n_requests",
                                       "seed"},
                          "optional": {"workers"}},
    "serverless_throughput": {"required": {"model", "workload", "n_requests",
                                           "seed"},
                              "optional": {"workers"}},
    "serverless_macro": {"required": {"model", "workload", "rate_per_s",
                                      "duration_s", "seed"},
                         "optional": {"workers", "prediction"}},
    "database": {"required": {"model", "db_mib", "snapshot_interval_s",
                              "duration_s", "seed"},
                 "optional": {"write_ratio"}},
    "security_suite": {"required": {"seed"}, "optional": {"schedules"}},
}

_PARAM_FIELDS = {f.name: f.type for f in dataclasses.fields(CostParams)}


@dataclass
class ScenarioConfig:
    scenario: str
    seed: int
    models: List[str] = field(default_factory=list)
    workload: str = ""
    n_requests: int = 1
    rate_per_s: float = 1.0
    duration_s: float = 60.0
    workers: Optional[int] = None
    prediction: bool = False
    db_mib: float = 128.0
    write_ratio: float = 0.3
    snapshot_interval_s: float = 2.0
    schedules: int = 1000
    overrides: Dict[str, object] = field(default_factory=dict)


def _parse_bool(raw: str, line_no: int) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise errors.ParseError(line_no, f"expected a boolean, got {raw!r}")


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _parse_count(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise ValueError(f"expected a count >= 1, got {raw!r}")
    return value


def parse_config(text: str) -> ScenarioConfig:
    """Parse one bracketed scenario section of '#'-commented key=value lines."""
    scenario = None
    pairs: List[Tuple[int, str, str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            if scenario is not None:
                raise errors.ParseError(line_no, "multiple scenario sections")
            scenario = line[1:-1].strip()
            continue
        if "=" not in line:
            raise errors.ParseError(line_no, f"expected key=value, got {raw!r}")
        if scenario is None:
            raise errors.ParseError(line_no, "key before scenario section")
        key, value = line.split("=", 1)
        pairs.append((line_no, key.strip(), value.strip()))

    if scenario is None:
        raise errors.MissingKey("no scenario section found")
    if scenario not in SCENARIOS:
        raise errors.UnknownKey(f"unknown scenario {scenario!r}")
    spec = SCENARIOS[scenario]

    config = ScenarioConfig(scenario=scenario, seed=0)
    seen = set()
    for line_no, key, value in pairs:
        seen.add(key)
        try:
            if key == "model":
                config.models = [m.strip() for m in value.split(",") if m.strip()]
            elif key == "workload":
                config.workload = value
            elif key == "seed":
                config.seed = int(value)
            elif key == "n_requests":
                config.n_requests = _parse_count(value)
            elif key == "workers":
                config.workers = _parse_count(value)
            elif key == "rate_per_s":
                config.rate_per_s = _parse_float(value)
            elif key == "duration_s":
                config.duration_s = _parse_float(value)
            elif key == "prediction":
                config.prediction = _parse_bool(value, line_no)
            elif key == "db_mib":
                config.db_mib = _parse_float(value)
            elif key == "write_ratio":
                config.write_ratio = _parse_float(value)
            elif key == "snapshot_interval_s":
                config.snapshot_interval_s = _parse_float(value)
            elif key == "schedules":
                config.schedules = _parse_count(value)
            elif key.startswith("t_exec."):
                config.overrides.setdefault("t_exec", {})[
                    key[len("t_exec."):]] = _parse_float(value)
            elif key in _PARAM_FIELDS:
                if key == "epc_alloc_serialized":
                    config.overrides[key] = _parse_bool(value, line_no)
                elif key == "t_exec":
                    raise errors.UnknownKey(
                        "override exec times via t_exec.<workload>")
                else:
                    config.overrides[key] = _parse_float(value)
            else:
                raise errors.UnknownKey(f"unknown key {key!r}")
        except ValueError as exc:
            raise errors.ParseError(line_no, str(exc))

    allowed = spec["required"] | spec["optional"]
    for key in seen:
        if key in allowed or key.startswith("t_exec.") or key in _PARAM_FIELDS:
            continue
        raise errors.UnknownKey(
            f"key {key!r} not valid for scenario {scenario!r}")
    missing = spec["required"] - seen
    if missing:
        raise errors.MissingKey(
            f"scenario {scenario!r} missing keys: {sorted(missing)}")
    return config


def build_params(config: ScenarioConfig) -> CostParams:
    params = default_params()
    for key, value in config.overrides.items():
        if key == "t_exec":
            params.t_exec.update(value)
        else:
            setattr(params, key, value)
    params.validate()
    return params


def _serverless_variant(name: str) -> Variant:
    try:
        return Variant(name)
    except ValueError:
        raise errors.UnknownKey(f"unknown serverless model {name!r}")


def _workloads(config: ScenarioConfig, params: CostParams) -> List[str]:
    if config.workload == "all":
        return [w for w in WORKLOADS if w in params.t_exec]
    if config.workload not in params.t_exec:
        raise errors.UnknownKey(f"unknown workload {config.workload!r}")
    return [config.workload]


def run_scenario(config: ScenarioConfig) -> Dict[str, Metrics]:
    """Execute the configured scenario; returns {label: metrics}."""
    params = build_params(config)
    results: Dict[str, Metrics] = {}
    if config.scenario == "database":
        for name in config.models:
            try:
                model = DbModel(name)
            except ValueError:
                raise errors.UnknownKey(f"unknown database model {name!r}")
            results[name] = run_database(
                model, config.db_mib, config.write_ratio,
                config.snapshot_interval_s, config.duration_s, config.seed,
                params)
        return results

    for name in config.models:
        variant = _serverless_variant(name)
        for workload in _workloads(config, params):
            label = f"{name}:{workload}" if config.workload == "all" else name
            if config.scenario == "serverless_macro":
                trace = gen_poisson(config.rate_per_s, config.duration_s,
                                    config.seed, workload)
            else:
                trace = gen_burst(config.n_requests, workload)
            workers = config.workers
            if workers is None:
                workers = (config.n_requests if config.scenario in (
                    "serverless_memory", "serverless_throughput") else 8)
            model = ExecutionModel(variant, config.prediction)
            results[label] = run_serverless(model, trace, params, workers)
    return results


def _check_invariants(results: Dict[str, Metrics]) -> None:
    for label, metrics in results.items():
        if metrics.completion_time_ms > 0:
            identity = metrics.count / (metrics.completion_time_ms / 1000.0)
            if abs(identity - metrics.throughput_rps) > 1e-9 * max(1.0, identity):
                raise errors.InvariantViolation(
                    f"{label}: throughput != count / completion_time")
        for record in metrics.requests:
            if abs(sum(record.components.values()) - record.total_ms) > 1e-9:
                raise errors.InvariantViolation(
                    f"{label}/{record.request_id}: components do not sum "
                    f"to the total")


def write_outputs(config: ScenarioConfig, results: Dict[str, Metrics],
                  out_dir: str) -> List[str]:
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "metrics.csv")
    with open(csv_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["request_id", "arrival_ms", *COMPONENTS, "total_ms"])
        for label, metrics in results.items():
            for record in metrics.requests:
                row = [f"{label}/{record.request_id}",
                       f"{record.arrival_ms:.6f}"]
                row += [f"{record.components.get(c, 0.0):.6f}"
                        for c in COMPONENTS]
                row.append(f"{record.total_ms:.6f}")
                writer.writerow(row)

    summary = {"scenario": config.scenario, "seed": config.seed, "models": {}}
    baseline_label = next(iter(results), None)
    base = results.get(baseline_label)
    for label, metrics in results.items():
        entry = {
            "count": metrics.count,
            "mean_latency_ms": metrics.mean_latency_ms,
            "p50_ms": metrics.p50_ms,
            "p99_ms": metrics.p99_ms,
            "peak_epc_mib": metrics.peak_epc_mib,
            "throughput_rps": metrics.throughput_rps,
            "completion_time_ms": metrics.completion_time_ms,
            "extras": metrics.extras,
        }
        if base is not None and label != baseline_label:
            ratios = {}
            if metrics.mean_latency_ms > 0:
                ratios["latency_speedup_vs_baseline"] = \
                    base.mean_latency_ms / metrics.mean_latency_ms
            if base.throughput_rps > 0:
                ratios["throughput_gain_vs_baseline"] = \
                    metrics.throughput_rps / base.throughput_rps
            if metrics.peak_epc_mib > 0:
                ratios["peak_epc_ratio_baseline_over_this"] = \
                    base.peak_epc_mib / metrics.peak_epc_mib
            fork = metrics.extras.get("fork_latency_ms")
            base_fork = base.extras.get("fork_latency_ms")
            if fork and base_fork:
                ratios["fork_latency_speedup_vs_baseline"] = base_fork / fork
            entry["ratios"] = ratios
        summary["models"][label] = entry

    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")
    return [csv_path, summary_path]


def run_security_suite(config: ScenarioConfig, out_dir: str) -> int:
    outcome = security.run_all(config.seed, config.schedules)
    os.makedirs(out_dir, exist_ok=True)
    summary = {"scenario": "security_suite", "seed": config.seed,
               "probes": {}}
    all_ok = True
    for name, (trials, failures) in outcome.items():
        summary["probes"][name] = {
            "trials": trials,
            "failures": len(failures),
            "detail": failures[:10],
        }
        all_ok = all_ok and not failures
    summary["all_detected"] = all_ok
    with open(os.path.join(out_dir, "summary.json"), "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")
    with open(os.path.join(out_dir, "metrics.csv"), "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["probe", "trials", "failures"])
        for name, (trials, failures) in outcome.items():
            writer.writerow([name, trials, len(failures)])
    return 0 if all_ok else 2


def run(config: ScenarioConfig, out_dir: str) -> int:
    if config.scenario == "security_suite":
        return run_security_suite(config, out_dir)
    results = run_scenario(config)
    _check_invariants(results)
    write_outputs(config, results, out_dir)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Run an enclave-sharing simulation scenario.")
    parser.add_argument("config", help="path to the scenario config file")
    parser.add_argument("--out", default=None,
                        help="output directory (default: $ESS_OUT_DIR or .)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    args = parser.parse_args(argv)

    out_dir = args.out or os.environ.get("ESS_OUT_DIR") or "."
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1

    try:
        config = parse_config(text)
        if args.seed is not None:
            config.seed = args.seed
        return run(config, out_dir)
    except errors.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except errors.InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except errors.SimError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
