import csv
import json

import pytest

from enclavesim import errors
from enclavesim.cli import (
    build_params,
    main,
    parse_config,
    run_scenario,
)
from enclavesim.cost_model import COMPONENTS

LATENCY_CFG = """\
# latency comparison
[serverless_latency]
model = cc_cold, teemate
workload = crypto-aes
seed = 3
"""

DB_CFG = """\
[database]
model = strawman, teemate
db_mib = 128
snapshot_interval_s = 2
duration_s = 10
seed = 5
"""


class TestParseConfig:
    def test_valid_latency_config(self):
        config = parse_config(LATENCY_CFG)
        assert config.scenario == "serverless_latency"
        assert config.models == ["cc_cold", "teemate"]
        assert config.workload == "crypto-aes" and config.seed == 3

    def test_comments_and_blanks_ignored(self):
        config = parse_config("\n# x\n[security_suite]\nseed = 1 # inline\n")
        assert config.seed == 1

    def test_missing_section(self):
        with pytest.raises(errors.MissingKey):
            parse_config("# nothing here\n")

    def test_key_before_section(self):
        with pytest.raises(errors.ParseError):
            parse_config("model = teemate\n")

    def test_unknown_scenario(self):
        with pytest.raises(errors.UnknownKey):
            parse_config("[bogus]\nseed = 1\n")

    def test_unknown_key(self):
        with pytest.raises(errors.UnknownKey):
            parse_config("[security_suite]\nseed = 1\nfrobnicate = 2\n")

    def test_key_outside_scenario(self):
        with pytest.raises(errors.UnknownKey):
            parse_config("[security_suite]\nseed = 1\ndb_mib = 4\n")

    def test_missing_required_key(self):
        with pytest.raises(errors.MissingKey):
            parse_config("[serverless_latency]\nmodel = teemate\nseed = 1\n")

    def test_malformed_line_reports_number(self):
        with pytest.raises(errors.ParseError) as info:
            parse_config("[security_suite]\nseed = 1\nnot a pair\n")
        assert info.value.line_no == 3

    def test_bad_numeric_value(self):
        with pytest.raises(errors.ParseError):
            parse_config("[security_suite]\nseed = banana\n")

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_duration_rejected(self, raw):
        text = ("[serverless_macro]\nmodel = teemate\nworkload = crypto-aes\n"
                f"rate_per_s = 1\nduration_s = {raw}\nseed = 0\n")
        with pytest.raises(errors.ParseError) as info:
            parse_config(text)
        assert info.value.line_no == 5

    def test_param_override_and_exec_override(self):
        config = parse_config(LATENCY_CFG +
                              "t_alias = 2.5\nt_exec.crypto-aes = 950\n")
        params = build_params(config)
        assert params.t_alias == 2.5
        assert params.t_exec["crypto-aes"] == 950.0

    def test_override_outside_band_rejected(self):
        config = parse_config(LATENCY_CFG + "t_alias = 9.0\n")
        with pytest.raises(errors.InvariantViolation):
            build_params(config)


class TestRunScenario:
    def test_latency_scenario_labels(self):
        results = run_scenario(parse_config(LATENCY_CFG))
        assert set(results) == {"cc_cold", "teemate"}

    def test_workload_all_expands_labels(self):
        cfg = parse_config("[serverless_latency]\nmodel = teemate\n"
                           "workload = all\nseed = 1\n")
        results = run_scenario(cfg)
        assert "teemate:sleep" in results and len(results) == 9

    def test_database_scenario(self):
        results = run_scenario(parse_config(DB_CFG))
        assert results["strawman"].extras["fork_latency_ms"] > \
            results["teemate"].extras["fork_latency_ms"]


class TestMain:
    def write_cfg(self, tmp_path, text):
        path = tmp_path / "scenario.cfg"
        path.write_text(text)
        return str(path)

    def test_writes_outputs_and_exits_zero(self, tmp_path):
        cfg = self.write_cfg(tmp_path, LATENCY_CFG)
        out = tmp_path / "out"
        assert main([cfg, "--out", str(out)]) == 0
        with open(out / "metrics.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["request_id", "arrival_ms", *COMPONENTS, "total_ms"]
        assert len(rows) == 3  # header + one request per model
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["models"]) == {"cc_cold", "teemate"}
        ratios = summary["models"]["teemate"]["ratios"]
        assert ratios["latency_speedup_vs_baseline"] > 1.0

    def test_missing_config_file(self, tmp_path):
        assert main([str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path)]) == 1

    def test_config_error_exit_code(self, tmp_path):
        cfg = self.write_cfg(tmp_path, "[bogus]\nseed = 1\n")
        assert main([cfg, "--out", str(tmp_path)]) == 1

    def test_invariant_violation_exit_code(self, tmp_path):
        cfg = self.write_cfg(tmp_path, LATENCY_CFG + "t_alias = 9.0\n")
        assert main([cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("text", [
        LATENCY_CFG + "t_container_create = nan\n",
        LATENCY_CFG + "t_exec.crypto-aes = inf\n",
        LATENCY_CFG + "workers = 0\n",
        LATENCY_CFG + "n_requests = 0\n",
        "[security_suite]\nseed = 1\nschedules = -4\n",
    ], ids=["nan-param", "inf-exec", "zero-workers", "zero-requests",
            "negative-schedules"])
    def test_bad_value_exits_one(self, tmp_path, text):
        cfg = self.write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main([cfg, "--out", str(out)]) == 1
        assert not out.exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = self.write_cfg(tmp_path, DB_CFG)
        out = tmp_path / "out"
        assert main([cfg, "--out", str(out), "--seed", "99"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 99

    def test_env_out_dir_fallback(self, tmp_path, monkeypatch):
        cfg = self.write_cfg(tmp_path, LATENCY_CFG)
        out = tmp_path / "envout"
        monkeypatch.setenv("ESS_OUT_DIR", str(out))
        assert main([cfg]) == 0
        assert (out / "summary.json").exists()

    def test_reruns_byte_identical(self, tmp_path):
        cfg = self.write_cfg(tmp_path, DB_CFG)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main([cfg, "--out", str(out)]) == 0
            blobs.append(((out / "metrics.csv").read_bytes(),
                          (out / "summary.json").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_security_suite_clean_run(self, tmp_path):
        cfg = self.write_cfg(tmp_path,
                             "[security_suite]\nseed = 1\nschedules = 20\n")
        out = tmp_path / "out"
        assert main([cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["all_detected"] is True
        assert summary["probes"]["remap_enumeration"]["failures"] == 0
