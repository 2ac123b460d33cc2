import csv
import dataclasses
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from enclavesim import errors
from enclavesim.cli import (
    MAX_SCHEDULES,
    SCENARIOS,
    build_params,
    main,
    parse_config,
    run_scenario,
)
from enclavesim.cost_model import COMPONENTS, WORKLOADS, CostParams

from peak_memory import PEAK_BYTES_PER_REQUEST, traced_peak

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

SUB_NS_REQUEST_CFG = """\
[database]
model = teemate
db_mib = 0.001
snapshot_interval_s = 0
duration_s = 0.001
seed = 0
t_db_exec = 4e-7
t_alias = 2.32
t_tcs_op = 0.001
t_fork_child_setup = 0.001
"""

MACRO_CFG = """\
[serverless_macro]
model = teemate
workload = sleep
rate_per_s = 2
duration_s = 10
seed = 1
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

    def test_two_scenario_sections(self):
        with pytest.raises(errors.ParseError, match="multiple") as info:
            parse_config("[security_suite]\nseed = 1\n[database]\n")
        assert info.value.line_no == 3

    def test_bare_exec_key(self):
        with pytest.raises(errors.UnknownKey, match="t_exec.<workload>"):
            parse_config(LATENCY_CFG + "t_exec = 5\n")

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

    def test_unknown_workload_refused_before_any_arrival(self):
        # The run would draw no arrival, so no request would look the
        # workload up.
        config = parse_config(MACRO_CFG.replace("sleep", "nope").replace(
            "rate_per_s = 2", "rate_per_s = 1e-9"))
        with pytest.raises(errors.UnknownKey, match="unknown workload"):
            run_scenario(config)

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

    @pytest.mark.parametrize("text", [
        DB_CFG + "write_ratio = 7\n",
        DB_CFG + "write_ratio = -0.1\n",
        DB_CFG.replace("snapshot_interval_s = 2", "snapshot_interval_s = -3"),
        DB_CFG.replace("model = strawman, teemate", "model = "),
        LATENCY_CFG.replace("model = cc_cold, teemate", "model = ,"),
        LATENCY_CFG + "seed = 4\n",
        LATENCY_CFG + "t_alias = 2.5\nt_alias = 2.6\n",
    ], ids=["write-ratio-above-one", "write-ratio-negative",
            "negative-snapshot-interval", "empty-db-model",
            "empty-serverless-model", "duplicate-seed", "duplicate-param"])
    def test_out_of_range_or_repeated_exits_one(self, tmp_path, text):
        cfg = self.write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main([cfg, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("key", [
        "t_exec.crypto_aes", "t_exec.bogus", "t_exec.", "t_exec.all",
    ])
    def test_exec_override_of_no_workload_exits_one(self, tmp_path, capsys,
                                                    key):
        cfg = self.write_cfg(tmp_path, LATENCY_CFG + f"{key} = 5\n")
        out = tmp_path / "out"
        assert main([cfg, "--out", str(out)]) == 1
        assert not out.exists()
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        MACRO_CFG.replace("model = teemate", "model = teemate, teemate"),
        LATENCY_CFG.replace("model = cc_cold, teemate",
                            "model = cc_cold, teemate,cc_cold"),
        LATENCY_CFG.replace("crypto-aes", "all").replace(
            "model = cc_cold, teemate", "model = teemate, teemate"),
        DB_CFG.replace("model = strawman, teemate",
                       "model = teemate, strawman, teemate"),
    ], ids=["macro", "latency", "all-workloads", "database"])
    def test_model_listed_twice_exits_one(self, tmp_path, capsys, text):
        cfg = self.write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main([cfg, "--out", str(out)]) == 1
        assert not out.exists()
        assert "listed twice" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        MACRO_CFG.replace("rate_per_s = 2", "rate_per_s = 0"),
        MACRO_CFG.replace("rate_per_s = 2", "rate_per_s = -1"),
        MACRO_CFG.replace("duration_s = 10", "duration_s = -10"),
        MACRO_CFG.replace("duration_s = 10", "duration_s = 0"),
        DB_CFG.replace("db_mib = 128", "db_mib = -5"),
        DB_CFG.replace("db_mib = 128", "db_mib = 0"),
        DB_CFG.replace("duration_s = 10", "duration_s = -1"),
    ], ids=["zero-rate", "negative-rate", "negative-macro-duration",
            "zero-macro-duration", "negative-db-size", "zero-db-size",
            "negative-db-duration"])
    def test_non_positive_size_exits_one(self, tmp_path, text):
        cfg = self.write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main([cfg, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "[serverless_macro]\nmodel = teemate\nworkload = sleep\n"
        "rate_per_s = 1000\nduration_s = 1001\nseed = 0\n",
        "[serverless_throughput]\nmodel = native\nworkload = sleep\n"
        "n_requests = 1000001\nseed = 0\n",
        DB_CFG.replace("duration_s = 10", "duration_s = 1e9"),
        DB_CFG.replace("snapshot_interval_s = 2", "snapshot_interval_s = 1e9"),
        DB_CFG.replace("db_mib = 128", "db_mib = 1e9"),
        # 2**25 + 256 pages, in under 4,000 requests of 1 s.
        DB_CFG.replace("db_mib = 128", "db_mib = 131073")
        + "t_db_exec = 1000\n",
        # A 2.32 ms run of 0.4 ns requests stays under the request bound,
        # but a request that rounds to 0 ns would never advance the clock.
        SUB_NS_REQUEST_CFG,
    ], ids=["macro-arrivals", "burst-size", "db-duration", "db-interval",
            "db-size", "db-pages", "sub-ns-request"])
    def test_oversized_run_exits_one_before_simulating(self, tmp_path,
                                                        monkeypatch, text):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulation started")

        for name in ("gen_poisson", "gen_burst", "run_serverless",
                     "run_database"):
            monkeypatch.setattr(f"enclavesim.cli.{name}", no_simulation)
        cfg = self.write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main([cfg, "--out", str(out)]) == 1
        assert not out.exists()

    def test_sub_ns_fork_component_exits_zero(self, tmp_path):
        # The full-copy fork copies for 20 x 96.123456789 ms, which has
        # digits below a nanosecond; the fork record's components must
        # still sum to its total.
        cfg = self.write_cfg(tmp_path, DB_CFG.replace(
            "db_mib = 128", "db_mib = 96.123456789"))
        assert main([cfg, "--out", str(tmp_path / "out")]) == 0

    def test_zero_ns_snapshot_window_exits_one(self, tmp_path):
        # A 100 ps fork and a 1 ps write leave no window to report a
        # throughput over.
        cfg = self.write_cfg(tmp_path, DB_CFG.replace(
            "model = strawman, teemate", "model = strawman").replace(
            "db_mib = 128", "db_mib = 0.001")
            + "t_enclave_create = 1e-7\nt_fork_copy_per_mib = 1e-7\n"
              "snapshot_write_mib_per_s = 1e9\n")
        out = tmp_path / "out"
        assert main([cfg, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "[serverless_macro]\nmodel = teemate\nworkload = sleep\n"
        "rate_per_s = 1000\nduration_s = 1000\nseed = 0\n",
        DB_CFG.replace("duration_s = 10", "duration_s = 5000"),
    ], ids=["macro-arrivals", "db-duration"])
    def test_run_at_the_bound_reaches_simulation(self, tmp_path, monkeypatch,
                                                 text):
        class Started(Exception):
            pass

        def started(*args, **kwargs):
            raise Started

        monkeypatch.setattr("enclavesim.cli.gen_poisson", started)
        monkeypatch.setattr("enclavesim.cli.run_database", started)
        cfg = self.write_cfg(tmp_path, text)
        with pytest.raises(Started):
            main([cfg, "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("text", [
        LATENCY_CFG + "t_container_create = 1e308\nt_enclave_create = 1e308\n",
        LATENCY_CFG + "t_epc_alloc_per_page = 1e308\n",
        # A database run never uses the instance's EPC-expand time.
        DB_CFG + "t_epc_alloc_per_page = 1e308\n",
        LATENCY_CFG + "page_mib = 1e-320\n",
        DB_CFG + "page_mib = 1e-307\nm_teemate_per_instance = 1e-10\n",
        DB_CFG + "t_tcs_op = 1e308\nt_fork_child_setup = 1e308\n",
        "[serverless_latency]\nmodel = native\nworkload = sleep\n"
        "n_requests = 2\nworkers = 1\nseed = 0\nt_exec.sleep = 1e308\n",
        MACRO_CFG.replace("rate_per_s = 2", "rate_per_s = 1e-304").replace(
            "duration_s = 10", "duration_s = 1e306"),
    ], ids=["request-total", "epc-expand", "db-epc-expand",
            "instance-pages", "db-pages",
            "fork", "queued-finish", "poisson-horizon"])
    def test_overflowing_value_exits_one_without_output(self, tmp_path,
                                                        text):
        cfg = self.write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main([cfg, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("text, count", [
        # The one request takes the pooled container: the plan of a
        # request that creates one would take inf ms.
        ("[serverless_latency]\nmodel = teemate\nworkload = sleep\n"
         "seed = 0\nt_container_create = 1e308\nt_exec.sleep = 1e308\n", 1),
        # No request arrives, so no cold request is planned.
        ("[serverless_macro]\nmodel = cc_cold\nworkload = sleep\n"
         "rate_per_s = 1e-6\nduration_s = 1\nseed = 0\n"
         "t_enclave_create = 1e308\nt_exec.sleep = 1e308\n", 0),
    ], ids=["teemate-create", "no-arrivals"])
    def test_plan_no_request_takes_is_not_built(self, tmp_path, text,
                                                count):
        cfg = self.write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main([cfg, "--out", str(out)]) == 0
        models = json.loads((out / "summary.json").read_text())["models"]
        assert [m["count"] for m in models.values()] == [count]

    @pytest.mark.parametrize("text", [
        "[serverless_memory]\nmodel = cc_cold\nworkload = sleep\n"
        "n_requests = 2\nseed = 0\nm_strawman_per_request = 1e308\n",
        DB_CFG + "m_db_runtime_strawman = 1e308\n",
        # Each copied page or 25 MiB instance rounds away against a 1e300
        # MiB base, so the reported peak would equal the base.
        "[database]\nmodel = teemate\ndb_mib = 128\n"
        "snapshot_interval_s = 2\nduration_s = 10\nseed = 5\n"
        "m_db_runtime_teemate = 1e300\n",
        "[serverless_memory]\nmodel = teemate\nworkload = sleep\n"
        "n_requests = 8\nseed = 0\nm_teemate_base = 1e300\n",
    ], ids=["overflow-to-inf", "db-overflow-to-inf",
            "absorbed-db-copied-pages", "absorbed-instance-memory"])
    def test_unsummable_memory_exits_one_without_output(self, tmp_path,
                                                        text):
        cfg = self.write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main([cfg, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("text, peaks", [
        ("[serverless_memory]\nmodel = cc_cold, teemate\n"
         "workload = sleep\nn_requests = 64\nseed = 0\n"
         "m_strawman_per_request = 1e15\nm_teemate_base = 1e15\n"
         "m_teemate_per_instance = 1e15\npage_mib = 1e6\n",
         {"cc_cold": 64e15, "teemate": 64e15}),
        # 207 MiB + 1 x 1e308 MiB: the base is below the figure's last
        # bit, so the peak is the figure.
        ("[serverless_memory]\nmodel = teemate\nworkload = sleep\n"
         "n_requests = 2\nseed = 0\nm_teemate_per_instance = 1e308\n"
         "page_mib = 1e300\n", {"teemate": 1e308}),
        # 7 x 1e300 MiB, which a running sum taken back off rounded to a
        # level below zero.
        ("[serverless_memory]\nmodel = cc_cold\nworkload = sleep\n"
         "n_requests = 7\nseed = 0\nm_strawman_per_request = 1e300\n",
         {"cc_cold": 7e300}),
    ], ids=["huge-figures", "absorbed-base", "rounded-below-zero"])
    def test_large_summable_memory_exits_zero(self, tmp_path, text, peaks):
        # The peak is the base plus the peak count times the figure.
        cfg = self.write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main([cfg, "--out", str(out)]) == 0
        models = json.loads((out / "summary.json").read_text())["models"]
        assert {name: models[name]["peak_epc_mib"] for name in models} == \
            peaks

    @pytest.mark.parametrize("text, peak, baseline", [
        # A running sum of ten 0.1 MiB steps reads 0.9999999999999999.
        ("[serverless_memory]\nmodel = cc_cold\nworkload = sleep\n"
         "n_requests = 10\nseed = 0\nm_strawman_per_request = 0.1\n",
         1.0, 0.0),
        # The first instance lives in the 207 MiB base; ten more hold
        # 0.1 MiB each.
        ("[serverless_memory]\nmodel = teemate\nworkload = sleep\n"
         "n_requests = 11\nseed = 0\nm_teemate_per_instance = 0.1\n",
         208.0, 207.0),
    ], ids=["cc_cold", "teemate"])
    def test_peak_is_counted_not_summed(self, tmp_path, text, peak,
                                        baseline):
        cfg = self.write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main([cfg, "--out", str(out)]) == 0
        [model] = json.loads(
            (out / "summary.json").read_text())["models"].values()
        assert model["peak_epc_mib"] == peak
        assert model["extras"]["final_mib"] == baseline
        assert model["extras"]["baseline_mib"] == baseline

    def test_non_positive_exec_time_exits_two(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, LATENCY_CFG + "t_exec.crypto-aes = 0\n")
        out = tmp_path / "out"
        assert main([cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert "'crypto-aes' must be positive" in capsys.readouterr().err

    def test_negative_copy_cost_exits_two(self, tmp_path):
        cfg = self.write_cfg(tmp_path, DB_CFG + "t_cow_copy = -0.1\n")
        assert main([cfg, "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("text, name", [
        (DB_CFG + "m_db_runtime_strawman = -1\n", "m_db_runtime_strawman"),
        (DB_CFG + "m_db_runtime_teemate = -100\n", "m_db_runtime_teemate"),
        (LATENCY_CFG + "warm_keepalive_s = -0.5\n", "warm_keepalive_s"),
    ], ids=["strawman-runtime", "teemate-runtime", "keepalive"])
    def test_negative_figure_exits_two(self, tmp_path, capsys, text, name):
        cfg = self.write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main([cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert f"{name} must be >= 0" in capsys.readouterr().err

    def test_zero_figures_exit_zero(self, tmp_path):
        cfg = self.write_cfg(tmp_path, DB_CFG + (
            "m_db_runtime_strawman = 0\nm_db_runtime_teemate = 0\n"
            "warm_keepalive_s = 0\n"))
        assert main([cfg, "--out", str(tmp_path / "out")]) == 0

    def test_too_many_schedules_exit_one_before_probing(self, tmp_path,
                                                         monkeypatch):
        def no_probes(*args, **kwargs):
            raise AssertionError("probes started")

        monkeypatch.setattr("enclavesim.security.run_all", no_probes)
        cfg = self.write_cfg(tmp_path, "[security_suite]\nseed = 1\n"
                                       "schedules = 1000000000\n")
        out = tmp_path / "out"
        assert main([cfg, "--out", str(out)]) == 1
        assert not out.exists()

    def test_schedules_at_the_bound_reach_the_probes(self, tmp_path,
                                                     monkeypatch):
        class Started(Exception):
            pass

        def started(seed, schedules):
            assert schedules == MAX_SCHEDULES
            raise Started

        monkeypatch.setattr("enclavesim.security.run_all", started)
        cfg = self.write_cfg(tmp_path, "[security_suite]\nseed = 1\n"
                                       f"schedules = {MAX_SCHEDULES}\n")
        with pytest.raises(Started):
            main([cfg, "--out", str(tmp_path / "out")])

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

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-file"])
    @pytest.mark.parametrize("text", [
        LATENCY_CFG, "[security_suite]\nseed = 1\nschedules = 20\n",
    ], ids=["scenario", "security-suite"])
    def test_out_at_a_file_exits_one_before_simulating(
            self, tmp_path, monkeypatch, capsys, text, below):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulation started")

        monkeypatch.setattr("enclavesim.cli.run_serverless", no_simulation)
        monkeypatch.setattr("enclavesim.security.run_all", no_simulation)
        cfg = self.write_cfg(tmp_path, text)
        taken = tmp_path / "taken"
        taken.write_text("kept")
        assert main([cfg, "--out", str(taken / below)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: cannot write outputs: [Errno 20] Not a "
                       f"directory: {str(taken)!r}\n")
        assert taken.read_text() == "kept"

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


class TestPeakMemory:
    def test_run_peak_is_capped_per_request(self, tmp_path):
        # 20,000 requests take about 2 s traced; CI runs 200,000.
        n = 20_000
        assert traced_peak(n, str(tmp_path)) <= PEAK_BYTES_PER_REQUEST * n


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


NUMBERS = st.one_of(
    st.sampled_from(["0", "1", "-1", "3", "0.5", "64", "1e308", "-1e308",
                     "1e-320", "1e-307", "-0.0", "nan", "inf", "2.7", "x"]),
    st.integers(-3, 100).map(str),
    st.floats().map(repr))
PARAM_KEYS = [f.name for f in dataclasses.fields(CostParams)
              if f.name != "t_exec"] + ["t_exec.sleep", "t_exec.bogus"]
SERVERLESS_MODELS = ["native", "cc_cold", "cc_warm", "teemate"]
# Values that mostly pass parsing, so most runs reach the simulation.
VALID = {
    "seed": st.integers(-5, 2**40).map(str),
    "n_requests": st.integers(1, 120).map(str),
    "workers": st.integers(1, 70).map(str),
    "rate_per_s": st.floats(0.01, 20.0).map(repr),
    "duration_s": st.floats(0.01, 20.0).map(repr),
    "db_mib": st.floats(0.5, 64.0).map(repr),
    "write_ratio": st.floats(0.0, 1.0).map(repr),
    "snapshot_interval_s": st.floats(0.0, 5.0).map(repr),
    "schedules": st.integers(1, 3).map(str),
    "workload": st.sampled_from(list(WORKLOADS) + ["all"]),
    "prediction": st.sampled_from(["true", "false"]),
    "epc_alloc_serialized": st.sampled_from(["true", "false"]),
}


@st.composite
def config_texts(draw):
    """A scenario section with most of its keys, mostly valid values and
    a few cost overrides, which may be extreme; sometimes a junk line or
    arbitrary text."""
    # Hypothesis favours the first element of a sampled list, and shrinks
    # towards it; ``often`` puts the usual choice there.
    def often(n):
        return draw(st.sampled_from([True] * n + [False]))

    if not often(19):
        return draw(st.text(st.characters(blacklist_categories=("Cs",))))
    scenario = draw(st.sampled_from(sorted(SCENARIOS)))
    spec = SCENARIOS[scenario]
    keys = sorted(spec["optional"] | spec["required"])
    keys = [k for k in keys if often(39 if k in spec["required"] else 2)]
    keys += draw(st.lists(st.sampled_from(PARAM_KEYS), max_size=3,
                          unique=True))
    lines = [f"[{scenario}]"]
    for key in keys:
        if key == "model":
            models = (["strawman", "teemate"] if scenario == "database"
                      else SERVERLESS_MODELS)
            value = ", ".join(draw(st.lists(st.sampled_from(models),
                                            min_size=1, max_size=4)))
        elif key in VALID and often(9):
            value = draw(VALID[key])
        else:
            value = draw(NUMBERS)
        lines.append(f"{key} = {value}")
    if not often(9):
        lines.append(draw(st.text(st.characters(
            blacklist_categories=("Cs",)), max_size=12)))
    return "\n".join(lines) + "\n"


class TestMainProperty:
    # Lower work bounds keep every example small; the shipped ones hold
    # elsewhere.
    @given(text=config_texts())
    @settings(deadline=None, max_examples=80,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_config_exits_cleanly(self, monkeypatch, text):
        monkeypatch.setattr("enclavesim.cli.MAX_ARRIVALS", 200)
        monkeypatch.setattr("enclavesim.cli.MAX_DB_REQUESTS", 50000)
        monkeypatch.setattr("enclavesim.cli.MAX_SCHEDULES", 3)
        with tempfile.TemporaryDirectory() as scratch:
            cfg = Path(scratch) / "scenario.cfg"
            cfg.write_text(text, encoding="utf-8")
            out = Path(scratch) / "out"
            code = main([str(cfg), "--out", str(out)])
            assert code in (0, 1, 2)
            if code == 0:
                json.loads((out / "summary.json").read_text(),
                           parse_constant=_reject_constant)
