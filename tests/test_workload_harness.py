import math
import statistics

import pytest

from enclavesim import errors
from enclavesim.cost_model import (
    ALIAS,
    CONTAINER_CREATE,
    ENCLAVE_CREATE,
    EPC_EXPAND,
    default_params,
)
from enclavesim.workload_harness import (
    DbModel,
    ExecutionModel,
    RequestTrace,
    Variant,
    gen_burst,
    gen_poisson,
    run_database,
    run_serverless,
)


@pytest.fixture
def params():
    return default_params()


class TestTraces:
    def test_burst_all_at_zero(self):
        trace = gen_burst(5, "sleep")
        assert [t for t, _ in trace.arrivals] == [0.0] * 5

    def test_burst_rejects_zero(self):
        with pytest.raises(errors.InvariantViolation):
            gen_burst(0, "sleep")

    def test_trace_rejects_unsorted(self):
        with pytest.raises(errors.InvariantViolation):
            RequestTrace([(5.0, "a"), (1.0, "a")])

    def test_trace_rejects_negative(self):
        with pytest.raises(errors.InvariantViolation):
            RequestTrace([(-1.0, "a")])

    def test_poisson_deterministic_per_seed(self):
        a = gen_poisson(10.0, 5.0, 42, "sleep")
        b = gen_poisson(10.0, 5.0, 42, "sleep")
        assert a.arrivals == b.arrivals
        assert a.arrivals != gen_poisson(10.0, 5.0, 43, "sleep").arrivals

    def test_poisson_count_tracks_rate(self):
        # Over 100 seeds the mean count should sit within 2 sigma of
        # rate * duration (Poisson: sigma^2 = mean).
        rate, duration = 20.0, 10.0
        counts = [len(gen_poisson(rate, duration, s, "w").arrivals)
                  for s in range(100)]
        expected = rate * duration
        sigma = math.sqrt(expected / len(counts))
        assert abs(statistics.mean(counts) - expected) < 2 * sigma

    def test_poisson_mean_gap_halves_when_rate_doubles(self):
        def mean_gap(rate):
            gaps = []
            for s in range(50):
                times = [t for t, _ in gen_poisson(rate, 20.0, s, "w").arrivals]
                gaps.extend(b - a for a, b in zip(times, times[1:]))
            return statistics.mean(gaps)

        assert mean_gap(10.0) / mean_gap(20.0) == pytest.approx(2.0, rel=0.1)


class TestServerlessLatency:
    def test_cold_request_components(self, params):
        m = run_serverless(Variant.CC_COLD, gen_burst(1, "sleep"), params)
        r = m.requests[0]
        assert r.components[ENCLAVE_CREATE] == params.t_enclave_create
        assert r.total_ms == pytest.approx(
            params.t_container_create + params.t_enclave_create +
            params.t_instance_load_cold + params.exec_ms("sleep"))

    def test_shared_enclave_request_components(self, params):
        m = run_serverless(Variant.TEEMATE, gen_burst(1, "sleep"), params)
        r = m.requests[0]
        assert ENCLAVE_CREATE not in r.components
        assert r.components[CONTAINER_CREATE] == 0.0  # pooled container
        assert r.components[ALIAS] == params.t_alias + params.t_tcs_op
        assert r.components[EPC_EXPAND] == params.t_epc_expand

    def test_registration_excluded_from_request_latency(self, params):
        m = run_serverless(Variant.TEEMATE, gen_burst(1, "sleep"), params)
        assert m.extras["registration_ms"] == pytest.approx(
            params.t_container_create + params.t_enclave_create)
        assert m.requests[0].total_ms < params.t_enclave_create

    def test_deferred_registration_lands_in_first_request(self, params):
        m = run_serverless(Variant.TEEMATE, gen_burst(2, "sleep"), params,
                           pre_registered=False)
        first, second = m.requests
        assert first.components[ENCLAVE_CREATE] == params.t_enclave_create
        assert ENCLAVE_CREATE not in second.components

    def test_warm_pool_skips_setup_within_keepalive(self, params):
        params.warm_keepalive_s = 30
        trace = RequestTrace([(0.0, "sleep"), (12000.0, "sleep")])
        m = run_serverless(ExecutionModel(Variant.CC_WARM), trace, params)
        cold, warm = m.requests
        assert ENCLAVE_CREATE in cold.components
        assert warm.components == {"exec": params.exec_ms("sleep")}

    def test_warm_pool_expires(self, params):
        params.warm_keepalive_s = 30
        trace = RequestTrace([(0.0, "sleep"), (50000.0, "sleep")])
        m = run_serverless(ExecutionModel(Variant.CC_WARM), trace, params)
        assert ENCLAVE_CREATE in m.requests[1].components

    def test_native_has_no_enclave_cost(self, params):
        m = run_serverless(Variant.NATIVE, gen_burst(3, "sleep"), params)
        assert all(ENCLAVE_CREATE not in r.components for r in m.requests)


class TestServerlessMemory:
    def test_single_request_peaks(self, params):
        cc = run_serverless(Variant.CC_COLD, gen_burst(1, "sleep"), params)
        tm = run_serverless(Variant.TEEMATE, gen_burst(1, "sleep"), params)
        assert cc.peak_epc_mib == 114.0
        assert tm.peak_epc_mib == 207.0

    def test_burst_peak_scales_per_container(self, params):
        m = run_serverless(Variant.CC_COLD, gen_burst(16, "sleep"), params,
                           workers=16)
        assert m.peak_epc_mib == 16 * params.m_strawman_per_request

    def test_memory_returns_to_baseline(self, params):
        for variant in (Variant.CC_COLD, Variant.TEEMATE):
            m = run_serverless(variant, gen_burst(8, "sleep"), params,
                               workers=8)
            assert m.extras["final_mib"] == m.extras["baseline_mib"]


class TestServerlessThroughput:
    def test_identity_count_over_completion(self, params):
        m = run_serverless(Variant.TEEMATE, gen_burst(8, "sleep"), params,
                           workers=8)
        assert m.throughput_rps == pytest.approx(
            m.count / (m.completion_time_ms / 1000.0))

    def test_serialized_expand_stretches_burst(self, params):
        serialized = run_serverless(Variant.TEEMATE, gen_burst(8, "sleep"),
                                    params, workers=8)
        params2 = default_params()
        params2.epc_alloc_serialized = False
        parallel = run_serverless(Variant.TEEMATE, gen_burst(8, "sleep"),
                                  params2, workers=8)
        assert serialized.completion_time_ms > parallel.completion_time_ms

    def test_completion_monotonic_in_burst_size(self, params):
        times = [run_serverless(Variant.CC_COLD, gen_burst(n, "sleep"),
                                params, workers=4).completion_time_ms
                 for n in (2, 8, 16)]
        assert times == sorted(times) and times[0] < times[-1]

    def test_run_deterministic(self, params):
        def snap():
            m = run_serverless(Variant.TEEMATE, gen_burst(8, "sleep"),
                               params, workers=8)
            return [(r.request_id, r.total_ms, r.finish_ms)
                    for r in m.requests]

        assert snap() == snap()


class TestDatabase:
    def run_pair(self, db_mib=256.0, seed=7):
        params = default_params()
        kwargs = dict(db_mib=db_mib, write_ratio=0.2,
                      snapshot_interval_s=2.0, duration_s=40.0, seed=seed,
                      params=params)
        return (run_database(DbModel.STRAWMAN, **kwargs),
                run_database(DbModel.TEEMATE, **kwargs))

    def test_fork_latency_components(self):
        s, t = self.run_pair()
        assert s.extras["fork_latency_ms"] == pytest.approx(
            10000.0 + 20.0 * 256.0)
        assert t.extras["fork_latency_ms"] < 30.0

    def test_snapshot_window_memory(self):
        s, t = self.run_pair()
        # Full copy doubles the resident set; copy-on-write adds only the
        # dirty pages.
        assert s.extras["snapshot_peak_mib"] == pytest.approx(
            2 * (256.0 + 114.0))
        assert t.extras["snapshot_peak_mib"] < s.extras["snapshot_peak_mib"]
        assert t.extras["snapshot_peak_mib"] == pytest.approx(
            256.0 + 207.0 + t.extras["dirty_pages"] * (4096 / (1 << 20)))

    def test_window_throughput_favors_cow(self):
        s, t = self.run_pair()
        assert t.extras["snapshot_window_throughput_rps"] > \
            s.extras["snapshot_window_throughput_rps"]

    def test_occupancy_restored(self):
        for m in self.run_pair():
            assert m.extras["final_mib"] == pytest.approx(
                m.extras["baseline_mib"])

    def test_deterministic_per_seed(self):
        a1, b1 = self.run_pair(seed=11)
        a2, b2 = self.run_pair(seed=11)
        for x, y in ((a1, a2), (b1, b2)):
            assert x.extras == y.extras and x.count == y.count

    def test_rejects_nonpositive_db(self):
        with pytest.raises(errors.InvariantViolation):
            run_database(DbModel.TEEMATE, db_mib=0.0, write_ratio=0.1,
                         snapshot_interval_s=1.0, duration_s=5.0, seed=0,
                         params=default_params())
