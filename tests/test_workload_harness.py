import dataclasses
import gc
import heapq
import itertools
import math
import random
import statistics
import time
import tracemalloc
import types
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from cow_oracle import build_forked_runtime
from db_oracle import peak_between, run_database_stepwise
from count_ledger import CountLedger
import serverless_oracle
from serverless_oracle import run_serverless_heaped

from enclavesim import errors, workload_harness
from enclavesim.cost_model import (
    ALIAS,
    CONTAINER_CREATE,
    ENCLAVE_CREATE,
    EPC_EXPAND,
    EXEC,
    default_params,
)
from enclavesim.enclave_runtime import DB_BASE
from enclavesim.workload_harness import (
    CLOCK_END_NS,
    DbModel,
    RequestTrace,
    Variant,
    db_cycle,
    gen_burst,
    gen_bursts,
    gen_poisson,
    run_database,
    run_serverless,
)


@pytest.fixture
def params():
    return default_params()


class Bounded(random.Random):
    """A generator that gives out after 100 draws, so an arrival loop that
    never ends fails its test instead of hanging it."""

    def random(self):
        self.draws = getattr(self, "draws", 0) + 1
        assert self.draws <= 100, "the arrival loop does not end"
        return super().random()


@pytest.fixture
def bounded(monkeypatch):
    monkeypatch.setattr("enclavesim.workload_harness.random",
                        types.SimpleNamespace(Random=Bounded))


class TestTraces:
    def test_burst_all_at_zero(self):
        trace = gen_burst(5, "sleep")
        assert trace.arrivals == [0.0] * 5 and trace.workload == "sleep"

    def test_burst_rejects_zero(self):
        with pytest.raises(errors.InvariantViolation):
            gen_burst(0, "sleep")

    def test_bursts_share_one_arrival_list(self):
        traces = gen_bursts(3, ["sleep", "uploader"])
        assert [t.workload for t in traces.values()] == ["sleep", "uploader"]
        assert traces["sleep"].arrivals == [0.0] * 3
        assert traces["sleep"].arrivals is traces["uploader"].arrivals
        with pytest.raises(errors.InvariantViolation):
            gen_bursts(0, ["sleep"])

    def test_bursts_convert_their_arrivals_once(self, monkeypatch):
        traces = gen_bursts(64, ["sleep", "uploader", "crypto-aes"])
        assert len({id(t.arrivals_ns) for t in traces.values()}) == 1
        assert list(traces["uploader"].arrivals_ns) == [0] * 64
        # One trace is checked and converted, whatever the workload count.
        inits = []
        post_init = RequestTrace.__post_init__
        monkeypatch.setattr(RequestTrace, "__post_init__",
                            lambda trace: inits.append(1) or post_init(trace))
        gen_bursts(8, ["sleep", "uploader", "crypto-aes"])
        assert len(inits) == 1

    def test_poisson_rejects_zero_rate(self):
        # Only zero: without the check a negative rate would draw arrivals
        # that never pass the horizon.
        with pytest.raises(errors.InvariantViolation):
            gen_poisson(0.0, 1.0, 0, "sleep")

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_poisson_rejects_a_rate_that_is_not_finite(self, bounded, rate):
        # A NaN rate draws NaN arrival times and an infinite rate draws
        # gaps of 0: without the check no arrival would pass the horizon.
        with pytest.raises(errors.InvariantViolation):
            gen_poisson(rate, 1.0, 0, "sleep")

    def test_poisson_rejects_an_infinite_horizon(self, bounded):
        # No arrival would pass the horizon: without the check the loop
        # would never end.
        with pytest.raises(errors.ConfigError, match="inf ms"):
            gen_poisson(1.0, 1e306, 0, "sleep")

    def test_trace_rejects_unsorted(self):
        with pytest.raises(errors.InvariantViolation):
            RequestTrace([5.0, 1.0], "a")

    def test_trace_rejects_negative(self):
        with pytest.raises(errors.InvariantViolation):
            RequestTrace([-1.0], "a")

    @pytest.mark.parametrize("arrivals", [
        [0.0, math.nan, 1.0], [math.nan], [0.0, math.inf],
        [0.0, CLOCK_END_NS / 1e6],
    ], ids=["nan-inside", "nan", "inf", "clock-end"])
    def test_trace_rejects_an_arrival_off_the_clock(self, arrivals):
        # No comparison holds for NaN, so a NaN between sorted arrivals
        # passes the sort check.
        with pytest.raises(errors.InvariantViolation, match="clock's range"):
            RequestTrace(arrivals, "a")

    def test_trace_holds_its_arrivals_in_ns(self):
        # Each rounded once, half to even; 9e12 ms is 9e18 ns, near the
        # clock's end.
        trace = RequestTrace([0.0, 4e-7, 5e-7, 1.5, 9e12], "a")
        assert list(trace.arrivals_ns) == [0, 0, 0, 1_500_000, 9 * 10**18]

    def test_poisson_rejects_a_horizon_past_the_clock(self, bounded):
        # 1e10 s is past the clock's 2^63 ns, about 9.2e9 s.
        with pytest.raises(errors.ConfigError, match="clock's range"):
            gen_poisson(1e-9, 1e10, 0, "sleep")

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
                times = gen_poisson(rate, 20.0, s, "w").arrivals
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

    def test_warm_pool_skips_setup_within_keepalive(self, params):
        params.warm_keepalive_s = 30
        trace = RequestTrace([0.0, 12000.0], "sleep")
        m = run_serverless(Variant.CC_WARM, trace, params)
        cold, warm = m.requests
        assert ENCLAVE_CREATE in cold.components
        assert warm.components == {"exec": params.exec_ms("sleep")}

    def test_warm_pool_kept_past_the_clock_never_expires(self, params):
        # 1e306 s is past the clock's end, and no float ms holds it.
        params.warm_keepalive_s = 1e306
        trace = RequestTrace([0.0, 9e12], "sleep")
        m = run_serverless(Variant.CC_WARM, trace, params)
        assert m.requests[1].components == {"exec": params.exec_ms("sleep")}

    def test_warm_pool_expires(self, params):
        params.warm_keepalive_s = 30
        trace = RequestTrace([0.0, 50000.0], "sleep")
        m = run_serverless(Variant.CC_WARM, trace, params)
        assert ENCLAVE_CREATE in m.requests[1].components

    def test_sparse_warm_pool_run_is_linear(self, params):
        # At 0.01 requests/s nearly every warm environment has expired by
        # the next start. A start that scans the expired entries makes the
        # run quadratic: 200,000 requests then take minutes.
        trace = gen_poisson(0.01, 2e7, 0, "sleep")
        began = time.perf_counter()
        m = run_serverless(Variant.CC_WARM, trace, params)
        elapsed = time.perf_counter() - began
        assert m.count == len(trace.arrivals) > 199_000
        assert elapsed < 10.0

    def test_overflowing_request_is_a_config_error(self, params):
        params.t_container_create = params.t_enclave_create = 1e308
        with pytest.raises(errors.ConfigError, match="cold request"):
            run_serverless(Variant.CC_COLD, gen_burst(1, "sleep"), params)

    @pytest.mark.parametrize("n, margin_ms, refused", [
        (1, 1795.0, False), (1, 1775.0, True),
        (2, 3580.0, False), (2, 3560.0, True)])
    def test_run_that_could_finish_past_the_clock_is_refused(
            self, params, n, margin_ms, refused):
        # A native sleep request takes 1,785 ms. A run is refused if its
        # last arrival plus n times that reaches 2^63 ns, even when, as
        # here on n workers, each request would finish 1,785 ms after it.
        trace = RequestTrace([CLOCK_END_NS / 1e6 - margin_ms] * n, "sleep")
        finish = trace.arrivals_ns[-1] + 1_785_000_000
        assert (trace.arrivals_ns[-1] + n * 1_785_000_000
                >= CLOCK_END_NS) == refused
        if refused:
            with pytest.raises(errors.ConfigError, match="clock's range"):
                run_serverless(Variant.NATIVE, trace, params, workers=n)
        else:
            m = run_serverless(Variant.NATIVE, trace, params, workers=n)
            assert list(m.finish) == [finish] * n

    def test_a_created_container_rechecks_the_clock(self, params):
        # Two shared-enclave requests 5,000 ms before the clock's end: two
        # pooled plans (2,142.8 ms each) fit, but a created container's
        # plan (2,727.8 ms) is checked when the second start builds it.
        trace = RequestTrace([CLOCK_END_NS / 1e6 - 5000.0] * 2, "sleep")
        assert run_serverless(Variant.TEEMATE, trace, params, 1).count == 2
        with pytest.raises(errors.ConfigError, match="clock's range"):
            run_serverless(Variant.TEEMATE, trace, params, 2)

    def test_no_workers_completes_nothing(self, params):
        with pytest.raises(errors.InvariantViolation, match="not all"):
            run_serverless(Variant.NATIVE, gen_burst(2, "sleep"), params,
                           workers=0)

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

    @pytest.mark.parametrize("variant", [Variant.TEEMATE, Variant.CC_COLD])
    def test_run_holds_little_per_request(self, params, variant):
        # A run holds its columns, a finish time and a plan reference per
        # request, 16 B; counting the units it holds adds nothing per
        # request.
        n = 4000
        trace = gen_burst(n, "sleep")
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            metrics = run_serverless(variant, trace, params, workers=64)
            # A full collection also empties CPython's free lists, so a
            # temporary the run dropped is not counted as held.
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert metrics.count == n
        assert held / n < 32

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_run_keeps_its_plans_as_runs(self, params, variant):
        # A finish time per request, 8 B, and a handful of plan runs.
        n = 4000
        trace = gen_burst(n, "sleep")
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            metrics = run_serverless(variant, trace, params, workers=64)
            # A full collection also empties CPython's free lists, so a
            # temporary the run dropped is not counted as held.
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert metrics.count == n
        assert held / n < 12


class TestPlanRuns:
    @pytest.mark.parametrize("variant, firsts", [
        (Variant.NATIVE, [0]), (Variant.CC_COLD, [0]), (Variant.CC_WARM, [0]),
        # The registered container serves the first request, and each of
        # the other 63 creates one.
        (Variant.TEEMATE, [0, 1]),
    ], ids=["native", "cc_cold", "cc_warm", "teemate"])
    def test_a_burst_keeps_one_run_per_plan(self, params, variant, firsts):
        m = run_serverless(variant, gen_burst(64, "sleep"), params, 64)
        assert list(m.run_firsts) == firsts
        spans = list(m.spans())
        assert [end for _, end, _ in spans] == firsts[1:] + [64]
        records = m.requests
        for first, end, plan in spans:
            assert all(r.components is plan.components
                       for r in records[first:end])

    def test_a_plan_change_opens_a_run(self, params):
        # Warm environments kept 1 s: a request 1 s after the first
        # finishes runs cold, and the two after it warm.
        params.warm_keepalive_s = 1.0
        alone = run_serverless(Variant.CC_WARM, gen_burst(1, "sleep"),
                               params, 1)
        done = alone.completion_time_ms
        trace = RequestTrace([0.0, done + 1001.0, done + 1002.0,
                              2 * done + 1003.0], "sleep")
        m = run_serverless(Variant.CC_WARM, trace, params, 1)
        assert list(m.run_firsts) == [0, 2]
        cold, warm = m.run_plans
        assert [r.components for r in m.requests] == [
            cold.components] * 2 + [warm.components] * 2
        assert list(warm.components) == [EXEC]

    def test_a_run_without_requests_keeps_no_run(self, params):
        m = run_serverless(Variant.TEEMATE, RequestTrace([], "sleep"), params)
        assert not m.run_firsts and not m.run_plans
        assert list(m.spans()) == [] and m.requests == []


def expanded_statistics(latencies):
    """Mean, p50 and p99 in ms of a per-request list of latencies in ns,
    by the rule the harness's percentiles always kept: the element at
    index ``int(round(q / 100 * (n - 1)))`` of one sorted copy, and 0.0
    for an empty list."""
    if not latencies:
        return 0.0, 0.0, 0.0
    ordered = sorted(latencies)
    last = len(ordered) - 1
    p50, p99 = (ordered[max(0, min(last, int(round(q / 100.0 * last))))]
                for q in (50, 99))
    return (sum(latencies) / (len(latencies) * 1_000_000),
            p50 / 1_000_000, p99 / 1_000_000)


def run_statistics(sized_runs):
    """``_metrics``' mean, p50 and p99 of runs of ``(total ns, count)``,
    each of its own plan, with the per-request latencies they expand to."""
    firsts, plans, latencies = array("q"), [], []
    for total, count in sized_runs:
        firsts.append(len(latencies))
        plans.append(workload_harness._Plan(
            0, None, total, types.MappingProxyType({}), total))
        latencies += [total] * count
    n = len(latencies)
    m = workload_harness._metrics("native", RequestTrace([0.0] * n, "a"),
                                  firsts, plans, array("q", [1] * n), 1, 0,
                                  0.0, 0.0, 1.0)
    return (m.mean_latency_ms, m.p50_ms, m.p99_ms), latencies


class TestRunStatistics:
    @given(st.lists(st.tuples(st.integers(1, 10**13), st.integers(1, 70)),
                    max_size=8))
    @example([(5, 2), (5, 3), (1, 4)])  # tied totals in two runs
    def test_equals_expanded_list_statistics(self, sized_runs):
        got, latencies = run_statistics(sized_runs)
        assert got == expanded_statistics(latencies)

    def test_empty_run(self):
        assert run_statistics([]) == ((0.0, 0.0, 0.0), [])

    def test_median_of_odd_count(self):
        (_, p50, _), _ = run_statistics(
            [(3_000_000, 1), (1_000_000, 1), (2_000_000, 1)])
        assert p50 == 2.0

    def test_p99_of_64_distinct_totals_is_the_63rd(self):
        # Not nearest-rank, which gives the 64th: round(0.99 * 63) is 62.
        # round(0.5 * 63) halves to even, 32: the median is the 33rd.
        (_, p50, p99), _ = run_statistics(
            [(k * 1_000_000, 1) for k in range(64, 0, -1)])
        assert (p50, p99) == (33.0, 63.0)


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

    @pytest.mark.parametrize("variant", list(Variant))
    def test_heap_pops_per_request(self, params, monkeypatch, variant):
        """A one-plan run (``native``, ``cc_cold``) keeps no heap and pops
        nothing. In the general run, arrivals and starts never enter a
        heap: a request pops only its finish, and a serialized
        shared-enclave request its lock acquire too. Its unlock is a sum
        taken at the grant, not an event. The run ends at its last lock
        grant, so a finish that no later start passes is never popped: a
        burst on as many workers pops none, and a trace whose last
        arrival comes after every finish pops all but the last
        request's."""
        pops = []
        heappop = heapq.heappop
        monkeypatch.setattr(heapq, "heappop",
                            lambda heap: pops.append(1) or heappop(heap))
        per_request = {Variant.NATIVE: 0, Variant.CC_COLD: 0,
                       Variant.CC_WARM: 1, Variant.TEEMATE: 2}[variant]
        run_serverless(variant, gen_burst(64, "crypto-aes"), params, 64)
        assert len(pops) == (64 if variant is Variant.TEEMATE else 0)
        poisson = gen_poisson(4.0, 150.0, 0, "crypto-aes")
        last = max(run_serverless(variant, poisson, params, 8).finish) / 1e6
        trace = RequestTrace(poisson.arrivals + [last + 1.0], "crypto-aes")
        assert len(trace.arrivals) == 586
        pops.clear()
        run_serverless(variant, trace, params, 8)
        assert len(pops) == (per_request * 586 - 1 if per_request else 0)

    def test_predicted_warm_run_pops_nothing(self, params, monkeypatch):
        # Under prediction every cc_warm request takes the warm plan, so
        # the run takes the one-plan path.
        pops = []
        heappop = heapq.heappop
        monkeypatch.setattr(heapq, "heappop",
                            lambda heap: pops.append(1) or heappop(heap))
        for trace, workers in ((gen_burst(64, "crypto-aes"), 64),
                               (gen_poisson(4.0, 150.0, 0, "crypto-aes"), 8)):
            m = run_serverless(Variant.CC_WARM, trace, params, workers,
                               prediction=True)
            assert m.count == len(trace.arrivals)
        assert pops == []


def service_ms(variant, params):
    """Steps of a request of ``variant`` running alone: the shared enclave
    takes its pooled container, so it creates none."""
    if variant is Variant.TEEMATE:
        steps = [params.t_alias + params.t_tcs_op, params.t_epc_expand,
                 params.t_instance_load_teemate]
    else:
        steps = [params.t_container_create, params.t_instance_load_cold]
        if variant is Variant.CC_COLD:
            steps.append(params.t_enclave_create)
    return math.fsum(steps) + params.exec_ms("sleep")


class TestQueueingOracle:
    """One worker, Poisson arrivals and a fixed service time S form an
    M/D/1 queue, whose mean wait is rho * S / (2 * (1 - rho))
    (Pollaczek-Khinchine). The simulated mean wait, finish minus arrival
    minus the request's own time, must lie within 4 standard errors of it,
    the error taken from the spread of the per-seed means."""

    SEEDS = 16
    REQUESTS = 4000  # expected per seed
    RHO = 0.5

    @pytest.mark.parametrize("k, variant",
                             enumerate([Variant.NATIVE, Variant.CC_COLD,
                                        Variant.TEEMATE]),
                             ids=["native", "cc_cold", "teemate"])
    def test_mean_wait_matches_pollaczek_khinchine(self, params, k,
                                                   variant):
        service = service_ms(variant, params)
        rate_per_s = self.RHO / service * 1000.0
        means = []
        for seed in range(k * self.SEEDS, (k + 1) * self.SEEDS):
            trace = gen_poisson(rate_per_s, self.REQUESTS / rate_per_s, seed,
                                "sleep")
            m = run_serverless(variant, trace, params, workers=1)
            totals = {r.total_ms for r in m.requests}
            assert len(totals) == 1 and totals.pop() == pytest.approx(service)
            means.append(statistics.fmean(
                r.finish_ms - r.arrival_ms - r.total_ms for r in m.requests))
        expected = self.RHO * service / (2 * (1 - self.RHO))
        stderr = statistics.stdev(means) / math.sqrt(self.SEEDS)
        assert abs(statistics.fmean(means) - expected) <= 4 * stderr


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


def within_4_stderr(samples, expected):
    stderr = statistics.stdev(samples) / math.sqrt(len(samples))
    return abs(statistics.fmean(samples) - expected) <= 4 * stderr


class TestDirtyPageOracle:
    """In the shared-enclave copy-on-write window each request writes with
    probability w to one of N pages drawn uniformly, and the first write to
    a page copies it. After k requests a page is still clean with
    probability (1 - w/N)^k, so D = N(1 - (1 - w/N)^k) pages are dirty,
    and a window of W ms holds the k with k * t_db_exec + D * t_cow_copy =
    W. Over 32 seeds the mean dirty-page count and window throughput must
    lie within 4 standard errors of the values that follow."""

    SEEDS = range(32)

    @pytest.mark.parametrize("write_ratio", [0.2, 1.0])
    @pytest.mark.parametrize("db_mib", [128.0, 512.0])
    def test_dirty_pages_and_window_throughput(self, params, db_mib,
                                               write_ratio):
        runs = [run_database(DbModel.TEEMATE, db_mib, write_ratio,
                             snapshot_interval_s=2.0, duration_s=1.0,
                             seed=seed, params=params)
                for seed in self.SEEDS]
        pages = db_mib / params.page_mib
        window_ms = db_mib / params.snapshot_write_mib_per_s * 1000.0

        def dirty(k):
            return pages * (1.0 - (1.0 - write_ratio / pages) ** k)

        low, high = 0.0, window_ms / params.t_db_exec
        for _ in range(100):  # bisect: the window's time grows with k
            k = (low + high) / 2.0
            if k * params.t_db_exec + dirty(k) * params.t_cow_copy < window_ms:
                low = k
            else:
                high = k
        assert within_4_stderr([m.extras["dirty_pages"] for m in runs],
                               dirty(k))
        # On average k - 1/2 requests end inside the copy window: the last
        # that fits ends half a request before its end. One more ends
        # during the fork, the one running when it starts, and the
        # reported window spans the fork too.
        fork_ms = params.t_alias + params.t_tcs_op + params.t_fork_child_setup
        throughput = (k + 0.5) / ((fork_ms + window_ms) / 1000.0)
        assert within_4_stderr(
            [m.extras["snapshot_window_throughput_rps"] for m in runs],
            throughput)


def observed(metrics):
    """Every field of ``metrics`` and of its ledger, for ``==``."""
    fields = {f.name: getattr(metrics, f.name)
              for f in dataclasses.fields(metrics) if f.name != "ledger"}
    fields["ledger"] = vars(metrics.ledger)
    return fields


def db_small_scope():
    """The small scope of the database walk: the longest copy-on-write
    window, in requests that each copy a page, and the seeds. The deep
    profile widens both."""
    if settings.get_current_profile_name() == "deep":
        return 8, range(6)
    return 5, range(3)


class TestDatabaseOracle:
    @given(model=st.sampled_from(list(DbModel)),
           db_mib=st.floats(0.01, 16.0),
           write_ratio=st.one_of(st.sampled_from([0.0, 1.0]),
                                 st.floats(0.0, 1.0)),
           snapshot_interval_s=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
           duration_s=st.floats(0.001, 1.0),
           t_db_exec=st.one_of(st.sampled_from([0.5, 0.7, 1.1, 41.0]),
                               st.floats(0.5, 50.0)),
           t_cow_copy=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
           seed=st.integers(0, 2**32))
    # The first request straddles the fork's start (10 ms) and ends at
    # 41 ms, past the shared-enclave window (40 ms): inside the run, then
    # past its end.
    @example(model=DbModel.TEEMATE, db_mib=0.5, write_ratio=0.5,
             snapshot_interval_s=0.01, duration_s=1.0, t_db_exec=41.0,
             t_cow_copy=0.0, seed=0)
    @example(model=DbModel.TEEMATE, db_mib=0.5, write_ratio=0.5,
             snapshot_interval_s=0.01, duration_s=0.001, t_db_exec=41.0,
             t_cow_copy=0.0, seed=0)
    # The copy-on-write window runs from 25 to 35 ms in steps of 0.5 ms,
    # 1 ms with a copy. Seed 0's last window request ends on the window's
    # end; seed 1's ends at 35.5 ms, after the window: on the run's end
    # (35.5 ms), inside a long run, or past a run that ends with the
    # window.
    @example(model=DbModel.TEEMATE, db_mib=1.0, write_ratio=0.5,
             snapshot_interval_s=0.0, duration_s=1.0, t_db_exec=0.5,
             t_cow_copy=0.5, seed=0)
    @example(model=DbModel.TEEMATE, db_mib=1.0, write_ratio=0.5,
             snapshot_interval_s=0.0, duration_s=0.0355, t_db_exec=0.5,
             t_cow_copy=0.5, seed=1)
    @example(model=DbModel.TEEMATE, db_mib=1.0, write_ratio=0.5,
             snapshot_interval_s=0.0, duration_s=1.0, t_db_exec=0.5,
             t_cow_copy=0.5, seed=1)
    @example(model=DbModel.TEEMATE, db_mib=1.0, write_ratio=0.5,
             snapshot_interval_s=0.0, duration_s=0.001, t_db_exec=0.5,
             t_cow_copy=0.5, seed=1)
    @settings(deadline=None)
    def test_matches_stepwise_run(self, model, db_mib, write_ratio,
                                  snapshot_interval_s, duration_s, t_db_exec,
                                  t_cow_copy, seed):
        # A short full-copy fork keeps each run to about 2,000 requests.
        params = default_params()
        params.t_enclave_create = 50.0
        params.t_fork_copy_per_mib = 2.0
        params.t_db_exec = t_db_exec
        params.t_cow_copy = t_cow_copy
        args = (model, db_mib, write_ratio, snapshot_interval_s, duration_s,
                seed, params)
        # Hypothesis refuses function-scoped fixtures such as monkeypatch.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(workload_harness, "CostLedger", CountLedger)
            got = run_database(*args)
        assert observed(got) == observed(run_database_stepwise(*args))

    def test_small_scope_matches_stepwise_run(self, monkeypatch):
        """Every short copy-on-write window on a 3-page database: 1 to
        ``most`` requests long if each copies a page, in a run that ends
        half a request before the window's end (so on it), on it, or half
        a request after it."""
        monkeypatch.setattr(workload_harness, "CostLedger", CountLedger)
        most, seeds = db_small_scope()
        params = default_params()
        db_mib = 3 * params.page_mib
        for exec_ms, cow_ms, requests in itertools.product(
                (0.5, 1.0), (0.0, 0.5, 1.0), range(1, most + 1)):
            params.t_db_exec, params.t_cow_copy = exec_ms, cow_ms
            window_ms = requests * (exec_ms + cow_ms)
            params.snapshot_write_mib_per_s = db_mib / window_ms * 1000.0
            cycle = db_cycle(DbModel.TEEMATE, db_mib, 0.0, 0.0, params)
            assert cycle.window_end - cycle.fork_end == round(window_ms * 1e6)
            for shift, write_ratio, seed in itertools.product(
                    (-0.5, 0.0, 0.5), (0.0, 0.5, 1.0), seeds):
                duration_s = (cycle.window_end / 1e6 + shift * exec_ms) / 1e3
                args = (DbModel.TEEMATE, db_mib, write_ratio, 0.0,
                        duration_s, seed, params)
                assert (observed(run_database(*args))
                        == observed(run_database_stepwise(*args))), args

    def test_peak_between_includes_carry_in(self):
        timeline = [(0.0, 100.0), (5.0, 60.0)]
        assert peak_between(timeline, 1.0, 4.0) == 100.0
        assert peak_between(timeline, 1.0, 6.0) == 100.0
        assert peak_between(timeline, 6.0, 9.0) == 60.0

    def test_peak_between_window_spike(self):
        timeline = [(0.0, 10.0), (2.0, 100.0), (3.0, 10.0)]
        assert peak_between(timeline, 1.0, 4.0) == 100.0
        assert peak_between(timeline, 3.5, 4.0) == 10.0


class TestPageDraw:
    """The copy-on-write window inlines ``randrange``'s draw: ``k`` random
    bits, drawn again while they fall past the last page. These page
    counts take one to three bits or sit on both sides of a power of two,
    where a redraw is likeliest."""

    @pytest.mark.parametrize("pages", [1, 2, 3, 2**17, 2**17 + 1])
    def test_inlined_draw_matches_randrange(self, params, monkeypatch,
                                            pages):
        k = pages.bit_length()
        for seed in range(4):
            inlined, library = random.Random(seed), random.Random(seed)
            for _ in range(1000):
                assert inlined.random() == library.random()
                page = inlined.getrandbits(k)
                while page >= pages:
                    page = inlined.getrandbits(k)
                assert page == library.randrange(pages)
        # The window of the harness holds about 2,000 requests, half of which
        # write, against the oracle's ``randrange``.
        db_mib = pages * params.page_mib
        params.snapshot_write_mib_per_s = db_mib / (2000 * params.t_db_exec
                                                    / 1000.0)
        monkeypatch.setattr(workload_harness, "CostLedger", CountLedger)
        for seed in range(3):
            args = (DbModel.TEEMATE, db_mib, 0.5, 0.0, 0.001, seed, params)
            assert observed(run_database(*args)) == \
                observed(run_database_stepwise(*args))


class TestDatabaseOnRuntime:
    """The writes of a 4 MiB shared-enclave window, as the database oracle
    draws them, made as parent writes through ``fork_cow`` on a runtime of
    1,024 database pages: the runtime copies the pages ``run_database``
    counts and takes the EPC it reports (ROADMAP item 13)."""

    def test_window_writes_match_the_runtime(self, params):
        # A 400 ms window: about 800 requests, half of them writes, so a
        # few hundred first writes and some repeats.
        params.snapshot_write_mib_per_s = 10.0
        args = (DbModel.TEEMATE, 4.0, 0.5, 0.0, 0.001, 7, params)
        writes = []
        run_database_stepwise(*args, writes=writes)
        extras = run_database(*args).extras
        assert len(set(writes)) > 200 and len(writes) > len(set(writes))
        machine, runtime, pair = build_forked_runtime(1024)
        assert len(runtime.db_vas()) * params.page_mib == 4.0
        baseline = machine.epc_used
        for page in writes:
            runtime.cow_write(pair, pair.parent_pid, DB_BASE + page, b"w")
        assert pair.dirty_count == extras["dirty_pages"]
        assert (machine.epc_used - baseline) * params.page_mib == \
            extras["snapshot_peak_mib"] - extras["baseline_mib"]
        runtime.snapshot(pair, pair.child_pid)
        assert machine.epc_used == baseline


# Integer costs make finishes land on arrivals, grants and each other; the
# others are not whole ns, so each step rounds.
COSTS = st.sampled_from([100.0, 200.0, 300.0, 400.0, 0.1, 0.3, 41.7, 1234.567])

# Offsets that move a trace near the clock's end: 1e7 ms before it every
# run fits its range; 1e4 ms before it, a run of a few requests fits and a
# longer one is refused.
NEAR_THE_END_MS = [CLOCK_END_NS / 1e6 - 1e7, CLOCK_END_NS / 1e6 - 1e4]


@st.composite
def serverless_traces(draw):
    """A Poisson trace, or arrivals tied on a 100 ms grid, of one of two
    workloads, sometimes moved near the clock's end."""
    workload = draw(st.sampled_from("ab"))
    if draw(st.booleans()):
        arrivals = gen_poisson(
            draw(st.floats(1.0, 40.0)), draw(st.floats(0.05, 3.0)),
            draw(st.integers(0, 2**32)), workload).arrivals
    else:
        times = sorted(draw(st.lists(st.integers(0, 8), max_size=40)))
        arrivals = [100.0 * k for k in times]
    offset = draw(st.sampled_from([0.0, 0.0, 0.0, 0.0, *NEAR_THE_END_MS]))
    return RequestTrace([offset + t for t in arrivals], workload)


def record_fields(metrics):
    return [(r.request_id, r.arrival_ms, r.workload, r.components,
             r.total_ms, r.finish_ms) for r in metrics.requests]


def assert_same_run(got, want):
    """``run_serverless``'s ``Metrics`` equal the oracle's field for field,
    ``peak_epc_mib`` too, with the same records."""
    for f in dataclasses.fields(got):
        assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert record_fields(got) == record_fields(want)


MS = 10**6  # ns


def whole_ms_plan(kind, head, locked=None, tail=0):
    """A plan of a head, then, unless ``locked`` is None, a locked step and
    a tail, each of whole ms; without a lock, the head is all the plan's
    tail. Its components name ``kind``, so a record shows which kind of
    plan its request ran."""
    if locked is None:
        return workload_harness._Plan(
            0, None, head * MS,
            types.MappingProxyType({kind: float(head)}), head * MS)
    return workload_harness._Plan(
        head * MS, locked * MS, tail * MS,
        types.MappingProxyType({kind: float(head), EPC_EXPAND: float(locked),
                                EXEC: float(tail)}),
        (head + locked + tail) * MS)


def small_scope():
    """The small scope of the tie check: the arrival times, the most
    arrivals of a trace and the plan step lengths, all in whole ms. The
    deep profile widens each."""
    if settings.get_current_profile_name() == "deep":
        return range(4), 6, range(3)
    return range(3), 5, range(2)


def small_scope_configs(variant, steps):
    """Every ``(plans, keepalive_s, prediction)`` of a model at small scope.
    A locked plan's head and locked step take each of ``steps``, and each
    tail, the steps that end in a finish, one more than each, since
    ``_plan`` refuses one of 0 ns. The shared enclave takes every pooled
    and create plan of a head, a locked step and a tail; the others every
    plan without a lock, which is all tail, and ``cc_warm`` keepalives of
    0 and 1 ms, with and without prediction."""
    ends = [step + 1 for step in steps]
    if variant is Variant.TEEMATE:
        plans = [(head, locked, tail) for head in steps for locked in steps
                 for tail in ends]
        return [({"pooled": whole_ms_plan("pooled", *pooled),
                  "create": whole_ms_plan("create", *create)}, 0.0, False)
                for pooled, create in itertools.product(plans, repeat=2)]
    if variant is Variant.CC_WARM:
        return [({"cold": whole_ms_plan("cold", cold),
                  "warm": whole_ms_plan("warm", warm)},
                 keepalive_s, prediction)
                for cold, warm in itertools.product(ends, repeat=2)
                for keepalive_s in (0.0, 0.001)
                for prediction in (False, True)]
    kind = "native" if variant is Variant.NATIVE else "cold"
    return [({kind: whole_ms_plan(kind, head)}, 0.0, False) for head in ends]


def run_small_scope(variant, configs):
    """Run ``run_serverless`` and the oracle on each config, every sorted
    trace of a few arrivals at a few whole ms and 1-3 workers. Returns the
    count of runs and the first whose finish times, record fields or peak
    differ from the oracle's, or None."""
    times, most, _ = small_scope()
    traces = [RequestTrace([float(t) for t in arrivals], "a")
              for k in range(1, most + 1)
              for arrivals in itertools.combinations_with_replacement(
                  times, k)]
    params = default_params()
    params.t_exec = {"a": 1.0}
    runs, first = 0, None
    plans = {}
    with pytest.MonkeyPatch.context() as mp:
        for module in (workload_harness, serverless_oracle):
            mp.setattr(module, "_plan",
                       lambda kind, exec_ms, params: plans[kind])
        for plans, keepalive_s, prediction in configs:
            params.warm_keepalive_s = keepalive_s
            for trace in traces:
                for workers in (1, 2, 3):
                    want = run_serverless_heaped(variant, trace, params,
                                                 workers, prediction)
                    got = run_serverless(variant, trace, params, workers,
                                         prediction)
                    runs += 1
                    same = (got.finish == want.finish
                            and record_fields(got) == record_fields(want)
                            and got.peak_epc_mib == want.peak_epc_mib)
                    if first is None and not same:
                        first = (dict(plans), keepalive_s, prediction,
                                 trace.arrivals, workers)
    return runs, first


# Steps that round to 0 ns and to 1 ns.
SUB_NS_MS, ONE_NS_MS = 1e-7, 1e-6

# Per model, runs of ``(arrivals in ms, workers, prediction)`` and the
# kinds of plan their requests take: after a cold request of a few ns,
# a request at 1 ms takes its warm environment, and a second request on
# a second worker creates a container.
PLAN_RUNS = {
    Variant.NATIVE: [(([0.0], 1, False), {"native"})],
    Variant.CC_COLD: [(([0.0], 1, False), {"cold"})],
    Variant.CC_WARM: [(([0.0], 1, False), {"cold"}),
                      (([0.0, 1.0], 1, False), {"cold", "warm"}),
                      (([0.0], 1, True), {"warm"})],
    Variant.TEEMATE: [(([0.0], 1, False), {"pooled"}),
                      (([0.0, 0.0], 2, False), {"pooled", "create"})],
}


def finishing_ns(kind, params):
    """The tail of a ``kind`` plan, the steps that end in its finish, in
    ns with each step rounded once: the steps after the lock, or all of a
    plan without one."""
    def ns(ms):
        return round(ms * 1e6)

    end = ns(params.exec_ms("a"))
    if kind in ("pooled", "create"):
        end += ns(params.t_instance_load_teemate)
        if params.epc_alloc_serialized:
            return end
        create = params.t_container_create if kind == "create" else 0.0
        return end + sum(map(ns, (create, params.t_alias + params.t_tcs_op,
                                  params.t_epc_expand)))
    return end + sum(map(ns, {
        "native": (params.t_container_create, params.t_instance_load_cold),
        "cold": (params.t_container_create, params.t_enclave_create,
                 params.t_instance_load_cold),
        "warm": ()}[kind]))


class TestServerlessOracle:
    @given(trace=serverless_traces(), variant=st.sampled_from(list(Variant)),
           workers=st.integers(1, 4), prediction=st.booleans(),
           serialized=st.booleans(),
           keepalive_s=st.sampled_from([0.0, 0.0001, 0.1, 0.3]),
           create=COSTS, enclave=COSTS, load_cold=COSTS, load_shared=COSTS,
           exec_a=COSTS, exec_b=COSTS,
           alias=st.sampled_from([2.32, 2.5, 2.7, 3.01]),
           tcs_op=st.sampled_from([0.5, 0.1]),
           alloc_per_page=st.sampled_from([0.0625, 0.015625, 0.1031]))
    # A step of 1e308 ms has no value in ns: both refuse its plan.
    @example(trace=RequestTrace([0.0, 0.0], "a"),
             variant=Variant.NATIVE, workers=1, prediction=False,
             serialized=True, keepalive_s=0.0,
             create=100.0, enclave=100.0, load_cold=100.0,
             load_shared=100.0, exec_a=1e308, exec_b=100.0, alias=2.7,
             tcs_op=0.1, alloc_per_page=0.0625)
    # A same-time burst on three workers with integer costs: a finish ties
    # with the start it frees a worker for and with a finish scheduled
    # before that start.
    @example(trace=RequestTrace([0.0] * 5, "a"),
             variant=Variant.TEEMATE, workers=3, prediction=False,
             serialized=False, keepalive_s=0.0,
             create=100.0, enclave=100.0, load_cold=100.0,
             load_shared=100.0, exec_a=100.0, exec_b=100.0, alias=2.5,
             tcs_op=0.5, alloc_per_page=0.015625)
    # A cold request finishes at 400 ms as the next arrives on the free
    # worker: the finish runs first, and the start takes the warm
    # environment it leaves.
    @example(trace=RequestTrace([0.0, 400.0], "a"),
             variant=Variant.CC_WARM, workers=2, prediction=False,
             serialized=False, keepalive_s=0.0,
             create=100.0, enclave=100.0, load_cold=100.0,
             load_shared=100.0, exec_a=100.0, exec_b=100.0, alias=2.5,
             tcs_op=0.5, alloc_per_page=0.015625)
    # Four shared-enclave requests queue for the lock. At 303 ms the
    # third unlocks and hands the lock on as the pooled container's
    # request finishes and a fifth request arrives: the finish runs before
    # the start, which takes the container it frees.
    @example(trace=RequestTrace([0.0] * 4 + [303.0], "a"),
             variant=Variant.TEEMATE, workers=5, prediction=False,
             serialized=True, keepalive_s=0.0,
             create=100.0, enclave=100.0, load_cold=100.0,
             load_shared=100.0, exec_a=100.0, exec_b=100.0, alias=2.5,
             tcs_op=0.5, alloc_per_page=0.015625)
    # Three shared-enclave requests of up to 962.84 ms, 1e4 ms before the
    # clock's end: the lock's handoffs and the finishes stay in its range.
    @example(trace=RequestTrace([CLOCK_END_NS / 1e6 - 1e4] * 3, "a"),
             variant=Variant.TEEMATE, workers=2, prediction=False,
             serialized=True, keepalive_s=0.0,
             create=100.0, enclave=100.0, load_cold=100.0,
             load_shared=100.0, exec_a=100.0, exec_b=100.0, alias=2.5,
             tcs_op=0.5, alloc_per_page=0.1031)
    # 1e3 ms before it, three pooled plans of 303 ms fit, but three of
    # the 403 ms plan that the second start creates a container with
    # could finish past it: both refuse the run.
    @example(trace=RequestTrace([CLOCK_END_NS / 1e6 - 1e3] * 3, "a"),
             variant=Variant.TEEMATE, workers=2, prediction=False,
             serialized=True, keepalive_s=0.0,
             create=100.0, enclave=100.0, load_cold=100.0,
             load_shared=100.0, exec_a=100.0, exec_b=100.0, alias=2.5,
             tcs_op=0.5, alloc_per_page=0.015625)
    # Three cold requests of 400 ms, 1e3 ms before the end: refused.
    @example(trace=RequestTrace([CLOCK_END_NS / 1e6 - 1e3] * 3, "a"),
             variant=Variant.CC_COLD, workers=2, prediction=False,
             serialized=False, keepalive_s=0.0,
             create=100.0, enclave=100.0, load_cold=100.0,
             load_shared=100.0, exec_a=100.0, exec_b=100.0, alias=2.5,
             tcs_op=0.5, alloc_per_page=0.015625)
    # The one-plan recursion's edges, on 100 ms steps. A native request
    # takes 300 ms: the third arrives at 300 ms, exactly as the first
    # finishes, and takes its worker at once.
    @example(trace=RequestTrace([0.0, 0.0, 300.0], "a"),
             variant=Variant.NATIVE, workers=2, prediction=False,
             serialized=False, keepalive_s=0.0,
             create=100.0, enclave=100.0, load_cold=100.0,
             load_shared=100.0, exec_a=100.0, exec_b=100.0, alias=2.5,
             tcs_op=0.5, alloc_per_page=0.015625)
    # Fewer requests than workers: none waits. The third arrives at
    # 400 ms as the first two finish, so at most two are in service.
    @example(trace=RequestTrace([0.0, 0.0, 400.0], "a"),
             variant=Variant.CC_COLD, workers=4, prediction=False,
             serialized=False, keepalive_s=0.0,
             create=100.0, enclave=100.0, load_cold=100.0,
             load_shared=100.0, exec_a=100.0, exec_b=100.0, alias=2.5,
             tcs_op=0.5, alloc_per_page=0.015625)
    # One worker: Lindley's recursion itself, cold requests of 400 ms
    # with arrivals at, before and after the previous finish.
    @example(trace=RequestTrace([0.0, 400.0, 400.0, 500.0, 1700.0], "a"),
             variant=Variant.CC_COLD, workers=1, prediction=False,
             serialized=False, keepalive_s=0.0,
             create=100.0, enclave=100.0, load_cold=100.0,
             load_shared=100.0, exec_a=100.0, exec_b=100.0, alias=2.5,
             tcs_op=0.5, alloc_per_page=0.015625)
    # Predicted warm requests of 100 ms on a 100 ms grid: every start
    # after the second ties with a finish.
    @example(trace=RequestTrace([0.0, 0.0, 100.0, 100.0, 100.0, 200.0,
                                 300.0], "a"),
             variant=Variant.CC_WARM, workers=2, prediction=True,
             serialized=False, keepalive_s=0.0,
             create=100.0, enclave=100.0, load_cold=100.0,
             load_shared=100.0, exec_a=100.0, exec_b=100.0, alias=2.5,
             tcs_op=0.5, alloc_per_page=0.015625)
    @settings(deadline=None)
    def test_matches_heaped_run(self, trace, variant, workers, prediction,
                                serialized, keepalive_s,
                                create, enclave, load_cold, load_shared,
                                exec_a, exec_b, alias, tcs_op,
                                alloc_per_page):
        """The harness refuses exactly the runs the oracle refuses, and
        gives the oracle's ``Metrics`` on every other run."""
        params = default_params()
        params.t_container_create = create
        params.t_enclave_create = enclave
        params.t_instance_load_cold = load_cold
        params.t_instance_load_teemate = load_shared
        params.t_exec = {"a": exec_a, "b": exec_b}
        params.t_alias = alias
        params.t_tcs_op = tcs_op
        params.t_epc_alloc_per_page = alloc_per_page
        params.epc_alloc_serialized = serialized
        params.warm_keepalive_s = keepalive_s
        try:
            want = run_serverless_heaped(variant, trace, params, workers,
                                         prediction)
        except errors.ConfigError:
            with pytest.raises(errors.ConfigError):
                run_serverless(variant, trace, params, workers, prediction)
            return
        got = run_serverless(variant, trace, params, workers, prediction)
        assert_same_run(got, want)

    @given(arrivals=st.lists(st.sampled_from([0, 0, 1, 2, 3, 4]),
                             min_size=4, max_size=10),
           workers=st.integers(1, 5),
           steps=st.lists(st.sampled_from([0, 0, 1, 2, 3]), min_size=4,
                          max_size=4),
           tails=st.lists(st.sampled_from([1, 2, 3]), min_size=2,
                          max_size=2))
    @settings(deadline=None)
    def test_matches_heaped_run_on_tied_plans(self, arrivals, workers, steps,
                                              tails):
        """Shared-enclave plans of a few whole ms, so heads, locks and
        tails tie with each other and with arrivals at every grant. Heads
        and locked steps may take 0 ms, tails 1 ms or more, as ``_plan``
        requires; every run gives the oracle's ``Metrics``."""
        plans = {"pooled": whole_ms_plan("pooled", *steps[:2], tails[0]),
                 "create": whole_ms_plan("create", *steps[2:], tails[1])}
        trace = RequestTrace([float(t) for t in sorted(arrivals)], "a")
        params = default_params()
        params.t_exec = {"a": 1.0}
        with pytest.MonkeyPatch.context() as mp:
            for module in (workload_harness, serverless_oracle):
                mp.setattr(module, "_plan",
                           lambda kind, exec_ms, params: plans[kind])
            want = run_serverless_heaped(Variant.TEEMATE, trace, params,
                                         workers)
            got = run_serverless(Variant.TEEMATE, trace, params, workers)
        assert_same_run(got, want)

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_matches_heaped_run_at_small_scope(self, variant):
        """Every small instance, after Jackson's small-scope hypothesis:
        each sorted trace of a few arrivals at a few whole ms, on 1-3
        workers, under every plan of whole-ms steps, so arrivals, finishes,
        lock grants and expiries tie in every order a run can meet. Heads
        and locked steps may take 0 ms; a tail, which ends in a finish,
        takes 1 ms or more."""
        _, _, steps = small_scope()
        runs, first = run_small_scope(variant,
                                      small_scope_configs(variant, steps))
        assert first is None, f"of {runs} runs, this one differs: {first}"

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_refuses_exactly_the_plans_that_finish_in_0_ns(self, variant):
        """Every run of ``PLAN_RUNS`` with each step of 0.1 ns or 1 ns,
        the EPC-expand lock on and off: the harness and the oracle each
        refuse a run exactly when one of its requests takes a plan whose
        tail (the steps after the lock, or all of a plan without one)
        rounds to 0 ns, and give equal ``Metrics`` otherwise. A plan that
        no request takes refuses nothing, since it is not built."""
        params = default_params()
        refusals = set()
        for steps in itertools.product((SUB_NS_MS, ONE_NS_MS), repeat=5):
            (params.t_container_create, params.t_enclave_create,
             params.t_instance_load_cold, params.t_instance_load_teemate,
             exec_ms) = steps
            params.t_exec = {"a": exec_ms}
            for serialized in (True, False):
                params.epc_alloc_serialized = serialized
                for (arrivals, workers, prediction), kinds in \
                        PLAN_RUNS[variant]:
                    trace = RequestTrace(arrivals, "a")
                    args = (variant, trace, params, workers, prediction)
                    refused = any(finishing_ns(kind, params) == 0
                                  for kind in kinds)
                    refusals.add(refused)
                    if not refused:
                        assert_same_run(run_serverless(*args),
                                        run_serverless_heaped(*args))
                        continue
                    for run in (run_serverless, run_serverless_heaped):
                        with pytest.raises(errors.ConfigError,
                                           match="round to 0 ns"):
                            run(*args)
        assert refusals == {False, True}
