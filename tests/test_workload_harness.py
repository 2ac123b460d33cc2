import dataclasses
import heapq
import math
import random
import statistics
import time
import tracemalloc
import types

import pytest
from hypothesis import example, given, settings, strategies as st

from cow_oracle import build_forked_runtime
from db_oracle import peak_between, run_database_stepwise
from count_ledger import CountLedger
from serverless_oracle import run_serverless_heaped

from enclavesim import errors, workload_harness
from enclavesim.cost_model import (
    ALIAS,
    CONTAINER_CREATE,
    ENCLAVE_CREATE,
    EPC_EXPAND,
    default_params,
)
from enclavesim.enclave_runtime import DB_BASE
from enclavesim.workload_harness import (
    DbModel,
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
        # request, 16 B; the ledger must add nothing per request.
        n = 4000
        trace = gen_burst(n, "sleep")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            metrics = run_serverless(variant, trace, params, workers=64)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert metrics.count == n
        assert held / n < 32


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
        """Arrivals and zero-delay grants never enter the heap: a request
        pops only its finish, and a serialized shared-enclave request its
        lock acquire and unlock too, whether arrivals tie or not."""
        pops = []
        heappop = heapq.heappop
        monkeypatch.setattr(heapq, "heappop",
                            lambda heap: pops.append(1) or heappop(heap))
        per_request = 3 if variant is Variant.TEEMATE else 1
        for trace, workers in ((gen_burst(64, "crypto-aes"), 64),
                               (gen_poisson(4.0, 150.0, 0, "crypto-aes"), 8)):
            pops.clear()
            run_serverless(variant, trace, params, workers)
            assert len(pops) == per_request * len(trace.arrivals)


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
    counts and takes the EPC it reports (ROADMAP item 10, step 0)."""

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
# others are not dyadic, so their sums round.
COSTS = st.sampled_from([100.0, 200.0, 300.0, 400.0, 0.1, 0.3, 41.7, 1234.567])


@st.composite
def serverless_traces(draw):
    """A Poisson trace, or arrivals tied on a 100 ms grid, of one of two
    workloads."""
    workload = draw(st.sampled_from("ab"))
    if draw(st.booleans()):
        return gen_poisson(
            draw(st.floats(1.0, 40.0)), draw(st.floats(0.05, 3.0)),
            draw(st.integers(0, 2**32)), workload)
    times = sorted(draw(st.lists(st.integers(0, 8), max_size=40)))
    return RequestTrace([100.0 * k for k in times], workload)


def record_fields(metrics):
    return [(r.request_id, r.arrival_ms, r.workload, r.components,
             r.total_ms, r.finish_ms) for r in metrics.requests]


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
    # The second request finishes at infinity, after the last arrival.
    @example(trace=RequestTrace([0.0, 0.0], "a"),
             variant=Variant.NATIVE, workers=1, prediction=False,
             serialized=True, keepalive_s=0.0,
             create=100.0, enclave=100.0, load_cold=100.0,
             load_shared=100.0, exec_a=1e308, exec_b=100.0, alias=2.7,
             tcs_op=0.1, alloc_per_page=0.0625)
    # A tied burst on three workers with integer costs: a finish ties with
    # the start it grants and with a finish scheduled before that start.
    # Were the start run first, the occupancy counts would come in
    # another order.
    @example(trace=RequestTrace([0.0] * 5, "a"),
             variant=Variant.TEEMATE, workers=3, prediction=False,
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
        # Hypothesis refuses function-scoped fixtures such as monkeypatch.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(workload_harness, "CostLedger", CountLedger)
            got = run_serverless(variant, trace, params, workers, prediction)
        want = run_serverless_heaped(variant, trace, params, workers,
                                     prediction)
        for f in dataclasses.fields(got):
            if f.name not in ("requests", "ledger"):
                assert getattr(got, f.name) == getattr(want, f.name), f.name
        assert record_fields(got) == record_fields(want)
        # The oracle also keeps each request's breakdown in the ledger.
        ids = {r.request_id for r in want.requests}
        assert got.ledger.breakdowns == {
            k: v for k, v in want.ledger.breakdowns.items() if k not in ids}
        assert got.ledger.counts == want.ledger.counts
        assert got.ledger.count == want.ledger.count
        assert got.ledger.peak == want.ledger.peak
