"""Discrete-event driver for the serverless execution models and the
database fork/snapshot scenario.

Logical concurrency is simulated on a single-threaded event loop over
simulated milliseconds; all randomness flows from explicit seeds.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from . import errors
from .cost_model import (
    ALIAS,
    CONTAINER_CREATE,
    ENCLAVE_CREATE,
    EPC_EXPAND,
    EXEC,
    INSTANCE_LOAD,
    CostLedger,
    CostParams,
    percentile,
)


class Variant(enum.Enum):
    NATIVE = "native"
    CC_COLD = "cc_cold"
    CC_WARM = "cc_warm"
    TEEMATE = "teemate"


class DbModel(enum.Enum):
    STRAWMAN = "strawman"
    TEEMATE = "teemate"


@dataclass
class ExecutionModel:
    variant: Variant
    prediction: bool = False  # always-warm mode for throughput runs


@dataclass
class RequestTrace:
    arrivals: List[Tuple[float, str]]
    seed: int = 0

    def __post_init__(self):
        if any(t < 0 for t, _ in self.arrivals):
            raise errors.InvariantViolation("negative arrival time")
        if self.arrivals != sorted(self.arrivals, key=lambda a: a[0]):
            raise errors.InvariantViolation("arrivals must be sorted")


@dataclass
class RequestRecord:
    request_id: str
    arrival_ms: float
    workload: str
    components: Dict[str, float] = field(default_factory=dict)
    total_ms: float = 0.0
    finish_ms: float = 0.0


@dataclass
class Metrics:
    model: str
    requests: List[RequestRecord]
    count: int
    mean_latency_ms: float
    p50_ms: float
    p99_ms: float
    peak_epc_mib: float
    throughput_rps: float
    completion_time_ms: float
    extras: Dict[str, float] = field(default_factory=dict)
    ledger: Optional[CostLedger] = None


def gen_burst(n: int, workload: str) -> RequestTrace:
    if n < 1:
        raise errors.InvariantViolation("burst size must be >= 1")
    return RequestTrace([(0.0, workload) for _ in range(n)])


def gen_poisson(rate_per_s: float, duration_s: float, seed: int,
                workload: str) -> RequestTrace:
    """Inter-arrival gaps sampled i.i.d. exponential via inverse CDF on a
    seeded generator; arrivals confined to [0, duration]."""
    if rate_per_s <= 0:
        raise errors.InvariantViolation("arrival rate must be positive")
    rng = random.Random(seed)
    arrivals: List[Tuple[float, str]] = []
    t = 0.0
    horizon = duration_s * 1000.0
    while True:
        u = rng.random()
        t += -math.log(1.0 - u) / rate_per_s * 1000.0
        if t > horizon:
            break
        arrivals.append((t, workload))
    return RequestTrace(arrivals, seed)


# ---------------------------------------------------------------------------
# Minimal event engine.

class _EventLoop:
    def __init__(self):
        self._queue = []
        self._counter = itertools.count()
        self.now = 0.0

    def at(self, t: float, fn: Callable[[], None]) -> None:
        heapq.heappush(self._queue, (t, next(self._counter), fn))

    def after(self, delay: float, fn: Callable[[], None]) -> None:
        self.at(self.now + delay, fn)

    def run(self) -> None:
        while self._queue:
            t, _, fn = heapq.heappop(self._queue)
            self.now = t
            fn()


class _Resource:
    """FIFO counting resource (worker pool, allocation lock)."""

    def __init__(self, loop: _EventLoop, capacity: int):
        self.loop = loop
        self.free = capacity
        self.queue = deque()

    def acquire(self, fn: Callable[[], None]) -> None:
        if self.free > 0:
            self.free -= 1
            self.loop.after(0.0, fn)
        else:
            self.queue.append(fn)

    def release(self) -> None:
        if self.queue:
            self.loop.after(0.0, self.queue.popleft())
        else:
            self.free += 1


# ---------------------------------------------------------------------------
# Serverless scenario.

def run_serverless(model, trace: RequestTrace, params: CostParams,
                   workers: int = 8, pre_registered: bool = True) -> Metrics:
    """Run one execution model over a request trace.

    ``model`` may be a Variant or an ExecutionModel. With ``pre_registered``
    the shared-enclave registration phase (container + enclave creation +
    runtime load) completes before the first arrival and is reported under
    ``extras`` rather than inside any request's latency.
    """
    if isinstance(model, Variant):
        model = ExecutionModel(model)
    params.validate()
    variant = model.variant

    loop = _EventLoop()
    ledger = CostLedger()
    pool = _Resource(loop, workers)
    expand_lock = _Resource(loop, 1) if params.epc_alloc_serialized else None

    records: List[RequestRecord] = []
    state = {
        "free_containers": 0,
        "live_instances": 0,
        "warm_pool": [],  # expiry times of idle warm environments
        "registration_pending": False,
        "done": 0,
    }

    registration_ms = 0.0
    if variant is Variant.TEEMATE:
        registration_ms = params.t_container_create + params.t_enclave_create
        if pre_registered:
            ledger.charge(CONTAINER_CREATE, params.t_container_create,
                          "registration")
            ledger.charge(ENCLAVE_CREATE, params.t_enclave_create,
                          "registration")
            ledger.occupy(0.0, params.m_teemate_base)
            state["free_containers"] = 1
        else:
            state["registration_pending"] = True
    baseline_mib = ledger.occupancy

    def build_steps(record: RequestRecord):
        """Return ([(needs_lock, component, duration)], mem_delta)."""
        exec_ms = params.exec_ms(record.workload)
        if variant is Variant.NATIVE:
            return [(False, CONTAINER_CREATE, params.t_container_create),
                    (False, INSTANCE_LOAD, params.t_instance_load_cold),
                    (False, EXEC, exec_ms)], 0.0
        if variant is Variant.CC_COLD:
            return [(False, CONTAINER_CREATE, params.t_container_create),
                    (False, ENCLAVE_CREATE, params.t_enclave_create),
                    (False, INSTANCE_LOAD, params.t_instance_load_cold),
                    (False, EXEC, exec_ms)], params.m_strawman_per_request
        if variant is Variant.CC_WARM:
            warm = model.prediction
            if not warm:
                pool_t = state["warm_pool"]
                for i, expiry in enumerate(pool_t):
                    if expiry >= loop.now:
                        pool_t.pop(i)
                        warm = True
                        break
            if warm:
                steps = [(False, EXEC, exec_ms)]
            else:
                steps = [(False, CONTAINER_CREATE, params.t_container_create),
                         (False, ENCLAVE_CREATE, params.t_enclave_create),
                         (False, INSTANCE_LOAD, params.t_instance_load_cold),
                         (False, EXEC, exec_ms)]
            return steps, params.m_strawman_per_request
        # Shared-enclave model.
        steps = []
        if state["registration_pending"]:
            state["registration_pending"] = False
            ledger.occupy(loop.now, params.m_teemate_base)
            steps.append((False, CONTAINER_CREATE, params.t_container_create))
            steps.append((False, ENCLAVE_CREATE, params.t_enclave_create))
        elif state["free_containers"] > 0:
            state["free_containers"] -= 1
            steps.append((False, CONTAINER_CREATE, 0.0))
        else:
            steps.append((False, CONTAINER_CREATE, params.t_container_create))
        steps.append((False, ALIAS, params.t_alias + params.t_tcs_op))
        steps.append((True, EPC_EXPAND, params.t_epc_expand))
        steps.append((False, INSTANCE_LOAD, params.t_instance_load_teemate))
        steps.append((False, EXEC, exec_ms))
        state["live_instances"] += 1
        mem = params.m_teemate_per_instance if state["live_instances"] > 1 \
            else 0.0
        return steps, mem

    def launch(record: RequestRecord):
        def start():
            steps, mem = build_steps(record)
            if mem:
                ledger.occupy(loop.now, mem)
            step_iter = iter(steps)

            def next_step():
                step = next(step_iter, None)
                if step is None:
                    finish()
                    return
                needs_lock, component, duration = step
                if needs_lock and expand_lock is not None:
                    def locked():
                        ledger.charge(component, duration, record.request_id)
                        def unlock():
                            expand_lock.release()
                            next_step()
                        loop.after(duration, unlock)
                    expand_lock.acquire(locked)
                else:
                    ledger.charge(component, duration, record.request_id)
                    loop.after(duration, next_step)

            def finish():
                record.finish_ms = loop.now
                record.components = dict(
                    ledger.breakdowns.get(record.request_id, {}))
                record.total_ms = sum(record.components.values())
                if mem:
                    ledger.occupy(loop.now, -mem)
                if variant is Variant.TEEMATE:
                    state["live_instances"] -= 1
                    state["free_containers"] += 1
                elif variant is Variant.CC_WARM and not model.prediction:
                    state["warm_pool"].append(
                        loop.now + params.warm_keepalive_s * 1000.0)
                pool.release()
                state["done"] += 1

            next_step()

        pool.acquire(start)

    for idx, (arrival, workload) in enumerate(trace.arrivals):
        record = RequestRecord(str(idx), arrival, workload)
        records.append(record)
        loop.at(arrival, (lambda r=record: launch(r)))
    loop.run()

    if state["done"] != len(records):
        raise errors.InvariantViolation("not all requests completed")
    expected_final = baseline_mib
    if variant is Variant.TEEMATE and not pre_registered \
            and not state["registration_pending"]:
        # Registration ran inside the first request; its base footprint
        # stays resident, so the post-run baseline includes it.
        expected_final += params.m_teemate_base
    return _metrics(variant.value, records, ledger, registration_ms,
                    expected_final)


def _metrics(model_name: str, records: List[RequestRecord],
             ledger: CostLedger, registration_ms: float,
             baseline_mib: float) -> Metrics:
    latencies = [r.total_ms for r in records]
    count = len(records)
    if count:
        first = min(r.arrival_ms for r in records)
        last = max(r.finish_ms for r in records)
        completion = last - first
    else:
        completion = 0.0
    throughput = count / (completion / 1000.0) if completion > 0 else 0.0
    metrics = Metrics(
        model=model_name,
        requests=records,
        count=count,
        mean_latency_ms=sum(latencies) / count if count else 0.0,
        p50_ms=percentile(latencies, 50),
        p99_ms=percentile(latencies, 99),
        peak_epc_mib=ledger.peak_epc,
        throughput_rps=throughput,
        completion_time_ms=completion,
        extras={
            "registration_ms": registration_ms,
            "baseline_mib": baseline_mib,
            "final_mib": ledger.occupancy,
        },
        ledger=ledger,
    )
    if abs(metrics.ledger.occupancy - baseline_mib) > 1e-6:
        raise errors.InvariantViolation(
            f"occupancy {ledger.occupancy} MiB did not return to baseline "
            f"{baseline_mib} MiB")
    return metrics


# ---------------------------------------------------------------------------
# Database scenario.

def run_database(model, db_mib: float, write_ratio: float,
                 snapshot_interval_s: float, duration_s: float, seed: int,
                 params: CostParams) -> Metrics:
    """One fork/snapshot cycle under a saturated request stream.

    The full-copy model blocks every request for the whole fork (enclave
    creation plus a full memory copy); the shared-enclave model blocks only
    for the aliasing fork and pays per-page copy-on-write afterwards.
    """
    if isinstance(model, str):
        model = DbModel(model)
    if db_mib <= 0:
        raise errors.InvariantViolation("db size must be positive")
    params.validate()
    rng = random.Random(seed)
    ledger = CostLedger()

    strawman = model is DbModel.STRAWMAN
    base_mib = db_mib + (params.m_db_runtime_strawman if strawman
                         else params.m_db_runtime_teemate)
    ledger.occupy(0.0, base_mib)

    fork_start = snapshot_interval_s * 1000.0
    if strawman:
        fork_ms = params.t_enclave_create + params.t_fork_copy_per_mib * db_mib
        fork_components = {ENCLAVE_CREATE: params.t_enclave_create,
                           INSTANCE_LOAD: params.t_fork_copy_per_mib * db_mib}
    else:
        fork_ms = params.t_alias + params.t_tcs_op + params.t_fork_child_setup
        fork_components = {CONTAINER_CREATE: params.t_fork_child_setup,
                           ALIAS: params.t_alias + params.t_tcs_op}
    fork_end = fork_start + fork_ms
    write_ms = db_mib / params.snapshot_write_mib_per_s * 1000.0
    window_end = fork_end + write_ms
    end = max(duration_s * 1000.0, window_end)
    db_pages = max(1, round(db_mib / params.page_mib))

    if strawman:
        ledger.occupy(fork_end, db_mib + params.m_db_runtime_strawman)

    dirty = set()
    served_total = 0
    served_window = 0
    service_sum = 0.0
    t = 0.0
    while t < end:
        if fork_start <= t < fork_end:
            t = fork_end  # requests blocked while the fork call runs
            continue
        service = params.t_db_exec
        is_write = rng.random() < write_ratio
        if not strawman and is_write and fork_end <= t < window_end:
            key = rng.randrange(db_pages)
            if key not in dirty:
                dirty.add(key)
                service += params.t_cow_copy
                ledger.occupy(t, params.page_mib)
        finish = t + service
        if finish > end:
            break
        served_total += 1
        service_sum += service
        if fork_start <= finish <= window_end:
            served_window += 1
        t = finish

    snapshot_peak = ledger.peak_between(fork_start, window_end)
    if strawman:
        ledger.occupy(window_end, -(db_mib + params.m_db_runtime_strawman))
    elif dirty:
        ledger.occupy(window_end, -len(dirty) * params.page_mib)

    for component, duration in fork_components.items():
        ledger.charge(component, duration, "fork")
    fork_record = RequestRecord("fork", fork_start, "db-fork",
                                dict(ledger.breakdowns["fork"]),
                                fork_ms, fork_end)

    window_s = (window_end - fork_start) / 1000.0
    metrics = Metrics(
        model=model.value,
        requests=[fork_record],
        count=served_total,
        mean_latency_ms=service_sum / served_total if served_total else 0.0,
        p50_ms=params.t_db_exec,
        p99_ms=params.t_db_exec + (0.0 if strawman else params.t_cow_copy),
        peak_epc_mib=ledger.peak_epc,
        throughput_rps=served_total / (end / 1000.0),
        completion_time_ms=end,
        extras={
            "fork_latency_ms": fork_ms,
            "snapshot_window_s": window_s,
            "snapshot_window_throughput_rps": served_window / window_s,
            "snapshot_peak_mib": snapshot_peak,
            "dirty_pages": float(len(dirty)),
            "baseline_mib": base_mib,
            "final_mib": ledger.occupancy,
        },
        ledger=ledger,
    )
    if abs(ledger.occupancy - base_mib) > 1e-6:
        raise errors.InvariantViolation("db occupancy leaked")
    return metrics
