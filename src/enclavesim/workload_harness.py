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
from typing import Dict, List, NamedTuple, Optional, Tuple

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
# Serverless scenario.

# Event kinds. Only these points touch state shared between requests.
_ARRIVE, _START, _ACQUIRE, _LOCKED, _UNLOCK, _FINISH = range(6)


class _Job:
    """A request in flight: its record, its steps and the next step."""

    __slots__ = ("record", "steps", "pos", "mem")

    def __init__(self, record: RequestRecord):
        self.record = record
        self.steps: List[Tuple[bool, str, float]] = []
        self.pos = 0
        self.mem = 0.0


def run_serverless(model, trace: RequestTrace, params: CostParams,
                   workers: int = 8, pre_registered: bool = True) -> Metrics:
    """Run one execution model over a request trace.

    ``model`` may be a Variant or an ExecutionModel. With ``pre_registered``
    the shared-enclave registration phase (container + enclave creation +
    runtime load) completes before the first arrival and is reported under
    ``extras`` rather than inside any request's latency.

    One heap of ``(time, seq, kind, job)`` events drives the run; events at
    the same time run in scheduling order (``seq``), arrivals first. A
    request wakes only where it touches shared state: on arrival (worker
    pool), at start (warm pool, free containers, occupancy), at the
    EPC-expand lock (acquire, grant, unlock) and at finish. Between those
    points its steps touch nothing shared, so they are charged together,
    one ledger charge per step, and the wake time is their running sum.
    Grants from the pool or the lock are separate zero-delay events.
    """
    if isinstance(model, Variant):
        model = ExecutionModel(model)
    params.validate()
    variant = model.variant
    serialized = params.epc_alloc_serialized

    ledger = CostLedger()
    charge = ledger.charge
    records = [RequestRecord(str(idx), arrival, workload)
               for idx, (arrival, workload) in enumerate(trace.arrivals)]
    events = [(record.arrival_ms, idx, _ARRIVE, _Job(record))
              for idx, record in enumerate(records)]
    heapq.heapify(events)
    push = heapq.heappush
    seq = itertools.count(len(events))

    free_workers = workers
    pool_queue: deque = deque()
    lock_free = True
    lock_queue: deque = deque()
    free_containers = 0
    live_instances = 0
    warm_pool: List[float] = []  # expiry times of idle warm environments
    registration_pending = False
    done = 0

    registration_ms = 0.0
    if variant is Variant.TEEMATE:
        registration_ms = params.t_container_create + params.t_enclave_create
        if pre_registered:
            ledger.charge(CONTAINER_CREATE, params.t_container_create,
                          "registration")
            ledger.charge(ENCLAVE_CREATE, params.t_enclave_create,
                          "registration")
            ledger.occupy(0.0, params.m_teemate_base)
            free_containers = 1
        else:
            registration_pending = True
    baseline_mib = ledger.occupancy

    def build_steps(record: RequestRecord, now: float):
        """Return ([(needs_lock, component, duration)], mem_delta)."""
        nonlocal free_containers, live_instances, registration_pending
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
                for i, expiry in enumerate(warm_pool):
                    if expiry >= now:
                        warm_pool.pop(i)
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
        if registration_pending:
            registration_pending = False
            ledger.occupy(now, params.m_teemate_base)
            steps.append((False, CONTAINER_CREATE, params.t_container_create))
            steps.append((False, ENCLAVE_CREATE, params.t_enclave_create))
        elif free_containers > 0:
            free_containers -= 1
            steps.append((False, CONTAINER_CREATE, 0.0))
        else:
            steps.append((False, CONTAINER_CREATE, params.t_container_create))
        steps.append((False, ALIAS, params.t_alias + params.t_tcs_op))
        steps.append((True, EPC_EXPAND, params.t_epc_expand))
        steps.append((False, INSTANCE_LOAD, params.t_instance_load_teemate))
        steps.append((False, EXEC, exec_ms))
        live_instances += 1
        mem = params.m_teemate_per_instance if live_instances > 1 else 0.0
        return steps, mem

    def advance(job: _Job, now: float) -> None:
        """Charge the steps up to the next lock step or the end and wake
        the request there."""
        steps = job.steps
        pos = job.pos
        request_id = job.record.request_id
        t = now
        while pos < len(steps):
            needs_lock, component, duration = steps[pos]
            if needs_lock and serialized:
                break
            charge(component, duration, request_id)
            t = t + duration
            pos += 1
        job.pos = pos
        push(events, (t, next(seq), _ACQUIRE if pos < len(steps) else _FINISH,
                      job))

    while events:
        now, _, kind, job = heapq.heappop(events)
        if kind == _ARRIVE:
            if free_workers > 0:
                free_workers -= 1
                push(events, (now, next(seq), _START, job))
            else:
                pool_queue.append(job)
        elif kind == _START:
            job.steps, job.mem = build_steps(job.record, now)
            if job.mem:
                ledger.occupy(now, job.mem)
            advance(job, now)
        elif kind == _ACQUIRE:
            if lock_free:
                lock_free = False
                push(events, (now, next(seq), _LOCKED, job))
            else:
                lock_queue.append(job)
        elif kind == _LOCKED:
            _, component, duration = job.steps[job.pos]
            charge(component, duration, job.record.request_id)
            job.pos += 1
            push(events, (now + duration, next(seq), _UNLOCK, job))
        elif kind == _UNLOCK:
            if lock_queue:
                push(events, (now, next(seq), _LOCKED, lock_queue.popleft()))
            else:
                lock_free = True
            advance(job, now)
        else:
            record = job.record
            record.finish_ms = now
            record.components = dict(
                ledger.breakdowns.get(record.request_id, {}))
            record.total_ms = sum(record.components.values())
            if job.mem:
                ledger.occupy(now, -job.mem)
            if variant is Variant.TEEMATE:
                live_instances -= 1
                free_containers += 1
            elif variant is Variant.CC_WARM and not model.prediction:
                warm_pool.append(now + params.warm_keepalive_s * 1000.0)
            if pool_queue:
                push(events, (now, next(seq), _START, pool_queue.popleft()))
            else:
                free_workers += 1
            done += 1

    if done != len(records):
        raise errors.InvariantViolation("not all requests completed")
    expected_final = baseline_mib
    if variant is Variant.TEEMATE and not pre_registered \
            and not registration_pending:
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

class DbCycle(NamedTuple):
    """Timeline of one fork/snapshot cycle, in simulated ms."""
    fork_ms: float
    fork_components: Dict[str, float]
    fork_start: float
    fork_end: float
    window_end: float  # the snapshot is written out by then
    end: float  # the request stream stops here


def db_cycle(model: DbModel, db_mib: float, snapshot_interval_s: float,
             duration_s: float, params: CostParams) -> DbCycle:
    """The full-copy model forks by creating an enclave and copying the
    whole database; the shared-enclave model aliases it into a child."""
    if model is DbModel.STRAWMAN:
        fork_ms = params.t_enclave_create + params.t_fork_copy_per_mib * db_mib
        fork_components = {ENCLAVE_CREATE: params.t_enclave_create,
                           INSTANCE_LOAD: params.t_fork_copy_per_mib * db_mib}
    else:
        fork_ms = params.t_alias + params.t_tcs_op + params.t_fork_child_setup
        fork_components = {CONTAINER_CREATE: params.t_fork_child_setup,
                           ALIAS: params.t_alias + params.t_tcs_op}
    fork_start = snapshot_interval_s * 1000.0
    fork_end = fork_start + fork_ms
    write_ms = db_mib / params.snapshot_write_mib_per_s * 1000.0
    window_end = fork_end + write_ms
    end = max(duration_s * 1000.0, window_end)
    return DbCycle(fork_ms, fork_components, fork_start, fork_end,
                   window_end, end)


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

    fork_ms, fork_components, fork_start, fork_end, window_end, end = \
        db_cycle(model, db_mib, snapshot_interval_s, duration_s, params)
    db_pages = max(1, round(db_mib / params.page_mib))

    if strawman:
        ledger.occupy(fork_end, db_mib + params.m_db_runtime_strawman)

    dirty = set()
    served_total = 0
    served_window = 0
    service_sum = 0.0
    t = 0.0
    # A draw matters only while a later copy-on-write draw can consume it:
    # before window_end in the shared-enclave model, never in the full-copy
    # model, which writes nothing in place.
    while t < window_end:
        if fork_start <= t < fork_end:
            t = fork_end  # requests blocked while the fork call runs
            continue
        service = params.t_db_exec
        if not strawman and rng.random() < write_ratio and fork_end <= t:
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
    else:
        # Past window_end no request copies a page and no finish lands in
        # the window: count the rest without drawing. The float additions
        # run one by one, in the same order, so the sums match bit for bit.
        service = params.t_db_exec
        while t < end:
            finish = t + service
            if finish > end:
                break
            served_total += 1
            service_sum += service
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
