"""Discrete-event driver for the serverless execution models and the
database fork/snapshot scenario; all randomness flows from explicit seeds.

Costs, traces and ``Metrics`` carry ms and MiB; the ``CostLedger``
counts units of one memory figure held above a base, and a run's peak
is ``base + peak count x figure``.
``run_serverless`` runs a single-threaded event loop on float ms.
``run_database`` and ``DbCycle`` keep a clock of whole nanoseconds as
Python ints, rounding each duration once, and report in ms.

A run keeps its requests as columns, not objects: the trace's arrival
list, a shared plan per request and an ``array('d')`` of finish times,
about 16 B per request. ``Metrics.requests`` builds ``RequestRecord``s
from them only when it is read.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
import random
import types
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import (Dict, List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple)

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
    sum_in_order,
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
class RequestTrace:
    """Arrival times in ms, sorted, of requests to one workload."""
    arrivals: List[float]
    workload: str

    def __post_init__(self):
        arrivals = self.arrivals
        if any(t < 0 for t in arrivals):
            raise errors.InvariantViolation("negative arrival time")
        if any(a > b for a, b in zip(arrivals, arrivals[1:])):
            raise errors.InvariantViolation("arrivals must be sorted")


@dataclass(slots=True)
class RequestRecord:
    """One served request, as ``Metrics.requests`` builds it: its
    ``components`` is its plan's read-only mapping, shared by every
    request of that kind."""
    request_id: str
    arrival_ms: float
    workload: str
    components: Mapping[str, float]
    total_ms: float
    finish_ms: float


@dataclass
class Metrics:
    """A run's statistics and its requests as columns. Request ``i``
    arrived at ``arrivals[i]`` (the trace's own list), ran ``plans[i]``
    and finished at ``finish[i]``; its id is ``ids[i]``, or ``str(i)``
    when ``ids`` is None."""
    model: str
    workload: str
    arrivals: Sequence[float]
    plans: Sequence[_Plan]
    finish: array
    count: int
    mean_latency_ms: float
    p50_ms: float
    p99_ms: float
    peak_epc_mib: float
    throughput_rps: float
    completion_time_ms: float
    extras: Dict[str, float] = field(default_factory=dict)
    ledger: Optional[CostLedger] = None
    ids: Optional[Tuple[str, ...]] = None

    @property
    def requests(self) -> List[RequestRecord]:
        """A record per request, built from the columns on each read."""
        ids = self.ids or map(str, range(len(self.finish)))
        return [RequestRecord(request_id, arrival, self.workload,
                              plan.components, plan.total, finish)
                for request_id, arrival, plan, finish in zip(
                    ids, self.arrivals, self.plans, self.finish)]


def gen_burst(n: int, workload: str) -> RequestTrace:
    if n < 1:
        raise errors.InvariantViolation("burst size must be >= 1")
    return RequestTrace([0.0] * n, workload)


def gen_poisson(rate_per_s: float, duration_s: float, seed: int,
                workload: str) -> RequestTrace:
    """Inter-arrival gaps sampled i.i.d. exponential via inverse CDF on a
    seeded generator; arrivals confined to [0, duration]."""
    if not 0 < rate_per_s < math.inf:
        raise errors.InvariantViolation(
            f"arrival rate must be positive and finite, not {rate_per_s}")
    horizon = duration_s * 1000.0
    if not math.isfinite(horizon):  # no arrival would pass it
        raise errors.ConfigError(f"duration_s * 1000 = {horizon} ms")
    rng = random.Random(seed)
    arrivals: List[float] = []
    t = 0.0
    while True:
        u = rng.random()
        t += -math.log(1.0 - u) / rate_per_s * 1000.0
        if t > horizon:
            break
        arrivals.append(t)
    return RequestTrace(arrivals, workload)


# ---------------------------------------------------------------------------
# Serverless scenario.

# Event kinds. Only these points touch state shared between requests.
_ARRIVE, _START, _ACQUIRE, _LOCKED, _UNLOCK, _FINISH = range(6)


class _Plan(NamedTuple):
    """The steps of one kind of request, built once per run.

    ``head`` runs from the start, ``locked`` (None if the EPC-expand step
    is not serialized) holds the lock and ``tail`` runs after it.
    ``components`` is read-only: every request of the kind shares it.
    """
    head: Tuple[float, ...]
    locked: Optional[float]
    tail: Tuple[float, ...]
    components: Mapping[str, float]
    total: float


def _plan(kind: str, exec_ms: float, params: CostParams) -> _Plan:
    """Plan a request of ``kind``: native, cold or warm (a confidential
    container without or with a warm environment), or a shared-enclave
    request that takes a pooled container or creates one."""
    create = params.t_container_create
    if kind == "native":
        steps = [(CONTAINER_CREATE, create),
                 (INSTANCE_LOAD, params.t_instance_load_cold)]
    elif kind == "cold":
        steps = [(CONTAINER_CREATE, create),
                 (ENCLAVE_CREATE, params.t_enclave_create),
                 (INSTANCE_LOAD, params.t_instance_load_cold)]
    elif kind == "warm":
        steps = []
    else:
        steps = [(CONTAINER_CREATE, 0.0 if kind == "pooled" else create),
                 (ALIAS, params.t_alias + params.t_tcs_op),
                 (EPC_EXPAND, params.t_epc_expand),
                 (INSTANCE_LOAD, params.t_instance_load_teemate)]
    steps.append((EXEC, exec_ms))
    # No component repeats, and ``CostParams.validate`` makes none negative.
    components = types.MappingProxyType(dict(steps))
    durations = tuple(duration for _, duration in steps)
    total = sum_in_order(components.values())
    if not math.isfinite(total):
        raise errors.ConfigError(f"a {kind} request takes {total} ms")
    if params.epc_alloc_serialized and EPC_EXPAND in components:
        lock = [component for component, _ in steps].index(EPC_EXPAND)
        return _Plan(durations[:lock], durations[lock], durations[lock + 1:],
                     components, total)
    return _Plan(durations, None, (), components, total)


def run_serverless(variant: Variant, trace: RequestTrace, params: CostParams,
                   workers: int = 8, prediction: bool = False) -> Metrics:
    """Run one execution model over a trace of one workload.

    ``prediction`` makes every ``cc_warm`` request warm. The shared-enclave
    registration (container and enclave creation) completes before the
    first arrival and is reported under ``extras``, not inside any
    request's latency; its container is the first pooled one.

    A request wakes only where it touches shared state: arrival, start,
    the EPC-expand lock (acquire, grant, unlock) and finish; its wake time
    is the running sum of its plan's steps (``_plan``). Events run in one
    order, by ``(time, seq)``, where ``seq`` counts events as they are
    scheduled. They wait in three places: arrivals in the trace, read in
    order, each with its index as its seq, so an arrival wins every tie;
    pool grants (start) and lock grants, which take no time, in a FIFO of
    ``(seq, kind, index)`` at the current time; and every other event in a
    heap of ``(time, seq, kind, index)``. A started request's plan and
    units are kept by index, and its finish time is stored at finish.

    The model's choices are made once per run: which kinds of request a
    start picks from, each kind's plan, the units a request holds and
    which pool a finish refills. No plan is built that no request takes:
    the shared enclave's ``"create"`` plan waits for the first start that
    finds no free container. Only the shared-enclave model's units depend
    on the request: the first live instance lives in the registered base
    and holds none, every other one ``m_teemate_per_instance``.
    """
    params.validate()

    ledger = CostLedger()
    occupy = ledger.occupy
    shared = variant is Variant.TEEMATE
    # Expiry times of idle warm environments, oldest first: finishes run
    # in time order, so they are appended sorted.
    warm_pool: Optional[deque] = None
    # The units a request holds; the shared-enclave model sets it at each
    # start.
    units = 0 if variant is Variant.NATIVE else 1
    unit_mib = params.m_strawman_per_request
    registration_ms = baseline_mib = 0.0
    if shared:
        registration_ms = params.t_container_create + params.t_enclave_create
        baseline_mib = params.m_teemate_base
        unit_mib = params.m_teemate_per_instance
        free_containers = 1
        live_instances = 0
    elif variant is Variant.CC_WARM and not prediction:
        warm_pool = deque()
        keepalive_ms = params.warm_keepalive_s * 1000.0

    arrivals = trace.arrivals
    n = len(arrivals)
    if n:  # a trace with no arrivals builds no plan
        exec_ms = params.exec_ms(trace.workload)
        if shared:
            pooled, created = _plan("pooled", exec_ms, params), None
        elif warm_pool is not None:
            cold = _plan("cold", exec_ms, params)
            warm = _plan("warm", exec_ms, params)
        else:
            fixed = _plan({Variant.NATIVE: "native", Variant.CC_COLD: "cold",
                           Variant.CC_WARM: "warm"}[variant], exec_ms, params)

    plan_of: List[Optional[_Plan]] = [None] * n  # of each started request
    finish = array("d", [0.0]) * n
    done = 0
    units_of = bytearray(n)  # the units each request holds while it runs
    events: List[Tuple[float, int, int, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    fifo: deque = deque()  # zero-delay events at ``now``: (seq, kind, index)
    seq = itertools.count(n)

    free_workers = workers
    pool_queue: deque = deque()
    lock_free = True
    lock_queue: deque = deque()

    i = 0
    next_arrival = arrivals[0] if n else math.inf
    while True:
        # The next event by (time, seq): an arrival wins ties, since its
        # seq is its index; the FIFO's head is at ``now``.
        if i < n and next_arrival <= (now if fifo else events[0][0]
                                      if events else math.inf):
            now, kind, idx = next_arrival, _ARRIVE, i
            i += 1
            next_arrival = arrivals[i] if i < n else math.inf
        elif fifo and not (events and events[0][0] == now
                           and events[0][1] < fifo[0][0]):
            _, kind, idx = fifo.popleft()
        elif events:
            now, _, kind, idx = pop(events)
        else:
            break
        if kind == _ARRIVE:
            if free_workers:
                free_workers -= 1
                fifo.append((next(seq), _START, idx))
            else:
                pool_queue.append(idx)
        elif kind == _START:
            # Take the request's plan and units, and run it to the lock
            # or the end.
            if shared:
                if free_containers:
                    free_containers -= 1
                    plan = pooled
                elif created is not None:
                    plan = created
                else:
                    plan = created = _plan("create", exec_ms, params)
                live_instances += 1
                units = int(live_instances > 1)
            elif warm_pool is not None:
                # Drop expired environments: later starts are later still.
                while warm_pool and warm_pool[0] < now:
                    warm_pool.popleft()
                if warm_pool:
                    warm_pool.popleft()
                    plan = warm
                else:
                    plan = cold
            else:
                plan = fixed
            if units:
                occupy(units)
                units_of[idx] = units
            plan_of[idx] = plan
            t = now
            for duration in plan.head:
                t = t + duration
            push(events, (t, next(seq),
                          _FINISH if plan.locked is None else _ACQUIRE, idx))
        elif kind == _ACQUIRE:
            if lock_free:
                lock_free = False
                fifo.append((next(seq), _LOCKED, idx))
            else:
                lock_queue.append(idx)
        elif kind == _LOCKED:
            push(events, (now + plan_of[idx].locked, next(seq), _UNLOCK, idx))
        elif kind == _UNLOCK:
            if lock_queue:
                fifo.append((next(seq), _LOCKED, lock_queue.popleft()))
            else:
                lock_free = True
            t = now
            for duration in plan_of[idx].tail:
                t = t + duration
            push(events, (t, next(seq), _FINISH, idx))
        else:
            finish[idx] = now
            done += 1
            if units_of[idx]:
                occupy(-units_of[idx])
            if shared:
                live_instances -= 1
                free_containers += 1
            elif warm_pool is not None:
                warm_pool.append(now + keepalive_ms)
            if pool_queue:
                fifo.append((next(seq), _START, pool_queue.popleft()))
            else:
                free_workers += 1

    if done != n:
        raise errors.InvariantViolation("not all requests completed")
    return _metrics(variant.value, trace, plan_of, finish, ledger,
                    registration_ms, baseline_mib, unit_mib)


def _metrics(model_name: str, trace: RequestTrace, plans: List[_Plan],
             finish: array, ledger: CostLedger, registration_ms: float,
             baseline_mib: float, unit_mib: float) -> Metrics:
    peak_mib = ledger.peak_mib(baseline_mib, unit_mib)
    latencies = [plan.total for plan in plans]
    count = len(finish)
    # The trace is sorted, so its first request arrives first.
    completion = max(finish) - trace.arrivals[0] if count else 0.0
    throughput = count / (completion / 1000.0) if completion > 0 else 0.0
    return Metrics(
        model=model_name,
        workload=trace.workload,
        arrivals=trace.arrivals,
        plans=plans,
        finish=finish,
        count=count,
        mean_latency_ms=sum_in_order(latencies) / count if count else 0.0,
        p50_ms=percentile(latencies, 50),
        p99_ms=percentile(latencies, 99),
        peak_epc_mib=peak_mib,
        throughput_rps=throughput,
        completion_time_ms=completion,
        extras={
            "registration_ms": registration_ms,
            "baseline_mib": baseline_mib,
            # ``peak_mib`` checked that every unit came back.
            "final_mib": baseline_mib,
        },
        ledger=ledger,
    )


# ---------------------------------------------------------------------------
# Database scenario. Its clock counts whole simulated nanoseconds as Python
# ints, so a stretch of equal requests is one floor division. Costs come
# in, and outputs go out, in ms and MiB.

def _ns(ms: float, what: str) -> int:
    """A duration of ``ms``, rounded once to whole nanoseconds."""
    ns = ms * 1e6
    if not math.isfinite(ns):
        raise errors.ConfigError(f"{what} takes {ms} ms")
    return round(ns)


def _ms(ns: int) -> float:
    return ns / 1_000_000  # one correctly rounded division of two ints


class DbCycle(NamedTuple):
    """One fork/snapshot cycle; each time and duration in whole ns."""
    exec_ns: int  # a request that copies no page
    pages: int  # of the database
    fork_components: Dict[str, int]
    fork_start: int
    fork_end: int
    window_end: int  # the snapshot is written out by then
    end: int  # the request stream stops here


def db_cycle(model: DbModel, db_mib: float, snapshot_interval_s: float,
             duration_s: float, params: CostParams) -> DbCycle:
    """The full-copy model forks by creating an enclave and copying the
    whole database; the shared-enclave model aliases it into a child. The
    fork takes the sum of its components, each rounded to ns."""
    if model is DbModel.STRAWMAN:
        fork_ms = {ENCLAVE_CREATE: params.t_enclave_create,
                   INSTANCE_LOAD: params.t_fork_copy_per_mib * db_mib}
    else:
        fork_ms = {CONTAINER_CREATE: params.t_fork_child_setup,
                   ALIAS: params.t_alias + params.t_tcs_op}
    fork_components = {component: _ns(ms, f"the fork's {component}")
                       for component, ms in fork_ms.items()}
    exec_ns = _ns(params.t_db_exec, "a database request")
    if exec_ns == 0:  # the clock would never advance
        raise errors.ConfigError(
            f"t_db_exec = {params.t_db_exec} ms rounds to 0 ns")
    pages = db_mib / params.page_mib
    if not math.isfinite(pages):
        raise errors.ConfigError(f"db_mib / page_mib = {pages} pages")
    fork_start = _ns(snapshot_interval_s * 1000.0, "the wait for the fork")
    fork_end = fork_start + sum(fork_components.values())
    window_end = fork_end + _ns(
        db_mib / params.snapshot_write_mib_per_s * 1000.0, "the snapshot")
    if window_end == fork_start:
        raise errors.ConfigError("the snapshot window rounds to 0 ns")
    end = max(_ns(duration_s * 1000.0, "the run"), window_end)
    return DbCycle(exec_ns, max(1, round(pages)), fork_components,
                   fork_start, fork_end, window_end, end)


def run_database(model: DbModel, db_mib: float, write_ratio: float,
                 snapshot_interval_s: float, duration_s: float, seed: int,
                 params: CostParams) -> Metrics:
    """One fork/snapshot cycle under a saturated request stream.

    The full-copy model blocks every request for the whole fork (enclave
    creation plus a full memory copy); the shared-enclave model blocks only
    for the aliasing fork and pays per-page copy-on-write afterwards.

    Requests run back to back on ``db_cycle``'s clock of whole ns. Only
    the shared-enclave model's requests between the fork's end and the end
    of the snapshot window can copy a page, so only they draw random
    numbers and run one by one. ``dirty`` holds one byte per database page.
    Every other stretch (requests that end by the fork's start, the
    full-copy model's window and the tail after the window) is one floor
    division. Above the base (the database and its runtime) the ledger
    counts one unit, a full copy of both, or one ``page_mib`` per copied
    page. ``Metrics``, its extras and the fork row are in ms and MiB.
    """
    if db_mib <= 0:
        raise errors.InvariantViolation("db size must be positive")
    params.validate()
    ledger = CostLedger()

    strawman = model is DbModel.STRAWMAN
    if strawman:
        # The fork's one unit is a full copy of the database and runtime.
        base_mib = unit_mib = db_mib + params.m_db_runtime_strawman
    else:
        base_mib = db_mib + params.m_db_runtime_teemate
        unit_mib = params.page_mib  # a page copied on write

    (exec_ns, db_pages, fork_components, fork_start, fork_end, window_end,
     end) = db_cycle(model, db_mib, snapshot_interval_s, duration_s, params)

    # Requests that end by the fork's start; the last may end on it.
    served_total = fork_start // exec_ns
    t = service_ns = served_total * exec_ns
    served_window = 1 if served_total and t == fork_start else 0
    if t < fork_start:
        # This request straddles the fork's start and runs to its end,
        # copying nothing. If it ends past ``end``, the stream stops: t
        # passes ``end`` and no later request is served.
        t += exec_ns
        if t <= end:
            served_total += 1
            service_ns += exec_ns
            served_window += t <= window_end
    t = max(t, fork_end)  # requests blocked while the fork call runs
    copies = 0
    if strawman:
        # Nothing is written in place: the requests that end by window_end
        # end inside the window, and the tail below counts them.
        served_window += max(0, (window_end - t) // exec_ns)
    else:
        # The copy-on-write window: each request draws, and a write to a
        # page not yet copied copies it first. Only the last request can
        # end past window_end.
        rng = random.Random(seed)
        draw, bits = rng.random, rng.getrandbits
        # ``randrange(db_pages)``'s own draw, inlined: ``k`` random bits,
        # drawn again while they fall past the last page.
        k = db_pages.bit_length()
        cow_ns = _ns(params.t_cow_copy, "a page copy")
        dirty = bytearray(db_pages)
        while t < window_end:
            service = exec_ns
            if draw() < write_ratio:
                page = bits(k)
                while page >= db_pages:
                    page = bits(k)
                if not dirty[page]:
                    dirty[page] = 1
                    copies += 1
                    service += cow_ns
            t += service
            if t <= end:
                served_total += 1
                service_ns += service
                served_window += t <= window_end
    # The rest copy no page: the tail past window_end and, in the
    # full-copy model, its window too.
    n = max(0, (end - t) // exec_ns)
    served_total += n
    service_ns += n * exec_ns

    # The full copy, or the copied pages, are held until the window ends.
    held = 1 if strawman else copies
    if held:
        ledger.occupy(held)
        ledger.occupy(-held)
    peak_mib = ledger.peak_mib(base_mib, unit_mib)

    for component, ns in fork_components.items():
        ledger.charge(component, _ms(ns), "fork")
    fork = types.MappingProxyType(dict(ledger.breakdowns["fork"]))
    fork_ms = sum_in_order(fork.values())

    completion_ms = _ms(end)
    window_s = _ms(window_end - fork_start) / 1000.0
    return Metrics(
        model=model.value,
        workload="db-fork",
        arrivals=[_ms(fork_start)],
        plans=[_Plan(tuple(fork.values()), None, (), fork, fork_ms)],
        finish=array("d", [_ms(fork_end)]),
        count=served_total,
        mean_latency_ms=(_ms(service_ns) / served_total if served_total
                         else 0.0),
        p50_ms=_ms(exec_ns),
        p99_ms=_ms(exec_ns if strawman else exec_ns + cow_ns),
        peak_epc_mib=peak_mib,
        throughput_rps=served_total / (completion_ms / 1000.0),
        completion_time_ms=completion_ms,
        extras={
            "fork_latency_ms": fork_ms,
            "snapshot_window_s": window_s,
            "snapshot_window_throughput_rps": served_window / window_s,
            # Occupancy only rises until the window closes, so the
            # window's peak is the running peak.
            "snapshot_peak_mib": peak_mib,
            "dirty_pages": float(copies),
            "baseline_mib": base_mib,
            "final_mib": base_mib,  # ``peak_mib`` checked the return
        },
        ledger=ledger,
        ids=("fork",),
    )
