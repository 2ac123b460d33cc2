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
import sys
import types
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

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
        arrivals = self.arrivals
        if any(t < 0 for t, _ in arrivals):
            raise errors.InvariantViolation("negative arrival time")
        if any(a[0] > b[0] for a, b in zip(arrivals, arrivals[1:])):
            raise errors.InvariantViolation("arrivals must be sorted")


@dataclass(slots=True)
class RequestRecord:
    """One served request. A serverless record's ``components`` is its
    plan's read-only mapping, shared by every request of that kind."""
    request_id: str
    arrival_ms: float
    workload: str
    components: Mapping[str, float] = field(default_factory=dict)
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
    horizon = duration_s * 1000.0
    if not math.isfinite(horizon):  # no arrival would pass it
        raise errors.ConfigError(f"duration_s * 1000 = {horizon} ms")
    rng = random.Random(seed)
    arrivals: List[Tuple[float, str]] = []
    t = 0.0
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


class _Plan(NamedTuple):
    """The steps of one kind of request, built once per run.

    ``head`` runs from the start, ``locked`` (None if the EPC-expand step
    is not serialized) holds the lock and ``tail`` runs after it.
    ``components`` is read-only: every record of the kind shares it.
    """
    head: Tuple[float, ...]
    locked: Optional[float]
    tail: Tuple[float, ...]
    components: Mapping[str, float]
    total: float


def _plan(kind: str, exec_ms: float, params: CostParams) -> _Plan:
    """Plan a request of ``kind``: native, cold or warm (a confidential
    container without or with a warm environment), or a shared-enclave
    request that registers the enclave, takes a pooled container or
    creates one."""
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
    elif kind == "register":
        steps = [(CONTAINER_CREATE, create),
                 (ENCLAVE_CREATE, params.t_enclave_create)]
    else:
        steps = [(CONTAINER_CREATE, 0.0 if kind == "pooled" else create)]
    if kind in ("register", "pooled", "create"):
        steps += [(ALIAS, params.t_alias + params.t_tcs_op),
                  (EPC_EXPAND, params.t_epc_expand),
                  (INSTANCE_LOAD, params.t_instance_load_teemate)]
    steps.append((EXEC, exec_ms))
    # A ledger of the plan's own rejects negative durations and sums the
    # components in step order.
    ledger = CostLedger()
    for component, duration in steps:
        ledger.charge(component, duration)
    components = types.MappingProxyType(ledger.breakdowns[None])
    durations = tuple(duration for _, duration in steps)
    total = sum(components.values())
    if not math.isfinite(total):
        raise errors.ConfigError(f"a {kind} request takes {total} ms")
    if params.epc_alloc_serialized and EPC_EXPAND in components:
        lock = [component for component, _ in steps].index(EPC_EXPAND)
        return _Plan(durations[:lock], durations[lock], durations[lock + 1:],
                     components, total)
    return _Plan(durations, None, (), components, total)


def run_serverless(model, trace: RequestTrace, params: CostParams,
                   workers: int = 8, pre_registered: bool = True) -> Metrics:
    """Run one execution model over a request trace.

    ``model`` may be a Variant or an ExecutionModel. With ``pre_registered``
    the shared-enclave registration phase (container + enclave creation +
    runtime load) completes before the first arrival and is reported under
    ``extras`` rather than inside any request's latency.

    Arrivals are read in order from the trace and a heap holds the events
    in flight, ``(time, seq, kind, index, plan, mem)``. Events at one time
    run in scheduling order, arrivals first (an arrival's seq is its index,
    below every heap seq). A request wakes only where it touches shared
    state: arrival, start, the EPC-expand lock (acquire, grant, unlock) and
    finish; its wake time is the running sum of its plan's steps (``_plan``,
    once per kind and workload). A pool or lock grant runs inline when
    nothing else is pending at its time, as it would then be popped next;
    otherwise it is a zero-delay event. Records are built at finish.
    """
    if isinstance(model, Variant):
        model = ExecutionModel(model)
    params.validate()
    variant = model.variant

    ledger = CostLedger()
    arrivals = trace.arrivals
    n = len(arrivals)
    records: List[Optional[RequestRecord]] = [None] * n
    events: List[tuple] = []
    push = heapq.heappush
    seq = itertools.count(n)

    free_workers = workers
    pool_queue: deque = deque()
    lock_free = True
    lock_queue: deque = deque()
    free_containers = 0
    live_instances = 0
    warm_pool: List[float] = []  # expiry times of idle warm environments
    registration_pending = False
    plans: Dict[Tuple[str, str], _Plan] = {}

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

    def start(idx: int, now: float) -> None:
        """Take the request's plan and memory; run it to the lock or end."""
        nonlocal free_containers, live_instances, registration_pending
        mem = 0.0
        if variant is Variant.NATIVE:
            kind = "native"
        elif variant is Variant.CC_COLD:
            kind = "cold"
            mem = params.m_strawman_per_request
        elif variant is Variant.CC_WARM:
            warm = model.prediction
            if not warm:
                for i, expiry in enumerate(warm_pool):
                    if expiry >= now:
                        warm_pool.pop(i)
                        warm = True
                        break
            kind = "warm" if warm else "cold"
            mem = params.m_strawman_per_request
        else:
            if registration_pending:
                registration_pending = False
                ledger.occupy(now, params.m_teemate_base)
                kind = "register"
            elif free_containers > 0:
                free_containers -= 1
                kind = "pooled"
            else:
                kind = "create"
            live_instances += 1
            if live_instances > 1:
                mem = params.m_teemate_per_instance
        workload = arrivals[idx][1]
        plan = plans.get((kind, workload))
        if plan is None:
            plan = plans[kind, workload] = _plan(
                kind, params.exec_ms(workload), params)
        if mem:
            ledger.occupy(now, mem)
        t = now
        for duration in plan.head:
            t = t + duration
        push(events, (t, next(seq),
                      _FINISH if plan.locked is None else _ACQUIRE,
                      idx, plan, mem))

    i = 0
    next_arrival = arrivals[0][0] if n else math.inf
    while i < n or events:
        if i < n and (not events or next_arrival <= events[0][0]):
            now, kind, idx = next_arrival, _ARRIVE, i
            i += 1
            next_arrival = arrivals[i][0] if i < n else math.inf
        else:
            now, _, kind, idx, plan, mem = heapq.heappop(events)
        # Nothing else is pending now: a grant would be the next event popped.
        idle = now < next_arrival and (not events or now < events[0][0])
        if kind == _ARRIVE:
            pool_queue.append(idx)
        elif kind == _FINISH:
            records[idx] = RequestRecord(str(idx), *arrivals[idx],
                                         plan.components, plan.total, now)
            if mem:
                ledger.occupy(now, -mem)
            if variant is Variant.TEEMATE:
                live_instances -= 1
                free_containers += 1
            elif variant is Variant.CC_WARM and not model.prediction:
                warm_pool.append(now + params.warm_keepalive_s * 1000.0)
            free_workers += 1
        elif kind == _START:
            start(idx, now)
        elif kind == _ACQUIRE:
            if not lock_free:
                lock_queue.append((idx, plan, mem))
            else:
                lock_free = False
                if idle:
                    push(events, (now + plan.locked, next(seq), _UNLOCK,
                                  idx, plan, mem))
                else:
                    push(events, (now, next(seq), _LOCKED, idx, plan, mem))
        elif kind == _LOCKED:
            push(events, (now + plan.locked, next(seq), _UNLOCK, idx, plan,
                          mem))
        else:
            t = now
            for duration in plan.tail:
                t = t + duration
            # A waiting grant goes before this finish, an inline one after.
            if not lock_queue:
                lock_free = True
            elif not idle:
                push(events, (now, next(seq), _LOCKED, *lock_queue.popleft()))
            push(events, (t, next(seq), _FINISH, idx, plan, mem))
            if lock_queue and idle:
                idx, plan, mem = lock_queue.popleft()
                push(events, (now + plan.locked, next(seq), _UNLOCK, idx,
                              plan, mem))
        # A queue forms only while every worker is busy.
        if free_workers and pool_queue:
            free_workers -= 1
            if idle:
                start(pool_queue.popleft(), now)
            else:
                push(events, (now, next(seq), _START, pool_queue.popleft(),
                              None, 0.0))

    if not all(records):
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
    ledger.check_returned(baseline_mib)
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
    if not math.isfinite(fork_ms):
        raise errors.ConfigError(f"the {model.value} fork takes {fork_ms} ms")
    fork_start = snapshot_interval_s * 1000.0
    fork_end = fork_start + fork_ms
    write_ms = db_mib / params.snapshot_write_mib_per_s * 1000.0
    window_end = fork_end + write_ms
    end = max(duration_s * 1000.0, window_end)
    return DbCycle(fork_ms, fork_components, fork_start, fork_end,
                   window_end, end)


_MIN_NORMAL = sys.float_info.min
_TOP = (1 << 53) - 1  # largest significand, in units of the binade's ulp


def skip_ahead(x: float, step: float, limit: float = math.inf,
               max_steps: float = math.inf) -> Tuple[int, float]:
    """Take ``x = x + step`` while ``x + step <= limit`` and fewer than
    ``max_steps`` steps are taken; return ``(steps, x)``.

    The result is bit for bit that of the step-by-step loop, for
    ``step > 0``. Inside one binade every addition adds ``step`` rounded
    to the binade's ulp, so a run of steps is one integer addition on the
    significand. Where ``step``'s remainder is exactly half an ulp (ties
    round to even, which alternates) and at each binade crossing the loop
    takes single float steps.
    """
    steps = 0
    while steps < max_steps:
        if step < x and x >= _MIN_NORMAL:
            shift = 53 - math.frexp(x)[1]
            sig = int(math.ldexp(x, shift))  # x = sig * ulp, exactly
            units = math.ldexp(step, shift)
            ulps = int(units)
            rest = units - ulps
            if rest != 0.5:
                if rest > 0.5:
                    ulps += 1
                if ulps:
                    run = (_TOP - sig) // ulps
                    if limit < x + x:  # the limit lies inside the binade
                        run = min(run,
                                  (int(math.ldexp(limit, shift)) - sig) // ulps)
                    run = min(run, max_steps - steps)
                    if run > 0:
                        steps += run
                        x = math.ldexp(sig + run * ulps, -shift)
                        continue
        nxt = x + step
        if nxt > limit:
            break
        if nxt == x:
            if max_steps == math.inf:
                raise errors.InvariantViolation(
                    f"a step of {step} ms does not advance {x} ms")
            return int(max_steps), x
        x = nxt
        steps += 1
    return steps, x


_SKIP_CHUNK = 1 << 14  # draws skipped per getrandbits call


def skip_draws(rng: random.Random, n: int) -> None:
    """Advance ``rng`` exactly as ``n`` calls of ``rng.random()`` would:
    each takes two 32-bit words, as does every 64 bits of ``getrandbits``."""
    for left in range(n, 0, -_SKIP_CHUNK):
        rng.getrandbits(64 * min(left, _SKIP_CHUNK))


def run_database(model, db_mib: float, write_ratio: float,
                 snapshot_interval_s: float, duration_s: float, seed: int,
                 params: CostParams) -> Metrics:
    """One fork/snapshot cycle under a saturated request stream.

    The full-copy model blocks every request for the whole fork (enclave
    creation plus a full memory copy); the shared-enclave model blocks only
    for the aliasing fork and pays per-page copy-on-write afterwards.

    Requests run back to back. Only the shared-enclave model's requests
    between the fork's end and the end of the snapshot window can copy a
    page, so only they run one by one. The other stretches (requests that
    finish before the fork, the full-copy model's window and the tail
    after the window) take ``skip_ahead``, which gives the same float sums
    as adding each request in turn. The shared-enclave model still skips
    one draw per request before the fork (``skip_draws``), so the random
    stream matches.
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
    pages = db_mib / params.page_mib
    if not math.isfinite(pages):
        raise errors.ConfigError(f"db_mib / page_mib = {pages} pages")
    db_pages = max(1, round(pages))

    if strawman:
        ledger.occupy(fork_end, db_mib + params.m_db_runtime_strawman)

    exec_ms = params.t_db_exec
    draw = rng.random
    dirty = set()
    # Requests that finish by the fork's start; the last may finish on it.
    served_total, t = skip_ahead(0.0, exec_ms, fork_start)
    _, service_sum = skip_ahead(0.0, exec_ms, max_steps=served_total)
    served_window = 1 if served_total and t == fork_start else 0
    if not strawman:
        skip_draws(rng, served_total)  # no page can be copied before the fork
    if t < fork_start:
        # This request straddles the fork's start and runs to its end; it
        # draws but copies nothing. If it would end past ``end``, the stream
        # stops: t passes ``end`` and no later request is served.
        if not strawman:
            draw()
        finish = t + exec_ms
        if finish <= end:
            served_total += 1
            service_sum += exec_ms
            if finish <= window_end:
                served_window += 1
        t = finish
    t = max(t, fork_end)  # requests blocked while the fork call runs
    if strawman:
        # Nothing is written in place: every request that ends by
        # window_end ends inside the window.
        steps, t = skip_ahead(t, exec_ms, window_end)
        _, service_sum = skip_ahead(service_sum, exec_ms, max_steps=steps)
        served_total += steps
        served_window += steps
    else:
        # The copy-on-write window: each request draws, and a write to a
        # page not yet copied copies it first. Only the last request can
        # end past window_end.
        cow_ms = exec_ms + params.t_cow_copy
        in_window = 0
        while t < window_end:
            service = exec_ms
            if draw() < write_ratio:
                key = rng.randrange(db_pages)
                if key not in dirty:
                    dirty.add(key)
                    service = cow_ms
                    ledger.occupy(t, params.page_mib)
            finish = t + service
            if finish > window_end:
                if finish <= end:
                    served_total += 1
                    service_sum += service
                t = finish
                break
            in_window += 1
            service_sum += service
            t = finish
        served_total += in_window
        served_window += in_window
    # Past window_end no request copies a page and no finish lands in the
    # window.
    steps, t = skip_ahead(t, exec_ms, end)
    _, service_sum = skip_ahead(service_sum, exec_ms, max_steps=steps)
    served_total += steps

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
    ledger.check_returned(base_mib)
    return metrics
