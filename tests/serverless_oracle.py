"""Event-by-event serverless oracle.

``run_serverless_heaped`` is ``workload_harness.run_serverless`` as it
was before arrivals left the event heap: every arrival, pool grant and
lock grant is a heap event, each request is a ``_Job``, and each finish
stores its time and plan in the run's columns and copies its plan's
components into ``ledger.breakdowns[request_id]``. The harness must give
the same ``Metrics`` and records, field for field and bit for bit. Its
handlers match these one for one: besides the breakdowns, the shipped loop
differs only in where arrivals and zero-delay events wait, in the trace
and in a FIFO beside the heap, and in when plans are built. The oracle
builds a kind's plan at its first start; the harness builds its plans
before the loop, except the shared enclave's ``"create"`` plan.

The trace is one workload's sorted arrival times (``RequestTrace``), and
each record carries that workload.
"""

import heapq
import itertools
from array import array
from collections import deque
from typing import Dict, List, Optional

from enclavesim import errors
from enclavesim.cost_model import CostParams
from enclavesim.workload_harness import (
    Metrics,
    RequestTrace,
    Variant,
    _Plan,
    _metrics,
    _plan,
)

from count_ledger import CountLedger

# Event kinds. Only these points touch state shared between requests.
_ARRIVE, _START, _ACQUIRE, _LOCKED, _UNLOCK, _FINISH = range(6)


class _Job:
    """A request in flight: its index, its plan and the units of memory
    it holds."""

    __slots__ = ("idx", "plan", "units")

    def __init__(self, idx: int):
        self.idx = idx
        self.plan: Optional[_Plan] = None
        self.units = 0


def run_serverless_heaped(variant: Variant, trace: RequestTrace,
                          params: CostParams, workers: int = 8,
                          prediction: bool = False) -> Metrics:
    """Run one execution model over a trace of one workload.

    ``prediction`` makes every ``cc_warm`` request warm. The shared-enclave
    registration (container and enclave creation) completes before the
    first arrival and is reported under ``extras``, not inside any
    request's latency.

    One heap of ``(time, seq, kind, job)`` events drives the run; events at
    the same time run in scheduling order (``seq``), arrivals first. A
    request wakes only where it touches shared state: on arrival (worker
    pool), at start (warm pool, free containers, occupancy), at the
    EPC-expand lock (acquire, grant, unlock) and at finish. Between those
    points its steps touch nothing shared; the wake time is their running
    sum from the current time. Each kind of request is planned when its
    first request starts (``_plan``), in a table keyed by kind; at finish
    the request's plan and finish time go into the run's columns, and the
    ledger keeps a copy of the plan's components as the request's
    breakdown. Grants from the pool or the lock are separate zero-delay
    events.
    """
    params.validate()

    ledger = CountLedger()
    breakdowns = ledger.breakdowns
    n = len(trace.arrivals)
    plan_of: List[Optional[_Plan]] = [None] * n
    finish = array("d", [0.0]) * n
    events = [(arrival, idx, _ARRIVE, _Job(idx))
              for idx, arrival in enumerate(trace.arrivals)]
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
    done = 0
    plans: Dict[str, _Plan] = {}

    registration_ms = baseline_mib = 0.0
    unit_mib = params.m_strawman_per_request
    if variant is Variant.TEEMATE:
        registration_ms = params.t_container_create + params.t_enclave_create
        baseline_mib = params.m_teemate_base
        unit_mib = params.m_teemate_per_instance
        free_containers = 1

    def start(job: _Job, now: float) -> None:
        """Pick the request's plan, take its units of memory and run its
        steps up to the lock or the end."""
        nonlocal free_containers, live_instances
        if variant is Variant.NATIVE:
            kind = "native"
        elif variant is Variant.CC_COLD:
            kind = "cold"
            job.units = 1
        elif variant is Variant.CC_WARM:
            warm = prediction
            if not warm:
                for i, expiry in enumerate(warm_pool):
                    if expiry >= now:
                        warm_pool.pop(i)
                        warm = True
                        break
            kind = "warm" if warm else "cold"
            job.units = 1
        else:
            if free_containers > 0:
                free_containers -= 1
                kind = "pooled"
            else:
                kind = "create"
            live_instances += 1
            if live_instances > 1:
                job.units = 1
        plan = plans.get(kind)
        if plan is None:
            plan = plans[kind] = _plan(kind, params.exec_ms(trace.workload),
                                       params)
        job.plan = plan
        if job.units:
            ledger.occupy(job.units)
        t = now
        for duration in plan.head:
            t = t + duration
        push(events, (t, next(seq),
                      _FINISH if plan.locked is None else _ACQUIRE, job))

    while events:
        now, _, kind, job = heapq.heappop(events)
        if kind == _ARRIVE:
            if free_workers > 0:
                free_workers -= 1
                push(events, (now, next(seq), _START, job))
            else:
                pool_queue.append(job)
        elif kind == _START:
            start(job, now)
        elif kind == _ACQUIRE:
            if lock_free:
                lock_free = False
                push(events, (now, next(seq), _LOCKED, job))
            else:
                lock_queue.append(job)
        elif kind == _LOCKED:
            push(events, (now + job.plan.locked, next(seq), _UNLOCK, job))
        elif kind == _UNLOCK:
            if lock_queue:
                push(events, (now, next(seq), _LOCKED, lock_queue.popleft()))
            else:
                lock_free = True
            t = now
            for duration in job.plan.tail:
                t = t + duration
            push(events, (t, next(seq), _FINISH, job))
        else:
            finish[job.idx] = now
            plan_of[job.idx] = job.plan
            breakdowns[str(job.idx)] = dict(job.plan.components)
            if job.units:
                ledger.occupy(-job.units)
            if variant is Variant.TEEMATE:
                live_instances -= 1
                free_containers += 1
            elif variant is Variant.CC_WARM and not prediction:
                warm_pool.append(now + params.warm_keepalive_s * 1000.0)
            if pool_queue:
                push(events, (now, next(seq), _START, pool_queue.popleft()))
            else:
                free_workers += 1
            done += 1

    if done != n:
        raise errors.InvariantViolation("not all requests completed")
    return _metrics(variant.value, trace, plan_of, finish, ledger,
                    registration_ms, baseline_mib, unit_mib)
