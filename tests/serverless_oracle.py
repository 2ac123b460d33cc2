"""Event-by-event serverless oracle.

``run_serverless_heaped`` is ``workload_harness.run_serverless`` as an
event loop, as it was before arrivals left the event heap: every arrival,
pool grant and lock grant is a heap event run in ``(time, seq)`` order,
each request is a ``_Job`` that takes its units of memory at its start
and returns them at its finish, and each finish stores its time and plan
in the run's columns. The harness derives its units from its busy
workers instead, so the jobs' units are the independent reference for
its peak. Both keep a clock of whole ns as Python ints. On every run the
harness accepts, it must give the same ``Metrics`` and records, field for
field and bit for bit, and it must refuse every run this loop refuses.
The oracle builds a kind's plan at its first start; the harness builds
its plans before its recursion, except the shared enclave's ``"create"``
plan and ``cc_warm``'s warm plan. The oracle keeps a plan per request and
takes its completion from ``max(finish)``; it folds its plans into runs
(``Metrics.run_firsts`` and ``run_plans``) only to call ``_metrics``,
which the harness calls with the runs it keeps and its latest finish.

The harness has no events: it is a recursion over starts, in index
order, in which every finish at or before a start runs before it. That is
this loop's order since a plan's tail, the steps that end in its finish
(all of a plan without a lock), takes 1 ns or more: the finish is
scheduled before its time comes, so its seq is smaller than that of any
start scheduled at its time. A tail of 0 ns would schedule its finish at
the current time, behind starts already waiting there, in an order the
recursion does not keep; ``_plan``, which both share, refuses it. Where
the rest of a run takes one plan, the harness keeps no heap either: a
request starts at the later of its arrival and the ``workers``-th finish
before it, and takes the lock after the one before it, which this loop
must match on every tie. That holds from the first request when every
request takes one plan, and in a burst on as many workers in which
nothing finishes by the last arrival; in the general run, from the start
at which it settles (every later one pooled or warm, and no finish so far
later than a later start's), until a warm environment it relies on has
expired and the heap takes the run back.

A run is refused, after it ends here, if its last arrival plus ``n``
times the longest plan a request took reaches the clock's end
(``CLOCK_END_NS``): the bound the harness checks before it starts.

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
    CLOCK_END_NS,
    Metrics,
    RequestTrace,
    Variant,
    _Plan,
    _metrics,
    _plan,
)

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
    points its steps touch nothing shared; the wake time is the current
    time plus the plan's head or tail. Each kind of request is planned when its
    first request starts (``_plan``), in a table keyed by kind; at finish
    the request's plan and finish time go into the run's columns. Grants
    from the pool or the lock are separate zero-delay events.
    """
    params.validate()

    held = peak = 0  # units of memory held now, and at most
    n = len(trace.arrivals)
    plan_of: List[Optional[_Plan]] = [None] * n
    finish = [0] * n  # whole ns, unbounded until the range check
    events = [(arrival, idx, _ARRIVE, _Job(idx))
              for idx, arrival in enumerate(trace.arrivals_ns)]
    heapq.heapify(events)
    push = heapq.heappush
    seq = itertools.count(len(events))

    free_workers = workers
    pool_queue: deque = deque()
    lock_free = True
    lock_queue: deque = deque()
    free_containers = 0
    live_instances = 0
    warm_pool: List[int] = []  # expiry times of idle warm environments
    done = 0
    plans: Dict[str, _Plan] = {}

    registration_ms = baseline_mib = 0.0
    unit_mib = params.m_strawman_per_request
    if variant is Variant.TEEMATE:
        registration_ms = params.t_container_create + params.t_enclave_create
        baseline_mib = params.m_teemate_base
        unit_mib = params.m_teemate_per_instance
        free_containers = 1

    def start(job: _Job, now: int) -> None:
        """Pick the request's plan, take its units of memory and run its
        steps up to the lock or the end."""
        nonlocal free_containers, live_instances, held, peak
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
        held += job.units
        peak = max(peak, held)
        if plan.locked is None:
            push(events, (now + plan.tail, next(seq), _FINISH, job))
        else:
            push(events, (now + plan.head, next(seq), _ACQUIRE, job))

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
            push(events, (now + job.plan.tail, next(seq), _FINISH, job))
        else:
            finish[job.idx] = now
            plan_of[job.idx] = job.plan
            held -= job.units
            if variant is Variant.TEEMATE:
                live_instances -= 1
                free_containers += 1
            elif variant is Variant.CC_WARM and not prediction:
                warm_pool.append(now + round(min(
                    CLOCK_END_NS, params.warm_keepalive_s * 1e9)))
            if pool_queue:
                push(events, (now, next(seq), _START, pool_queue.popleft()))
            else:
                free_workers += 1
            done += 1

    if done != n:
        raise errors.InvariantViolation("not all requests completed")
    if held:
        raise errors.InvariantViolation(f"{held} units not returned")
    if n and trace.arrivals_ns[-1] + n * max(
            plan.total for plan in plan_of) >= CLOCK_END_NS:
        raise errors.ConfigError("a finish could pass the clock's range")
    firsts = [i for i in range(n)
              if i == 0 or plan_of[i] is not plan_of[i - 1]]
    return _metrics(variant.value, trace, array("q", firsts),
                    [plan_of[i] for i in firsts], array("q", finish),
                    max(finish, default=0), peak, registration_ms,
                    baseline_mib, unit_mib)
