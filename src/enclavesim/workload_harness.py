"""Drivers for the serverless execution models and the database
fork/snapshot scenario; all randomness flows from explicit seeds.

Costs, traces and statistics are in ms and MiB; both scenarios run on a
clock of whole ns in ``[0, 2^63)``, as Python ints, rounding each
duration once (``_ns``), so every sum of times is exact. A run counts
units of one memory figure held above a base (a serverless run from its
busy workers, a database run in a ``CostLedger``), and its peak is
``base + peak count x figure`` (``occupancy_mib``).

A serverless model takes one of two paths, picked once per run. When
every request takes one plan (``native``, ``cc_cold``, and ``cc_warm``
under prediction), each takes the same time from start to finish and
starts no earlier than the one before it, so finishes come in start
order: request ``i`` waits only on request ``i - workers``, and the run
keeps no heap (``_one_plan_run``). Unpredicted ``cc_warm``, whose warm
and cold requests finish out of start order, and ``teemate``, whose
requests queue for the EPC-expand lock, keep a heap of finishes and one
of lock acquires (``_general_run``).

A run keeps its requests as columns, not objects: the trace's arrival
list and an ``array('q')`` of finish times, about 8 B per request. Its
plans are kept as runs of requests that took one plan: each run's first
index, in an ``array('q')``, and its plan, 16 B a run. Only a start that
takes a plan other than the one before it opens a run, so a 64-request
burst keeps one or two. Its statistics read the runs, and
``Metrics.requests`` builds ``RequestRecord``s from the columns only
when it is read.
"""

from __future__ import annotations

import copy
import enum
import heapq
import itertools
import math
import random
import types
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import (Dict, Iterator, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

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
    occupancy_mib,
)

CLOCK_END_NS = 2**63  # every simulated time fits an ``array('q')``


def _ns(ms: float, what: str) -> int:
    """A duration of ``ms``, rounded once to whole nanoseconds."""
    ns = ms * 1e6
    if not math.isfinite(ns):
        raise errors.ConfigError(f"{what} takes {ms} ms")
    return round(ns)


def _ms(ns: int) -> float:
    return ns / 1_000_000  # one correctly rounded division of two ints


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
    """Arrival times in ms, sorted and on the clock, of requests to one
    workload, fixed once built: every run shares them in ``arrivals_ns``."""
    arrivals: List[float]
    workload: str
    arrivals_ns: array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arrivals = self.arrivals
        if arrivals != sorted(arrivals):
            raise errors.InvariantViolation("arrivals must be sorted")
        # Sorted, all are on the clock if the ends are and none is NaN.
        if arrivals and not (0 <= arrivals[0]
                             and arrivals[-1] * 1e6 < CLOCK_END_NS
                             and not any(map(math.isnan, arrivals))):
            raise errors.InvariantViolation(
                "an arrival time is outside the clock's range")
        self.arrivals_ns = array("q", [round(t * 1e6) for t in arrivals])


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
    arrived at ``arrivals[i]`` ms (the trace's own list) and finished at
    ``finish[i]``, in whole ns on the run's clock; its id is ``ids[i]``,
    or ``str(i)`` when ``ids`` is None. The plans are kept as runs:
    requests from ``run_firsts[k]`` (the first is 0) up to the next run's
    first, or to the last request, ran ``run_plans[k]`` (``spans``)."""
    model: str
    workload: str
    arrivals: Sequence[float]
    run_firsts: array
    run_plans: List[_Plan]
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

    def spans(self) -> Iterator[Tuple[int, int, _Plan]]:
        """Each run as ``(first, end, plan)``: requests ``first`` to
        ``end - 1`` ran ``plan``."""
        return _spans(self.run_firsts, self.run_plans, len(self.finish))

    @property
    def requests(self) -> List[RequestRecord]:
        """A record per request, built from the columns on each read."""
        ids = self.ids or map(str, range(len(self.finish)))
        plans = itertools.chain.from_iterable(
            itertools.repeat(plan, end - first)
            for first, end, plan in self.spans())
        return [RequestRecord(request_id, arrival, self.workload,
                              plan.components, plan.total_ms, _ms(finish))
                for request_id, arrival, plan, finish in zip(
                    ids, self.arrivals, plans, self.finish)]


def _spans(firsts: array, plans: List[_Plan],
           n: int) -> Iterator[Tuple[int, int, _Plan]]:
    """The runs of ``n`` requests as ``(first, end, plan)``."""
    ends = itertools.chain(itertools.islice(firsts, 1, None), (n,))
    return zip(firsts, ends, plans)


def gen_burst(n: int, workload: str) -> RequestTrace:
    if n < 1:
        raise errors.InvariantViolation("burst size must be >= 1")
    return RequestTrace([0.0] * n, workload)


def gen_bursts(n: int, workloads: Sequence[str]) -> Dict[str, RequestTrace]:
    """A burst of ``n`` requests to each workload. A burst's arrivals do
    not depend on its workload, so one trace is checked and converted,
    and each workload gets a copy that shares its ``arrivals`` and
    ``arrivals_ns``; ``cli.write_outputs`` formats its rows' heads once."""
    burst = gen_burst(n, "")
    traces = {}
    for workload in workloads:
        trace = traces[workload] = copy.copy(burst)
        trace.workload = workload
    return traces


def gen_poisson(rate_per_s: float, duration_s: float, seed: int,
                workload: str) -> RequestTrace:
    """Inter-arrival gaps sampled i.i.d. exponential via inverse CDF on a
    seeded generator; arrivals confined to [0, duration]."""
    if not 0 < rate_per_s < math.inf:
        raise errors.InvariantViolation(
            f"arrival rate must be positive and finite, not {rate_per_s}")
    horizon = duration_s * 1000.0
    if not 0 <= horizon * 1e6 < CLOCK_END_NS:  # then so is every arrival
        raise errors.ConfigError(
            f"a horizon of {horizon} ms is outside the clock's range")
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


class _Plan(NamedTuple):
    """The steps of one kind of request, built once per run, in ns:
    ``head`` runs from the start, ``locked`` (None if the EPC-expand step
    is not serialized) holds the lock and ``tail`` runs after it to the
    finish; a plan without a lock is all tail. ``components`` holds the
    steps in ms, unrounded, and is read-only: every request of the kind
    shares it."""
    head: int
    locked: Optional[int]
    tail: int
    components: Mapping[str, float]
    total: int

    @property
    def total_ms(self) -> float:
        return _ms(self.total)


def _plan(kind: str, exec_ms: float, params: CostParams) -> _Plan:
    """Plan a request of ``kind``: native, cold or warm (a confidential
    container without or with a warm environment), or a shared-enclave
    request that takes a pooled container or creates one. A tail of 0 ns
    is refused: the finish would tie with the time it is scheduled at, an
    order ``run_serverless`` does not keep."""
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
    durations = [_ns(ms, f"the {component} of a {kind} request")
                 for component, ms in steps]
    head, locked, tail = 0, None, sum(durations)
    if params.epc_alloc_serialized and EPC_EXPAND in components:
        lock = list(components).index(EPC_EXPAND)
        head, locked, tail = (sum(durations[:lock]), durations[lock],
                              sum(durations[lock + 1:]))
    if tail == 0:
        raise errors.ConfigError(
            f"the steps that end a {kind} request round to 0 ns")
    return _Plan(head, locked, tail, components, sum(durations))


def _check_clock(last_ns: int, n: int, longest: _Plan) -> None:
    if last_ns + n * longest.total >= CLOCK_END_NS:
        raise errors.ConfigError(
            f"{n} requests of up to {longest.total} ns after {last_ns} ns "
            "could finish past the clock's range")


def run_serverless(variant: Variant, trace: RequestTrace, params: CostParams,
                   workers: int = 8, prediction: bool = False) -> Metrics:
    """Run one execution model over a trace of one workload.

    ``prediction`` makes every ``cc_warm`` request warm. The shared-enclave
    registration (container and enclave creation) completes before the
    first arrival and is reported under ``extras``, not inside any
    request's latency; its container is the first pooled one. A run needs
    a worker: fewer than one is an ``InvariantViolation``.

    The run is a recursion over starts: the FIFO many-server queue of
    Kiefer and Wolfowitz (Trans. AMS, 1955), with the EPC-expand lock as
    one FIFO server (Lindley, 1952). Requests start in index order, and a
    finish that ties with a start runs first. The model picks one of two
    paths once per run:

    - ``native``, ``cc_cold``, and ``cc_warm`` under ``prediction``: every
      request takes one plan, which holds no lock (``_one_plan_run``). A
      later start then finishes later, so finishes come in start order,
      and request ``i`` waits only on request ``i - workers``.
    - ``cc_warm`` without ``prediction``, whose warm and cold plans
      finish out of start order, and ``teemate``, whose requests hold the
      lock (``_general_run``).

    Every request is done by the last arrival plus ``n`` times the
    longest plan a request takes: while one waits, another runs a step.
    A run in which that leaves the clock is a ``ConfigError``
    (``_check_clock``), checked before the first start and again when
    the shared enclave's ``"create"`` plan is built.
    """
    params.validate()
    if workers < 1:
        raise errors.InvariantViolation(
            f"not all requests complete on {workers} workers")
    if variant is Variant.TEEMATE or (variant is Variant.CC_WARM
                                      and not prediction):
        return _general_run(variant, trace, params, workers)
    return _one_plan_run(variant, trace, params, workers)


def _one_plan_run(variant: Variant, trace: RequestTrace, params: CostParams,
                  workers: int) -> Metrics:
    """A run in which every request takes one plan without a lock: the
    FIFO many-server recursion on one service time, which is Lindley's
    single-server recursion lagged by ``workers``.

    Each request takes ``tail`` from its start to its finish, and starts
    no earlier than the one before it, so finishes come in start order.
    The first ``workers`` requests start at their arrivals, and request
    ``i`` after them at ``max(arrivals[i], finish[i - workers])``: the
    worker of request ``i - workers`` is the first to come free, and a
    finish at a start's time runs first. No heap is kept. A confidential
    container holds one unit per request in service (``_most_busy``); a
    native request holds none."""
    arrivals = trace.arrivals_ns
    n = len(arrivals)
    unit_mib = params.m_strawman_per_request
    if not n:  # a trace with no arrivals builds no plan
        return _metrics(variant.value, trace, array("q"), [], array("q"), 0,
                        0, 0.0, 0.0, unit_mib)
    plan = _plan(variant.value.removeprefix("cc_"),
                 params.exec_ms(trace.workload), params)
    _check_clock(arrivals[-1], n, plan)
    tail = plan.tail
    finish = [arrival + tail for arrival in arrivals[:workers]]
    append = finish.append
    # ``zip`` reads ``finish`` as it grows: the arrival of request i pairs
    # with the finish of request i - workers.
    for arrival, freed in zip(arrivals[workers:], finish):
        append((arrival if arrival > freed else freed) + tail)
    peak = (0 if variant is Variant.NATIVE
            else _most_busy(finish, tail, min(n, workers)))
    return _metrics(variant.value, trace, array("q", [0]), [plan],
                    array("q", finish), finish[-1], peak, 0.0, 0.0, unit_mib)


def _most_busy(finish: List[int], tail: int, most: int) -> int:
    """The most requests in service at a start, of requests that started
    at ``finish[i] - tail`` in index order and finish in that order, or
    ``most`` as soon as that many are. A finish at a start's time is done
    before it, and no request is done at its own start, so the pointer
    ``end`` stays at or before the request that starts."""
    busy = peak = 0
    ends = iter(finish)
    end = next(ends)
    for start in finish:
        start -= tail
        while end <= start:
            busy -= 1
            end = next(ends)
        busy += 1
        if busy > peak:
            peak = busy
            if peak == most:
                break
    return peak


def _general_run(variant: Variant, trace: RequestTrace, params: CostParams,
                 workers: int) -> Metrics:
    """A run whose requests may take more than one plan: ``cc_warm``
    without prediction, warm or cold, and ``teemate``, pooled or creating
    a container, and holding the lock.

    Request ``i`` starts at ``s = max(arrivals[i], s)`` or later. Before
    it starts, every finish at or before ``s`` runs. A finish frees its
    worker, then clears ``bare`` or leaves a warm environment. While every
    worker is busy, ``s`` moves to the earlier of the earliest known
    finish and the earliest pending lock acquire; with at least one
    worker, a busy pool always has one or the other. The lock is granted
    in ``(acquire time, index)`` order, at the later of the acquire and
    the last unlock, once the acquire is at or before ``s``: a request
    yet to start acquires at ``s`` or later, and has the larger index.
    These are the tie rules of the event loop in
    ``tests/serverless_oracle.py``, since a plan's tail, which ends in its
    finish, takes 1 ns or more.

    Finishes wait in a heap of bare times, and each request's finish time
    is stored when it is known: at its start, or at its lock grant. A
    start that takes a plan other than the previous start's opens a run
    (``Metrics.run_firsts``), and a pending lock acquire carries its plan.
    The units held follow from the ``busy`` workers at each start, and
    only their running maximum is kept: a confidential container holds
    one unit per request in service, and a shared enclave one of
    ``m_teemate_per_instance`` per live instance but ``bare``, the first,
    which lives in the registered base. Tied finishes commute: a finish
    at ``bare``'s finish time is taken as ``bare``'s. A start takes a
    pooled container while ``busy``, itself included, is at most the
    count of containers created so far.

    The model's choices are made once per run: which kinds of request a
    start picks from, and whether a finish leaves a warm environment. No
    plan is built that no request takes: the ``"create"`` and warm plans
    wait for their first start.
    """
    shared = variant is Variant.TEEMATE
    # Expiry times of idle warm environments, oldest first: finishes run
    # in time order, so they are appended sorted.
    warm_pool: Optional[deque] = None
    bare: Optional[int] = None  # the live instance that holds no unit
    unit_mib = params.m_strawman_per_request
    registration_ms = baseline_mib = 0.0
    if shared:
        registration_ms = params.t_container_create + params.t_enclave_create
        baseline_mib = params.m_teemate_base
        unit_mib = params.m_teemate_per_instance
        containers = 1  # the registered one
    else:
        warm_pool = deque()
        # An environment kept past the clock's end never expires.
        keepalive = round(min(CLOCK_END_NS, params.warm_keepalive_s * 1e9))

    arrivals = trace.arrivals_ns
    n = len(arrivals)
    warm = created = None  # built at their first start
    if n:  # a trace with no arrivals builds no plan
        exec_ms = params.exec_ms(trace.workload)
        if shared:
            longest = pooled = _plan("pooled", exec_ms, params)
        else:  # warm runs cold's last step only
            longest = cold = _plan("cold", exec_ms, params)
        _check_clock(arrivals[-1], n, longest)

    run_firsts = array("q")
    run_plans: List[_Plan] = []
    previous = None  # the plan of the latest start
    finish = array("q", [0]) * n
    finishes: List[int] = []  # a heap of known finishes not yet run
    acquires: List[Tuple[int, int, _Plan]] = []  # (time, index, plan)
    push, pop = heapq.heappush, heapq.heappop
    free_workers = workers
    peak = 0  # the most units held at once
    unlocked = 0  # when the lock was last released

    s = 0
    # After the last request, a start at the clock's end grants the
    # pending lock acquires, which sets the last finish times. The
    # finishes left in the heap would only free workers and warm
    # environments, which nothing reads after the last start.
    for i, arrival in enumerate(itertools.chain(arrivals, (CLOCK_END_NS,))):
        if arrival > s:
            s = arrival
        while True:
            while acquires and acquires[0][0] <= s:
                acquired, j, plan = pop(acquires)
                unlocked = (acquired if acquired > unlocked
                            else unlocked) + plan.locked
                finish[j] = t = unlocked + plan.tail
                push(finishes, t)
            if i == n:
                break
            while finishes and finishes[0] <= s:
                t = pop(finishes)
                free_workers += 1
                if bare is not None and t == finish[bare]:
                    bare = None
                elif warm_pool is not None:
                    warm_pool.append(t + keepalive)
            if free_workers:
                break
            if acquires and not (finishes and finishes[0] <= acquires[0][0]):
                s = acquires[0][0]
            else:
                s = finishes[0]
        if i == n:
            break

        # Start request ``i`` at ``s``: take its plan, count the units
        # held, and run it to the lock or the end.
        free_workers -= 1
        busy = held = workers - free_workers
        if shared:
            if busy == 1:
                bare = i
            if busy <= containers:
                plan = pooled
            else:  # every container is in use: create one
                containers += 1
                if created is None:
                    created = _plan("create", exec_ms, params)
                    _check_clock(arrivals[-1], n, created)
                plan = created
            held -= bare is not None
        else:
            # Drop expired environments: later starts are later still.
            while warm_pool and warm_pool[0] < s:
                warm_pool.popleft()
            if warm_pool:
                warm_pool.popleft()
                plan = warm = warm or _plan("warm", exec_ms, params)
            else:
                plan = cold
        if held > peak:
            peak = held
        if plan is not previous:
            run_firsts.append(i)
            run_plans.append(plan)
            previous = plan
        if plan.locked is not None:
            push(acquires, (s + plan.head, i, plan))
            continue
        finish[i] = t = s + plan.tail
        push(finishes, t)

    # The last start's finish is never popped, and every popped finish
    # came at or before that start, so the latest finish is in the heap.
    return _metrics(variant.value, trace, run_firsts, run_plans, finish,
                    max(finishes, default=0), peak, registration_ms,
                    baseline_mib, unit_mib)


def _nth(sized: List[Tuple[int, int]], k: int) -> int:
    """The ``k``-th (from 0) of the totals that ``sized``'s ``(total,
    count)`` pairs, sorted by total, hold ``count`` times each, or the
    last if there are fewer. ``sized`` is not empty."""
    for total, count in sized:
        k -= count
        if k < 0:
            break
    return total


def _metrics(model_name: str, trace: RequestTrace, run_firsts: array,
             run_plans: List[_Plan], finish: array, last_finish: int,
             peak: int, registration_ms: float, baseline_mib: float,
             unit_mib: float) -> Metrics:
    """The statistics of a run whose requests finished at ``finish`` and
    ran the plans of the runs ``run_firsts`` and ``run_plans`` (as in
    ``Metrics``); ``last_finish`` is the latest finish.

    The latencies are the plans' totals, counted per total from the runs,
    so no per-request list is built: the mean is an exact sum of ns
    divided once, and p50 and p99 are the totals at index ``round(q / 100
    * (n - 1))`` of the n latencies in sorted order (``round`` halves to
    even), not nearest-rank: p99 of 64 distinct totals is the 63rd, and
    p50 of 100 the 51st. A run without requests reads 0.0."""
    peak_mib = occupancy_mib(baseline_mib, peak, unit_mib)
    count = len(finish)
    mean = p50 = p99 = 0.0
    completion = 0
    if count:
        # The count of requests of each total, by total.
        counts: Dict[int, int] = {}
        for first, end, plan in _spans(run_firsts, run_plans, count):
            counts[plan.total] = counts.get(plan.total, 0) + end - first
        sized = sorted(counts.items())
        mean = sum([total * k for total, k in sized]) / (count * 1_000_000)
        last = count - 1  # q / 100 is 0.5 and 0.99
        p50 = _ms(_nth(sized, round(0.5 * last)))
        p99 = _ms(_nth(sized, round(0.99 * last)))
        # The trace is sorted, so its first request arrives first.
        completion = last_finish - trace.arrivals_ns[0]
    throughput = count * 1_000_000_000 / completion if completion else 0.0
    return Metrics(
        model=model_name,
        workload=trace.workload,
        arrivals=trace.arrivals,
        run_firsts=run_firsts,
        run_plans=run_plans,
        finish=finish,
        count=count,
        mean_latency_ms=mean,
        p50_ms=p50,
        p99_ms=p99,
        peak_epc_mib=peak_mib,
        throughput_rps=throughput,
        completion_time_ms=_ms(completion),
        extras={
            "registration_ms": registration_ms,
            "baseline_mib": baseline_mib,
            # Every request finished, so every unit came back.
            "final_mib": baseline_mib,
        },
    )


# ---------------------------------------------------------------------------
# Database scenario.

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
    numbers, each in turn. The clock moves once per block of them: a block
    holds as many requests as fit before the window's end if each copies
    a page, and at least one. ``dirty`` holds one byte per database page.
    Every other stretch (requests that end by the fork's start, the
    full-copy model's window and the tail after the window) is one floor
    division. Above the base (the database and its runtime) the ledger
    counts one unit, a full copy of both, or one ``page_mib`` per copied
    page. The statistics, the extras and the fork row are in ms and MiB.
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
        # page not yet copied copies it first. It is served in blocks of
        # ``m`` requests that end by window_end even if each copies a
        # page, so inside a block a request only draws and marks its page,
        # and the clock moves once per block. Only a one-request block can
        # end past window_end, or past end, and only the last; the sums
        # are settled once after the loop.
        rng = random.Random(seed)
        draw, bits = rng.random, rng.getrandbits
        # ``randrange(db_pages)``'s own draw, inlined: ``k`` random bits,
        # drawn again while they fall past the last page.
        k = db_pages.bit_length()
        cow_ns = _ns(params.t_cow_copy, "a page copy")
        most = exec_ns + cow_ns  # the longest a request takes
        dirty = bytearray(db_pages)
        window_start = t
        while t < window_end:
            start = t
            m = (window_end - t) // most or 1
            copied = copies
            for _ in itertools.repeat(None, m):
                if draw() < write_ratio:
                    page = bits(k)
                    while page >= db_pages:
                        page = bits(k)
                    if not dirty[page]:
                        dirty[page] = 1
                        copies += 1
            t += m * exec_ns + (copies - copied) * cow_ns
        if t > window_start:
            # Each request took exec_ns, and each copy cow_ns more. All
            # but the last end inside the window, which ends by ``end``.
            served = (t - window_start - copies * cow_ns) // exec_ns
            if t <= end:
                served_total += served
                served_window += served - (t > window_end)
                service_ns += t - window_start
            else:  # the last request, a block of one, started at ``start``
                served_total += served - 1
                served_window += served - 1
                service_ns += start - window_start
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
    fork_ns = fork_end - fork_start  # the sum of its components

    completion_ms = _ms(end)
    window_s = _ms(window_end - fork_start) / 1000.0
    return Metrics(
        model=model.value,
        workload="db-fork",
        arrivals=[_ms(fork_start)],
        run_firsts=array("q", [0]),
        run_plans=[_Plan(0, None, fork_ns, fork, fork_ns)],
        finish=array("q", [fork_end]),
        count=served_total,
        mean_latency_ms=(_ms(service_ns) / served_total if served_total
                         else 0.0),
        p50_ms=_ms(exec_ns),
        p99_ms=_ms(exec_ns if strawman else exec_ns + cow_ns),
        peak_epc_mib=peak_mib,
        throughput_rps=served_total / (completion_ms / 1000.0),
        completion_time_ms=completion_ms,
        extras={
            "fork_latency_ms": _ms(fork_ns),
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
