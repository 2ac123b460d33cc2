"""Step-by-step database oracle.

``run_database_stepwise`` serves every request in its own loop iteration
on a clock of whole nanoseconds and adds each service time to the running
sums one at a time. The floor divisions and the copy-on-write window's
blocks in ``workload_harness.run_database`` must give the same
``Metrics``, field for field.

The oracle takes the same counts of held units as the harness, into a
ledger that records each count, and keeps its own ``(time, level)``
timeline in MiB, from which it reads the peak and the snapshot window's
peak.
"""

import random
import types
from array import array
from typing import List, Optional, Tuple

from enclavesim import errors
from enclavesim.cost_model import CostParams
from enclavesim.workload_harness import (
    DbModel,
    Metrics,
    _Plan,
    db_cycle,
)

from count_ledger import CountLedger


def peak_between(timeline: List[Tuple[float, float]], t0: float,
                 t1: float) -> float:
    """Max occupancy of a ``(time, level)`` timeline over [t0, t1],
    including the level carried in."""
    peak = 0.0
    carry = 0.0
    for t, occ in timeline:
        if t <= t0:
            carry = occ
        elif t <= t1:
            peak = max(peak, occ)
    return max(peak, carry)


def run_database_stepwise(model: DbModel, db_mib: float,
                          write_ratio: float, snapshot_interval_s: float,
                          duration_s: float, seed: int, params: CostParams,
                          writes: Optional[List[int]] = None) -> Metrics:
    """``run_database`` as one loop iteration per request.

    ``writes``, if given, receives the page index of each write the
    copy-on-write window draws, in order, repeat writes included.
    """
    if db_mib <= 0:
        raise errors.InvariantViolation("db size must be positive")
    params.validate()
    rng = random.Random(seed)
    ledger = CountLedger()
    strawman = model is DbModel.STRAWMAN
    base_mib = db_mib + (params.m_db_runtime_strawman if strawman
                         else params.m_db_runtime_teemate)
    timeline: List[Tuple[float, float]] = [(0.0, base_mib)]

    def occupy(time_ms: float, units: int, delta_mib: float) -> None:
        ledger.occupy(units)
        timeline.append((time_ms, timeline[-1][1] + delta_mib))

    (exec_ns, db_pages, fork_components, fork_start, fork_end, window_end,
     end) = db_cycle(model, db_mib, snapshot_interval_s, duration_s, params)
    cow_ns = round(params.t_cow_copy * 1e6)

    if strawman:
        occupy(fork_end / 10**6, 1, db_mib + params.m_db_runtime_strawman)

    dirty = set()
    last_copy = None
    served_total = 0
    served_window = 0
    service_ns = 0
    t = 0
    while t < end:
        if fork_start <= t < fork_end:
            t = fork_end  # requests blocked while the fork call runs
            continue
        service = exec_ns
        # Only a shared-enclave request that starts inside the window draws:
        # no other can copy a page.
        if not strawman and fork_end <= t < window_end \
                and rng.random() < write_ratio:
            key = rng.randrange(db_pages)
            if writes is not None:
                writes.append(key)
            if key not in dirty:
                dirty.add(key)
                last_copy = t
                service += cow_ns
        finish = t + service
        if finish > end:
            break
        served_total += 1
        service_ns += service
        if fork_start <= finish <= window_end:
            served_window += 1
        t = finish

    # Occupancy only rises inside the window: one step at the last copy.
    if dirty:
        occupy(last_copy / 10**6, len(dirty), len(dirty) * params.page_mib)
    snapshot_peak = peak_between(timeline, fork_start / 10**6,
                                 window_end / 10**6)
    if strawman:
        occupy(window_end / 10**6, -1,
               -(db_mib + params.m_db_runtime_strawman))
    elif dirty:
        occupy(window_end / 10**6, -len(dirty), -len(dirty) * params.page_mib)
    if abs(timeline[-1][1] - base_mib) > 1e-6:
        raise errors.InvariantViolation("db occupancy leaked")

    for component, ns in fork_components.items():
        ledger.charge(component, ns / 10**6, "fork")
    fork = types.MappingProxyType(dict(ledger.breakdowns["fork"]))
    fork_ns = sum(fork_components.values())

    completion_ms = end / 10**6
    window_s = (window_end - fork_start) / 10**6 / 1000.0
    return Metrics(
        model=model.value,
        workload="db-fork",
        arrivals=[fork_start / 10**6],
        run_firsts=array("q", [0]),
        run_plans=[_Plan(0, None, fork_ns, fork, fork_ns)],
        finish=array("q", [fork_end]),
        ids=("fork",),
        count=served_total,
        mean_latency_ms=(service_ns / 10**6 / served_total if served_total
                         else 0.0),
        p50_ms=exec_ns / 10**6,
        p99_ms=(exec_ns + (0 if strawman else cow_ns)) / 10**6,
        peak_epc_mib=max(level for _, level in timeline),
        throughput_rps=served_total / (completion_ms / 1000.0),
        completion_time_ms=completion_ms,
        extras={
            "fork_latency_ms": fork_ns / 10**6,
            "snapshot_window_s": window_s,
            "snapshot_window_throughput_rps": served_window / window_s,
            "snapshot_peak_mib": snapshot_peak,
            "dirty_pages": float(len(dirty)),
            "baseline_mib": base_mib,
            "final_mib": base_mib,
        },
        ledger=ledger,
    )
