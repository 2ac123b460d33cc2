"""Step-by-step database oracle.

``run_database_stepwise`` serves every request in its own loop iteration
and adds each service time to the running sums one at a time. The
skip-ahead in ``workload_harness.run_database`` must give the same
``Metrics``, field for field and bit for bit.
"""

import random

from enclavesim import errors
from enclavesim.cost_model import CostLedger, CostParams
from enclavesim.workload_harness import (
    DbModel,
    Metrics,
    RequestRecord,
    db_cycle,
)


def run_database_stepwise(model, db_mib: float, write_ratio: float,
                          snapshot_interval_s: float, duration_s: float,
                          seed: int, params: CostParams) -> Metrics:
    """``run_database`` as one loop iteration per request."""
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
