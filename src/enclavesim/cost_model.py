"""Calibrated latency/memory cost model.

All durations are milliseconds, all memory figures MiB. The defaults are
calibrated so the simulated scenarios land inside the measured bands of
the system being modeled:

  * enclave creation ~10 s, about 17.1x a container create;
  * aliasing 2.7 ms (inside the 2.32-3.01 ms band, <1% of request latency);
  * EPC expansion 27.4-45.6% of an end-to-end shared-enclave request at
    the two workload-table edges;
  * peak memory 207 MiB (shared enclave, one request) vs 114 MiB per
    confidential container.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import errors

PAGE_MIB = 4096 / (1 << 20)

# Component names used in ledgers and in metrics.csv columns.
CONTAINER_CREATE = "container_create"
ENCLAVE_CREATE = "enclave_create"
ALIAS = "alias"
EPC_EXPAND = "epc_expand"
INSTANCE_LOAD = "instance_load"
EXEC = "exec"

COMPONENTS = (CONTAINER_CREATE, ENCLAVE_CREATE, ALIAS, EPC_EXPAND,
              INSTANCE_LOAD, EXEC)

WORKLOADS = (
    "dynamic-html",
    "sleep",
    "uploader",
    "binary-search",
    "crypto-aes",
    "crypto-md5",
    "partial-sums",
    "regexp-dna",
    "validate-input",
)


@dataclass
class CostParams:
    # Serverless-side latency components.
    t_container_create: float = 585.0
    t_enclave_create: float = 10000.0
    t_alias: float = 2.7
    t_tcs_op: float = 0.1
    t_epc_alloc_per_page: float = 0.115625
    t_instance_load_cold: float = 200.0
    t_instance_load_teemate: float = 400.0
    t_exec: Dict[str, float] = field(default_factory=dict)
    epc_alloc_serialized: bool = True
    # Memory figures.
    m_strawman_per_request: float = 114.0
    m_teemate_base: float = 207.0
    m_teemate_per_instance: float = 25.0
    page_mib: float = PAGE_MIB
    # Database scenario.
    t_fork_copy_per_mib: float = 20.0
    t_fork_child_setup: float = 22.2
    t_db_exec: float = 0.5
    t_cow_copy: float = 0.05
    snapshot_write_mib_per_s: float = 100.0
    m_db_runtime_strawman: float = 114.0
    m_db_runtime_teemate: float = 207.0
    # Warm-pool policy.
    warm_keepalive_s: float = 30.0

    @property
    def instance_pages(self) -> int:
        return round(self.m_teemate_per_instance / self.page_mib)

    @property
    def t_epc_expand(self) -> float:
        """Time to allocate the EPC pages of one function instance."""
        return self.instance_pages * self.t_epc_alloc_per_page

    def exec_ms(self, workload: str) -> float:
        try:
            return self.t_exec[workload]
        except KeyError:
            raise errors.UnknownKey(f"no exec time for workload {workload!r}")

    def validate(self) -> None:
        for name in ("t_container_create", "t_enclave_create", "t_alias",
                     "t_tcs_op", "t_epc_alloc_per_page",
                     "t_instance_load_cold", "t_instance_load_teemate",
                     "m_strawman_per_request", "m_teemate_base",
                     "m_teemate_per_instance", "page_mib",
                     "t_fork_copy_per_mib", "t_fork_child_setup", "t_db_exec",
                     "snapshot_write_mib_per_s"):
            if getattr(self, name) <= 0:
                raise errors.InvariantViolation(f"{name} must be positive")
        if self.t_cow_copy < 0:
            # A negative copy cost could stop the copy-on-write window's
            # clock while it copies pages.
            raise errors.InvariantViolation("t_cow_copy must be >= 0")
        if not 2.32 <= self.t_alias <= 3.01:
            raise errors.InvariantViolation(
                "t_alias outside the calibrated 2.32-3.01 ms band")
        for workload, value in self.t_exec.items():
            if value <= 0:
                raise errors.InvariantViolation(
                    f"exec time for {workload!r} must be positive")
        # Finite values whose derived costs overflow are a config error.
        pages = self.m_teemate_per_instance / self.page_mib
        if not math.isfinite(pages):
            raise errors.ConfigError(
                f"m_teemate_per_instance / page_mib = {pages} pages")
        if not math.isfinite(self.t_epc_expand):
            raise errors.ConfigError(f"t_epc_expand = {self.t_epc_expand} ms")


def default_params() -> CostParams:
    params = CostParams()
    # Fixed (non-exec) portion of a steady-state shared-enclave request.
    expand = params.t_epc_expand
    fixed = params.t_alias + params.t_tcs_op + expand + \
        params.t_instance_load_teemate
    # Exec times pinned so the expand share of the end-to-end latency spans
    # exactly 45.6% (fastest workload) down to 27.4% (slowest workload).
    exec_fast = expand / 0.456 - fixed
    exec_slow = expand / 0.274 - fixed
    params.t_exec = {
        "dynamic-html": exec_fast,
        "validate-input": 560.0,
        "binary-search": 620.0,
        "partial-sums": 700.0,
        "crypto-md5": 800.0,
        "crypto-aes": 900.0,
        "sleep": 1000.0,
        "uploader": 1200.0,
        "regexp-dna": exec_slow,
    }
    params.validate()
    return params


_UNSUMMABLE = ": the config's memory figures cannot be summed in floating point"


class CostLedger:
    """Per-experiment record of latency components and an EPC occupancy
    timeline (peak tracked as the max prefix of the deltas)."""

    def __init__(self):
        self.breakdowns: Dict[object, Dict[str, float]] = {}
        self.timeline: List[Tuple[float, float]] = []
        self.occupancy = 0.0
        self.peak_epc = 0.0

    def charge(self, component: str, duration_ms: float,
               request_id: object = None) -> None:
        if duration_ms < 0:
            raise errors.NegativeDuration(
                f"{component}: {duration_ms} ms")
        record = self.breakdowns.setdefault(request_id, {})
        record[component] = record.get(component, 0.0) + duration_ms

    def occupy(self, time_ms: float, delta_mib: float) -> None:
        new_level = self.occupancy + delta_mib
        if new_level < -1e-9:
            message = f"occupancy would drop to {new_level} MiB"
            if -new_level <= self._rounding_slack():
                raise errors.ConfigError(f"{message}{_UNSUMMABLE}")
            raise errors.NegativeOccupancy(message)
        self.occupancy = 0.0 if new_level < 0.0 else new_level
        self.timeline.append((time_ms, self.occupancy))
        if self.occupancy > self.peak_epc:
            self.peak_epc = self.occupancy

    def _rounding_slack(self) -> float:
        """Bound on the rounding in the occupancy level: each ``occupy``
        rounds the level it writes by at most half an ulp of the peak."""
        return len(self.timeline) * math.ulp(self.peak_epc)

    def check_returned(self, baseline_mib: float) -> None:
        """Raise unless the occupancy is back at ``baseline_mib``.

        A gap within the rounding slack comes from memory figures too far
        apart in magnitude to add exactly (an overflow to ``inf``, or a
        base absorbed by a huge figure), so it is a config error; a larger
        gap is a leak.
        """
        gap = abs(self.occupancy - baseline_mib)
        if gap <= 1e-6:
            return
        message = (f"occupancy {self.occupancy} MiB did not return to "
                   f"baseline {baseline_mib} MiB")
        if gap <= self._rounding_slack():
            raise errors.ConfigError(f"{message}{_UNSUMMABLE}")
        raise errors.InvariantViolation(message)

    def request_total(self, request_id: object = None) -> float:
        return sum(self.breakdowns.get(request_id, {}).values())

    def peak_between(self, t0: float, t1: float) -> float:
        """Max occupancy over [t0, t1], including the level carried in."""
        peak = 0.0
        carry = 0.0
        for t, occ in self.timeline:
            if t <= t0:
                carry = occ
            elif t <= t1:
                peak = max(peak, occ)
        return max(peak, carry)


def percentile(values: List[float], q: float) -> float:
    """The element at index ``round(q / 100 * (n - 1))`` of a sorted copy,
    q in [0, 100]; ``round`` halves to even. Not nearest-rank: p99 of
    1..64 is 63 and p50 of 1..100 is 51."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]
