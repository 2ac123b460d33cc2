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

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Dict, Iterable, List

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
        # A negative runtime footprint would hide part of the database's
        # occupancy from the peak.
        for name in ("m_db_runtime_strawman", "m_db_runtime_teemate",
                     "warm_keepalive_s"):
            if getattr(self, name) < 0:
                raise errors.InvariantViolation(f"{name} must be >= 0")
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


class CostLedger:
    """Per-experiment record of latency components and of EPC occupancy
    as an int count of held units of one figure: ``count`` and its
    ``peak``."""

    def __init__(self):
        self.breakdowns: Dict[object, Dict[str, float]] = {}
        self.count = 0
        self.peak = 0

    def charge(self, component: str, duration_ms: float,
               request_id: object) -> None:
        if duration_ms < 0:
            raise errors.NegativeDuration(
                f"{component}: {duration_ms} ms")
        record = self.breakdowns.setdefault(request_id, {})
        record[component] = record.get(component, 0.0) + duration_ms

    def occupy(self, units: int) -> None:
        self.count += units
        if self.count > self.peak:
            self.peak = self.count

    def peak_mib(self, base_mib: float, unit_mib: float) -> float:
        """``base_mib + peak * unit_mib``, once every unit is back; a
        config error if the figures cannot be summed in a float."""
        if self.count:
            raise errors.InvariantViolation(f"{self.count} units not returned")
        peak_mib = base_mib + self.peak * unit_mib
        if not math.isfinite(peak_mib):
            raise errors.ConfigError(f"peak occupancy is {peak_mib} MiB")
        if self.peak and peak_mib == base_mib:
            raise errors.ConfigError(
                f"{unit_mib} MiB units round away against {base_mib} MiB")
        return peak_mib


def sum_in_order(values: Iterable[float]) -> float:
    """The float sum of ``values`` added left to right from 0.0, which is
    what builtin ``sum`` gave before Python 3.12; from 3.12 it compensates
    for rounding, so its last bit can differ."""
    return functools.reduce(operator.add, values, 0.0)


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
