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
from typing import Dict

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


class CostParams:
    def __init__(self):
        # Serverless-side latency components.
        self.t_container_create = 585.0
        self.t_enclave_create = 10000.0
        self.t_alias = 2.7
        self.t_tcs_op = 0.1
        self.t_epc_alloc_per_page = 0.115625
        self.t_instance_load_cold = 200.0
        self.t_instance_load_teemate = 400.0
        self.t_exec: Dict[str, float] = {}
        self.epc_alloc_serialized = True
        # Memory figures.
        self.m_strawman_per_request = 114.0
        self.m_teemate_base = 207.0
        self.m_teemate_per_instance = 25.0
        self.page_mib = PAGE_MIB
        # Database scenario.
        self.t_fork_copy_per_mib = 20.0
        self.t_fork_child_setup = 22.2
        self.t_db_exec = 0.5
        self.t_cow_copy = 0.05
        self.snapshot_write_mib_per_s = 100.0
        self.m_db_runtime_strawman = 114.0
        self.m_db_runtime_teemate = 207.0
        # Warm-pool policy.
        self.warm_keepalive_s = 30.0

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
        # Each check is written ``not value > 0`` (or ``>= 0``): NaN fails
        # every comparison, so it must fail the check too.
        for name in ("t_container_create", "t_enclave_create", "t_alias",
                     "t_tcs_op", "t_epc_alloc_per_page",
                     "t_instance_load_cold", "t_instance_load_teemate",
                     "m_strawman_per_request", "m_teemate_base",
                     "m_teemate_per_instance", "page_mib",
                     "t_fork_copy_per_mib", "t_fork_child_setup", "t_db_exec",
                     "snapshot_write_mib_per_s"):
            if not getattr(self, name) > 0:
                raise errors.InvariantViolation(f"{name} must be positive")
        if not self.t_cow_copy >= 0:
            # A negative copy cost could stop the copy-on-write window's
            # clock while it copies pages.
            raise errors.InvariantViolation("t_cow_copy must be >= 0")
        # A negative runtime footprint would hide part of the database's
        # occupancy from the peak.
        for name in ("m_db_runtime_strawman", "m_db_runtime_teemate",
                     "warm_keepalive_s"):
            if not getattr(self, name) >= 0:
                raise errors.InvariantViolation(f"{name} must be >= 0")
        if not 2.32 <= self.t_alias <= 3.01:
            raise errors.InvariantViolation(
                "t_alias outside the calibrated 2.32-3.01 ms band")
        for workload, value in self.t_exec.items():
            if not value > 0:
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
    """The database run's record of its fork's latency components and of
    its EPC occupancy as an int count of held units of one figure:
    ``count`` and its ``peak``. A serverless run counts its units from its
    busy workers and keeps no ledger."""

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
        """``occupancy_mib`` of the peak, once every unit is back."""
        if self.count:
            raise errors.InvariantViolation(f"{self.count} units not returned")
        return occupancy_mib(base_mib, self.peak, unit_mib)


def occupancy_mib(base_mib: float, units: int, unit_mib: float) -> float:
    """``base_mib + units * unit_mib``; a config error if the figures
    cannot be summed in a float."""
    mib = base_mib + units * unit_mib
    if not math.isfinite(mib):
        raise errors.ConfigError(f"peak occupancy is {mib} MiB")
    if units and mib == base_mib:
        raise errors.ConfigError(
            f"{unit_mib} MiB units round away against {base_mib} MiB")
    return mib

