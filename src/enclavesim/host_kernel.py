"""Untrusted kernel model: containers, enclave-sharing bookkeeping
(mapping records, aliasing, TCS table) and adversary operations.

A container's page table is a plain ``{va: pa}`` dict, and a TCS table is
a ``{tcs va: holder pid or None}`` dict in EADD order. The kernel is a
passive state bag driven by the simulation; it is omnipotent over page
tables but never over EPCM state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from . import errors
from .sgx_core import Enclave, Machine


@dataclass
class Container:
    pid: int
    page_table: Dict[int, int]  # va -> pa
    fs_root: str


@dataclass(frozen=True)
class MappingRecord:
    """Immutable snapshot of an enclave's (va, pa) pairs at record time.

    Pages added after the snapshot are not included; callers re-record
    explicitly when they need them aliased.
    """

    entries: Tuple[Tuple[int, int], ...]


class HostFilesystem:
    """Per-namespace view of host-side files, fully attacker controlled."""

    def __init__(self):
        self.roots: Dict[str, Dict[str, bytes]] = {}

    def put(self, fs_root: str, name: str, content: bytes) -> None:
        self.roots.setdefault(fs_root, {})[name] = bytes(content)

    def get(self, fs_root: str, name: str) -> Optional[bytes]:
        return self.roots.get(fs_root, {}).get(name)


class Kernel:
    def __init__(self, machine: Machine):
        self.machine = machine
        self.containers: Dict[int, Container] = {}
        self.hostfs = HostFilesystem()
        self._next_pid = 1

    # -- containers ---------------------------------------------------------

    def create_container(self, fs_root: str) -> Container:
        container = Container(self._next_pid, {}, fs_root)
        self._next_pid += 1
        self.containers[container.pid] = container
        return container

    def destroy_container(self, pid: int) -> None:
        """Drop a container and its page table; enclave pages it aliased
        stay with their owner."""
        del self.containers[pid]

    # -- enclave sharing ----------------------------------------------------

    def record_enclave_mappings(self, enclave: Enclave) -> MappingRecord:
        if not enclave.initialized:
            raise errors.EnclaveNotInitialized(
                f"enclave {enclave.enclave_id} not initialized")
        # EADD order: deterministic, and alias_enclave needs no va order.
        entries = tuple(enclave.pages.items())
        return MappingRecord(entries)

    def alias_enclave(self, target: Container, record: MappingRecord) -> None:
        """Insert the recorded mappings into the target's page table so it
        resolves every recorded va to the same physical page as the origin."""
        table = target.page_table
        mappings = dict(record.entries)
        for va in sorted(table.keys() & mappings.keys()):
            if table[va] != mappings[va]:
                raise errors.VaConflict(
                    f"container {target.pid} already maps va {va:#x}")
        table.update(mappings)

    # -- TCS bookkeeping ----------------------------------------------------

    def tcs_acquire(self, table: Dict[int, Optional[int]], pid: int) -> int:
        # The first free TCS in EADD order wins so replays are deterministic.
        for tcs_va, holder in table.items():
            if holder is None:
                table[tcs_va] = pid
                return tcs_va
        raise errors.NoFreeTcs("all TCS pages are held")

    def tcs_release(self, table: Dict[int, Optional[int]],
                    tcs_va: int) -> None:
        if tcs_va not in table:
            raise errors.NotHeld(f"tcs {tcs_va:#x} not present in table")
        if table[tcs_va] is None:
            raise errors.NotHeld(f"tcs {tcs_va:#x} is not held")
        table[tcs_va] = None

    # -- adversary operations ------------------------------------------------

    def adversary_remap(self, page_table: Dict[int, int], va: int,
                        wrong_pa: int) -> None:
        """Unconstrained page-table mutation (page remapping attack)."""
        page_table[va] = wrong_pa

    def adversary_swap_environment(self, pid: int, wrong_fs_root: str) -> None:
        """Run the victim's next enclave entry under a different namespace."""
        self.containers[pid].fs_root = wrong_fs_root
