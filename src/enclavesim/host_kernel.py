"""Untrusted kernel model: containers, enclave-sharing bookkeeping
(mapping records, aliasing, TCS table) and adversary operations.

The kernel is a passive state bag driven by the simulation; it is
omnipotent over page tables but never over EPCM state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import errors
from .sgx_core import AddressSpace, Enclave, Machine


@dataclass
class Container:
    pid: int
    address_space: AddressSpace
    fs_root: str


@dataclass(frozen=True)
class MappingRecord:
    """Immutable snapshot of an enclave's (va, pa) pairs at record time.

    Pages added after the snapshot are not included; callers re-record
    explicitly when they need them aliased.
    """

    enclave_id: int
    entries: Tuple[Tuple[int, int], ...]


@dataclass
class TcsRow:
    tcs_va: int
    holder: Optional[int] = None


@dataclass
class TcsTable:
    rows: List[TcsRow] = field(default_factory=list)

    def free_rows(self) -> List[TcsRow]:
        return [r for r in self.rows if r.holder is None]


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
        container = Container(self._next_pid, AddressSpace(), fs_root)
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
        entries = tuple(sorted(enclave.pages.items()))
        return MappingRecord(enclave.enclave_id, entries)

    def alias_enclave(self, target: Container, record: MappingRecord) -> None:
        """Insert the recorded mappings into the target's page table so it
        resolves every recorded va to the same physical page as the origin."""
        table = target.address_space.page_table
        for va, pa in record.entries:
            if va in table and table[va] != pa:
                raise errors.VaConflict(
                    f"container {target.pid} already maps va {va:#x}")
        for va, pa in record.entries:
            table[va] = pa

    # -- TCS bookkeeping ----------------------------------------------------

    def build_tcs_table(self, enclave: Enclave) -> TcsTable:
        return TcsTable([TcsRow(t.tcs_va) for t in enclave.tcs_table])

    def tcs_acquire(self, table: TcsTable, pid: int) -> int:
        # Lowest free index wins so replays are deterministic.
        for row in table.rows:
            if row.holder is None:
                row.holder = pid
                return row.tcs_va
        raise errors.NoFreeTcs("all TCS pages are held")

    def tcs_release(self, table: TcsTable, tcs_va: int) -> None:
        for row in table.rows:
            if row.tcs_va == tcs_va:
                if row.holder is None:
                    raise errors.NotHeld(f"tcs {tcs_va:#x} is not held")
                row.holder = None
                return
        raise errors.NotHeld(f"tcs {tcs_va:#x} not present in table")

    # -- adversary operations ------------------------------------------------

    def adversary_remap(self, space: AddressSpace, va: int, wrong_pa: int) -> None:
        """Unconstrained page-table mutation (page remapping attack)."""
        space.page_table[va] = wrong_pa

    def adversary_swap_environment(self, pid: int, wrong_fs_root: str) -> None:
        """Run the victim's next enclave entry under a different namespace."""
        self.containers[pid].fs_root = wrong_fs_root
