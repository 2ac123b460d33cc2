"""Untrusted kernel model: containers, host files and enclave-sharing
bookkeeping (mapping records, aliasing, TCS table).

A container's page table is a plain ``{va: pa}`` dict, a TCS table is a
``{tcs va: holder pid or None}`` dict in EADD order, and the host files
are one ``{(namespace root, name): content}`` dict. The kernel is a
passive state bag driven by the simulation; it is omnipotent over page
tables, namespace roots and host files, which an adversary writes
directly, but never over EPCM state.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from . import errors
from .sgx_core import Enclave, Machine


class Container:
    __slots__ = ("pid", "page_table", "fs_root")

    def __init__(self, pid: int, page_table: Dict[int, int], fs_root: str):
        self.pid, self.page_table, self.fs_root = pid, page_table, fs_root


class MappingRecord(NamedTuple):
    """A copy of an enclave's ``{va: pa}`` page map taken at record time.

    Pages added after the copy are not included; callers re-record
    explicitly when they need them aliased. The map is a plain dict, so
    ``alias_enclave`` merges it with one ``update``; nothing writes it.
    """

    entries: Dict[int, int]


class Kernel:
    def __init__(self, machine: Machine):
        self.machine = machine
        self.containers: Dict[int, Container] = {}
        # Host-side files, fully attacker controlled.
        self.hostfs: Dict[Tuple[str, str], bytes] = {}
        self._next_pid = 1

    # -- containers ---------------------------------------------------------

    def create_container(self, fs_root: str) -> Container:
        container = Container(self._next_pid, {}, fs_root)
        self._next_pid += 1
        self.containers[container.pid] = container
        return container

    # -- enclave sharing ----------------------------------------------------

    def record_enclave_mappings(self, enclave: Enclave) -> MappingRecord:
        if not enclave.initialized:
            raise errors.EnclaveNotInitialized(
                f"enclave {enclave.enclave_id} not initialized")
        # EADD order: deterministic, and alias_enclave needs no va order.
        return MappingRecord(dict(enclave.pages))

    def alias_enclave(self, target: Container, record: MappingRecord) -> None:
        """Insert the recorded mappings into the target's page table so it
        resolves every recorded va to the same physical page as the origin."""
        table = target.page_table
        mappings = record.entries
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
