"""In-enclave runtime: sandboxed function instances, an in-memory file
system with per-process integrity checks, and copy-on-write fork support
for the database scenario.

The sandbox is a bounds-checked region model (the isolation *contract*,
not an instruction-level SFI). Copy-on-write privatizes pages on the
writer side only; the other side keeps reading the original page.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from . import errors
from .host_kernel import Container, Kernel, TcsTable
from .sgx_core import (
    Access,
    Enclave,
    EnclaveThread,
    Machine,
    PAGE_SIZE,
    PageType,
    PhysicalPage,
    TcsState,
    content_digest,
    enclave_mode,
)

# Virtual page-number layout (page granular, fixed for replay determinism).
TCS_BASE = 0x100
RUNTIME_BASE = 0x1000
INSTANCE_BASE = 0x10000
DB_BASE = 0x400000
COPY_BASE = 0x800000


class InstanceState(enum.Enum):
    LOADED = "loaded"
    DONE = "done"


@dataclass
class FunctionInstance:
    instance_id: int
    owner_pid: int
    region: Tuple[int, int]  # (base va, length in pages)
    epc_pages: List[int] = field(default_factory=list)
    state: InstanceState = InstanceState.LOADED

    def contains(self, va: int) -> bool:
        base, length = self.region
        return base <= va < base + length


@dataclass
class FileRow:
    owner_instance: int
    content: bytearray
    digest: bytes


@dataclass
class ForkPair:
    parent_pid: int
    child_pid: int
    shared_pages: Set[int]
    private_copies: Dict[Tuple[int, int], int] = field(default_factory=dict)
    dirty_count: int = 0
    live: bool = True


class EnclaveRuntime:
    """One shared enclave plus the software that manages sharing inside it."""

    def __init__(self, machine: Machine, kernel: Kernel, enclave_id: int = 1,
                 fs_root: str = "/app"):
        self.machine = machine
        self.kernel = kernel
        self.creator: Container = kernel.create_container(fs_root)
        self.enclave: Enclave = machine.ecreate(enclave_id)
        self._mode = enclave_mode(enclave_id)
        self.tcs_table: Optional[TcsTable] = None
        self.threads: Dict[int, Tuple[EnclaveThread, int]] = {}
        self.instances: Dict[int, FunctionInstance] = {}
        self.files: Dict[str, FileRow] = {}
        self.runtime_pages = 0
        self.db_pages = 0
        self._next_instance_id = 1
        self._free_regions: List[Tuple[int, int]] = []
        self._instance_bump = INSTANCE_BASE
        self._next_copy_va = COPY_BASE
        # Every va the runtime treats as enclave-private; accesses resolving
        # to unprotected pages here are sandbox violations.
        self.private_vas: Set[int] = set()

    # -- setup --------------------------------------------------------------

    def _eadd_mapped(self, container: Container, va: int, content: bytes,
                     page_type: PageType = PageType.REGULAR) -> int:
        pa, _ = self.machine.eadd(self.enclave, va, content, page_type)
        container.address_space.map(va, pa)
        self.private_vas.add(va)
        return pa

    def runtime_init(self, runtime_pages: int, tcs_count: int = 8,
                     image_byte: int = 0x52) -> int:
        """Measure and launch the shared enclave: runtime image + TCS pages."""
        filler = bytes([image_byte]) * PAGE_SIZE
        for i in range(runtime_pages):
            self._eadd_mapped(self.creator, RUNTIME_BASE + i, filler)
        for i in range(tcs_count):
            self._eadd_mapped(self.creator, TCS_BASE + i, b"", PageType.TCS)
        measurement = self.machine.einit(self.enclave)
        self.tcs_table = self.kernel.build_tcs_table(self.enclave)
        self.runtime_pages = runtime_pages
        return measurement

    # -- enclave threads ----------------------------------------------------

    def enter(self, pid: int) -> EnclaveThread:
        container = self.kernel.containers[pid]
        tcs_va = self.kernel.tcs_acquire(self.tcs_table, pid)
        thread = self.machine.eenter(container.address_space, tcs_va)
        self.threads[pid] = (thread, tcs_va)
        return thread

    def exit(self, pid: int) -> None:
        thread, tcs_va = self.threads[pid]
        self.machine.eexit(thread)
        del self.threads[pid]
        self.kernel.tcs_release(self.tcs_table, tcs_va)

    def suspend(self, pid: int) -> None:
        """AEX: the context is saved in the TCS, which stays held."""
        thread, _ = self.threads[pid]
        self.machine.aex(thread)

    def resume(self, pid: int) -> EnclaveThread:
        _, tcs_va = self.threads[pid]
        space = self.kernel.containers[pid].address_space
        thread = self.machine.eresume(space, tcs_va)
        self.threads[pid] = (thread, tcs_va)
        return thread

    def attach_container(self, container: Container) -> None:
        """Alias the enclave's current pages into another container."""
        record = self.kernel.record_enclave_mappings(self.enclave)
        self.kernel.alias_enclave(container, record)

    # -- enclave memory -----------------------------------------------------

    def _resolve(self, pid: int, va: int, access: Access) -> PhysicalPage:
        """Translate in enclave mode, then apply the sandbox check: the
        hardware lets enclave code touch unprotected pages, so an
        enclave-private va resolving to one is an isolation fault."""
        space = self.kernel.containers[pid].address_space
        page = self.machine.pages[
            self.machine.translate_access(space, va, access, self._mode)]
        if va in self.private_vas and not page.is_epc:
            raise errors.IsolationFault(
                f"enclave-private va {va:#x} backed by unprotected page")
        return page

    def read(self, pid: int, va: int) -> bytes:
        return bytes(self._resolve(pid, va, Access.READ).content)

    def write(self, pid: int, va: int, data: bytes, offset: int = 0) -> None:
        page = self._resolve(pid, va, Access.WRITE)
        if offset + len(data) > PAGE_SIZE:
            raise ValueError("write crosses page boundary")
        page.content[offset:offset + len(data)] = data

    def check_invariants(self) -> None:
        """EPC conservation, at most one live thread per TCS, and the
        kernel's TCS table agreeing with the hardware BUSY state."""
        self.machine.check_epc_conservation()
        live = [tcs_va for thread, tcs_va in self.threads.values()
                if thread.live]
        if len(live) != len(set(live)):
            raise errors.InvariantViolation(
                "a TCS is bound to more than one live thread")
        for row in self.tcs_table.rows:
            busy = self.enclave.tcs_for(row.tcs_va).state is TcsState.BUSY
            if (row.holder is not None) != busy:
                raise errors.InvariantViolation(
                    f"tcs {row.tcs_va:#x}: kernel holder {row.holder}, "
                    f"hardware busy {busy}")

    # -- function instances -------------------------------------------------

    def _reserve_region(self, length: int) -> int:
        for i, (base, free_len) in enumerate(self._free_regions):
            if free_len >= length:
                if free_len == length:
                    self._free_regions.pop(i)
                else:
                    self._free_regions[i] = (base + length, free_len - length)
                return base
        base = self._instance_bump
        if base + length > DB_BASE:
            raise errors.RegionExhausted("instance address space exhausted")
        self._instance_bump = base + length
        return base

    def instance_create(self, owner_pid: int, code_size_pages: int,
                        code_byte: int = 0x7F) -> FunctionInstance:
        if not self.enclave.initialized:
            raise errors.EnclaveNotInitialized("runtime not initialized")
        base = self._reserve_region(code_size_pages)
        owner = self.kernel.containers[owner_pid]
        instance = FunctionInstance(self._next_instance_id, owner_pid,
                                    (base, code_size_pages))
        self._next_instance_id += 1
        filler = bytes([code_byte]) * PAGE_SIZE
        try:
            for i in range(code_size_pages):
                instance.epc_pages.append(base + i)
                self._eadd_mapped(owner, base + i, filler)
        except errors.OutOfEpc:
            for va in instance.epc_pages:
                if va in self.enclave.pages:
                    self.machine.eremove(self.enclave, va)
                owner.address_space.unmap(va)
                self.private_vas.discard(va)
            self._free_regions.append((base, code_size_pages))
            self._free_regions.sort()
            raise
        self.instances[instance.instance_id] = instance
        return instance

    def instance_access(self, instance: FunctionInstance, va: int,
                        access: Access, data: bytes = b"") -> bytes:
        if instance.state is InstanceState.DONE:
            raise errors.IsolationFault("instance already finished")
        in_region = instance.contains(va)
        in_runtime = RUNTIME_BASE <= va < RUNTIME_BASE + self.runtime_pages
        if not in_region:
            if not (in_runtime and access is Access.READ):
                raise errors.IsolationFault(
                    f"instance {instance.instance_id} denied {access.value} "
                    f"at va {va:#x}")
        if access is Access.WRITE:
            self.write(instance.owner_pid, va, data)
            return b""
        return self.read(instance.owner_pid, va)

    def instance_destroy(self, instance: FunctionInstance) -> None:
        if instance.state is not InstanceState.DONE:
            raise errors.NotDone(
                f"instance {instance.instance_id} is {instance.state.value}")
        owner = self.kernel.containers[instance.owner_pid]
        for va in instance.epc_pages:
            self.machine.eremove(self.enclave, va)
            owner.address_space.unmap(va)
            self.private_vas.discard(va)
        self._free_regions.append(instance.region)
        self._free_regions.sort()
        del self.instances[instance.instance_id]

    # -- in-memory file system ----------------------------------------------

    def _instance_of(self, pid: int) -> FunctionInstance:
        for instance in self.instances.values():
            if instance.owner_pid == pid:
                return instance
        raise errors.FsNotOwner(f"pid {pid} has no live instance")

    def fs_create(self, instance: FunctionInstance, name: str,
                  content: bytes) -> None:
        if name in self.files:
            raise errors.FsFault(f"file {name!r} already exists")
        row = FileRow(instance.instance_id, bytearray(content),
                      content_digest([content]))
        self.files[name] = row
        owner = self.kernel.containers[instance.owner_pid]
        self.kernel.hostfs.put(owner.fs_root, name, content)

    def fs_open(self, pid: int, name: str) -> bytes:
        """Open with an in-enclave integrity check against the caller's
        current namespace view; a swapped environment with divergent
        content is caught here."""
        row = self._owned_row(pid, name)
        outside = self.kernel.hostfs.get(
            self.kernel.containers[pid].fs_root, name)
        if outside is None or content_digest([outside]) != row.digest:
            raise errors.FsIntegrityMismatch(
                f"file {name!r} diverged in caller's namespace")
        return bytes(row.content)

    def fs_write(self, pid: int, name: str, content: bytes) -> None:
        row = self._owned_row(pid, name)
        row.content = bytearray(content)
        row.digest = content_digest([content])
        owner = self.kernel.containers[pid]
        self.kernel.hostfs.put(owner.fs_root, name, content)

    def _owned_row(self, pid: int, name: str) -> FileRow:
        row = self.files.get(name)
        if row is None:
            raise errors.FsNotFound(name)
        caller = self._instance_of(pid)
        if row.owner_instance != caller.instance_id:
            raise errors.FsNotOwner(f"pid {pid} does not own file {name!r}")
        return row

    # -- database extent and copy-on-write fork ------------------------------

    def load_db(self, n_pages: int, fill=None) -> None:
        """Allocate the database extent (post-init, unmeasured pages)."""
        for i in range(n_pages):
            if fill is None:
                content = (DB_BASE + i).to_bytes(8, "little")
            else:
                content = fill(i)
            self._eadd_mapped(self.creator, DB_BASE + i, content)
        self.db_pages = n_pages

    def db_vas(self) -> List[int]:
        return [DB_BASE + i for i in range(self.db_pages)]

    def fork_cow(self, parent_pid: int) -> ForkPair:
        """Fork by aliasing: the child gets the same enclave, a fresh TCS
        and a page table equal to the parent's view; nothing is copied."""
        thread, _ = self.threads[parent_pid]
        if not thread.live:
            raise errors.SimError("parent holds no live enclave thread")
        if not self.tcs_table.free_rows():
            raise errors.NoFreeTcs("no TCS available for the child")
        parent = self.kernel.containers[parent_pid]
        child = self.kernel.create_container(parent.fs_root)
        self.attach_container(child)
        self.enter(child.pid)
        return ForkPair(parent_pid, child.pid, shared_pages=set(self.db_vas()))

    def cow_write(self, pair: ForkPair, writer_pid: int, va: int,
                  value: bytes, offset: int = 0) -> None:
        if not (DB_BASE <= va < DB_BASE + self.db_pages):
            raise errors.IsolationFault(f"va {va:#x} outside the db extent")
        target = pair.private_copies.get((writer_pid, va))
        if target is None and va in pair.shared_pages:
            # First write since fork: privatize on the writer side only.
            original = self.read(writer_pid, va)
            copy_va = self._next_copy_va
            self._next_copy_va += 1
            self._eadd_mapped(self.kernel.containers[writer_pid], copy_va,
                              original)
            pair.private_copies[(writer_pid, va)] = copy_va
            pair.shared_pages.discard(va)
            pair.dirty_count += 1
            target = copy_va
        if target is None:
            target = va  # other side privatized already; write the original
        self.write(writer_pid, target, value, offset)

    def cow_read(self, pair: ForkPair, pid: int, va: int) -> bytes:
        return self.read(pid, pair.private_copies.get((pid, va), va))

    def snapshot(self, pair: ForkPair, child_pid: int) -> bytes:
        """Digest the child's view of the full db extent, then retire the
        child: its TCS is released, every private copy is freed and its
        container is destroyed."""
        digest = content_digest(self.cow_read(pair, child_pid, va)
                                for va in self.db_vas())
        self.exit(child_pid)
        for (pid, va), copy_va in sorted(pair.private_copies.items()):
            holder = self.kernel.containers[pid]
            if pid != child_pid:
                # Fold the surviving side's writes back onto the original
                # page so occupancy returns exactly to the pre-fork level.
                original_pa = self.enclave.pages[va]
                copy_pa = self.enclave.pages[copy_va]
                self.machine.pages[original_pa].content[:] = \
                    self.machine.pages[copy_pa].content
            self.machine.eremove(self.enclave, copy_va)
            holder.address_space.unmap(copy_va)
            self.private_vas.discard(copy_va)
        pair.private_copies.clear()
        pair.shared_pages = set(self.db_vas())
        pair.live = False
        self.kernel.destroy_container(child_pid)
        return digest
