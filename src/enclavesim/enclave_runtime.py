"""In-enclave runtime: sandboxed function instances, an in-memory file
system with per-process integrity checks, and copy-on-write fork support
for the database scenario.

The sandbox is a bounds-checked region model (the isolation *contract*,
not an instruction-level SFI). A va is enclave-private if and only if the
enclave maps it: every page the runtime EADDs is mapped through
``_eadd_mapped`` into a container's page table (a plain ``{va: pa}``
dict), and every page it EREMOVEs is unmapped with it or goes with the
container that mapped it. Every access translates through
``Machine.translate_access`` as the shared enclave, so a TCS page refuses
``read`` and ``write``; only ``enter`` and ``resume`` use it. An instance
is live while ``EnclaveRuntime.instances`` holds it. A copy-on-write fork
keeps its copies in the child's view only: the parent writes the original
pages in place, so retiring the child folds nothing back.
"""

from __future__ import annotations

import enum
from typing import Dict, List, NamedTuple, Optional, Tuple

from . import errors
from .host_kernel import Container, Kernel
from .sgx_core import (
    Enclave,
    EnclaveThread,
    Machine,
    PAGE_SIZE,
    PageType,
    PhysicalPage,
    check_span,
    content_digest,
)

# Virtual page-number layout (page granular, fixed for replay determinism).
TCS_BASE = 0x100
RUNTIME_BASE = 0x1000
INSTANCE_BASE = 0x10000
DB_BASE = 0x400000
COPY_BASE = 0x800000

_IMAGE_PAGE = bytes([0x52]) * PAGE_SIZE
_CODE_PAGE = bytes([0x7F]) * PAGE_SIZE


class Access(enum.Enum):
    """What a function instance asks of a va (``instance_access``)."""

    READ = "read"
    WRITE = "write"


class FunctionInstance(NamedTuple):
    instance_id: int
    owner_pid: int
    region: Tuple[int, int]  # (base va, length in pages)

    def vas(self) -> range:
        base, length = self.region
        return range(base, base + length)


class FileRow:
    """A file of the in-memory file system. Its owner instance is live:
    ``instance_destroy`` drops the rows of the instance it destroys."""
    __slots__ = ("owner_instance", "content", "digest")

    def __init__(self, owner_instance: int, content: bytearray,
                 digest: bytes):
        self.owner_instance, self.content, self.digest = (
            owner_instance, content, digest)


class ForkPair:
    """A live copy-on-write fork. ``page_tables`` holds the members' page
    tables by pid, the parent's and the child's only. ``copies`` maps a db
    va to its copy va, and every copy belongs to the child's view: the
    parent reads and writes the original pages, the child its copy where
    it has one and the original otherwise. A db page is shared while it
    has no copy. ``dirty_count`` counts the copies. The pair is live while
    it holds page tables: retiring it empties both maps, so no pid has a
    view of it."""
    __slots__ = ("parent_pid", "child_pid", "page_tables", "copies",
                 "dirty_count")

    def __init__(self, parent_pid: int, child_pid: int,
                 page_tables: Dict[int, Dict[int, int]]):
        self.parent_pid, self.child_pid = parent_pid, child_pid
        self.page_tables, self.dirty_count = page_tables, 0
        self.copies: Dict[int, int] = {}


class EnclaveRuntime:
    """One shared enclave plus the software that manages sharing inside it."""

    def __init__(self, machine: Machine, kernel: Kernel,
                 fs_root: str = "/app"):
        self.machine = machine
        self.kernel = kernel
        self.creator: Container = kernel.create_container(fs_root)
        self.enclave: Enclave = machine.ecreate(1)
        self.enclave_id = 1
        # The kernel's TCS table, {tcs va: holder pid or None} in EADD
        # order, filled by ``runtime_init``.
        self.tcs_table: Dict[int, Optional[int]] = {}
        self.threads: Dict[int, EnclaveThread] = {}
        self.instances: Dict[int, FunctionInstance] = {}
        self.files: Dict[str, FileRow] = {}
        self.runtime_pages = 0
        self.db_pages = 0
        self._next_instance_id = 1
        self._free_regions: List[Tuple[int, int]] = []
        self._instance_bump = INSTANCE_BASE
        self._next_copy_va = COPY_BASE
        # Every pair shares the one database extent, so at most one is live.
        self.fork_pair: Optional[ForkPair] = None

    # -- setup --------------------------------------------------------------

    def _eadd_mapped(self, container: Container, va: int, content: bytes,
                     page_type: PageType = PageType.REGULAR) -> PhysicalPage:
        pa, page = self.machine.eadd(self.enclave, va, content, page_type)
        container.page_table[va] = pa
        return page

    def runtime_init(self, runtime_pages: int, tcs_count: int = 8) -> bytes:
        """Measure and launch the shared enclave: runtime image + TCS pages."""
        for i in range(runtime_pages):
            self._eadd_mapped(self.creator, RUNTIME_BASE + i, _IMAGE_PAGE)
        for i in range(tcs_count):
            self._eadd_mapped(self.creator, TCS_BASE + i, b"", PageType.TCS)
        measurement = self.machine.einit(self.enclave)
        self.tcs_table = dict.fromkeys(self.enclave.tcs_table)
        self.runtime_pages = runtime_pages
        return measurement

    # -- enclave threads ----------------------------------------------------

    def enter(self, pid: int) -> EnclaveThread:
        """Bind a free TCS to ``pid``. A pid holds at most one enclave
        thread, live or suspended, so a second entry is refused before any
        TCS is taken."""
        container = self.kernel.containers[pid]
        if pid in self.threads:
            raise errors.SimError(f"pid {pid} already holds an enclave "
                                  f"thread")
        tcs_va = self.kernel.tcs_acquire(self.tcs_table, pid)
        try:
            thread = self.machine.eenter(container.page_table, tcs_va)
        except BaseException:
            # The hardware refused the entry: the TCS must not stay held.
            self.kernel.tcs_release(self.tcs_table, tcs_va)
            raise
        self.threads[pid] = thread
        return thread

    def exit(self, pid: int) -> None:
        thread = self.threads[pid]
        self.machine.eexit(thread)
        del self.threads[pid]
        self.kernel.tcs_release(self.tcs_table, thread.tcs_va)

    def suspend(self, pid: int) -> None:
        """AEX: the context is saved in the TCS, which stays held."""
        self.machine.aex(self.threads[pid])

    def resume(self, pid: int) -> EnclaveThread:
        page_table = self.kernel.containers[pid].page_table
        thread = self.machine.eresume(page_table, self.threads[pid].tcs_va)
        self.threads[pid] = thread
        return thread

    def attach_container(self, container: Container) -> None:
        """Alias the enclave's current pages into another container."""
        record = self.kernel.record_enclave_mappings(self.enclave)
        self.kernel.alias_enclave(container, record)

    # -- enclave memory -----------------------------------------------------

    def _resolve(self, page_table: Dict[int, int], va: int) -> PhysicalPage:
        """Translate through ``page_table`` as the enclave, then apply the
        sandbox check: the hardware lets enclave code touch unprotected
        pages, so an enclave-private va resolving to one is an isolation
        fault. A va is enclave-private if and only if the enclave maps
        it."""
        page = self.machine.translate_access(page_table, va, self.enclave_id)
        if page.enclave_id is None and va in self.enclave.pages:
            raise errors.IsolationFault(
                f"enclave-private va {va:#x} backed by unprotected page")
        return page

    @staticmethod
    def _copy_fault(va: int) -> errors.IsolationFault:
        """``read`` and ``write`` refuse every va from ``COPY_BASE`` up. A
        fork copy belongs to one member of the live pair, yet a container
        attached while the pair is live maps it too; only ``cow_read`` and
        ``cow_write`` check that the caller is the member."""
        return errors.IsolationFault(
            f"va {va:#x} is a fork copy: reach it through the fork pair")

    def read(self, pid: int, va: int) -> bytes:
        if va >= COPY_BASE:
            raise self._copy_fault(va)
        page_table = self.kernel.containers[pid].page_table
        return bytes(self._resolve(page_table, va).content)

    def write(self, pid: int, va: int, data: bytes, offset: int = 0) -> None:
        if va >= COPY_BASE:
            raise self._copy_fault(va)
        page_table = self.kernel.containers[pid].page_table
        self._resolve(page_table, va).write(data, offset)

    def check_invariants(self) -> None:
        """The per-step check, O(TCS pages + threads) and independent of
        the enclave's size: EPC conservation from the machine's kept counts
        (``check_epc_counts``), at most one live thread per TCS, and each
        TCS of the kernel's table (none before ``runtime_init``) agreeing
        with the hardware BUSY state. The O(pages) recount is
        ``Machine.check_epc_conservation``, the audit the probes run once
        at the end of each schedule."""
        self.machine.check_epc_counts()
        live = set()
        for thread in self.threads.values():
            if thread.live:
                if thread.tcs_va in live:
                    raise errors.InvariantViolation(
                        "a TCS is bound to more than one live thread")
                live.add(thread.tcs_va)
        tcs_pages = self.enclave.tcs_table
        for tcs_va, holder in self.tcs_table.items():
            tcs = tcs_pages.get(tcs_va)
            if tcs is None:
                raise errors.InvariantViolation(
                    f"tcs {tcs_va:#x}: in the kernel's table, not in the "
                    f"hardware")
            if (holder is not None) != tcs.busy:
                raise errors.InvariantViolation(
                    f"tcs {tcs_va:#x}: kernel holder {holder}, hardware "
                    f"busy {tcs.busy}")

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

    def instance_create(self, owner_pid: int,
                        code_size_pages: int) -> FunctionInstance:
        if not self.enclave.initialized:
            raise errors.EnclaveNotInitialized("runtime not initialized")
        if not isinstance(code_size_pages, int) or code_size_pages < 1:
            # A negative or fractional size would move the bump pointer
            # back onto a live instance's region or between pages.
            raise ValueError(f"instance of {code_size_pages!r} pages")
        base = self._reserve_region(code_size_pages)
        owner = self.kernel.containers[owner_pid]
        instance = FunctionInstance(self._next_instance_id, owner_pid,
                                    (base, code_size_pages))
        self._next_instance_id += 1
        self.instances[instance.instance_id] = instance
        try:
            for va in instance.vas():
                self._eadd_mapped(owner, va, _CODE_PAGE)
        except BaseException:
            self.instance_destroy(instance)
            raise
        return instance

    def instance_access(self, instance: FunctionInstance, va: int,
                        access: Access, data: bytes = b"") -> bytes:
        self._check_live(instance)
        in_region = va in instance.vas()
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

    def _check_live(self, instance: FunctionInstance) -> None:
        """Refuse a destroyed instance's handle."""
        if instance.instance_id not in self.instances:
            raise errors.IsolationFault(
                f"instance {instance.instance_id} was destroyed")

    def instance_destroy(self, instance: FunctionInstance) -> None:
        """Free a live instance's pages, files and region; the region
        merges with the free regions it touches. Every enclave page in the
        region is removed, including one the instance did not add; a page
        missing from the enclave is one a failed ``instance_create`` never
        added."""
        instance_id = instance.instance_id
        if self.instances.pop(instance_id, None) is None:
            raise errors.IsolationFault(f"instance {instance_id} was destroyed")
        page_table = self.kernel.containers[instance.owner_pid].page_table
        for va in instance.vas():
            if va in self.enclave.pages:
                self.machine.eremove(self.enclave, va)
            page_table.pop(va, None)
        self.files = {name: row for name, row in self.files.items()
                      if row.owner_instance != instance_id}
        merged: List[Tuple[int, int]] = []
        for base, length in sorted(self._free_regions + [instance.region]):
            if merged and sum(merged[-1]) == base:
                merged[-1] = (merged[-1][0], merged[-1][1] + length)
            else:
                merged.append((base, length))
        self._free_regions = merged

    # -- in-memory file system ----------------------------------------------

    def fs_create(self, instance: FunctionInstance, name: str,
                  content: bytes) -> None:
        self._check_live(instance)
        if name in self.files:
            raise errors.FsFault(f"file {name!r} already exists")
        row = FileRow(instance.instance_id, bytearray(content),
                      content_digest([content]))
        self.files[name] = row
        owner = self.kernel.containers[instance.owner_pid]
        self.kernel.hostfs[owner.fs_root, name] = bytes(content)

    def fs_open(self, pid: int, name: str) -> bytes:
        """Open with an in-enclave integrity check against the caller's
        current namespace view; a swapped environment with divergent
        content is caught here."""
        row = self._owned_row(pid, name)
        outside = self.kernel.hostfs.get(
            (self.kernel.containers[pid].fs_root, name))
        if outside is None or content_digest([outside]) != row.digest:
            raise errors.FsIntegrityMismatch(
                f"file {name!r} diverged in caller's namespace")
        return bytes(row.content)

    def fs_write(self, pid: int, name: str, content: bytes) -> None:
        row = self._owned_row(pid, name)
        row.content = bytearray(content)
        row.digest = content_digest([content])
        owner = self.kernel.containers[pid]
        self.kernel.hostfs[owner.fs_root, name] = bytes(content)

    def _owned_row(self, pid: int, name: str) -> FileRow:
        row = self.files.get(name)
        if row is None:
            raise errors.FsNotFound(name)
        # A row's owner is live (``FileRow``).
        if self.instances[row.owner_instance].owner_pid != pid:
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
        return list(self._db_range())

    def _db_range(self) -> range:
        return range(DB_BASE, DB_BASE + self.db_pages)

    def fork_cow(self, parent_pid: int) -> ForkPair:
        """Fork by aliasing: the child gets the same enclave, a fresh TCS
        and a page table equal to the parent's view; nothing is copied.
        Every pair shares the one database extent, so a fork while a pair
        is live is refused (as Redis refuses a second background save). A
        refused fork leaves no child container."""
        if self.fork_pair is not None:
            raise errors.ForkInProgress(
                f"fork pair of child {self.fork_pair.child_pid} is live")
        if not (parent_pid in self.threads
                and self.threads[parent_pid].live):
            raise errors.SimError("parent holds no live enclave thread")
        parent = self.kernel.containers[parent_pid]
        child = self.kernel.create_container(parent.fs_root)
        try:
            self.attach_container(child)
            self.enter(child.pid)
        except BaseException:
            del self.kernel.containers[child.pid]
            raise
        pair = ForkPair(parent_pid, child.pid, {
            parent_pid: parent.page_table, child.pid: child.page_table})
        self.fork_pair = pair
        return pair

    @staticmethod
    def _no_view(pair: ForkPair, pid: int) -> errors.Fault:
        """The fault for a pid with no view of the pair: a retired pair
        (which keeps no page tables) first, then a pid in neither role."""
        if not pair.page_tables:
            return errors.PairRetired(f"fork pair of child {pair.child_pid} "
                                      f"is retired")
        return errors.NotForkMember(f"pid {pid} is not in the fork pair of "
                                    f"child {pair.child_pid}")

    def cow_write(self, pair: ForkPair, writer_pid: int, va: int,
                  value: bytes, offset: int = 0) -> None:
        """Write through the writer's view of a db page: the parent writes
        the original in place, the child its copy. Each write makes one
        translation. The first write to a page by either side checks the
        span, resolves the original through the writer's table and EADDs a
        copy of it into the child's table, recorded in ``copies`` once the
        EADD succeeds, then writes the page it holds: the original for the
        parent, the fresh copy for the child. A repeat write resolves the
        writer's page. A retired pair, then a pid in neither role, is
        refused before anything is copied."""
        page_table = pair.page_tables.get(writer_pid)
        if page_table is None:
            raise self._no_view(pair, writer_pid)
        if not (DB_BASE <= va < DB_BASE + self.db_pages):
            raise errors.IsolationFault(f"va {va:#x} outside the db extent")
        copy_va = pair.copies.get(va)
        if copy_va is None:
            check_span(offset, len(value))
            original = self._resolve(page_table, va)
            copy_va = self._next_copy_va
            copy = self._eadd_mapped(self.kernel.containers[pair.child_pid],
                                     copy_va, original.content)
            copy._digest = original._digest  # the same bytes
            self._next_copy_va = copy_va + 1
            pair.copies[va] = copy_va
            pair.dirty_count += 1
            page = copy if writer_pid == pair.child_pid else original
        else:
            page = self._resolve(
                page_table, copy_va if writer_pid == pair.child_pid else va)
        page.write(value, offset)

    def cow_read(self, pair: ForkPair, pid: int, va: int) -> bytes:
        """The pid's view of a db page, through one translation. A retired
        pair, then a pid in neither role, then a va outside the db extent
        (a copy va among them) is refused."""
        page_table = pair.page_tables.get(pid)
        if page_table is None:
            raise self._no_view(pair, pid)
        if not (DB_BASE <= va < DB_BASE + self.db_pages):
            raise errors.IsolationFault(f"va {va:#x} outside the db extent")
        if pid == pair.child_pid:
            va = pair.copies.get(va, va)
        return bytes(self._resolve(page_table, va).content)

    def snapshot(self, pair: ForkPair, child_pid: int) -> bytes:
        """Digest ``child_pid``'s view of the full db extent, read through
        its own table, then retire the pair's child: its TCS is released,
        every copy is freed and its container is destroyed. A fault while
        digesting (a remapped va) still retires the child before it
        propagates.

        The digest is two-level: SHA-256 over the SHA-256 of each page the
        child sees, in va order, fed as one joined string. Each page makes
        one translation and passes the sandbox check; only pages written
        since their last digest are rehashed. A retired pair, then any pid
        but the child's (the parent's too), is refused before anything is
        read or retired."""
        page_table = pair.page_tables.get(child_pid)
        if page_table is None:
            raise self._no_view(pair, child_pid)
        if child_pid != pair.child_pid:
            raise errors.NotForkMember(
                f"pid {child_pid} is not the child {pair.child_pid} of the "
                f"fork pair")
        resolve, get, digests = self._resolve, pair.copies.get, []
        try:
            for va in self._db_range():
                page = resolve(page_table, get(va, va))
                digests.append(page._digest or page.digest())
            return content_digest(digests)
        finally:
            self._retire_child(pair)

    def _retire_child(self, pair: ForkPair) -> None:
        """Exit the pair's child, free its copies, then destroy its
        container. The parent wrote the originals in place, so nothing is
        folded back, and occupancy returns exactly to the pre-fork level.
        The retired pair keeps no page tables or copies, and a new fork may
        start. A child suspended by an AEX is resumed first, since only a
        live thread can exit; a child that already left its thread has
        none to exit, and is retired all the same."""
        thread = self.threads.get(pair.child_pid)
        if thread is not None:
            if not thread.live:
                self.resume(pair.child_pid)
            self.exit(pair.child_pid)
        eremove, enclave = self.machine.eremove, self.enclave
        for copy_va in pair.copies.values():
            eremove(enclave, copy_va)
        pair.page_tables, pair.copies = {}, {}
        self.fork_pair = None
        del self.kernel.containers[pair.child_pid]
