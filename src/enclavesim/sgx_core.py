"""Modeled SGX hardware: protected pages, EPCM validation, enclave lifecycle
instructions and TCS-based enclave threads.

Addresses are page-granular integers (virtual/physical page numbers); page
contents are real byte arrays so aliasing and copy-on-write are observable
at byte level.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import errors

PAGE_SIZE = 4096

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def digest_update(acc: int, data: bytes) -> int:
    """64-bit FNV-1a over a byte string, continuing from ``acc``.

    Each octet ``b`` maps ``acc`` to ``((acc ^ b) * _FNV_PRIME) mod 2**64``.
    A zero octet leaves ``acc ^ 0 = acc``, so a trailing run of ``n`` zeros
    is one multiply by ``_FNV_PRIME ** n mod 2**64``; only the bytes up to
    the last non-zero one are stepped one at a time. The result equals the
    byte-at-a-time loop for every input.

    The launch measurement (``Enclave.measurement``, set by ``einit``) is
    this digest, started at ``_FNV_OFFSET``, over every pre-init EADD
    record in order: the page's va as 8 little-endian bytes, its page type
    as one byte, then its content padded to ``PAGE_SIZE`` (``fold_page``).
    """
    head = data.rstrip(b"\x00")
    for b in head:
        acc = ((acc ^ b) * _FNV_PRIME) & _MASK64
    zeros = len(data) - len(head)
    if zeros:
        acc = (acc * pow(_FNV_PRIME, zeros, 1 << 64)) & _MASK64
    return acc


def fold_page(acc: int, va: int, page_type: "PageType", content: bytes) -> int:
    """Order-sensitive accumulation of one page into a digest."""
    acc = digest_update(acc, va.to_bytes(8, "little"))
    acc = digest_update(acc, bytes([page_type.value]))
    return digest_update(acc, content)


def content_digest(chunks) -> bytes:
    """SHA-256 over a sequence of byte strings, streamed chunk by chunk."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.digest()


class PageType(enum.Enum):
    REGULAR = 0
    TCS = 1


class Access(enum.Enum):
    READ = "read"
    WRITE = "write"


class TcsState(enum.Enum):
    AVAILABLE = "available"
    BUSY = "busy"


@dataclass(frozen=True)
class CpuMode:
    """Execution mode of the modeled CPU at access time."""

    enclave_id: Optional[int] = None


NON_ENCLAVE = CpuMode()


def enclave_mode(enclave_id: int) -> CpuMode:
    return CpuMode(enclave_id)


@dataclass
class PhysicalPage:
    """One physical page. Its content changes only through ``write``, which
    drops the cached digest, so ``digest`` rehashes a page only after a
    write since its last digest."""

    pa: int
    content: bytearray
    is_epc: bool
    _digest: Optional[bytes] = field(default=None, repr=False, compare=False)

    def digest(self) -> bytes:
        """SHA-256 of the content, computed on first use and cached."""
        if self._digest is None:
            self._digest = content_digest((self.content,))
        return self._digest

    def write(self, data: bytes, offset: int = 0) -> None:
        if offset + len(data) > PAGE_SIZE:
            raise ValueError("write crosses page boundary")
        self.content[offset:offset + len(data)] = data
        self._digest = None


@dataclass
class EpcmEntry:
    pa: int
    va: int
    enclave_id: int
    page_type: PageType
    valid: bool = True


@dataclass
class TcsPage:
    tcs_va: int
    oentry: str
    state: TcsState = TcsState.AVAILABLE
    saved_context: Optional[Tuple[int, int, int, int]] = None


@dataclass
class EnclaveThread:
    enclave_id: int
    tcs_va: int
    registers: Tuple[int, int, int, int]
    live: bool = True


@dataclass
class Enclave:
    enclave_id: int
    pages: Dict[int, int] = field(default_factory=dict)  # va -> pa
    tcs_table: List[TcsPage] = field(default_factory=list)
    measurement: Optional[int] = None
    initialized: bool = False
    _acc: int = _FNV_OFFSET

    def tcs_for(self, tcs_va: int) -> Optional[TcsPage]:
        for tcs in self.tcs_table:
            if tcs.tcs_va == tcs_va:
                return tcs
        return None


class AddressSpace:
    """Per-container page table, freely mutable by the (untrusted) kernel."""

    def __init__(self):
        self.page_table: Dict[int, int] = {}

    def map(self, va: int, pa: int) -> None:
        self.page_table[va] = pa

    def unmap(self, va: int) -> None:
        self.page_table.pop(va, None)


class Machine:
    """Single-owner mutable machine state: physical pages, EPCM, enclaves."""

    def __init__(self, epc_capacity_pages: int = 1 << 20):
        self.epc_capacity_pages = epc_capacity_pages
        self.pages: Dict[int, PhysicalPage] = {}
        self.epcm: Dict[int, EpcmEntry] = {}
        self.enclaves: Dict[int, Enclave] = {}
        self._next_pa = 1
        self.epc_used = 0

    # -- page allocation ----------------------------------------------------

    def _alloc_page(self, content: bytes, is_epc: bool) -> PhysicalPage:
        if len(content) != PAGE_SIZE:
            raise ValueError("page content must be exactly one page")
        if is_epc:
            if self.epc_used >= self.epc_capacity_pages:
                raise errors.OutOfEpc(
                    f"EPC capacity of {self.epc_capacity_pages} pages exhausted")
            self.epc_used += 1
        page = PhysicalPage(self._next_pa, bytearray(content), is_epc)
        self._next_pa += 1
        self.pages[page.pa] = page
        return page

    def alloc_plain_page(self, content: bytes = b"") -> PhysicalPage:
        """Allocate an ordinary (unprotected) physical page."""
        content = bytes(content).ljust(PAGE_SIZE, b"\x00")
        return self._alloc_page(content, is_epc=False)

    # -- enclave lifecycle --------------------------------------------------

    def ecreate(self, enclave_id: int) -> Enclave:
        if enclave_id in self.enclaves:
            raise errors.DuplicateEnclaveId(f"enclave id {enclave_id} in use")
        enclave = Enclave(enclave_id)
        self.enclaves[enclave_id] = enclave
        return enclave

    def eadd(self, enclave: Enclave, va: int, content: bytes,
             page_type: PageType = PageType.REGULAR) -> Tuple[int, EpcmEntry]:
        if va in enclave.pages:
            raise errors.VaAlreadyMapped(f"va {va:#x} already present")
        content = bytes(content).ljust(PAGE_SIZE, b"\x00")
        page = self._alloc_page(content, is_epc=True)
        entry = EpcmEntry(page.pa, va, enclave.enclave_id, page_type)
        self.epcm[page.pa] = entry
        enclave.pages[va] = page.pa
        if not enclave.initialized:
            # Pre-init pages extend the measurement; post-init adds model
            # SGX2 dynamic allocation and stay unmeasured.
            enclave._acc = fold_page(enclave._acc, va, page_type, content)
        if page_type is PageType.TCS:
            enclave.tcs_table.append(TcsPage(va, oentry=f"oentry:{va:#x}"))
        return page.pa, entry

    def einit(self, enclave: Enclave) -> int:
        if enclave.initialized:
            raise errors.AlreadyInitialized(
                f"enclave {enclave.enclave_id} already initialized")
        enclave.initialized = True
        enclave.measurement = enclave._acc
        return enclave.measurement

    def eremove(self, enclave: Enclave, va: int) -> None:
        """Deallocate one enclave page; the EPCM entry is invalidated
        atomically with the page (deallocation ordering is an assumption,
        the hardware spec leaves it open)."""
        pa = enclave.pages.pop(va)
        entry = self.epcm.pop(pa)
        entry.valid = False
        del self.pages[pa]
        self.epc_used -= 1
        enclave.tcs_table = [t for t in enclave.tcs_table if t.tcs_va != va]

    # -- address translation ------------------------------------------------

    def translate_access(self, space: AddressSpace, va: int, access: Access,
                         mode: CpuMode) -> int:
        """Page-walk plus the hardware's EPCM validation.

        No process identity participates in the check: any address space
        holding the creating (va, pa) mapping may access the page.
        """
        pa = space.page_table.get(va)
        if pa is None:
            raise errors.NotMapped(f"va {va:#x} not mapped")
        page = self.pages.get(pa)
        if page is None:
            raise errors.NotMapped(f"pa {pa:#x} does not exist")
        if not page.is_epc:
            return pa
        if mode.enclave_id is None:
            raise errors.AbortPage(
                f"non-enclave access to protected page {pa:#x}")
        entry = self.epcm.get(pa)
        if entry is None or not entry.valid:
            raise errors.EpcmMismatch(f"no valid EPCM entry for pa {pa:#x}")
        if entry.enclave_id != mode.enclave_id or entry.va != va:
            raise errors.EpcmMismatch(
                f"EPCM({pa:#x}) records (va={entry.va:#x}, "
                f"id={entry.enclave_id}); access was (va={va:#x}, "
                f"id={mode.enclave_id})")
        return pa

    def read_page(self, space: AddressSpace, va: int, mode: CpuMode) -> bytes:
        pa = self.translate_access(space, va, Access.READ, mode)
        return bytes(self.pages[pa].content)

    def write_page(self, space: AddressSpace, va: int, data: bytes,
                   mode: CpuMode, offset: int = 0) -> None:
        pa = self.translate_access(space, va, Access.WRITE, mode)
        self.pages[pa].write(data, offset)

    # -- enclave threads ----------------------------------------------------

    def _tcs_at(self, space: AddressSpace, tcs_va: int) -> Tuple[Enclave, TcsPage]:
        if tcs_va not in space.page_table:
            raise errors.NotMapped(f"tcs va {tcs_va:#x} not mapped")
        pa = space.page_table[tcs_va]
        page = self.pages.get(pa)
        if page is None or not page.is_epc:
            raise errors.NotTcsPage(f"va {tcs_va:#x} is not a protected page")
        entry = self.epcm.get(pa)
        if entry is None or not entry.valid or entry.va != tcs_va:
            raise errors.EpcmMismatch(f"EPCM check failed for tcs {tcs_va:#x}")
        if entry.page_type is not PageType.TCS:
            raise errors.NotTcsPage(f"va {tcs_va:#x} is not a TCS page")
        enclave = self.enclaves[entry.enclave_id]
        tcs = enclave.tcs_for(tcs_va)
        assert tcs is not None
        return enclave, tcs

    def eenter(self, space: AddressSpace, tcs_va: int) -> EnclaveThread:
        """Start an enclave thread at the TCS entry point.

        Which process performs the switch is deliberately unconstrained; any
        address space mapping the TCS page may enter.
        """
        enclave, tcs = self._tcs_at(space, tcs_va)
        if tcs.state is TcsState.BUSY:
            raise errors.TcsBusy(f"tcs {tcs_va:#x} already bound to a thread")
        tcs.state = TcsState.BUSY
        tcs.saved_context = None
        seed = content_digest([tcs.oentry.encode()])[:8]
        registers = (int.from_bytes(seed, "little"), 0, 0, 0)
        return EnclaveThread(enclave.enclave_id, tcs_va, registers)

    def eexit(self, thread: EnclaveThread) -> None:
        tcs = self._live_tcs(thread)
        tcs.state = TcsState.AVAILABLE
        tcs.saved_context = None
        thread.live = False

    def aex(self, thread: EnclaveThread) -> None:
        """Asynchronous exit: snapshot the register context into the TCS."""
        tcs = self._live_tcs(thread)
        tcs.saved_context = tuple(thread.registers)
        thread.live = False

    def eresume(self, space: AddressSpace, tcs_va: int) -> EnclaveThread:
        enclave, tcs = self._tcs_at(space, tcs_va)
        if tcs.saved_context is None:
            raise errors.NoSavedContext(f"tcs {tcs_va:#x} has no saved context")
        registers = tcs.saved_context
        tcs.saved_context = None
        return EnclaveThread(enclave.enclave_id, tcs_va, registers)

    def _live_tcs(self, thread: EnclaveThread) -> TcsPage:
        if not thread.live:
            raise errors.SimError("thread is not live")
        enclave = self.enclaves[thread.enclave_id]
        tcs = enclave.tcs_for(thread.tcs_va)
        if tcs is None or tcs.state is not TcsState.BUSY:
            raise errors.SimError("thread not bound to a busy TCS")
        return tcs

    # -- invariants ---------------------------------------------------------

    def check_epc_conservation(self) -> None:
        valid_entries = sum(1 for e in self.epcm.values() if e.valid)
        epc_pages = sum(1 for p in self.pages.values() if p.is_epc)
        if valid_entries != epc_pages or epc_pages != self.epc_used:
            raise errors.InvariantViolation(
                f"EPCM entries {valid_entries} != protected pages {epc_pages}")
        if self.epc_used > self.epc_capacity_pages:
            raise errors.InvariantViolation("EPC capacity exceeded")
