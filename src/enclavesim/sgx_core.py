"""Modeled SGX hardware: protected pages, EPCM validation, enclave lifecycle
instructions and TCS-based enclave threads.

Addresses are page-granular integers (virtual/physical page numbers); page
contents are real byte arrays so aliasing and copy-on-write are observable
at byte level. A page table is a plain ``{va: pa}`` dict, and the CPU mode
of an access is the running enclave's id, or None outside any enclave. The
EPCM is per-page metadata, as in SGX: an EPC page's ``PhysicalPage`` holds
its entry (va, owner enclave id, page type). As the EPCM does for a
``PT_TCS`` page, ``translate_access`` refuses a TCS page: only ``eenter``
and ``eresume`` use one.

The launch measurement is SHA-256 over each pre-init EADD record, in order:
va, page type and padded content (``digest_update``). It is a pure function
of the record sequence, so its running states are memoized: a state and the
next record name the state after it, and an enclave launched from records
already measured in this process rehashes nothing. Stored states are never
updated, keys hold whole contents, and the memo is emptied when it holds
``MEMO_STATES`` states, so it stays bounded and every measurement is the
one an unmemoized SHA-256 gives. The TCS entry registers, a pure function
of the TCS va, are memoized the same way.
"""

from __future__ import annotations

import enum
import hashlib
from typing import Dict, Optional, Tuple

from . import errors

PAGE_SIZE = 4096
_ZERO_PAGE = bytes(PAGE_SIZE)
_VA_LIMIT = 1 << 64  # a va is measured as 8 bytes

# The most states either memo below holds before it is emptied: at most a
# page of content per key, so about 5 MiB when full.
MEMO_STATES = 1024
# The measurement of no records, the state every enclave starts from.
_EMPTY = hashlib.sha256()
# (state, va, page type, content) -> the state after that EADD record.
_measured: Dict[tuple, hashlib._Hash] = {}
# TCS va -> entry registers.
_tcs_entries: Dict[int, Tuple[int, int, int, int]] = {}


def _memoize(memo: dict, key, value) -> None:
    """Store ``value`` under ``key``, emptying ``memo`` first when full."""
    if len(memo) >= MEMO_STATES:
        memo.clear()
    memo[key] = value


def digest_update(measurement: hashlib._Hash, data: bytes) -> None:
    """Feed ``data`` to a launch measurement: one SHA-256 over each pre-init
    EADD record in order, the va as 8 little-endian bytes, the page type as
    one byte, then the content padded to ``PAGE_SIZE``."""
    measurement.update(data)


def check_span(offset: int, length: int) -> None:
    """Raise ``ValueError`` unless ``length`` bytes at ``offset`` lie
    inside one page."""
    if offset < 0:
        raise ValueError(f"negative write offset {offset}")
    if offset + length > PAGE_SIZE:
        raise ValueError("write crosses page boundary")


def content_digest(chunks) -> bytes:
    """SHA-256 over the concatenation of a sequence of byte strings."""
    return hashlib.sha256(b"".join(chunks)).digest()


class PageType(enum.Enum):
    REGULAR = 0
    TCS = 1


# An enum member read from module globals: a lookup through the class
# costs several times as much on the per-step paths.
_TCS = PageType.TCS


class PhysicalPage:
    """One physical page. An EPC page holds its EPCM entry: the va and
    enclave it was added to, and its page type; a plain page has none (all
    three None). Its content changes only through ``write``, which drops the
    cached digest, so ``digest`` rehashes a page only after a write."""
    __slots__ = ("pa", "content", "va", "enclave_id", "page_type", "_digest")

    def __init__(self, pa: int, content: bytearray, va: Optional[int] = None,
                 enclave_id: Optional[int] = None,
                 page_type: Optional[PageType] = None):
        self.pa, self.content, self.va = pa, content, va
        self.enclave_id, self.page_type = enclave_id, page_type
        self._digest: Optional[bytes] = None

    def digest(self) -> bytes:
        """SHA-256 of the content, computed on first use and cached."""
        if self._digest is None:
            self._digest = hashlib.sha256(self.content).digest()
        return self._digest

    def write(self, data: bytes, offset: int = 0) -> None:
        end = offset + len(data)
        if offset < 0 or end > PAGE_SIZE:
            check_span(offset, len(data))
        self.content[offset:end] = data
        self._digest = None


class TcsPage:
    """A TCS page's thread-binding state, ``busy`` while a thread (live or
    suspended by an AEX) is bound to it. ``entry`` holds the registers
    ``eenter`` starts a thread with, set once at EADD: the first 8 bytes
    of the SHA-256 of its entry point ``"oentry:<tcs va in hex>"``,
    little-endian, then three zeros."""
    __slots__ = ("tcs_va", "entry", "busy", "saved_context")

    def __init__(self, tcs_va: int, entry: Tuple[int, int, int, int]):
        self.tcs_va, self.entry, self.busy = tcs_va, entry, False
        self.saved_context: Optional[Tuple[int, int, int, int]] = None


class EnclaveThread:
    __slots__ = ("enclave_id", "tcs_va", "registers", "live")

    def __init__(self, enclave_id: int, tcs_va: int,
                 registers: Tuple[int, int, int, int]):
        self.enclave_id, self.tcs_va = enclave_id, tcs_va
        self.registers, self.live = registers, True


class Enclave:
    """An enclave's pages and TCS table. ``_hash`` is its running launch
    measurement, a state shared with other enclaves (the empty state or one
    from the module's memo), which ``eadd`` replaces and never updates."""
    __slots__ = ("enclave_id", "pages", "tcs_table", "measurement",
                 "initialized", "_hash")

    def __init__(self, enclave_id: int):
        self.enclave_id = enclave_id
        self.pages: Dict[int, int] = {}  # va -> pa
        # tcs va -> TCS, in EADD order.
        self.tcs_table: Dict[int, TcsPage] = {}
        self.measurement: Optional[bytes] = None
        self.initialized = False
        self._hash: hashlib._Hash = _EMPTY


class Machine:
    """Single-owner mutable machine state: physical pages and enclaves."""

    def __init__(self, epc_capacity_pages: int = 1 << 20):
        self.epc_capacity_pages = epc_capacity_pages
        self.pages: Dict[int, PhysicalPage] = {}
        self.enclaves: Dict[int, Enclave] = {}
        self._next_pa = 1
        # ``epc_used`` counts the pages ``eadd`` takes from the EPC, and
        # ``plain_pages`` the pages with no EPCM entry, never freed.
        self.epc_used = 0
        self.plain_pages = 0

    # -- page allocation ----------------------------------------------------

    def _alloc_page(self, content: bytes, va: Optional[int] = None,
                    enclave_id: Optional[int] = None,
                    page_type: Optional[PageType] = None) -> PhysicalPage:
        """Allocate a page of ``content`` zero-padded to one page, with an
        EPCM entry or none, copying the content once into its bytearray."""
        content = bytearray(content)
        if len(content) < PAGE_SIZE:
            content += _ZERO_PAGE[len(content):]
        elif len(content) > PAGE_SIZE:
            raise ValueError("page content must be exactly one page")
        if enclave_id is None:
            self.plain_pages += 1
        page = PhysicalPage(self._next_pa, content, va, enclave_id, page_type)
        self._next_pa += 1
        self.pages[page.pa] = page
        return page

    def alloc_plain_page(self, content: bytes = b"") -> PhysicalPage:
        """Allocate an ordinary (unprotected) physical page."""
        return self._alloc_page(content)

    # -- enclave lifecycle --------------------------------------------------

    def ecreate(self, enclave_id: int) -> Enclave:
        if enclave_id in self.enclaves:
            raise errors.DuplicateEnclaveId(f"enclave id {enclave_id} in use")
        enclave = Enclave(enclave_id)
        self.enclaves[enclave_id] = enclave
        return enclave

    def eadd(self, enclave: Enclave, va: int, content: bytes,
             page_type: PageType = PageType.REGULAR
             ) -> Tuple[int, PhysicalPage]:
        if not 0 <= va < _VA_LIMIT:
            raise ValueError(f"va {va:#x} outside the 64-bit address space")
        if va in enclave.pages:
            raise errors.VaAlreadyMapped(f"va {va:#x} already present")
        if self.epc_used >= self.epc_capacity_pages:
            raise errors.OutOfEpc(
                f"EPC capacity of {self.epc_capacity_pages} pages exhausted")
        page = self._alloc_page(content, va, enclave.enclave_id, page_type)
        self.epc_used += 1
        enclave.pages[va] = page.pa
        if not enclave.initialized:
            # Pre-init pages extend the measurement; post-init adds model
            # SGX2 dynamic allocation and stay unmeasured.
            key = (enclave._hash, va, page_type,
                   content if type(content) is bytes else bytes(content))
            state = _measured.get(key)
            if state is None:
                state = enclave._hash.copy()
                digest_update(state, va.to_bytes(8, "little"))
                digest_update(state, bytes([page_type.value]))
                digest_update(state, page.content)
                _memoize(_measured, key, state)
            enclave._hash = state
        if page_type is _TCS:
            entry = _tcs_entries.get(va)
            if entry is None:
                seed = content_digest((f"oentry:{va:#x}".encode(),))[:8]
                entry = (int.from_bytes(seed, "little"), 0, 0, 0)
                _memoize(_tcs_entries, va, entry)
            enclave.tcs_table[va] = TcsPage(va, entry)
        return page.pa, page

    def einit(self, enclave: Enclave) -> bytes:
        if enclave.initialized:
            raise errors.AlreadyInitialized(
                f"enclave {enclave.enclave_id} already initialized")
        enclave.initialized = True
        enclave.measurement = enclave._hash.digest()
        return enclave.measurement

    def eremove(self, enclave: Enclave, va: int) -> None:
        """Deallocate one enclave page; its EPCM entry goes with the page.
        A TCS page bound to a thread is refused, as SGX refuses EREMOVE
        while a thread runs in the enclave."""
        pa = enclave.pages[va]
        if self.pages[pa].page_type is _TCS:
            if enclave.tcs_table[va].busy:
                raise errors.TcsBusy(f"tcs {va:#x} is bound to a thread")
            del enclave.tcs_table[va]
        del enclave.pages[va], self.pages[pa]
        self.epc_used -= 1

    # -- address translation ------------------------------------------------

    def translate_access(self, page_table: Dict[int, int], va: int,
                         enclave_id: Optional[int]) -> PhysicalPage:
        """Page-walk plus the hardware's EPCM validation, for an access
        from enclave ``enclave_id`` (None outside any enclave); returns
        the page.

        No process identity participates in the check: any page table
        holding the creating (va, pa) mapping may access the page.
        """
        pa = page_table.get(va)
        if pa is None:
            raise errors.NotMapped(f"va {va:#x} not mapped")
        page = self.pages.get(pa)
        if page is None:
            raise errors.NotMapped(f"pa {pa:#x} does not exist")
        if page.enclave_id is None:
            return page
        if enclave_id is None:
            raise errors.AbortPage(
                f"non-enclave access to protected page {pa:#x}")
        if page.enclave_id != enclave_id or page.va != va:
            raise errors.EpcmMismatch(
                f"EPCM({pa:#x}) records (va={page.va:#x}, "
                f"id={page.enclave_id}); access was (va={va:#x}, "
                f"id={enclave_id})")
        if page.page_type is _TCS:
            raise errors.EpcmMismatch(
                f"EPCM({pa:#x}) records a TCS page: no regular access")
        return page

    def read_page(self, page_table: Dict[int, int], va: int,
                  enclave_id: Optional[int]) -> bytes:
        return bytes(self.translate_access(page_table, va, enclave_id).content)

    def write_page(self, page_table: Dict[int, int], va: int, data: bytes,
                   enclave_id: Optional[int], offset: int = 0) -> None:
        self.translate_access(page_table, va, enclave_id).write(data, offset)

    # -- enclave threads ----------------------------------------------------

    def _tcs_at(self, page_table: Dict[int, int],
                tcs_va: int) -> Tuple[Enclave, TcsPage]:
        pa = page_table.get(tcs_va)
        if pa is None:
            raise errors.NotMapped(f"tcs va {tcs_va:#x} not mapped")
        page = self.pages.get(pa)
        if page is None or page.enclave_id is None:
            raise errors.NotTcsPage(f"va {tcs_va:#x} is not a protected page")
        if page.va != tcs_va:
            raise errors.EpcmMismatch(f"EPCM check failed for tcs {tcs_va:#x}")
        if page.page_type is not _TCS:
            raise errors.NotTcsPage(f"va {tcs_va:#x} is not a TCS page")
        enclave = self.enclaves[page.enclave_id]
        return enclave, enclave.tcs_table[tcs_va]

    def eenter(self, page_table: Dict[int, int], tcs_va: int) -> EnclaveThread:
        """Start an enclave thread at the TCS entry point.

        Which process performs the switch is deliberately unconstrained; any
        page table mapping the TCS page may enter.
        """
        enclave, tcs = self._tcs_at(page_table, tcs_va)
        if tcs.busy:
            raise errors.TcsBusy(f"tcs {tcs_va:#x} already bound to a thread")
        tcs.busy = True
        tcs.saved_context = None
        return EnclaveThread(enclave.enclave_id, tcs_va, tcs.entry)

    def eexit(self, thread: EnclaveThread) -> None:
        tcs = self._live_tcs(thread)
        tcs.busy = False
        tcs.saved_context = None
        thread.live = False

    def aex(self, thread: EnclaveThread) -> None:
        """Asynchronous exit: snapshot the register context into the TCS."""
        tcs = self._live_tcs(thread)
        tcs.saved_context = tuple(thread.registers)
        thread.live = False

    def eresume(self, page_table: Dict[int, int],
                tcs_va: int) -> EnclaveThread:
        enclave, tcs = self._tcs_at(page_table, tcs_va)
        if tcs.saved_context is None:
            raise errors.NoSavedContext(f"tcs {tcs_va:#x} has no saved context")
        registers = tcs.saved_context
        tcs.saved_context = None
        return EnclaveThread(enclave.enclave_id, tcs_va, registers)

    def _live_tcs(self, thread: EnclaveThread) -> TcsPage:
        if not thread.live:
            raise errors.SimError("thread is not live")
        # A live thread's TCS is busy, and ``eremove`` refuses a busy TCS.
        return self.enclaves[thread.enclave_id].tcs_table[thread.tcs_va]

    # -- invariants ---------------------------------------------------------

    def check_epc_counts(self) -> None:
        """EPC conservation from the kept counts, in O(1): the pages that
        hold an EPCM entry (``len(pages)`` less the plain pages) and
        ``epc_used`` agree, within capacity. This is the per-step check."""
        protected = len(self.pages) - self.plain_pages
        if protected != self.epc_used:
            raise errors.InvariantViolation(
                f"protected pages {protected} and epc_used {self.epc_used} "
                f"differ")
        if self.epc_used > self.epc_capacity_pages:
            raise errors.InvariantViolation("EPC capacity exceeded")

    def check_epc_conservation(self) -> None:
        """The full audit, O(pages): each protected page's owner maps its
        va to it, the recount matches the kept count, and the enclaves'
        page maps hold one entry per protected page, so each entry is a
        protected page naming that enclave and va. Then the counts."""
        protected = 0
        for pa, page in self.pages.items():
            if page.enclave_id is not None:
                protected += 1
                owner = self.enclaves.get(page.enclave_id)
                if owner is None or owner.pages.get(page.va) != pa:
                    raise errors.InvariantViolation(
                        f"EPCM({pa:#x}) names an owner that does not map it")
        kept = len(self.pages) - self.plain_pages
        if protected != kept:
            raise errors.InvariantViolation(
                f"recounted protected pages {protected}, kept count {kept}")
        mapped = sum(len(e.pages) for e in self.enclaves.values())
        if mapped != protected:
            raise errors.InvariantViolation(
                f"{mapped} page-map entries, {protected} protected pages")
        self.check_epc_counts()
