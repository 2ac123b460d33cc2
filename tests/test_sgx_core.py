import hashlib
import itertools

import pytest
from hypothesis import example, given, strategies as st

from enclavesim import errors, sgx_core
from enclavesim.enclave_runtime import EnclaveRuntime
from enclavesim.host_kernel import Kernel
from enclavesim.sgx_core import (
    MEMO_STATES,
    Machine,
    PAGE_SIZE,
    PageType,
    PhysicalPage,
    content_digest,
    digest_update,
)


def page(tag):
    return bytes([tag]) * PAGE_SIZE


@pytest.fixture
def machine():
    return Machine(epc_capacity_pages=16)


def build_enclave(machine, eid=1, n_pages=2, tcs=1):
    enclave = machine.ecreate(eid)
    space = {}
    for i in range(n_pages):
        space[0x10 + i], _ = machine.eadd(enclave, 0x10 + i, page(i))
    for i in range(tcs):
        space[0x100 + i], _ = machine.eadd(enclave, 0x100 + i, b"",
                                           PageType.TCS)
    machine.einit(enclave)
    return enclave, space


class TestLifecycle:
    def test_ecreate_empty(self, machine):
        e = machine.ecreate(1)
        assert e.pages == {} and not e.initialized

    def test_ecreate_duplicate(self, machine):
        machine.ecreate(1)
        with pytest.raises(errors.DuplicateEnclaveId):
            machine.ecreate(1)

    def test_ecreate_independent(self, machine):
        e1, e2 = machine.ecreate(1), machine.ecreate(2)
        machine.eadd(e1, 0x10, page(1))
        assert e2.pages == {}

    def test_eadd_creates_epcm_entry(self, machine):
        e = machine.ecreate(1)
        pa, entry = machine.eadd(e, 0x10, page(1))
        assert entry.va == 0x10 and entry.enclave_id == 1
        assert e.pages[0x10] == pa

    def test_eadd_same_va_twice(self, machine):
        e = machine.ecreate(1)
        machine.eadd(e, 0x10, page(1))
        with pytest.raises(errors.VaAlreadyMapped):
            machine.eadd(e, 0x10, page(2))

    def test_eadd_out_of_epc(self):
        machine = Machine(epc_capacity_pages=3)
        e = machine.ecreate(1)
        for i in range(3):
            machine.eadd(e, 0x10 + i, page(i))
        with pytest.raises(errors.OutOfEpc):
            machine.eadd(e, 0x20, page(9))

    @pytest.mark.parametrize("va", [-1, 2**64], ids=["negative", "2**64"])
    def test_eadd_refuses_a_va_outside_64_bits(self, machine, va):
        """A refused add, before or after EINIT, leaves no page behind:
        none the measurement does not cover, and none in the EPC count."""
        e = machine.ecreate(1)
        for _ in range(2):
            with pytest.raises(ValueError, match="64-bit address space"):
                machine.eadd(e, va, page(1))
            assert e.pages == {} and machine.epc_used == 0
            machine.check_epc_conservation()
            if not e.initialized:
                assert machine.einit(e) == hashlib.sha256().digest()

    def test_einit_twice(self, machine):
        e = machine.ecreate(1)
        machine.einit(e)
        with pytest.raises(errors.AlreadyInitialized):
            machine.einit(e)

    def test_post_init_eadd_leaves_measurement(self, machine):
        e, _ = build_enclave(machine)
        before = e.measurement
        machine.eadd(e, 0x50, page(9))
        assert e.measurement == before

    def test_eremove_conserves_epc(self, machine):
        e, _ = build_enclave(machine)
        used = machine.epc_used
        machine.eadd(e, 0x50, page(9))
        machine.eremove(e, 0x50)
        assert machine.epc_used == used
        machine.check_epc_conservation()

    def test_conservation_names_a_drifted_epc_used(self, machine):
        e, _ = build_enclave(machine)  # two regular pages and one TCS page
        machine.epc_used += 1
        with pytest.raises(errors.InvariantViolation) as caught:
            machine.check_epc_conservation()
        assert str(caught.value) == "protected pages 3 and epc_used 4 differ"

    def test_audit_recount_checks_the_kept_count(self, machine):
        e, _ = build_enclave(machine)
        machine.alloc_plain_page(b"plain")
        machine.check_epc_conservation()
        # A protected page turned plain behind the counters' back: only the
        # audit's recount sees it.
        machine.pages[e.pages[0x10]].enclave_id = None
        machine.check_epc_counts()
        with pytest.raises(errors.InvariantViolation) as caught:
            machine.check_epc_conservation()
        assert str(caught.value) == (
            "recounted protected pages 2, kept count 3")

    @pytest.mark.parametrize("field, value", [("enclave_id", 9), ("va", 0x99)],
                             ids=["unknown owner", "moved va"])
    def test_audit_names_a_page_its_owner_does_not_map(self, machine, field,
                                                       value):
        e, _ = build_enclave(machine)
        pa = e.pages[0x10]
        machine.check_epc_conservation()
        setattr(machine.pages[pa], field, value)
        machine.check_epc_counts()
        with pytest.raises(errors.InvariantViolation) as caught:
            machine.check_epc_conservation()
        assert str(caught.value) == (
            f"EPCM({pa:#x}) names an owner that does not map it")

    def test_eadd_copies_and_pads_content(self, machine):
        e = machine.ecreate(1)
        content = bytearray(b"epc")
        pa, _ = machine.eadd(e, 0x10, content)
        content[0] = 0
        assert machine.pages[pa].content == b"epc".ljust(PAGE_SIZE, b"\0")
        with pytest.raises(ValueError):
            machine.eadd(e, 0x11, page(1) + b"x")


class TestMeasurement:
    def test_identical_sequences_equal(self):
        digests = []
        for _ in range(2):
            machine = Machine()
            e = machine.ecreate(1)
            machine.eadd(e, 0x10, page(1))
            machine.eadd(e, 0x11, page(2))
            digests.append(machine.einit(e))
        assert digests[0] == digests[1]

    def test_single_byte_flip_changes_digest(self):
        def digest(content):
            machine = Machine()
            e = machine.ecreate(1)
            machine.eadd(e, 0x10, content)
            return machine.einit(e)

        base = bytearray(page(1))
        flipped = bytearray(base)
        flipped[1234] ^= 0x01
        assert digest(bytes(base)) != digest(bytes(flipped))

    def test_va_change_changes_digest(self):
        def digest(va):
            machine = Machine()
            e = machine.ecreate(1)
            machine.eadd(e, va, page(1))
            return machine.einit(e)

        assert digest(0x10) != digest(0x11)

    def test_order_sensitivity(self):
        def digest(order):
            machine = Machine()
            e = machine.ecreate(1)
            for va, tag in order:
                machine.eadd(e, va, page(tag))
            return machine.einit(e)

        assert digest([(0x10, 1), (0x11, 2)]) != digest([(0x11, 2), (0x10, 1)])

    def test_content_digest_is_streamed_sha256(self):
        chunks = [b"ab", b"", page(3)]
        assert content_digest(iter(chunks)) == \
            hashlib.sha256(b"".join(chunks)).digest()


# One EADD record: a va, a page type and content that is empty, short, or a
# full page (a short random head on a run of one byte value).
_RECORDS = st.lists(
    st.tuples(st.integers(0, 2**64 - 1),
              st.sampled_from(PageType),
              st.one_of(st.just(b""), st.binary(max_size=64),
                        st.tuples(st.binary(max_size=64), st.integers(0, 255))
                        .map(lambda p: p[0].ljust(PAGE_SIZE, bytes([p[1]]))))),
    min_size=1, max_size=8, unique_by=lambda record: record[0])


def padded_sha256(records):
    """A fresh SHA-256 over EADD records: va, page type, padded content."""
    return hashlib.sha256(b"".join(
        va.to_bytes(8, "little") + bytes([page_type.value])
        + content.ljust(PAGE_SIZE, b"\0")
        for va, page_type, content in records)).digest()


def measure(records, wrap=bytes):
    """The measurement of a new enclave given ``records``, each content
    passed as ``wrap(content)``."""
    machine = Machine()
    enclave = machine.ecreate(1)
    for va, page_type, content in records:
        machine.eadd(enclave, va, wrap(content), page_type)
    return machine.einit(enclave)


class TestLaunchMeasurement:
    @given(records=_RECORDS)
    def test_sha256_over_pre_init_records(self, records):
        """Every record but the last is added before EINIT; the last one
        after it, which must leave the measurement as it was."""
        machine = Machine()
        enclave = machine.ecreate(1)
        for va, page_type, content in records[:-1]:
            machine.eadd(enclave, va, content, page_type)
        measurement = machine.einit(enclave)
        assert measurement == padded_sha256(records[:-1]) == \
            enclave.measurement
        va, page_type, content = records[-1]
        machine.eadd(enclave, va, content, page_type)
        assert enclave.measurement == measurement

    @given(records=_RECORDS, cut=st.integers(0, 7))
    def test_memoized_launches_equal_sha256(self, records, cut):
        """A launch; a longer one that shares its records as a prefix; the
        first again, from the memo and with contents passed as bytearrays;
        the first once more after the memo is emptied. Each equals a fresh
        SHA-256 over its padded records."""
        prefix = records[:cut % len(records)]
        launches = [measure(prefix), measure(records),
                    measure(prefix, bytearray)]
        sgx_core._measured.clear()
        launches.append(measure(prefix))
        assert launches == [padded_sha256(prefix), padded_sha256(records),
                            padded_sha256(prefix), padded_sha256(prefix)]

    def test_memo_is_bounded(self):
        """More distinct launches than the memos hold: neither holds more
        than ``MEMO_STATES`` entries at any point."""
        for va in range(MEMO_STATES + 1):
            record = (va, PageType.TCS, b"")
            assert measure([record]) == padded_sha256([record])
            assert len(sgx_core._measured) <= MEMO_STATES
            assert len(sgx_core._tcs_entries) <= MEMO_STATES


class TestDigestUpdate:
    """``digest_update`` is the measurement's one update step: it feeds its
    bytes to the running SHA-256 as they are."""

    def test_page_of_every_byte_value(self):
        for b in range(256):
            page_data = bytes([b]) * PAGE_SIZE
            measurement = hashlib.sha256()
            digest_update(measurement, page_data)
            assert measurement.digest() == \
                hashlib.sha256(page_data).digest(), b

    @given(prefix=st.binary(max_size=64), b=st.integers(0, 255),
           left=st.integers(1, 2 * PAGE_SIZE),
           right=st.integers(1, 2 * PAGE_SIZE), suffix=st.binary(max_size=64))
    # Splits on, just before and just after a 64-byte SHA-256 block edge.
    @example(prefix=b"", b=0x52, left=64, right=PAGE_SIZE - 64, suffix=b"")
    @example(prefix=b"\x01", b=0x2E, left=62, right=PAGE_SIZE, suffix=b"\x2f")
    @example(prefix=b"", b=0, left=65, right=1, suffix=b"\x0a")
    def test_split_inside_a_run(self, prefix, b, left, right, suffix):
        head = prefix + bytes([b]) * left
        tail = bytes([b]) * right + suffix
        split, whole = hashlib.sha256(), hashlib.sha256()
        digest_update(split, head)
        digest_update(split, tail)
        digest_update(whole, bytearray(head + tail))
        assert split.digest() == whole.digest() == \
            hashlib.sha256(head + tail).digest()


@pytest.fixture
def launch_twice(monkeypatch):
    """Run a launch on an emptied memo, then again with ``digest_update``
    refusing every call, so the second launch comes from the memo; return
    both results."""
    def run(start):
        sgx_core._measured.clear()
        first = start()
        with monkeypatch.context() as patch:
            patch.setattr(sgx_core, "digest_update", _refuse)
            return first, start()
    return run


def _refuse(state, data):
    raise AssertionError("a repeated launch rehashed an EADD record")


class TestPinnedMeasurements:
    """Launch measurements of fixed enclaves; they must never move. Each
    launch runs twice: the second takes its states from the memo."""

    @pytest.mark.parametrize("runtime_pages, tcs_count, measurement", [
        (3, 2, "48a8a33def6aa73b988deb1401e3e44b"
               "01817293cb2ab3f6af96f9b9a8fdc312"),
        (1, 3, "4705ca80586fccd6f1fc864338375cdc"
               "65085cc7269cc818f059ef032c3632e2"),
        (2, 2, "0b0ee4498a79d9179e4e360623316a9a"
               "8ae56250d07434adeef4760a8ee6a1bb"),
        (16, 4, "71abeed195ea17754e7b1fc69c3cfd13"
                "f1f14337895348262c5faf6c3335d103"),
    ])
    def test_runtime_init(self, launch_twice, runtime_pages, tcs_count,
                          measurement):
        def launch():
            machine = Machine()
            runtime = EnclaveRuntime(machine, Kernel(machine))
            return (runtime.runtime_init(runtime_pages, tcs_count).hex(),
                    runtime.enclave.measurement.hex())
        first, second = launch_twice(launch)
        assert first == second == (measurement, measurement)

    def test_single_byte_pages(self, launch_twice):
        """Enclaves of pages each filled with one byte value, at vas 0x10
        upwards: bytes 0 to 3, and 0xA0 and 0xA1."""
        def launch():
            machine = Machine()
            measured = []
            for enclave_id, tags in ((1, (0, 1, 2, 3)), (2, (0xA0, 0xA1))):
                enclave = machine.ecreate(enclave_id)
                for i, tag in enumerate(tags):
                    machine.eadd(enclave, 0x10 + i, page(tag))
                measured.append(machine.einit(enclave).hex())
            return measured
        first, second = launch_twice(launch)
        assert first == second == [
            "e0fd3903303ed607fdbdc3cf3fd3e141b602fe7d4a4da2142c408e6de67b763f",
            "25d57f7e7e4e7b6a02850b1d7bd7d3e0bfc45bf97a1a7264ba672d0eae8d5145",
        ]


class TestPageDigest:
    def test_new_pages_carry_no_digest(self, machine):
        enclave = machine.ecreate(1)
        pa, _ = machine.eadd(enclave, 0x10, b"epc")
        pages = [machine.pages[pa], machine.alloc_plain_page(b"plain")]
        for p in pages:
            assert p._digest is None
            assert p.digest() == hashlib.sha256(p.content).digest()

    def test_write_page_drops_cached_digest(self, machine):
        e, space = build_enclave(machine)
        p = machine.pages[e.pages[0x10]]
        stale = p.digest()
        machine.write_page(space, 0x10, b"new", 1, offset=7)
        assert p.digest() != stale
        assert p.digest() == hashlib.sha256(p.content).digest()

    def test_digest_is_cached_until_write(self):
        p = PhysicalPage(1, bytearray(page(1)))
        first = p.digest()
        assert p.digest() is first
        p.write(b"x", offset=PAGE_SIZE - 1)
        assert p.digest() == hashlib.sha256(p.content).digest() != first

    def test_write_across_page_boundary_keeps_content(self):
        p = PhysicalPage(1, bytearray(page(1)))
        digest = p.digest()
        with pytest.raises(ValueError):
            p.write(b"xy", offset=PAGE_SIZE - 1)
        assert p.content == page(1) and p.digest() is digest

    def test_negative_write_offset_keeps_content(self):
        p = PhysicalPage(1, bytearray(page(1)))
        digest = p.digest()
        with pytest.raises(ValueError):
            p.write(b"xy", offset=-2)
        assert p.content == page(1) and p.digest() is digest


class TestTranslate:
    def test_honest_mapping(self, machine):
        e, space = build_enclave(machine)
        page = machine.translate_access(space, 0x10, 1)
        assert page is machine.pages[e.pages[0x10]]

    def test_unmapped_faults(self, machine):
        _, space = build_enclave(machine)
        with pytest.raises(errors.NotMapped):
            machine.translate_access(space, 0x99, 1)

    def test_non_enclave_access_aborts(self, machine):
        _, space = build_enclave(machine)
        with pytest.raises(errors.AbortPage):
            machine.translate_access(space, 0x10, None)

    def test_non_epc_page_skips_epcm(self, machine):
        _, space = build_enclave(machine)
        plain = machine.alloc_plain_page(b"hello")
        space[0x200] = plain.pa
        assert machine.translate_access(space, 0x200, None) is plain

    def test_exhaustive_remap_permutations(self):
        # Every wrong (va, pa) pairing over a 3-page enclave must fault.
        machine = Machine(epc_capacity_pages=8)
        e = machine.ecreate(1)
        vas = [0x10, 0x11, 0x12]
        pas = [machine.eadd(e, va, page(i))[0] for i, va in enumerate(vas)]
        machine.einit(e)
        for perm in itertools.permutations(pas):
            space = dict(zip(vas, perm))
            for va, pa in zip(vas, perm):
                honest = pa == e.pages[va]
                if honest:
                    assert machine.translate_access(space, va, 1).pa == pa
                else:
                    with pytest.raises(errors.EpcmMismatch):
                        machine.translate_access(space, va, 1)

    def test_second_container_with_same_mapping_succeeds(self, machine):
        # Process identity plays no part in the EPCM check.
        e, creator_space = build_enclave(machine)
        other = dict(e.pages)
        assert machine.translate_access(other, 0x10, 1).pa == e.pages[0x10]

    def test_tcs_page_refuses_regular_access(self, machine):
        # As the EPCM does for a PT_TCS page: only EENTER and ERESUME use
        # it, so a read or write through its own honest mapping faults.
        e, space = build_enclave(machine)
        tcs_page = machine.pages[e.pages[0x100]]
        before = bytes(tcs_page.content)
        with pytest.raises(errors.EpcmMismatch, match="TCS page"):
            machine.read_page(space, 0x100, 1)
        with pytest.raises(errors.EpcmMismatch, match="TCS page"):
            machine.write_page(space, 0x100, b"overwrite", 1)
        assert tcs_page.content == before
        machine.eexit(machine.eenter(space, 0x100))


class TestThreads:
    def test_enter_exit_cycle(self, machine):
        e, space = build_enclave(machine)
        thread = machine.eenter(space, 0x100)
        tcs = e.tcs_table[0x100]
        assert tcs.busy
        machine.eexit(thread)
        assert not tcs.busy

    def test_entry_registers_seeded_from_oentry(self, machine):
        # Every fresh entry starts from the SHA-256 of the TCS's entry
        # point, measured (pre-init) or added after EINIT alike.
        e, space = build_enclave(machine, tcs=3)
        space[0x1F0], _ = machine.eadd(e, 0x1F0, b"", PageType.TCS)
        for va in (0x100, 0x101, 0x102, 0x1F0):
            seed = hashlib.sha256(f"oentry:{va:#x}".encode()).digest()[:8]
            expected = (int.from_bytes(seed, "little"), 0, 0, 0)
            thread = machine.eenter(space, va)
            assert thread.registers == expected
            thread.registers = (1, 2, 3, 4)
            machine.aex(thread)
            machine.eexit(machine.eresume(space, va))
            # A fresh entry after an exit starts from the seed again.
            assert machine.eenter(space, va).registers == expected

    def test_enter_busy_tcs(self, machine):
        _, space = build_enclave(machine)
        machine.eenter(space, 0x100)
        with pytest.raises(errors.TcsBusy):
            machine.eenter(space, 0x100)

    def test_enter_non_tcs_page(self, machine):
        _, space = build_enclave(machine)
        with pytest.raises(errors.NotTcsPage):
            machine.eenter(space, 0x10)

    def test_enter_through_a_bad_mapping(self, machine):
        _, space = build_enclave(machine)
        with pytest.raises(errors.NotMapped):
            machine.eenter(space, 0x1FF)
        # A va mapped to no physical page, then to a plain page.
        space[0x1FF] = 10**6
        with pytest.raises(errors.NotTcsPage, match="not a protected page"):
            machine.eenter(space, 0x1FF)
        space[0x1FF] = machine.alloc_plain_page().pa
        with pytest.raises(errors.NotTcsPage, match="not a protected page"):
            machine.eenter(space, 0x1FF)

    def test_cross_process_entry(self, machine):
        # A TCS created under one container's setup is usable from another.
        e, creator_space = build_enclave(machine)
        thread = machine.eenter(dict(e.pages), 0x100)
        assert thread.enclave_id == 1

    def test_aex_resume_round_trip(self, machine):
        e, space = build_enclave(machine)
        thread = machine.eenter(space, 0x100)
        thread.registers = (11, 22, 33, 44)
        machine.aex(thread)
        resumed = machine.eresume(space, 0x100)
        assert resumed.registers == (11, 22, 33, 44)

    def test_resume_fresh_tcs(self, machine):
        _, space = build_enclave(machine)
        with pytest.raises(errors.NoSavedContext):
            machine.eresume(space, 0x100)
