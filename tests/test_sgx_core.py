import hashlib
import itertools

import pytest
from hypothesis import example, given, strategies as st

from enclavesim import errors, security
from enclavesim.enclave_runtime import EnclaveRuntime
from enclavesim.host_kernel import Kernel
from enclavesim.sgx_core import (
    Access,
    AddressSpace,
    Machine,
    NON_ENCLAVE,
    PAGE_SIZE,
    PageType,
    PhysicalPage,
    TcsState,
    content_digest,
    digest_update,
    enclave_mode,
)


def page(tag):
    return bytes([tag]) * PAGE_SIZE


@pytest.fixture
def machine():
    return Machine(epc_capacity_pages=16)


def build_enclave(machine, eid=1, n_pages=2, tcs=1):
    enclave = machine.ecreate(eid)
    space = AddressSpace()
    for i in range(n_pages):
        pa, _ = machine.eadd(enclave, 0x10 + i, page(i))
        space.map(0x10 + i, pa)
    for i in range(tcs):
        pa, _ = machine.eadd(enclave, 0x100 + i, b"", PageType.TCS)
        space.map(0x100 + i, pa)
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
        assert entry.va == 0x10 and entry.enclave_id == 1 and entry.valid
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


def fnv1a_reference(acc, data):
    """64-bit FNV-1a, one octet at a time."""
    for b in data:
        acc = ((acc ^ b) * 0x100000001B3) % 2**64
    return acc


# Byte strings built from runs: non-zero-heavy chunks and zero runs of up
# to two pages, so trailing and interior zero runs both occur.
_RUNS = st.lists(st.one_of(st.binary(max_size=40),
                           st.integers(1, 2 * PAGE_SIZE).map(bytes)),
                 max_size=6).map(b"".join)


class TestDigestUpdate:
    @given(acc=st.integers(0, 2**64 - 1),
           data=st.one_of(_RUNS, _RUNS.map(bytearray)))
    @example(acc=0xCBF29CE484222325, data=b"")
    @example(acc=0xCBF29CE484222325, data=bytes(PAGE_SIZE))
    @example(acc=2**64 - 1, data=bytes(PAGE_SIZE - 1) + b"\x01")
    @example(acc=0, data=b"\x07" + bytes(PAGE_SIZE - 2) + b"\x09")
    @example(acc=1, data=bytearray(b"\xff" + bytes(100) + b"\x80"))
    def test_matches_byte_at_a_time_fnv1a(self, acc, data):
        assert digest_update(acc, data) == fnv1a_reference(acc, data)


class TestPinnedMeasurements:
    """Launch measurements computed before the digest's zero runs were
    folded in closed form; they must never move."""

    @pytest.mark.parametrize("runtime_pages, tcs_count, measurement", [
        (3, 2, 0x22F1E06861D91C07),
        (1, 3, 0xE1CBA6CC1DDCB3FC),
        (2, 2, 0x9C8CA3BDDBE3A959),
        (16, 4, 0xC523D82DB0F7DED5),
    ])
    def test_runtime_init(self, runtime_pages, tcs_count, measurement):
        machine = Machine()
        runtime = EnclaveRuntime(machine, Kernel(machine))
        assert runtime.runtime_init(runtime_pages, tcs_count) == measurement
        assert runtime.enclave.measurement == measurement

    def test_remap_enumeration_enclaves(self, monkeypatch):
        measured = {}
        einit = Machine.einit

        def recording_einit(machine, enclave):
            measured[enclave.enclave_id] = einit(machine, enclave)
            return measured[enclave.enclave_id]

        monkeypatch.setattr(Machine, "einit", recording_einit)
        trials, failures = security.remap_enumeration()
        assert trials and not failures
        assert measured == {1: 0xE43669D908765F11, 2: 0x394EFC82B18714DA}


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
        machine.write_page(space, 0x10, b"new", enclave_mode(1), offset=7)
        assert p.digest() != stale
        assert p.digest() == hashlib.sha256(p.content).digest()

    def test_digest_is_cached_until_write(self):
        p = PhysicalPage(1, bytearray(page(1)), is_epc=True)
        first = p.digest()
        assert p.digest() is first
        p.write(b"x", offset=PAGE_SIZE - 1)
        assert p.digest() == hashlib.sha256(p.content).digest() != first

    def test_write_across_page_boundary_keeps_content(self):
        p = PhysicalPage(1, bytearray(page(1)), is_epc=True)
        digest = p.digest()
        with pytest.raises(ValueError):
            p.write(b"xy", offset=PAGE_SIZE - 1)
        assert p.content == page(1) and p.digest() is digest


class TestTranslate:
    def test_honest_mapping(self, machine):
        e, space = build_enclave(machine)
        pa = machine.translate_access(space, 0x10, Access.READ, enclave_mode(1))
        assert pa == e.pages[0x10]

    def test_unmapped_faults(self, machine):
        _, space = build_enclave(machine)
        with pytest.raises(errors.NotMapped):
            machine.translate_access(space, 0x99, Access.READ, enclave_mode(1))

    def test_non_enclave_access_aborts(self, machine):
        _, space = build_enclave(machine)
        with pytest.raises(errors.AbortPage):
            machine.translate_access(space, 0x10, Access.READ, NON_ENCLAVE)

    def test_non_epc_page_skips_epcm(self, machine):
        _, space = build_enclave(machine)
        plain = machine.alloc_plain_page(b"hello")
        space.map(0x200, plain.pa)
        assert machine.translate_access(
            space, 0x200, Access.READ, NON_ENCLAVE) == plain.pa

    def test_exhaustive_remap_permutations(self):
        # Every wrong (va, pa) pairing over a 3-page enclave must fault.
        machine = Machine(epc_capacity_pages=8)
        e = machine.ecreate(1)
        vas = [0x10, 0x11, 0x12]
        pas = [machine.eadd(e, va, page(i))[0] for i, va in enumerate(vas)]
        machine.einit(e)
        for perm in itertools.permutations(pas):
            space = AddressSpace()
            for va, pa in zip(vas, perm):
                space.map(va, pa)
            for va, pa in zip(vas, perm):
                honest = pa == e.pages[va]
                if honest:
                    assert machine.translate_access(
                        space, va, Access.READ, enclave_mode(1)) == pa
                else:
                    with pytest.raises(errors.EpcmMismatch):
                        machine.translate_access(
                            space, va, Access.READ, enclave_mode(1))

    def test_second_container_with_same_mapping_succeeds(self, machine):
        # Process identity plays no part in the EPCM check.
        e, creator_space = build_enclave(machine)
        other = AddressSpace()
        for va, pa in e.pages.items():
            other.map(va, pa)
        assert machine.translate_access(
            other, 0x10, Access.READ, enclave_mode(1)) == e.pages[0x10]


class TestThreads:
    def test_enter_exit_cycle(self, machine):
        e, space = build_enclave(machine)
        thread = machine.eenter(space, 0x100)
        tcs = e.tcs_for(0x100)
        assert tcs.state is TcsState.BUSY
        machine.eexit(thread)
        assert tcs.state is TcsState.AVAILABLE

    def test_enter_busy_tcs(self, machine):
        _, space = build_enclave(machine)
        machine.eenter(space, 0x100)
        with pytest.raises(errors.TcsBusy):
            machine.eenter(space, 0x100)

    def test_enter_non_tcs_page(self, machine):
        _, space = build_enclave(machine)
        with pytest.raises(errors.NotTcsPage):
            machine.eenter(space, 0x10)

    def test_cross_process_entry(self, machine):
        # A TCS created under one container's setup is usable from another.
        e, creator_space = build_enclave(machine)
        other = AddressSpace()
        for va, pa in e.pages.items():
            other.map(va, pa)
        thread = machine.eenter(other, 0x100)
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
