import pytest

from enclavesim import errors
from enclavesim.host_kernel import Kernel
from enclavesim.sgx_core import Machine, PAGE_SIZE, PageType


@pytest.fixture
def machine():
    return Machine(epc_capacity_pages=32)


@pytest.fixture
def kernel(machine):
    return Kernel(machine)


def make_enclave(machine, kernel, n_pages=2):
    creator = kernel.create_container("/app")
    enclave = machine.ecreate(1)
    for i in range(n_pages):
        pa, _ = machine.eadd(enclave, 0x10 + i, bytes([i]) * PAGE_SIZE)
        creator.page_table[0x10 + i] = pa
    machine.einit(enclave)
    return enclave, creator


class TestContainers:
    def test_fresh_container(self, kernel):
        c = kernel.create_container("/app-A")
        assert c.pid == 1 and c.page_table == {}

    def test_distinct_pids(self, kernel):
        assert kernel.create_container("/a").pid != \
            kernel.create_container("/b").pid

    def test_destroy_leaves_aliased_pages(self, machine, kernel):
        _, creator = make_enclave(machine, kernel)
        other = kernel.create_container("/b")
        other.page_table.update(creator.page_table)
        del kernel.containers[other.pid]
        assert other.pid not in kernel.containers
        assert machine.translate_access(creator.page_table, 0x10, 1)

    def test_initially_disjoint_tables(self, machine, kernel):
        _, creator = make_enclave(machine, kernel)
        other = kernel.create_container("/b")
        assert not set(other.page_table) & set(creator.page_table)


class TestMappingRecord:
    def test_snapshot_matches_pages(self, machine, kernel):
        enclave, _ = make_enclave(machine, kernel)
        record = kernel.record_enclave_mappings(enclave)
        assert dict(record.entries) == enclave.pages

    def test_snapshot_excludes_later_pages(self, machine, kernel):
        enclave, _ = make_enclave(machine, kernel)
        record = kernel.record_enclave_mappings(enclave)
        machine.eadd(enclave, 0x50, b"\x09" * PAGE_SIZE)
        assert 0x50 not in dict(record.entries)

    def test_uninitialized_rejected(self, machine, kernel):
        enclave = machine.ecreate(1)
        with pytest.raises(errors.EnclaveNotInitialized):
            kernel.record_enclave_mappings(enclave)


class TestAlias:
    def test_aliased_read_sees_same_bytes(self, machine, kernel):
        enclave, creator = make_enclave(machine, kernel)
        record = kernel.record_enclave_mappings(enclave)
        other = kernel.create_container("/b")
        kernel.alias_enclave(other, record)
        assert machine.read_page(other.page_table, 0x10, 1) == \
            machine.read_page(creator.page_table, 0x10, 1)

    def test_conflicting_va_rejected(self, machine, kernel):
        enclave, _ = make_enclave(machine, kernel)
        record = kernel.record_enclave_mappings(enclave)
        other = kernel.create_container("/b")
        other.page_table[0x10] = 0x999
        with pytest.raises(errors.VaConflict):
            kernel.alias_enclave(other, record)

    def test_write_visible_through_three_containers(self, machine, kernel):
        # Brute-force a 2-page enclave against a shared-array oracle.
        enclave, creator = make_enclave(machine, kernel, n_pages=2)
        record = kernel.record_enclave_mappings(enclave)
        readers = [creator]
        for name in ("/b", "/c"):
            c = kernel.create_container(name)
            kernel.alias_enclave(c, record)
            readers.append(c)
        oracle = {va: bytearray(machine.pages[pa].content)
                  for va, pa in enclave.pages.items()}
        for step, va in enumerate(sorted(enclave.pages)):
            data = bytes([step + 1]) * 16
            machine.write_page(creator.page_table, va, data, 1)
            oracle[va][:16] = data
            for reader in readers:
                got = machine.read_page(reader.page_table, va, 1)
                assert got == bytes(oracle[va])


class TestTcsTable:
    def make_table(self, machine, kernel, rows=2):
        enclave = machine.ecreate(1)
        for i in range(rows):
            machine.eadd(enclave, 0x100 + i, b"", PageType.TCS)
        machine.einit(enclave)
        return dict.fromkeys(enclave.tcs_table)

    def test_lowest_free_row_first(self, machine, kernel):
        table = self.make_table(machine, kernel)
        assert kernel.tcs_acquire(table, 1) == 0x100
        assert kernel.tcs_acquire(table, 2) == 0x101

    def test_exhaustion(self, machine, kernel):
        table = self.make_table(machine, kernel)
        kernel.tcs_acquire(table, 1)
        kernel.tcs_acquire(table, 2)
        with pytest.raises(errors.NoFreeTcs):
            kernel.tcs_acquire(table, 3)

    def test_release_reuses_row(self, machine, kernel):
        table = self.make_table(machine, kernel)
        va = kernel.tcs_acquire(table, 1)
        kernel.tcs_release(table, va)
        assert kernel.tcs_acquire(table, 2) == va

    def test_release_unheld(self, machine, kernel):
        table = self.make_table(machine, kernel)
        with pytest.raises(errors.NotHeld):
            kernel.tcs_release(table, 0x100)

    def test_release_of_a_va_not_in_the_table(self, machine, kernel):
        table = self.make_table(machine, kernel)
        with pytest.raises(errors.NotHeld, match="not present"):
            kernel.tcs_release(table, 0x10)
        assert table == {0x100: None, 0x101: None}

    def test_all_available_after_release(self, machine, kernel):
        table = self.make_table(machine, kernel)
        va = kernel.tcs_acquire(table, 1)
        kernel.tcs_release(table, va)
        assert all(holder is None for holder in table.values())


class TestAdversary:
    def test_remap_epc_page_faults(self, machine, kernel):
        enclave, creator = make_enclave(machine, kernel, n_pages=2)
        creator.page_table[0x10] = enclave.pages[0x11]
        with pytest.raises(errors.EpcmMismatch):
            machine.translate_access(creator.page_table, 0x10, 1)

    def test_remap_non_enclave_va_follows_new_mapping(self, machine, kernel):
        _, creator = make_enclave(machine, kernel)
        a = machine.alloc_plain_page(b"a")
        b = machine.alloc_plain_page(b"b")
        creator.page_table[0x300] = a.pa
        creator.page_table[0x300] = b.pa
        assert machine.translate_access(creator.page_table, 0x300, None) is b
