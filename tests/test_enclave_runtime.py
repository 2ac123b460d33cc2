import hashlib
import itertools

import pytest
from hypothesis import settings

from enclavesim import errors
from enclavesim.enclave_runtime import (
    Access,
    COPY_BASE,
    DB_BASE,
    EnclaveRuntime,
    INSTANCE_BASE,
    RUNTIME_BASE,
    TCS_BASE,
)
from enclavesim.host_kernel import Kernel
from enclavesim.sgx_core import (
    EnclaveThread,
    Machine,
    PAGE_SIZE,
)

from cow_oracle import (
    EagerForkOracle,
    build_db_runtime,
    build_forked_runtime,
    expected_snapshot,
    run_cow_trial,
    run_multi_cycle_trial,
)


@pytest.fixture
def rt():
    machine = Machine(epc_capacity_pages=256)
    kernel = Kernel(machine)
    runtime = EnclaveRuntime(machine, kernel)
    runtime.runtime_init(runtime_pages=2, tcs_count=4)
    return machine, kernel, runtime


def free_rows(table):
    """The TCS pages no thread holds."""
    return sum(holder is None for holder in table.values())


class TestThreads:
    def test_enter_exit_releases_tcs(self, rt):
        _, kernel, runtime = rt
        runtime.enter(runtime.creator.pid)
        runtime.exit(runtime.creator.pid)
        assert free_rows(runtime.tcs_table) == 4

    def test_attach_then_enter_second_container(self, rt):
        _, kernel, runtime = rt
        other = kernel.create_container("/b")
        runtime.attach_container(other)
        thread = runtime.enter(other.pid)
        assert thread.live and thread.enclave_id == 1

    def test_tcs_exhaustion(self, rt):
        _, kernel, runtime = rt
        pids = [runtime.creator.pid]
        for i in range(4):
            c = kernel.create_container(f"/c{i}")
            runtime.attach_container(c)
            pids.append(c.pid)
        for pid in pids[:4]:
            runtime.enter(pid)
        with pytest.raises(errors.NoFreeTcs):
            runtime.enter(pids[4])

    def test_exit_on_suspended_thread_keeps_tcs_held(self, rt):
        _, _, runtime = rt
        pid = runtime.creator.pid
        runtime.enter(pid)
        runtime.suspend(pid)
        threads = dict(runtime.threads)
        holders = dict(runtime.tcs_table)
        with pytest.raises(errors.SimError):
            runtime.exit(pid)
        assert runtime.threads == threads
        assert runtime.tcs_table == holders
        runtime.check_invariants()
        assert runtime.resume(pid).live
        runtime.exit(pid)
        assert pid not in runtime.threads
        assert free_rows(runtime.tcs_table) == 4

    def test_second_enter_of_a_pid_is_refused(self, rt):
        # Live, then suspended: either way the pid holds its thread, and a
        # second entry takes no TCS.
        _, _, runtime = rt
        pid = runtime.creator.pid
        thread = runtime.enter(pid)
        holders = dict(runtime.tcs_table)
        for suspended in (False, True):
            if suspended:
                runtime.suspend(pid)
            with pytest.raises(errors.SimError, match="already holds"):
                runtime.enter(pid)
            assert runtime.threads == {pid: thread}
            assert runtime.tcs_table == holders
            runtime.check_invariants()
        runtime.resume(pid)
        runtime.exit(pid)
        assert runtime.threads == {} and free_rows(runtime.tcs_table) == 4

    def test_check_invariants_names_a_removed_tcs(self):
        # The untrusted kernel EREMOVEs a TCS page its table still lists.
        machine = Machine()
        runtime = EnclaveRuntime(machine, Kernel(machine))
        runtime.runtime_init(runtime_pages=1, tcs_count=2)
        machine.eremove(runtime.enclave, TCS_BASE + 1)
        with pytest.raises(errors.InvariantViolation, match="tcs 0x101"):
            runtime.check_invariants()

    def test_check_invariants_before_runtime_init(self):
        # The TCS table is empty: no TCS to check, but the EPC counts are.
        machine = Machine()
        runtime = EnclaveRuntime(machine, Kernel(machine))
        runtime.check_invariants()
        machine.epc_used += 1
        with pytest.raises(errors.InvariantViolation, match="epc_used 1"):
            runtime.check_invariants()

    def test_refused_enter_releases_the_tcs_row(self):
        machine = Machine()
        kernel = Kernel(machine)
        runtime = EnclaveRuntime(machine, kernel)
        runtime.runtime_init(runtime_pages=1, tcs_count=2)
        other = kernel.create_container("/b")
        runtime.attach_container(other)
        # The kernel points the second container's first TCS va at a
        # runtime page: the hardware refuses the entry.
        other.page_table[TCS_BASE] = runtime.enclave.pages[RUNTIME_BASE]
        with pytest.raises(errors.EpcmMismatch):
            runtime.enter(other.pid)
        assert other.pid not in runtime.threads
        runtime.check_invariants()
        assert free_rows(runtime.tcs_table) == 2
        # The row is free again: an honest entry gets the same TCS.
        assert runtime.enter(runtime.creator.pid).tcs_va == TCS_BASE
        runtime.check_invariants()

    def test_check_invariants_flags_double_bound_tcs(self, rt):
        _, _, runtime = rt
        thread = runtime.enter(runtime.creator.pid)
        runtime.check_invariants()
        # A second live thread on the same TCS, under another pid.
        runtime.threads[-1] = EnclaveThread(thread.enclave_id, thread.tcs_va,
                                            thread.registers)
        with pytest.raises(errors.InvariantViolation,
                           match="more than one live thread"):
            runtime.check_invariants()

    def test_eremove_refuses_a_busy_tcs(self, rt):
        # A live or suspended thread holds its TCS; the kernel cannot
        # remove the page under it.
        machine, _, runtime = rt
        pid = runtime.creator.pid
        tcs_va = runtime.enter(pid).tcs_va
        used = machine.epc_used
        for step in (lambda: None, lambda: runtime.suspend(pid)):
            step()
            with pytest.raises(errors.TcsBusy):
                machine.eremove(runtime.enclave, tcs_va)
            assert tcs_va in runtime.enclave.tcs_table
            assert machine.epc_used == used
            runtime.check_invariants()
        runtime.resume(pid)
        runtime.exit(pid)
        machine.eremove(runtime.enclave, tcs_va)
        assert tcs_va not in runtime.enclave.tcs_table

    def test_tcs_page_refuses_read_and_write(self, rt):
        # Only enter and resume use a TCS page: the runtime's regular
        # access to one faults and leaves its bytes as they were.
        machine, _, runtime = rt
        pid = runtime.creator.pid
        tcs_page = machine.pages[runtime.enclave.pages[TCS_BASE]]
        before = bytes(tcs_page.content)
        with pytest.raises(errors.EpcmMismatch):
            runtime.read(pid, TCS_BASE)
        with pytest.raises(errors.EpcmMismatch):
            runtime.write(pid, TCS_BASE, b"overwrite")
        assert tcs_page.content == before
        assert runtime.enter(pid).tcs_va == TCS_BASE

    def test_check_invariants_flags_table_drift(self, rt):
        _, _, runtime = rt
        runtime.enter(runtime.creator.pid)
        runtime.check_invariants()
        runtime.tcs_table[TCS_BASE] = None
        with pytest.raises(errors.InvariantViolation):
            runtime.check_invariants()


class TestInstances:
    def test_create_maps_region_pages(self, rt):
        machine, _, runtime = rt
        used = machine.epc_used
        instance = runtime.instance_create(runtime.creator.pid, 3)
        assert machine.epc_used == used + 3
        assert instance.region[1] == 3
        assert all(va in runtime.enclave.pages for va in instance.vas())

    def test_disjoint_regions(self, rt):
        _, _, runtime = rt
        a = runtime.instance_create(runtime.creator.pid, 3)
        b = runtime.instance_create(runtime.creator.pid, 2)
        a_pages = set(range(a.region[0], a.region[0] + a.region[1]))
        b_pages = set(range(b.region[0], b.region[0] + b.region[1]))
        assert not a_pages & b_pages

    def test_in_region_read_write(self, rt):
        _, _, runtime = rt
        instance = runtime.instance_create(runtime.creator.pid, 1)
        va = instance.region[0]
        runtime.instance_access(instance, va, Access.WRITE, b"payload")
        assert runtime.instance_access(
            instance, va, Access.READ)[:7] == b"payload"

    def test_runtime_pages_read_only(self, rt):
        _, _, runtime = rt
        instance = runtime.instance_create(runtime.creator.pid, 1)
        runtime.instance_access(instance, RUNTIME_BASE, Access.READ)
        with pytest.raises(errors.IsolationFault):
            runtime.instance_access(instance, RUNTIME_BASE, Access.WRITE, b"x")

    def test_out_of_region_denied(self, rt):
        _, _, runtime = rt
        a = runtime.instance_create(runtime.creator.pid, 1)
        b = runtime.instance_create(runtime.creator.pid, 1)
        with pytest.raises(errors.IsolationFault):
            runtime.instance_access(a, b.region[0], Access.READ)

    def test_remapped_backing_detected(self, rt):
        # Kernel swaps an enclave-private page for a plain one; the sandbox
        # check refuses the access even though translation succeeds.
        machine, _, runtime = rt
        instance = runtime.instance_create(runtime.creator.pid, 1)
        va = instance.region[0]
        plain = machine.alloc_plain_page(b"outside")
        runtime.creator.page_table[va] = plain.pa
        with pytest.raises((errors.IsolationFault, errors.Fault)):
            runtime.instance_access(instance, va, Access.READ)

    def test_destroyed_instance_region_reused(self, rt):
        # A's stale handle must not reach B, created in A's freed region.
        _, kernel, runtime = rt
        other = kernel.create_container("/b")
        runtime.attach_container(other)
        a = runtime.instance_create(runtime.creator.pid, 1)
        va = a.region[0]
        runtime.instance_access(a, va, Access.WRITE, b"A's secret")
        runtime.fs_create(a, "a.txt", b"A's file")
        runtime.instance_destroy(a)
        b = runtime.instance_create(other.pid, 1)
        assert b.region == a.region
        for access, data in ((Access.READ, b""), (Access.WRITE, b"x")):
            with pytest.raises(errors.IsolationFault):
                runtime.instance_access(a, va, access, data)
        with pytest.raises(errors.IsolationFault):
            runtime.instance_destroy(a)
        assert runtime.instances == {b.instance_id: b}
        # B reads its own code fill, not A's write.
        assert runtime.instance_access(b, va, Access.READ) == \
            bytes([0x7F]) * PAGE_SIZE
        # A's file went with it.
        with pytest.raises(errors.FsNotFound):
            runtime.fs_open(runtime.creator.pid, "a.txt")
        runtime.check_invariants()

    def test_create_before_runtime_init(self):
        machine = Machine()
        runtime = EnclaveRuntime(machine, Kernel(machine))
        with pytest.raises(errors.EnclaveNotInitialized):
            runtime.instance_create(runtime.creator.pid, 1)
        assert runtime.instances == {} and machine.epc_used == 0

    def test_attached_mapping_of_a_destroyed_instance(self, rt):
        # Destroying unmaps the owner's va only: a container attached
        # before keeps a mapping to the freed physical page.
        _, kernel, runtime = rt
        instance = runtime.instance_create(runtime.creator.pid, 1)
        other = kernel.create_container("/b")
        runtime.attach_container(other)
        va = instance.region[0]
        runtime.instance_destroy(instance)
        assert va in other.page_table
        with pytest.raises(errors.NotMapped, match="does not exist"):
            runtime.read(other.pid, va)

    def test_destroy_frees_pages_and_region(self, rt):
        machine, _, runtime = rt
        used = machine.epc_used
        instance = runtime.instance_create(runtime.creator.pid, 2)
        region = instance.region
        runtime.instance_destroy(instance)
        assert machine.epc_used == used
        reused = runtime.instance_create(runtime.creator.pid, 2)
        assert reused.region == region

    def test_adjacent_freed_regions_merge(self, rt):
        machine, _, runtime = rt
        pid = runtime.creator.pid
        a, b, c = (runtime.instance_create(pid, 1) for _ in range(3))
        assert [i.region for i in (a, b, c)] == [
            (INSTANCE_BASE + k, 1) for k in range(3)]
        runtime.instance_destroy(a)
        runtime.instance_destroy(c)
        # Two 1-page holes, not yet touching: a 2-page instance goes to
        # the bump pointer.
        wide = runtime.instance_create(pid, 2)
        assert wide.region == (INSTANCE_BASE + 3, 2)
        runtime.instance_destroy(wide)
        # b's page joins a's hole on its left and the hole c and wide
        # left on its right.
        runtime.instance_destroy(b)
        assert runtime.instance_create(pid, 5).region == (INSTANCE_BASE, 5)
        machine.check_epc_conservation()

    def test_create_rollback_on_epc_exhaustion(self):
        machine = Machine(epc_capacity_pages=8)
        kernel = Kernel(machine)
        runtime = EnclaveRuntime(machine, kernel)
        runtime.runtime_init(runtime_pages=1, tcs_count=2)
        live = runtime.instance_create(runtime.creator.pid, 1)
        used = machine.epc_used
        with pytest.raises(errors.OutOfEpc):
            runtime.instance_create(runtime.creator.pid, 16)
        assert machine.epc_used == used
        assert runtime.instances == {live.instance_id: live}
        machine.check_epc_conservation()
        # The refused instance's region is free again.
        reused = runtime.instance_create(runtime.creator.pid, 2)
        assert reused.region[0] == live.region[0] + 1
        runtime.check_invariants()

    def test_create_rollback_on_any_fault(self, rt):
        # A page the instance never added sits in its region: the create
        # faults midway and must leave nothing of the instance behind.
        machine, _, runtime = rt
        pid = runtime.creator.pid
        runtime.instance_destroy(runtime.instance_create(pid, 2))
        machine.eadd(runtime.enclave, INSTANCE_BASE + 1, b"EVIL")
        before = dict(runtime.instances)
        with pytest.raises(errors.VaAlreadyMapped):
            runtime.instance_create(pid, 2)
        assert runtime.instances == before
        page_table = runtime.creator.page_table
        for va in (INSTANCE_BASE, INSTANCE_BASE + 1):
            assert va not in runtime.enclave.pages
            assert va not in page_table
        runtime.check_invariants()
        machine.check_epc_conservation()
        # The region is free again.
        assert runtime.instance_create(pid, 2).region == (INSTANCE_BASE, 2)

    def test_region_exhausted_adds_nothing(self, rt):
        machine, _, runtime = rt
        pid = runtime.creator.pid
        used = machine.epc_used
        with pytest.raises(errors.RegionExhausted):
            runtime.instance_create(pid, DB_BASE - INSTANCE_BASE + 1)
        assert runtime.instances == {}
        assert machine.epc_used == used
        # The refused region was never reserved.
        assert runtime.instance_create(pid, 1).region == (INSTANCE_BASE, 1)

    @pytest.mark.parametrize("pages", [0, -2])
    def test_size_below_one_page_refused(self, rt, pages):
        # A negative size would move the bump pointer back onto A's
        # region: the next instance would fail on A's first page, and its
        # rollback would remove A's pages while A stays live.
        machine, _, runtime = rt
        pid = runtime.creator.pid
        a = runtime.instance_create(pid, 2)
        runtime.instance_access(a, a.region[0], Access.WRITE, b"A's code")
        used = machine.epc_used
        with pytest.raises(ValueError):
            runtime.instance_create(pid, pages)
        assert list(runtime.instances) == [a.instance_id]
        assert machine.epc_used == used
        b = runtime.instance_create(pid, 2)
        assert b.region == (a.region[0] + 2, 2)
        assert runtime.instance_access(
            a, a.region[0], Access.READ)[:8] == b"A's code"
        assert runtime.instance_access(a, a.region[0] + 1, Access.READ) == \
            bytes([0x7F]) * PAGE_SIZE

    def test_fractional_size_refused(self, rt):
        # A fractional size would leave the bump pointer between pages,
        # and every later instance would fail.
        machine, _, runtime = rt
        pid = runtime.creator.pid
        used = machine.epc_used
        with pytest.raises(ValueError):
            runtime.instance_create(pid, 1.5)
        assert runtime._instance_bump == INSTANCE_BASE
        assert runtime.instances == {}
        assert machine.epc_used == used
        assert runtime.instance_create(pid, 1).region == (INSTANCE_BASE, 1)
        runtime.check_invariants()


class TestFilesystem:
    def make_instance(self, rt, pid=None):
        _, _, runtime = rt
        return runtime.instance_create(pid or runtime.creator.pid, 1)

    def test_create_open_round_trip(self, rt):
        _, _, runtime = rt
        instance = self.make_instance(rt)
        runtime.fs_create(instance, "a.txt", b"hello")
        assert runtime.fs_open(runtime.creator.pid, "a.txt") == b"hello"

    def test_open_missing(self, rt):
        _, _, runtime = rt
        self.make_instance(rt)
        with pytest.raises(errors.FsNotFound):
            runtime.fs_open(runtime.creator.pid, "ghost")

    def test_cross_instance_access_denied(self, rt):
        _, kernel, runtime = rt
        mine = self.make_instance(rt)
        other_c = kernel.create_container("/b")
        runtime.attach_container(other_c)
        runtime.instance_create(other_c.pid, 1)
        runtime.fs_create(mine, "a.txt", b"hello")
        with pytest.raises(errors.FsNotOwner):
            runtime.fs_open(other_c.pid, "a.txt")

    def test_duplicate_name_refused_across_pids(self, rt):
        _, kernel, runtime = rt
        mine = self.make_instance(rt)
        runtime.fs_create(mine, "a.txt", b"mine")
        other = kernel.create_container("/b")
        runtime.attach_container(other)
        theirs = self.make_instance(rt, other.pid)
        with pytest.raises(errors.FsFault, match="already exists"):
            runtime.fs_create(theirs, "a.txt", b"theirs")
        assert runtime.fs_open(runtime.creator.pid, "a.txt") == b"mine"
        with pytest.raises(errors.FsNotOwner):
            runtime.fs_open(other.pid, "a.txt")

    def test_owner_with_two_instances(self, rt):
        # The file belongs to the pid of the instance that created it,
        # whichever of the pid's instances that was.
        _, _, runtime = rt
        pid = runtime.creator.pid
        self.make_instance(rt)
        second = self.make_instance(rt)
        runtime.fs_create(second, "b.txt", b"from B")
        assert runtime.fs_open(pid, "b.txt") == b"from B"
        runtime.fs_write(pid, "b.txt", b"B again")
        assert runtime.fs_open(pid, "b.txt") == b"B again"

    def test_non_owner_pid_denied(self, rt):
        _, kernel, runtime = rt
        mine = self.make_instance(rt)
        runtime.fs_create(mine, "a.txt", b"hello")
        bystander = kernel.create_container(runtime.creator.fs_root)
        runtime.attach_container(bystander)
        # A pid with no instance at all, then one with an instance.
        for _ in range(2):
            with pytest.raises(errors.FsNotOwner):
                runtime.fs_open(bystander.pid, "a.txt")
            with pytest.raises(errors.FsNotOwner):
                runtime.fs_write(bystander.pid, "a.txt", b"overwrite")
            self.make_instance(rt, bystander.pid)
        assert runtime.fs_open(runtime.creator.pid, "a.txt") == b"hello"

    def test_destroyed_owner_files_dropped(self, rt):
        _, kernel, runtime = rt
        pid = runtime.creator.pid
        gone = self.make_instance(rt)
        kept = self.make_instance(rt)
        runtime.fs_create(gone, "a.txt", b"old")
        runtime.fs_create(kept, "k.txt", b"kept")
        runtime.instance_destroy(gone)
        assert set(runtime.files) == {"k.txt"}
        for call in (lambda: runtime.fs_open(pid, "a.txt"),
                     lambda: runtime.fs_write(pid, "a.txt", b"x")):
            with pytest.raises(errors.FsNotFound):
                call()
        assert runtime.fs_open(pid, "k.txt") == b"kept"
        # The name is free again, for another pid's new instance.
        other = kernel.create_container("/b")
        runtime.attach_container(other)
        runtime.fs_create(self.make_instance(rt, other.pid), "a.txt", b"new")
        assert runtime.fs_open(other.pid, "a.txt") == b"new"
        with pytest.raises(errors.FsNotOwner):
            runtime.fs_open(pid, "a.txt")

    def test_destroyed_instance_creates_no_file(self, rt):
        _, kernel, runtime = rt
        gone = self.make_instance(rt)
        runtime.instance_destroy(gone)
        with pytest.raises(errors.IsolationFault, match="destroyed"):
            runtime.fs_create(gone, "f", b"x")
        assert runtime.files == {}
        assert (runtime.creator.fs_root, "f") not in kernel.hostfs
        # The name stays free for a live instance.
        runtime.fs_create(self.make_instance(rt), "f", b"live")
        assert runtime.fs_open(runtime.creator.pid, "f") == b"live"

    def test_write_updates_digest(self, rt):
        _, _, runtime = rt
        instance = self.make_instance(rt)
        runtime.fs_create(instance, "a.txt", b"v1")
        runtime.fs_write(runtime.creator.pid, "a.txt", b"v2")
        assert runtime.fs_open(runtime.creator.pid, "a.txt") == b"v2"

    def test_swapped_namespace_divergent_content(self, rt):
        _, kernel, runtime = rt
        instance = self.make_instance(rt)
        runtime.fs_create(instance, "a.txt", b"secret")
        kernel.hostfs["/evil", "a.txt"] = b"sEcret"
        runtime.creator.fs_root = "/evil"
        with pytest.raises(errors.FsIntegrityMismatch):
            runtime.fs_open(runtime.creator.pid, "a.txt")

    def test_swapped_namespace_lacks_the_file(self, rt):
        _, _, runtime = rt
        runtime.fs_create(self.make_instance(rt), "a.txt", b"secret")
        runtime.creator.fs_root = "/empty"
        with pytest.raises(errors.FsIntegrityMismatch):
            runtime.fs_open(runtime.creator.pid, "a.txt")

    def test_swapped_namespace_identical_content(self, rt):
        _, kernel, runtime = rt
        instance = self.make_instance(rt)
        runtime.fs_create(instance, "a.txt", b"secret")
        kernel.hostfs["/same", "a.txt"] = b"secret"
        runtime.creator.fs_root = "/same"
        assert runtime.fs_open(runtime.creator.pid, "a.txt") == b"secret"


class TestForkCow:
    def test_fork_copies_nothing(self):
        machine, runtime = build_db_runtime(8)
        used = machine.epc_used
        pair = runtime.fork_cow(runtime.creator.pid)
        assert pair.dirty_count == 0 and machine.epc_used == used
        # All 8 pages are shared: the pair holds no copy.
        assert set(pair.page_tables) == {pair.parent_pid, pair.child_pid}
        assert pair.copies == {}

    def test_first_write_privatizes_one_page(self):
        machine, runtime, pair = build_forked_runtime(4)
        used = machine.epc_used
        runtime.cow_write(pair, pair.child_pid, DB_BASE, b"x")
        runtime.cow_write(pair, pair.child_pid, DB_BASE, b"y")
        assert machine.epc_used == used + 1 and pair.dirty_count == 1

    def test_writer_side_only_isolation(self):
        _, runtime, pair = build_forked_runtime(4)
        before = runtime.cow_read(pair, pair.parent_pid, DB_BASE)
        runtime.cow_write(pair, pair.child_pid, DB_BASE, b"child")
        assert runtime.cow_read(pair, pair.parent_pid, DB_BASE) == before
        assert runtime.cow_read(
            pair, pair.child_pid, DB_BASE)[:5] == b"child"

    def test_both_sides_diverge(self):
        _, runtime, pair = build_forked_runtime(2)
        runtime.cow_write(pair, pair.parent_pid, DB_BASE, b"parent")
        runtime.cow_write(pair, pair.child_pid, DB_BASE, b"child-")
        assert runtime.cow_read(
            pair, pair.parent_pid, DB_BASE)[:6] == b"parent"
        assert runtime.cow_read(
            pair, pair.child_pid, DB_BASE)[:6] == b"child-"

    def test_snapshot_restores_occupancy(self):
        machine, runtime, pair = build_forked_runtime(6)
        baseline = machine.epc_used
        for i in range(6):
            runtime.cow_write(pair, pair.child_pid, DB_BASE + i, b"c")
            runtime.cow_write(pair, pair.parent_pid, DB_BASE + i, b"p")
        runtime.snapshot(pair, pair.child_pid)
        assert machine.epc_used == baseline and not pair.page_tables
        machine.check_epc_conservation()

    def test_retired_pair_refuses_cow_write(self):
        machine, runtime, pair = build_forked_runtime(4)
        runtime.snapshot(pair, pair.child_pid)
        used = machine.epc_used
        with pytest.raises(errors.Fault):
            runtime.cow_write(pair, pair.parent_pid, DB_BASE, b"late")
        assert machine.epc_used == used and pair.copies == {}
        runtime.check_invariants()

    def test_retired_pair_refuses_cow_read(self):
        _, runtime, pair = build_forked_runtime(2)
        runtime.snapshot(pair, pair.child_pid)
        with pytest.raises(errors.Fault):
            runtime.cow_read(pair, pair.parent_pid, DB_BASE)

    def test_second_snapshot_raises_a_fault(self):
        machine, runtime, pair = build_forked_runtime(2)
        runtime.snapshot(pair, pair.child_pid)
        with pytest.raises(errors.Fault):
            runtime.snapshot(pair, pair.child_pid)
        machine.check_epc_conservation()

    def test_snapshot_digest_tracks_child_view(self):
        machine, runtime, pair = build_forked_runtime(3)
        runtime.cow_write(pair, pair.parent_pid, DB_BASE, b"noise")
        d1 = runtime.snapshot(pair, pair.child_pid)

        machine2, runtime2, pair2 = build_forked_runtime(3)
        runtime2.cow_write(pair2, pair2.child_pid, DB_BASE, b"dirty")
        d2 = runtime2.snapshot(pair2, pair2.child_pid)
        assert d1 != d2

    def remap_child_to_plain(self, machine, runtime, pair, va=DB_BASE):
        plain = machine.alloc_plain_page(b"attacker")
        child = runtime.kernel.containers[pair.child_pid]
        child.page_table[va] = plain.pa

    def test_cow_read_rejects_plain_backing(self):
        machine, runtime, pair = build_forked_runtime(2)
        self.remap_child_to_plain(machine, runtime, pair)
        with pytest.raises(errors.IsolationFault):
            runtime.cow_read(pair, pair.child_pid, DB_BASE)

    def test_cow_write_rejects_plain_backing(self):
        machine, runtime, pair = build_forked_runtime(2)
        used = machine.epc_used
        self.remap_child_to_plain(machine, runtime, pair)
        with pytest.raises(errors.IsolationFault):
            runtime.cow_write(pair, pair.child_pid, DB_BASE, b"x")
        assert pair.copies == {} and pair.dirty_count == 0
        assert machine.epc_used == used

    def test_snapshot_rejects_plain_backing(self):
        machine, runtime, pair = build_forked_runtime(2)
        self.remap_child_to_plain(machine, runtime, pair)
        with pytest.raises(errors.IsolationFault):
            runtime.snapshot(pair, pair.child_pid)

    def test_faulting_snapshot_still_retires_child(self):
        machine, runtime = build_db_runtime(3)
        pre_fork_used = machine.epc_used
        pair = runtime.fork_cow(runtime.creator.pid)
        runtime.cow_write(pair, pair.parent_pid, DB_BASE, b"parent")
        runtime.cow_write(pair, pair.child_pid, DB_BASE + 1, b"child")
        # The child reads its copies of both written pages, so the
        # remapped va is one that no side wrote.
        self.remap_child_to_plain(machine, runtime, pair, DB_BASE + 2)
        with pytest.raises(errors.IsolationFault):
            runtime.snapshot(pair, pair.child_pid)
        assert not pair.page_tables
        assert pair.child_pid not in runtime.threads
        assert pair.child_pid not in runtime.kernel.containers
        assert machine.epc_used == pre_fork_used
        runtime.check_invariants()

    def test_non_member_pid_is_refused(self):
        machine, runtime, pair = build_forked_runtime(2)
        outsider = runtime.kernel.create_container("/b")
        runtime.attach_container(outsider)
        parent_bytes = runtime.cow_read(pair, pair.parent_pid, DB_BASE)
        used = machine.epc_used
        calls = [(runtime.cow_write, (DB_BASE, b"outsider")),
                 (runtime.cow_read, (DB_BASE,)),
                 (runtime.snapshot, ())]
        for method, args in calls:
            with pytest.raises(errors.Fault) as caught:
                method(pair, outsider.pid, *args)
            assert isinstance(caught.value, errors.NotForkMember)
        assert machine.epc_used == used and pair.dirty_count == 0
        assert pair.page_tables and pair.copies == {}
        # The pair still works, and the outsider's bytes reached no view.
        runtime.snapshot(pair, pair.child_pid)
        page = machine.pages[runtime.enclave.pages[DB_BASE]]
        assert bytes(page.content) == parent_bytes
        runtime.check_invariants()

    def test_copy_vas_are_unreachable_outside_the_pair(self):
        # A container attached while the pair is live maps the child's
        # private copy; plain reads and writes there must fault.
        machine, runtime, pair = build_forked_runtime(2)
        runtime.cow_write(pair, pair.child_pid, DB_BASE, b"child-secret")
        (copy_va,) = pair.copies.values()
        assert copy_va == COPY_BASE
        outsider = runtime.kernel.create_container("/b")
        runtime.attach_container(outsider)
        used = machine.epc_used
        for pid in (outsider.pid, pair.child_pid, pair.parent_pid):
            with pytest.raises(errors.IsolationFault):
                runtime.read(pid, copy_va)
            with pytest.raises(errors.IsolationFault):
                runtime.write(pid, copy_va, b"OUTSIDER")
        assert runtime.cow_read(pair, pair.child_pid,
                                DB_BASE)[:12] == b"child-secret"
        assert machine.epc_used == used
        runtime.snapshot(pair, pair.child_pid)
        runtime.check_invariants()

    @pytest.mark.parametrize("faulting", [False, True],
                             ids=["snapshot", "faulting-snapshot"])
    def test_one_live_pair_until_retired(self, faulting):
        machine, runtime = build_db_runtime(4)
        parent = runtime.creator.pid
        pair = runtime.fork_cow(parent)
        runtime.cow_write(pair, parent, DB_BASE, b"pair A")
        state = (machine.epc_used, len(runtime.kernel.containers),
                 free_rows(runtime.tcs_table))
        # Two live pairs would share the originals: pair A's parent writes
        # them in place, under pair B's child. The second fork is refused.
        with pytest.raises(errors.Fault) as caught:
            runtime.fork_cow(parent)
        assert isinstance(caught.value, errors.ForkInProgress)
        assert (machine.epc_used, len(runtime.kernel.containers),
                free_rows(runtime.tcs_table)) == state
        if faulting:
            # The child reads its copy of the written page, so the remapped
            # va is one that no side wrote.
            self.remap_child_to_plain(machine, runtime, pair, DB_BASE + 1)
            with pytest.raises(errors.IsolationFault):
                runtime.snapshot(pair, pair.child_pid)
        else:
            runtime.snapshot(pair, pair.child_pid)
        # Retiring frees the slot: the next fork starts from the bytes
        # pair A's parent wrote.
        second = runtime.fork_cow(parent)
        assert runtime.cow_read(second, second.child_pid,
                                DB_BASE)[:6] == b"pair A"
        with pytest.raises(errors.ForkInProgress):
            runtime.fork_cow(parent)
        runtime.snapshot(second, second.child_pid)
        runtime.check_invariants()

    def test_snapshot_retires_a_suspended_child(self):
        machine, runtime = build_db_runtime(2)
        used = machine.epc_used
        pair = runtime.fork_cow(runtime.creator.pid)
        runtime.cow_write(pair, pair.child_pid, DB_BASE, b"child")
        runtime.suspend(pair.child_pid)
        runtime.snapshot(pair, pair.child_pid)
        assert not pair.page_tables and machine.epc_used == used
        assert free_rows(runtime.tcs_table) == 3
        runtime.check_invariants()
        second = runtime.fork_cow(runtime.creator.pid)
        runtime.snapshot(second, second.child_pid)

    def test_snapshot_retires_a_child_that_exited(self):
        machine, runtime = build_db_runtime(2)
        used = machine.epc_used
        pair = runtime.fork_cow(runtime.creator.pid)
        runtime.cow_write(pair, pair.child_pid, DB_BASE, b"child")
        runtime.exit(pair.child_pid)
        runtime.snapshot(pair, pair.child_pid)
        assert not pair.page_tables and runtime.fork_pair is None
        assert pair.child_pid not in runtime.kernel.containers
        assert machine.epc_used == used
        assert free_rows(runtime.tcs_table) == 3
        runtime.check_invariants()
        second = runtime.fork_cow(runtime.creator.pid)
        runtime.snapshot(second, second.child_pid)

    @pytest.mark.parametrize("tcs_count", [1, 2],
                             ids=["no-free-tcs", "tcs-busy"])
    def test_refused_fork_leaves_no_child(self, tcs_count):
        machine = Machine(epc_capacity_pages=64)
        kernel = Kernel(machine)
        runtime = EnclaveRuntime(machine, kernel)
        runtime.runtime_init(runtime_pages=1, tcs_count=tcs_count)
        runtime.load_db(2)
        parent = runtime.creator.pid
        runtime.enter(parent)
        refusal = errors.NoFreeTcs
        if tcs_count == 2:
            # The kernel enters the second TCS behind its own table's
            # back: its row is free, the hardware refuses the entry.
            machine.eenter(runtime.creator.page_table, TCS_BASE + 1)
            refusal = errors.TcsBusy
        containers = dict(kernel.containers)
        with pytest.raises(refusal):
            runtime.fork_cow(parent)
        assert kernel.containers == containers
        assert runtime.fork_pair is None
        assert list(runtime.threads) == [parent]

    def test_cow_write_outside_the_db_extent(self):
        machine, runtime = build_db_runtime(2)
        pair = runtime.fork_cow(runtime.creator.pid)
        used = machine.epc_used
        for va in (RUNTIME_BASE, DB_BASE + 2):
            with pytest.raises(errors.IsolationFault, match="db extent"):
                runtime.cow_write(pair, pair.child_pid, va, b"x")
        assert pair.copies == {} and machine.epc_used == used
        runtime.snapshot(pair, pair.child_pid)

    def test_cow_read_outside_the_db_extent(self):
        machine, runtime = build_db_runtime(2)
        pair = runtime.fork_cow(runtime.creator.pid)
        runtime.cow_write(pair, pair.child_pid, DB_BASE, b"child")
        (copy_va,) = pair.copies.values()
        # The runtime image, past the extent's end, and the child's copy,
        # which the child reaches only through its db va.
        for pid in (pair.parent_pid, pair.child_pid):
            for va in (RUNTIME_BASE, DB_BASE + 2, copy_va):
                with pytest.raises(errors.IsolationFault, match="db extent"):
                    runtime.cow_read(pair, pid, va)
        assert runtime.cow_read(pair, pair.child_pid, DB_BASE)[:5] == b"child"
        runtime.snapshot(pair, pair.child_pid)

    def test_parent_snapshot_is_refused(self):
        machine, runtime = build_db_runtime(3)
        oracle = EagerForkOracle({va: runtime.read(runtime.creator.pid, va)
                                  for va in runtime.db_vas()})
        pair = runtime.fork_cow(runtime.creator.pid)
        oracle.fork(pair.parent_pid, pair.child_pid)
        for pid, va, value in ((pair.child_pid, DB_BASE, b"child"),
                               (pair.parent_pid, DB_BASE + 1, b"parent")):
            runtime.cow_write(pair, pid, va, value)
            oracle.write(pid, va, value)
        used, copies = machine.epc_used, dict(pair.copies)
        with pytest.raises(errors.NotForkMember):
            runtime.snapshot(pair, pair.parent_pid)
        # Nothing was read or retired: the pair is live and unchanged.
        assert runtime.fork_pair is pair and pair.copies == copies
        assert set(pair.page_tables) == {pair.parent_pid, pair.child_pid}
        assert pair.child_pid in runtime.kernel.containers
        assert machine.epc_used == used
        assert runtime.snapshot(pair, pair.child_pid) == expected_snapshot(
            oracle, pair.child_pid, runtime.db_vas())
        runtime.check_invariants()

    def test_fork_requires_live_parent_thread(self):
        machine = Machine(epc_capacity_pages=64)
        kernel = Kernel(machine)
        runtime = EnclaveRuntime(machine, kernel)
        runtime.runtime_init(runtime_pages=1, tcs_count=4)
        runtime.load_db(2)
        with pytest.raises(errors.SimError, match="no live enclave thread"):
            runtime.fork_cow(runtime.creator.pid)
        assert list(kernel.containers) == [runtime.creator.pid]

    def test_fork_refuses_a_suspended_parent(self):
        machine, runtime = build_db_runtime(2)
        parent = runtime.creator.pid
        containers = dict(runtime.kernel.containers)

        def refused():
            with pytest.raises(errors.SimError,
                               match="no live enclave thread"):
                runtime.fork_cow(parent)
            assert runtime.kernel.containers == containers
            assert runtime.fork_pair is None

        runtime.suspend(parent)
        refused()
        # Resumed, then left its thread: the parent holds none.
        runtime.resume(parent)
        runtime.exit(parent)
        refused()

    def test_write_drops_cached_digest(self):
        machine, runtime = build_db_runtime(2)
        page = machine.pages[runtime.enclave.pages[DB_BASE]]
        stale = page.digest()
        runtime.write(runtime.creator.pid, DB_BASE, b"new", offset=3)
        assert page.digest() != stale
        assert page.digest() == hashlib.sha256(page.content).digest()

    def test_parent_first_write_keeps_the_childs_bytes(self):
        machine, runtime, pair = build_forked_runtime(1)
        original = machine.pages[runtime.enclave.pages[DB_BASE]]
        before, digest = bytes(original.content), original.digest()
        runtime.cow_write(pair, pair.parent_pid, DB_BASE, b"parent")
        # The child's copy holds the pre-write bytes and their cached
        # digest; the parent wrote the original in place, which dropped
        # the original's digest.
        copy = machine.pages[runtime.enclave.pages[pair.copies[DB_BASE]]]
        assert copy.content == before
        assert copy._digest == digest == hashlib.sha256(before).digest()
        assert original.content[:6] == b"parent"
        assert original.digest() == hashlib.sha256(original.content).digest()
        assert runtime.cow_read(pair, pair.child_pid, DB_BASE) == before
        assert runtime.snapshot(pair, pair.child_pid) == hashlib.sha256(
            digest).digest()

    def test_repeated_snapshots_match_hashlib_digest(self):
        for seed in range(20):
            assert run_multi_cycle_trial(seed) is None

    def test_write_rejects_negative_offset(self):
        machine, runtime = build_db_runtime(1)
        page = machine.pages[runtime.enclave.pages[DB_BASE]]
        before = bytes(page.content)
        with pytest.raises(ValueError):
            runtime.write(runtime.creator.pid, DB_BASE, b"xy", offset=-2)
        assert page.content == before and len(page.content) == PAGE_SIZE

    @pytest.mark.parametrize("offset, value", [
        (-2, b"xy"), (PAGE_SIZE - 1, b"xy"), (0, b"x" * (PAGE_SIZE + 1))],
        ids=["negative-offset", "crosses-page", "longer-than-page"])
    def test_rejected_cow_write_privatizes_nothing(self, offset, value):
        machine, runtime, pair = build_forked_runtime(2)
        used = machine.epc_used
        for pid in (pair.child_pid, pair.parent_pid):
            with pytest.raises(ValueError):
                runtime.cow_write(pair, pid, DB_BASE, value, offset)
        assert pair.copies == {} and pair.dirty_count == 0
        assert machine.epc_used == used
        # The page is still shared: the next valid write copies it.
        runtime.cow_write(pair, pair.child_pid, DB_BASE, b"ok")
        assert pair.dirty_count == 1 and machine.epc_used == used + 1

    @pytest.mark.parametrize("side", ["parent", "child"])
    def test_first_write_at_epc_capacity_copies_nothing(self, side):
        machine, runtime = build_db_runtime(2)
        machine.epc_capacity_pages = machine.epc_used
        pair = runtime.fork_cow(runtime.creator.pid)
        pids = [pair.parent_pid, pair.child_pid]
        if side == "child":
            pids.reverse()
        writer, other = pids
        used = machine.epc_used

        def views():
            return [[runtime.cow_read(pair, pid, va)
                     for va in runtime.db_vas()] for pid in pids]

        before = views()
        with pytest.raises(errors.OutOfEpc):
            runtime.cow_write(pair, writer, DB_BASE, b"full")
        assert pair.copies == {} and pair.dirty_count == 0
        assert machine.epc_used == used and views() == before
        # The page is still shared: with room for one copy, the write
        # copies it and the other side keeps the original bytes.
        machine.epc_capacity_pages += 1
        runtime.cow_write(pair, writer, DB_BASE, b"room")
        assert list(pair.copies) == [DB_BASE] and pair.dirty_count == 1
        assert runtime.cow_read(pair, writer, DB_BASE)[:4] == b"room"
        assert runtime.cow_read(pair, other, DB_BASE) == before[1][0]
        runtime.snapshot(pair, pair.child_pid)
        assert machine.epc_used == used
        runtime.check_invariants()

    def test_random_interleavings_match_eager_oracle(self):
        # Oracle-backed sample; the acceptance suite runs the full 500.
        for seed in range(60):
            assert run_cow_trial(seed) is None


def fork_scopes():
    """The small scopes of the fork check, as (db pages, most accesses).
    The deep profile widens the walk to 5 accesses, and to 3 pages."""
    if settings.get_current_profile_name() == "deep":
        return [(2, 5), (3, 4)]
    return [(2, 4)]


class TestForkSmallScope:
    """Every short access sequence, after Jackson's small-scope hypothesis:
    an access is a side, a read or a write, and a page, so first and
    repeat writes by either side meet reads of both sides in every order.
    Each sequence is one fork/snapshot cycle on one long-lived runtime,
    checked step by step against the eager oracle."""

    @pytest.mark.parametrize("n_pages, most", fork_scopes())
    def test_every_sequence_matches_eager_oracle(self, n_pages, most):
        machine, runtime = build_db_runtime(n_pages)
        vas = runtime.db_vas()
        baseline = machine.epc_used

        def originals():
            return {va: bytes(machine.pages[runtime.enclave.pages[va]]
                              .content) for va in vas}

        parent_view = originals()
        accesses = list(itertools.product(("parent", "child"),
                                          (False, True), vas))
        sequences = [sequence for k in range(1, most + 1)
                     for sequence in itertools.product(accesses, repeat=k)]
        assert len(sequences) == sum(
            (4 * n_pages) ** k for k in range(1, most + 1))
        for cycle, sequence in enumerate(sequences):
            pair = runtime.fork_cow(runtime.creator.pid)
            oracle = EagerForkOracle(parent_view)
            oracle.fork(pair.parent_pid, pair.child_pid)
            for step, (side, write, va) in enumerate(sequence):
                pid = pair.parent_pid if side == "parent" else pair.child_pid
                if write:
                    # Distinct bytes per cycle, side and step.
                    value = f"{cycle}{side}{step}".encode()
                    runtime.cow_write(pair, pid, va, value)
                    oracle.write(pid, va, value)
                else:
                    assert (runtime.cow_read(pair, pid, va)
                            == oracle.read(pid, va)), (sequence, step)
                assert (machine.epc_used - baseline
                        == pair.dirty_count), (sequence, step)
            assert runtime.snapshot(pair, pair.child_pid) == \
                expected_snapshot(oracle, pair.child_pid, vas), sequence
            parent_view = {va: oracle.read(pair.parent_pid, va)
                           for va in vas}
            assert originals() == parent_view, sequence
            assert machine.epc_used == baseline, sequence


class _PagesIterated(Exception):
    pass


class _UnwalkablePages(dict):
    """A page map that raises if its pages are walked; len and lookups
    still work."""

    def values(self):
        raise _PagesIterated()

    items = keys = __iter__ = values


class TestInvariantCost:
    def test_per_step_check_walks_no_pages(self):
        machine, runtime = build_db_runtime(4096, epc_capacity=8192)
        other = runtime.kernel.create_container("/b")
        runtime.attach_container(other)
        runtime.enter(other.pid)
        machine.pages = _UnwalkablePages(machine.pages)
        runtime.check_invariants()
        with pytest.raises(_PagesIterated):
            machine.check_epc_conservation()


class TestTranslationsPerAccess:
    """Every copy-on-write access is translated by the hardware model: one
    translation per ``cow_read``, per ``cow_write`` and per snapshot page.
    A first ``cow_write`` writes the page it resolved (the parent's
    original) or the copy it added (the child's) without a second
    translation."""

    def test_one_fork_snapshot_cycle(self, monkeypatch):
        machine, runtime, pair = build_forked_runtime(8)
        vas = []
        translate = Machine.translate_access

        def counted(self, page_table, va, enclave_id):
            vas.append(va)
            return translate(self, page_table, va, enclave_id)

        monkeypatch.setattr(Machine, "translate_access", counted)

        def translations(method, *args):
            vas.clear()
            method(pair, *args)
            return len(vas)

        parent, child = pair.parent_pid, pair.child_pid
        steps = [
            (runtime.cow_read, (child, DB_BASE), 1),
            (runtime.cow_write, (child, DB_BASE, b"first"), 1),
            (runtime.cow_write, (child, DB_BASE, b"again", 9), 1),
            (runtime.cow_read, (child, DB_BASE), 1),
            # The child's first write copied the page: the parent writes
            # the original.
            (runtime.cow_write, (parent, DB_BASE, b"parent"), 1),
            (runtime.cow_write, (parent, DB_BASE + 1, b"first"), 1),
            (runtime.cow_write, (parent, DB_BASE + 1, b"again"), 1),
            (runtime.cow_read, (parent, DB_BASE + 1), 1),
            (runtime.cow_read, (child, DB_BASE + 1), 1),
        ]
        for method, args, want in steps:
            assert translations(method, *args) == want, (method, args)
        assert pair.dirty_count == 2
        # Both first writes copied a page for the child, which reads its
        # copies of both.
        copies = [pair.copies[DB_BASE], pair.copies[DB_BASE + 1]]
        assert translations(runtime.snapshot, child) == 8
        assert vas == copies + [DB_BASE + i for i in range(2, 8)]
