import pytest

from enclavesim import errors
from enclavesim.enclave_runtime import (
    DB_BASE,
    EnclaveRuntime,
    InstanceState,
    RUNTIME_BASE,
)
from enclavesim.host_kernel import Kernel
from enclavesim.sgx_core import Access, Machine, PAGE_SIZE

from cow_oracle import build_forked_runtime, run_cow_trial


@pytest.fixture
def rt():
    machine = Machine(epc_capacity_pages=256)
    kernel = Kernel(machine)
    runtime = EnclaveRuntime(machine, kernel)
    runtime.runtime_init(runtime_pages=2, tcs_count=4)
    return machine, kernel, runtime


class TestThreads:
    def test_enter_exit_releases_tcs(self, rt):
        _, kernel, runtime = rt
        runtime.enter(runtime.creator.pid)
        runtime.exit(runtime.creator.pid)
        assert len(runtime.tcs_table.free_rows()) == 4

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
        holders = [row.holder for row in runtime.tcs_table.rows]
        with pytest.raises(errors.SimError):
            runtime.exit(pid)
        assert runtime.threads == threads
        assert [row.holder for row in runtime.tcs_table.rows] == holders
        runtime.check_invariants()
        assert runtime.resume(pid).live
        runtime.exit(pid)
        assert pid not in runtime.threads
        assert len(runtime.tcs_table.free_rows()) == 4

    def test_check_invariants_flags_table_drift(self, rt):
        _, _, runtime = rt
        runtime.enter(runtime.creator.pid)
        runtime.check_invariants()
        runtime.tcs_table.rows[0].holder = None
        with pytest.raises(errors.InvariantViolation):
            runtime.check_invariants()


class TestInstances:
    def test_create_maps_epc_pages(self, rt):
        machine, _, runtime = rt
        used = machine.epc_used
        instance = runtime.instance_create(runtime.creator.pid, 3)
        assert machine.epc_used == used + 3
        assert len(instance.epc_pages) == 3

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
        machine, kernel, runtime = rt
        instance = runtime.instance_create(runtime.creator.pid, 1)
        va = instance.region[0]
        plain = machine.alloc_plain_page(b"outside")
        kernel.adversary_remap(runtime.creator.address_space, va, plain.pa)
        with pytest.raises((errors.IsolationFault, errors.Fault)):
            runtime.instance_access(instance, va, Access.READ)

    def test_destroy_requires_done(self, rt):
        _, _, runtime = rt
        instance = runtime.instance_create(runtime.creator.pid, 1)
        with pytest.raises(errors.NotDone):
            runtime.instance_destroy(instance)

    def test_destroy_frees_pages_and_region(self, rt):
        machine, _, runtime = rt
        used = machine.epc_used
        instance = runtime.instance_create(runtime.creator.pid, 2)
        region = instance.region
        instance.state = InstanceState.DONE
        runtime.instance_destroy(instance)
        assert machine.epc_used == used
        reused = runtime.instance_create(runtime.creator.pid, 2)
        assert reused.region == region

    def test_create_rollback_on_epc_exhaustion(self):
        machine = Machine(epc_capacity_pages=8)
        kernel = Kernel(machine)
        runtime = EnclaveRuntime(machine, kernel)
        runtime.runtime_init(runtime_pages=1, tcs_count=2)
        used = machine.epc_used
        with pytest.raises(errors.OutOfEpc):
            runtime.instance_create(runtime.creator.pid, 16)
        assert machine.epc_used == used
        machine.check_epc_conservation()


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
        kernel.hostfs.put("/evil", "a.txt", b"sEcret")
        kernel.adversary_swap_environment(runtime.creator.pid, "/evil")
        with pytest.raises(errors.FsIntegrityMismatch):
            runtime.fs_open(runtime.creator.pid, "a.txt")

    def test_swapped_namespace_identical_content(self, rt):
        _, kernel, runtime = rt
        instance = self.make_instance(rt)
        runtime.fs_create(instance, "a.txt", b"secret")
        kernel.hostfs.put("/same", "a.txt", b"secret")
        kernel.adversary_swap_environment(runtime.creator.pid, "/same")
        assert runtime.fs_open(runtime.creator.pid, "a.txt") == b"secret"


class TestForkCow:
    def test_fork_copies_nothing(self):
        machine, runtime, pair = build_forked_runtime(8)
        assert pair.dirty_count == 0
        assert len(pair.shared_pages) == 8

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
        assert machine.epc_used == baseline and not pair.live
        machine.check_epc_conservation()

    def test_snapshot_digest_tracks_child_view(self):
        machine, runtime, pair = build_forked_runtime(3)
        runtime.cow_write(pair, pair.parent_pid, DB_BASE, b"noise")
        d1 = runtime.snapshot(pair, pair.child_pid)

        machine2, runtime2, pair2 = build_forked_runtime(3)
        runtime2.cow_write(pair2, pair2.child_pid, DB_BASE, b"dirty")
        d2 = runtime2.snapshot(pair2, pair2.child_pid)
        assert d1 != d2

    def remap_child_to_plain(self, machine, runtime, pair):
        plain = machine.alloc_plain_page(b"attacker")
        child = runtime.kernel.containers[pair.child_pid]
        runtime.kernel.adversary_remap(child.address_space, DB_BASE, plain.pa)

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
        assert pair.private_copies == {} and pair.dirty_count == 0
        assert machine.epc_used == used

    def test_snapshot_rejects_plain_backing(self):
        machine, runtime, pair = build_forked_runtime(2)
        self.remap_child_to_plain(machine, runtime, pair)
        with pytest.raises(errors.IsolationFault):
            runtime.snapshot(pair, pair.child_pid)

    def test_fork_requires_live_parent_thread(self):
        machine = Machine(epc_capacity_pages=64)
        kernel = Kernel(machine)
        runtime = EnclaveRuntime(machine, kernel)
        runtime.runtime_init(runtime_pages=1, tcs_count=4)
        runtime.load_db(2)
        with pytest.raises(KeyError):
            runtime.fork_cow(runtime.creator.pid)

    def test_random_interleavings_match_eager_oracle(self):
        # Oracle-backed sample; the acceptance suite runs the full 500.
        for seed in range(60):
            assert run_cow_trial(seed) is None
