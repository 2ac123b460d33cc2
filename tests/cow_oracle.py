"""Eager-copy fork oracle and a random-interleaving trial runner, shared by
the unit tests and the acceptance suite.

The oracle duplicates every page at fork time; the lazy implementation must
be observationally equivalent to it byte-for-byte.
"""

import hashlib
import random

from enclavesim.enclave_runtime import DB_BASE, EnclaveRuntime
from enclavesim.host_kernel import Kernel
from enclavesim.sgx_core import Machine, PAGE_SIZE


class EagerForkOracle:
    def __init__(self, pages):
        self.views = {}
        self._initial = {va: bytes(content) for va, content in pages.items()}

    def fork(self, parent_pid, child_pid):
        base = {va: bytearray(c) for va, c in self._initial.items()}
        self.views[parent_pid] = base
        self.views[child_pid] = {va: bytearray(c)
                                 for va, c in self._initial.items()}

    def write(self, pid, va, value, offset=0):
        self.views[pid][va][offset:offset + len(value)] = value

    def read(self, pid, va):
        return bytes(self.views[pid][va])


def expected_snapshot(oracle, child_pid, vas):
    """The snapshot digest of the oracle's child view, computed with hashlib
    alone: SHA-256 over each page's SHA-256, in va order."""
    outer = hashlib.sha256()
    for va in vas:
        outer.update(hashlib.sha256(oracle.read(child_pid, va)).digest())
    return outer.digest()


def build_db_runtime(n_db_pages, epc_capacity=4096):
    """A launched runtime with a database extent and an entered creator."""
    machine = Machine(epc_capacity_pages=epc_capacity)
    kernel = Kernel(machine)
    runtime = EnclaveRuntime(machine, kernel)
    runtime.runtime_init(runtime_pages=1, tcs_count=4)
    runtime.load_db(n_db_pages)
    runtime.enter(runtime.creator.pid)
    return machine, runtime


def build_forked_runtime(n_db_pages, epc_capacity=4096):
    machine, runtime = build_db_runtime(n_db_pages, epc_capacity)
    return machine, runtime, runtime.fork_cow(runtime.creator.pid)


def _random_access(rng, runtime, pair, oracle, n_pages):
    """One random cow_write or cow_read on either side; returns a message
    if a read differs from the oracle, else None."""
    pid = pair.parent_pid if rng.random() < 0.5 else pair.child_pid
    va = DB_BASE + rng.randrange(n_pages)
    if rng.random() < 0.6:
        offset = rng.randrange(PAGE_SIZE - 8)
        value = bytes(rng.randrange(256) for _ in range(8))
        runtime.cow_write(pair, pid, va, value, offset)
        oracle.write(pid, va, value, offset)
    elif runtime.cow_read(pair, pid, va) != oracle.read(pid, va):
        return f"view mismatch at {va:#x}"
    return None


def run_cow_trial(seed, max_pages=16, max_ops=200):
    """One random interleaving; returns None on success, else a message."""
    rng = random.Random(seed)
    n_pages = rng.randint(1, max_pages)
    machine, runtime = build_db_runtime(n_pages)
    pre_fork_containers = len(runtime.kernel.containers)
    pair = runtime.fork_cow(runtime.creator.pid)
    parent, child = pair.parent_pid, pair.child_pid
    baseline = machine.epc_used

    pages = {va: machine.pages[runtime.enclave.pages[va]].content
             for va in runtime.db_vas()}
    oracle = EagerForkOracle(pages)
    oracle.fork(parent, child)

    for op_idx in range(rng.randint(1, max_ops)):
        mismatch = _random_access(rng, runtime, pair, oracle, n_pages)
        if mismatch:
            return f"seed {seed} op {op_idx}: {mismatch}"
        extra = machine.epc_used - baseline
        if extra != pair.dirty_count:
            return (f"seed {seed} op {op_idx}: extra pages {extra} != "
                    f"dirty_count {pair.dirty_count}")

    # Full-view comparison for both sides before the snapshot.
    for pid in (parent, child):
        for va in runtime.db_vas():
            if runtime.cow_read(pair, pid, va) != oracle.read(pid, va):
                return f"seed {seed}: final view mismatch pid {pid} va {va:#x}"

    want = expected_snapshot(oracle, child, runtime.db_vas())
    if runtime.snapshot(pair, child) != want:
        return f"seed {seed}: snapshot digest differs from the child's view"
    if child in runtime.kernel.containers:
        return f"seed {seed}: child container {child} survived the snapshot"
    if len(runtime.kernel.containers) != pre_fork_containers:
        return f"seed {seed}: container count not restored after snapshot"
    if machine.epc_used != baseline:
        return f"seed {seed}: occupancy not restored after snapshot"
    # The parent wrote the original pages in place; they hold its view.
    for va in runtime.db_vas():
        got = bytes(machine.pages[runtime.enclave.pages[va]].content)
        if got != oracle.read(parent, va):
            return f"seed {seed}: parent view lost after snapshot at {va:#x}"
    return None


def run_multi_cycle_trial(seed, cycles=6, n_pages=12, ops_per_cycle=40):
    """Repeated fork -> random cow_write/cow_read -> snapshot cycles on one
    runtime. Each cycle's oracle forks from the parent's view, which the
    previous cycle's parent wrote in place, and each snapshot is compared
    with ``expected_snapshot`` of that cycle's child view. Returns None on
    success, else a message."""
    rng = random.Random(seed)
    machine, runtime = build_db_runtime(n_pages)
    vas = runtime.db_vas()
    parent_view = {va: machine.pages[runtime.enclave.pages[va]].content
                   for va in vas}
    for cycle in range(cycles):
        pair = runtime.fork_cow(runtime.creator.pid)
        oracle = EagerForkOracle(parent_view)
        oracle.fork(pair.parent_pid, pair.child_pid)
        for op_idx in range(ops_per_cycle):
            mismatch = _random_access(rng, runtime, pair, oracle, n_pages)
            if mismatch:
                return f"seed {seed} cycle {cycle} op {op_idx}: {mismatch}"
        if runtime.snapshot(pair, pair.child_pid) != expected_snapshot(
                oracle, pair.child_pid, vas):
            return f"seed {seed} cycle {cycle}: snapshot digest differs"
        parent_view = oracle.views[pair.parent_pid]
        for va in vas:
            page = machine.pages[runtime.enclave.pages[va]]
            if page.content != parent_view[va]:
                return f"seed {seed} cycle {cycle}: parent view lost {va:#x}"
    return None
