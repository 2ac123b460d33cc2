"""Stateful test of the copy-on-write fork cycle against the eager oracle.

Hypothesis drives fork, ``cow_write``, ``cow_read`` and ``snapshot`` on one
long-lived runtime, mixed with accesses by an attached container that is
in neither role, snapshots by the parent, accesses to a retired pair, a
second fork while a pair is live, an AEX of the child, the child leaving
its thread before the snapshot, and the kernel remapping and restoring
one of the child's database vas or the copy va of a written page. Every
byte a view returns is predicted by ``EagerForkOracle``; every refused
call must leave the oracle, the pair and the EPC as they were.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from enclavesim import errors
from enclavesim.enclave_runtime import RUNTIME_BASE
from enclavesim.sgx_core import PAGE_SIZE

from cow_oracle import EagerForkOracle, build_db_runtime, expected_snapshot

N_PAGES = 4
# A remapped child va, a db va or a copy va, resolves to a plain page (the
# sandbox check) or to another enclave page (the EPCM va check).
REMAP_TARGETS = ("plain", "db", "runtime")
FAULTS = (errors.Fault, errors.IsolationFault)

pages = st.integers(0, N_PAGES - 1)
sides = st.sampled_from(("parent", "child"))


class ForkCycleMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.machine, self.runtime = build_db_runtime(N_PAGES)
        runtime = self.runtime
        self.vas = runtime.db_vas()
        self.parent_view = {va: bytes(self._original(va).content)
                            for va in self.vas}
        self.outsider = runtime.kernel.create_container("/outsider")
        runtime.attach_container(self.outsider)
        self.plain = self.machine.alloc_plain_page(b"attacker")
        self.baseline = self.machine.epc_used
        self.pair = self.oracle = self.retired = None
        # The db vas either side wrote in the live pair: each has a copy.
        self.written = set()
        self.remapped = None
        # Start with a live pair, so that every rule can run from step one.
        self.fork()

    def _original(self, va):
        return self.machine.pages[self.runtime.enclave.pages[va]]

    def _pid(self, side):
        pair = self.pair
        return pair.parent_pid if side == "parent" else pair.child_pid

    def _blocked(self, pid, va):
        """The child's access faults where it reaches the remapped va: its
        copy of a written page, else the db va."""
        reached = self.pair.copies[va] if va in self.written else va
        return pid == self.pair.child_pid and reached == self.remapped

    def _expect(self, error, call):
        """Run ``call``; it must raise ``error`` (None: must not raise)."""
        if error is None:
            return call()
        try:
            call()
        except error:
            return None
        raise AssertionError(f"{call} did not raise {error}")

    # -- fork and snapshot --------------------------------------------------

    @rule()
    def fork(self):
        """Fork the creator; a second fork while the pair is live is
        refused and creates nothing."""
        fork_cow, parent = self.runtime.fork_cow, self.runtime.creator.pid
        if self.pair is not None:
            containers = len(self.runtime.kernel.containers)
            self._expect(errors.ForkInProgress, lambda: fork_cow(parent))
            assert len(self.runtime.kernel.containers) == containers
            return
        self.pair = fork_cow(parent)
        self.oracle = EagerForkOracle(self.parent_view)
        self.oracle.fork(self.pair.parent_pid, self.pair.child_pid)
        self.written = set()

    @precondition(lambda self: self.pair is not None)
    @rule()
    def snapshot(self):
        pair, child = self.pair, self.pair.child_pid
        want = expected_snapshot(self.oracle, child, self.vas)
        blocked = any(self._blocked(child, va) for va in self.vas)
        if blocked:
            self._expect(FAULTS, lambda: self.runtime.snapshot(pair, child))
        else:
            assert self.runtime.snapshot(pair, child) == want
        # Retired either way; the parent wrote the original pages in place.
        assert not pair.page_tables
        assert child not in self.runtime.kernel.containers
        self.parent_view = {va: self.oracle.read(pair.parent_pid, va)
                            for va in self.vas}
        for va in self.vas:
            assert bytes(self._original(va).content) == self.parent_view[va]
        self.pair, self.retired, self.remapped = None, pair, None

    # -- copy-on-write accesses ---------------------------------------------

    @precondition(lambda self: self.pair is not None)
    @rule(side=sides, page=pages, offset=st.integers(0, PAGE_SIZE),
          value=st.binary(min_size=1, max_size=8))
    def cow_write(self, side, page, offset, value):
        pid, va = self._pid(side), self.vas[page]
        bad_span = offset + len(value) > PAGE_SIZE
        blocked = self._blocked(pid, va)
        if va not in self.written:
            # A shared page: the span is checked before anything else.
            error = ValueError if bad_span else (FAULTS if blocked else None)
        else:
            error = FAULTS if blocked else (ValueError if bad_span else None)
        self._expect(error, lambda: self.runtime.cow_write(
            self.pair, pid, va, value, offset))
        if error is None:
            self.oracle.write(pid, va, value, offset)
            self.written.add(va)

    @precondition(lambda self: self.pair is not None)
    @rule(side=sides, page=pages)
    def cow_read(self, side, page):
        pid, va = self._pid(side), self.vas[page]
        if self._blocked(pid, va):
            self._expect(FAULTS,
                         lambda: self.runtime.cow_read(self.pair, pid, va))
        else:
            assert (self.runtime.cow_read(self.pair, pid, va)
                    == self.oracle.read(pid, va))

    @precondition(lambda self: self.pair is not None)
    @rule(call=st.sampled_from(("cow_write", "cow_read", "snapshot")),
          page=pages)
    def outsider_access(self, call, page):
        """An attached container in neither role is refused; nothing it
        sends reaches a view or copies a page."""
        self._refused(self.pair, self.outsider.pid, call, page,
                      errors.NotForkMember)

    @precondition(lambda self: self.pair is not None)
    @rule()
    def parent_snapshot(self):
        """Only the child snapshots: the parent's snapshot reads and
        retires nothing, and the pair stays live."""
        self._refused(self.pair, self.pair.parent_pid, "snapshot", 0,
                      errors.NotForkMember)
        assert self.runtime.fork_pair is self.pair and self.pair.page_tables

    @precondition(lambda self: self.retired is not None)
    @rule(call=st.sampled_from(("cow_write", "cow_read", "snapshot")),
          page=pages)
    def retired_access(self, call, page):
        self._refused(self.retired, self.retired.parent_pid, call, page,
                      errors.PairRetired)

    def _refused(self, pair, pid, call, page, error):
        va = self.vas[page]
        args = {"cow_write": (va, b"stray"), "cow_read": (va,),
                "snapshot": ()}[call]
        self._expect(error, lambda: getattr(self.runtime, call)(
            pair, pid, *args))

    def _child_live(self):
        thread = self.runtime.threads.get(self.pair.child_pid)
        return thread is not None and thread.live

    @precondition(lambda self: self.pair is not None and self._child_live())
    @rule()
    def suspend_child(self):
        """An AEX of the child: the snapshot must still retire it."""
        self.runtime.suspend(self.pair.child_pid)

    @precondition(lambda self: self.pair is not None and self._child_live())
    @rule()
    def exit_child(self):
        """The child leaves its thread: its views stay, and the snapshot
        must still retire it."""
        self.runtime.exit(self.pair.child_pid)

    # -- the kernel remaps one child va --------------------------------------

    @precondition(lambda self: self.pair is not None
                  and self.remapped is None)
    @rule(page=pages, onto=st.sampled_from(REMAP_TARGETS))
    def remap_child(self, page, onto):
        self._remap(self.vas[page], page, onto)

    @precondition(lambda self: self.pair is not None and self.written
                  and self.remapped is None)
    @rule(page=pages, onto=st.sampled_from(REMAP_TARGETS))
    def remap_child_copy(self, page, onto):
        """Remap the child's copy va of a written page."""
        written = sorted(self.written)
        self._remap(self.pair.copies[written[page % len(written)]], page,
                    onto)

    def _remap(self, va, page, onto):
        wrong = {"plain": self.plain.pa,
                 "db": self.runtime.enclave.pages[
                     self.vas[(page + 1) % N_PAGES]],
                 "runtime": self.runtime.enclave.pages[RUNTIME_BASE]}[onto]
        child = self.runtime.kernel.containers[self.pair.child_pid]
        child.page_table[va] = wrong
        self.remapped = va

    @precondition(lambda self: self.remapped is not None)
    @rule()
    def restore_child(self):
        child = self.runtime.kernel.containers[self.pair.child_pid]
        child.page_table[self.remapped] = \
            self.runtime.enclave.pages[self.remapped]
        self.remapped = None

    # -- invariants -----------------------------------------------------------

    @invariant()
    def invariants_hold(self):
        self.runtime.check_invariants()
        self.machine.check_epc_conservation()
        used = self.machine.epc_used
        if self.pair is None:
            assert used == self.baseline
        else:
            assert set(self.pair.copies) == self.written
            assert self.pair.dirty_count == len(self.written)
            assert used == self.baseline + self.pair.dirty_count


# 40 examples at the default profile's 100, 400 under ``deep``.
ForkCycleMachine.TestCase.settings = settings(
    max_examples=settings.default.max_examples * 2 // 5,
    stateful_step_count=30, derandomize=True, database=None, deadline=None)
TestForkCycle = ForkCycleMachine.TestCase

