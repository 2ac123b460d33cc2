"""Adversary probe suites: exhaustive remap enumeration, randomized kernel
adversary schedules, TCS exclusivity schedules and environment-swap
detection. Each probe returns (trials, failures) where failures lists a
description per undetected violation; an empty list means the suite holds.
Remap enumeration probes the hardware's EPCM check directly; the schedule
probes drive ``EnclaveRuntime`` (``read``/``write``, ``enter``/``suspend``/
``resume``/``exit``) and run its ``check_invariants`` after every step.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from . import errors
from .enclave_runtime import EnclaveRuntime
from .host_kernel import Kernel
from .sgx_core import Access, Machine, PAGE_SIZE, enclave_mode


def _page(tag: int) -> bytes:
    return bytes([tag & 0xFF]) * PAGE_SIZE


def remap_enumeration(n_pages: int = 4, n_spaces: int = 3) -> Tuple[int, List[str]]:
    """Exhaustively point every (space, va) at every physical page and check
    that enclave-mode access succeeds exactly for the EPCM-recorded pair."""
    machine = Machine(epc_capacity_pages=64)
    kernel = Kernel(machine)
    victim = machine.ecreate(1)
    other = machine.ecreate(2)
    victim_vas = [0x10 + i for i in range(n_pages)]
    for i, va in enumerate(victim_vas):
        machine.eadd(victim, va, _page(i))
    machine.einit(victim)
    # Foreign pages sharing the same virtual addresses as the victim's.
    for i, va in enumerate(victim_vas[:2]):
        machine.eadd(other, va, _page(0xA0 + i))
    machine.einit(other)
    machine.alloc_plain_page(b"untrusted")

    spaces = [kernel.create_container(f"/c{i}").address_space
              for i in range(n_spaces)]
    all_pas = sorted(machine.pages)
    mode = enclave_mode(1)

    trials = 0
    failures: List[str] = []
    for space in spaces:
        for va in victim_vas:
            for pa in all_pas:
                space.page_table.clear()
                space.page_table[va] = pa
                honest = machine.epcm.get(pa)
                expect_ok = (honest is not None and honest.valid
                             and honest.enclave_id == 1 and honest.va == va)
                trials += 1
                try:
                    got = machine.translate_access(space, va, Access.READ, mode)
                    if not machine.pages[got].is_epc:
                        # Hardware lets the enclave touch unprotected memory;
                        # the runtime's sandbox check flags it for these
                        # enclave-private addresses.
                        if expect_ok:
                            failures.append(
                                f"honest va {va:#x} resolved to plain page")
                    elif not expect_ok or got != pa:
                        failures.append(
                            f"va {va:#x} -> pa {pa:#x} accessed undetected")
                except errors.Fault:
                    if expect_ok:
                        failures.append(
                            f"honest mapping va {va:#x} -> pa {pa:#x} faulted")
    return trials, failures


def random_adversary_schedules(n_schedules: int = 1000,
                               seed: int = 0) -> Tuple[int, List[str]]:
    """Randomized kernel schedules over a small shared enclave. Enclave
    writes and reads go through ``EnclaveRuntime.write``/``read``, so the
    shipped sandbox check is what is tested; every read must fault, trip
    that check, or return exactly the bytes an honest shadow copy predicts.
    ``check_invariants`` runs after every step."""
    rng = random.Random(seed)
    failures: List[str] = []
    for schedule in range(n_schedules):
        machine = Machine(epc_capacity_pages=64)
        kernel = Kernel(machine)
        runtime = EnclaveRuntime(machine, kernel)
        runtime.runtime_init(runtime_pages=3, tcs_count=2)
        runtime.load_db(3)
        writer = runtime.creator
        second = kernel.create_container("/c2")
        runtime.attach_container(second)
        containers = [writer, second]
        machine.alloc_plain_page(b"\x66" * 16)

        vas = runtime.db_vas()
        honest = {va: runtime.enclave.pages[va] for va in vas}
        shadow = {va: bytearray(machine.pages[honest[va]].content)
                  for va in vas}
        all_pas = sorted(machine.pages)

        try:
            for _ in range(20):
                op = rng.randrange(4)
                container = containers[rng.randrange(len(containers))]
                va = vas[rng.randrange(len(vas))]
                if op == 0:  # honest in-enclave write via the creator's view
                    value = bytes([rng.randrange(256)]) * 8
                    try:
                        runtime.write(writer.pid, va, value)
                        shadow[va][:len(value)] = value
                    except (errors.Fault, errors.IsolationFault):
                        pass  # writer's own view was remapped: caught
                elif op == 1:  # adversary remap to an arbitrary physical page
                    kernel.adversary_remap(
                        container.address_space, va,
                        all_pas[rng.randrange(len(all_pas))])
                elif op == 2:  # kernel restores the honest mapping
                    container.address_space.map(va, honest[va])
                else:  # read through the runtime's sandboxed path
                    try:
                        if runtime.read(container.pid, va) != shadow[va]:
                            failures.append(
                                f"schedule {schedule}: wrong bytes at va "
                                f"{va:#x}")
                    except (errors.Fault, errors.IsolationFault):
                        pass  # detected
                runtime.check_invariants()
        except errors.InvariantViolation as exc:
            failures.append(f"schedule {schedule}: {exc}")
    return n_schedules, failures


def tcs_exclusivity_schedules(n_schedules: int = 1000,
                              seed: int = 0) -> Tuple[int, List[str]]:
    """Randomized enter/suspend/resume/exit schedules driven through
    ``EnclaveRuntime``; after every step ``check_invariants`` must hold:
    each TCS bound to at most one live thread and the kernel table agreeing
    with the hardware state."""
    rng = random.Random(seed)
    failures: List[str] = []
    for schedule in range(n_schedules):
        machine = Machine(epc_capacity_pages=32)
        kernel = Kernel(machine)
        runtime = EnclaveRuntime(machine, kernel)
        runtime.runtime_init(runtime_pages=1, tcs_count=3)
        pids = [runtime.creator.pid]
        for i in range(2):
            c = kernel.create_container(f"/c{i}")
            runtime.attach_container(c)
            pids.append(c.pid)

        try:
            for _ in range(25):
                pid = pids[rng.randrange(len(pids))]
                held = runtime.threads.get(pid)
                action = rng.randrange(3)
                try:
                    if held is None:
                        if action != 2:
                            runtime.enter(pid)
                    elif not held[0].live:
                        if action == 0:
                            runtime.resume(pid)
                    elif action == 0:
                        runtime.suspend(pid)
                    else:
                        runtime.exit(pid)
                except (errors.Fault, errors.NoFreeTcs):
                    pass
                runtime.check_invariants()
        except errors.InvariantViolation as exc:
            failures.append(f"schedule {schedule}: {exc}")
    return n_schedules, failures


def environment_swap_detection(n_cases: int = 50,
                               seed: int = 0) -> Tuple[int, List[str]]:
    """Namespace-swap attacks with divergent file content must always be
    flagged by the in-enclave integrity check; identical content stays
    undetectable (and harmless)."""
    rng = random.Random(seed)
    failures: List[str] = []
    for case in range(n_cases):
        machine = Machine(epc_capacity_pages=64)
        kernel = Kernel(machine)
        runtime = EnclaveRuntime(machine, kernel, fs_root="/root-a")
        runtime.runtime_init(runtime_pages=2, tcs_count=2)
        instance = runtime.instance_create(runtime.creator.pid, 1)
        secret = bytes([rng.randrange(256) for _ in range(32)])
        runtime.fs_create(instance, "secret.bin", secret)

        divergent = bytearray(secret)
        divergent[rng.randrange(len(divergent))] ^= 0xFF
        kernel.hostfs.put("/root-evil", "secret.bin", bytes(divergent))
        kernel.adversary_swap_environment(runtime.creator.pid, "/root-evil")
        try:
            runtime.fs_open(runtime.creator.pid, "secret.bin")
            failures.append(f"case {case}: divergent swap not detected")
        except errors.FsIntegrityMismatch:
            pass

        # Identical content under the swapped root is indistinguishable.
        kernel.hostfs.put("/root-same", "secret.bin", secret)
        kernel.adversary_swap_environment(runtime.creator.pid, "/root-same")
        if runtime.fs_open(runtime.creator.pid, "secret.bin") != secret:
            failures.append(f"case {case}: identical swap corrupted read")
    return n_cases, failures


def run_all(seed: int = 0, schedules: int = 1000):
    """Run every probe suite; returns {name: (trials, failures)}."""
    return {
        "remap_enumeration": remap_enumeration(),
        "adversary_schedules": random_adversary_schedules(schedules, seed),
        "tcs_exclusivity": tcs_exclusivity_schedules(schedules, seed + 1),
        "environment_swap": environment_swap_detection(50, seed + 2),
    }
