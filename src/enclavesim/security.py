"""Adversary probe suites: exhaustive remap enumeration, randomized kernel
adversary schedules, TCS exclusivity schedules and environment-swap
detection. Each probe returns (trials, failures) where failures lists a
description per undetected violation; an empty list means the suite holds.
Every probe drives the shipped ``EnclaveRuntime`` (``read``/``write``,
``enter``/``suspend``/``resume``/``exit``, ``fs_open``). The schedule probes
run its ``check_invariants`` after every step; that check costs the same at
any enclave size. They run the full audit, ``Machine.check_epc_conservation``,
which recounts every physical page, once at the end of each schedule.

Every random choice is ``random.Random.randrange``'s own draw, made by
``_randbelow`` without the library call's argument handling, so a seed
gives the same schedules as ``randrange`` would.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from . import errors
from .enclave_runtime import EnclaveRuntime
from .host_kernel import Kernel
from .sgx_core import Machine, PAGE_SIZE


def _randbelow(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)`` for ``n >= 1``, drawn as the library draws it:
    ``n.bit_length()`` random bits, drawn again while they are ``n`` or
    more."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _page(tag: int) -> bytes:
    return bytes([tag & 0xFF]) * PAGE_SIZE


def remap_enumeration(n_pages: int = 4, n_spaces: int = 3) -> Tuple[int, List[str]]:
    """Exhaustively point every (container, db va) at every physical page
    and read it through ``EnclaveRuntime.read``: a read must succeed
    exactly for the EPCM-recorded pair and return that page's bytes. The
    pages are the runtime's own, a foreign enclave's at the same vas and
    a plain page."""
    machine = Machine(epc_capacity_pages=64)
    kernel = Kernel(machine)
    runtime = EnclaveRuntime(machine, kernel)
    runtime.runtime_init(runtime_pages=0, tcs_count=0)
    runtime.load_db(n_pages, fill=_page)
    vas = runtime.db_vas()
    honest = runtime.enclave.pages
    # Foreign pages sharing the same virtual addresses as the runtime's.
    other = machine.ecreate(2)
    for i, va in enumerate(vas[:2]):
        machine.eadd(other, va, _page(0xA0 + i))
    machine.einit(other)
    machine.alloc_plain_page(b"untrusted")

    containers = [kernel.create_container(f"/c{i}") for i in range(n_spaces)]
    all_pas = sorted(machine.pages)

    trials = 0
    failures: List[str] = []
    for container in containers:
        table = container.page_table
        for i, va in enumerate(vas):
            for pa in all_pas:
                table.clear()
                table[va] = pa
                trials += 1
                try:
                    got = runtime.read(container.pid, va)
                except (errors.Fault, errors.IsolationFault):
                    if pa == honest[va]:
                        failures.append(
                            f"honest mapping va {va:#x} -> pa {pa:#x} faulted")
                    continue
                if pa != honest[va]:
                    failures.append(
                        f"va {va:#x} -> pa {pa:#x} accessed undetected")
                elif got != _page(i):
                    failures.append(f"honest va {va:#x} read wrong bytes")
    return trials, failures


def random_adversary_schedules(n_schedules: int = 1000,
                               seed: int = 0) -> Tuple[int, List[str]]:
    """Randomized kernel schedules over a small shared enclave. Enclave
    writes and reads go through ``EnclaveRuntime.write``/``read``, so the
    shipped sandbox check is what is tested; every read must fault, trip
    that check, or return exactly the bytes an honest shadow copy predicts.
    ``check_invariants`` runs after every step. After the schedule the
    kernel maps a database va back to its page and reads it in non-enclave
    mode; the hardware must raise ``AbortPage``. The full EPC audit then
    closes the schedule."""
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
                op = _randbelow(rng, 4)
                container = containers[_randbelow(rng, len(containers))]
                va = vas[_randbelow(rng, len(vas))]
                if op == 0:  # honest in-enclave write via the creator's view
                    value = bytes([_randbelow(rng, 256)]) * 8
                    try:
                        runtime.write(writer.pid, va, value)
                        shadow[va][:len(value)] = value
                    except (errors.Fault, errors.IsolationFault):
                        pass  # writer's own view was remapped: caught
                elif op == 1:  # adversary remap to an arbitrary physical page
                    container.page_table[va] = all_pas[
                        _randbelow(rng, len(all_pas))]
                elif op == 2:  # kernel restores the honest mapping
                    container.page_table[va] = honest[va]
                else:  # read through the runtime's sandboxed path
                    try:
                        if runtime.read(container.pid, va) != shadow[va]:
                            failures.append(
                                f"schedule {schedule}: wrong bytes at va "
                                f"{va:#x}")
                    except (errors.Fault, errors.IsolationFault):
                        pass  # detected
                runtime.check_invariants()
            # The host reads a live enclave page through its honest
            # mapping in non-enclave mode; the hardware must abort it.
            va = vas[0]
            second.page_table[va] = honest[va]
            try:
                machine.translate_access(second.page_table, va, None)
                failures.append(f"schedule {schedule}: host read of va "
                                f"{va:#x} not aborted")
            except errors.AbortPage:
                pass
            except errors.Fault as exc:
                failures.append(f"schedule {schedule}: host read of va "
                                f"{va:#x} raised {type(exc).__name__}")
            machine.check_epc_conservation()
        except errors.InvariantViolation as exc:
            failures.append(f"schedule {schedule}: {exc}")
    return n_schedules, failures


def tcs_exclusivity_schedules(n_schedules: int = 1000,
                              seed: int = 0) -> Tuple[int, List[str]]:
    """Randomized enter/suspend/resume/exit schedules driven through
    ``EnclaveRuntime``; after every step ``check_invariants`` must hold:
    each TCS bound to at most one live thread and the kernel table agreeing
    with the hardware state. After the schedule the untrusted kernel runs
    ``eenter`` on the first TCS the hardware still holds busy, bypassing
    its own table; the hardware must refuse that entry. The full EPC audit
    then closes the schedule."""
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
                pid = pids[_randbelow(rng, len(pids))]
                held = runtime.threads.get(pid)
                action = _randbelow(rng, 3)
                try:
                    if held is None:
                        if action != 2:
                            runtime.enter(pid)
                    elif not held.live:
                        if action == 0:
                            runtime.resume(pid)
                    elif action == 0:
                        runtime.suspend(pid)
                    else:
                        runtime.exit(pid)
                except (errors.Fault, errors.NoFreeTcs):
                    pass
                runtime.check_invariants()
            bound = next((t.tcs_va for t in runtime.enclave.tcs_table.values()
                          if t.busy), None)
            if bound is not None:
                try:
                    machine.eenter(runtime.creator.page_table, bound)
                    failures.append(f"schedule {schedule}: bound tcs "
                                    f"{bound:#x} entered again")
                except errors.TcsBusy:
                    pass
            machine.check_epc_conservation()
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
        secret = bytes([_randbelow(rng, 256) for _ in range(32)])
        runtime.fs_create(instance, "secret.bin", secret)

        divergent = bytearray(secret)
        divergent[_randbelow(rng, len(divergent))] ^= 0xFF
        kernel.hostfs["/root-evil", "secret.bin"] = bytes(divergent)
        runtime.creator.fs_root = "/root-evil"
        try:
            runtime.fs_open(runtime.creator.pid, "secret.bin")
            failures.append(f"case {case}: divergent swap not detected")
        except errors.FsIntegrityMismatch:
            pass

        # Identical content under the swapped root is indistinguishable.
        kernel.hostfs["/root-same", "secret.bin"] = secret
        runtime.creator.fs_root = "/root-same"
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
