"""Smaller-scale runs of the adversary probe suites; the acceptance suite
runs them at full size."""

import __future__
import inspect
import random
import sys
import textwrap

import pytest

from enclavesim import errors
from enclavesim.enclave_runtime import DB_BASE, EnclaveRuntime
from enclavesim.host_kernel import Kernel
from enclavesim.security import (
    _randbelow,
    environment_swap_detection,
    random_adversary_schedules,
    remap_enumeration,
    tcs_exclusivity_schedules,
)
from enclavesim.sgx_core import Machine


@pytest.mark.parametrize("seed", [0, 1, 11, 8191, 2**40 + 3])
def test_randbelow_is_randrange(seed):
    # The probes' draws are ``randrange``'s own on this interpreter: the
    # same values and the same generator state after each draw.
    helper, library = random.Random(seed), random.Random(seed)
    bounds = [*range(1, 301), *(2**k for k in range(1, 70))]
    for n in bounds * 3:
        assert _randbelow(helper, n) == library.randrange(n), n
    assert helper.getstate() == library.getstate()


def test_remap_enumeration_exhaustive():
    trials, failures = remap_enumeration(n_pages=4, n_spaces=3)
    # 4 victim vas x every physical page x 3 spaces, nothing skipped.
    assert trials >= 4 * 3 * 7
    assert failures == []


def test_remap_enumeration_small():
    trials, failures = remap_enumeration(n_pages=2, n_spaces=2)
    assert trials > 0 and failures == []


def test_adversary_schedules_sample():
    trials, failures = random_adversary_schedules(50, seed=0)
    assert trials == 50 and failures == []


def test_adversary_schedules_seed_independent_detection():
    for seed in (1, 2, 3):
        _, failures = random_adversary_schedules(20, seed=seed)
        assert failures == []


def test_tcs_exclusivity_sample():
    trials, failures = tcs_exclusivity_schedules(50, seed=0)
    assert trials == 50 and failures == []


def test_environment_swap_sample():
    trials, failures = environment_swap_detection(10, seed=0)
    assert trials == 10 and failures == []


def test_adversary_schedules_rely_on_runtime_sandbox_check(monkeypatch):
    def resolve_without_sandbox_check(self, space, va, access):
        return self.machine.pages[
            self.machine.translate_access(space, va, access, self._mode)]

    monkeypatch.setattr(EnclaveRuntime, "_resolve",
                        resolve_without_sandbox_check)
    _, failures = random_adversary_schedules(200, seed=0)
    assert failures


def test_tcs_schedules_catch_a_leaked_tcs_row(monkeypatch):
    monkeypatch.setattr(Kernel, "tcs_release", lambda self, table, va: None)
    _, failures = tcs_exclusivity_schedules(200, seed=0)
    assert failures


def _mutant(cls, name, check, replacement):
    """``cls.name`` recompiled from its source with the text ``check``
    replaced; the text must occur exactly once, so a rewritten check fails
    here rather than leaving its row testing nothing."""
    source = textwrap.dedent(inspect.getsource(getattr(cls, name)))
    assert source.count(check) == 1, f"{name}: {check!r}"
    code = compile(source.replace(check, replacement), f"<mutant {name}>",
                   "exec", flags=__future__.annotations.compiler_flag,
                   dont_inherit=True)
    namespace = {}
    exec(code, vars(sys.modules[cls.__module__]), namespace)
    return namespace[name]


# (shipped check, class, method, text of the check, text that disables it)
SHIPPED_CHECKS = [
    ("EPCM va", Machine, "translate_access", " or entry.va != va", ""),
    ("EPCM enclave id", Machine, "translate_access",
     "entry.enclave_id != enclave_id or ", ""),
    ("is_epc sandbox", EnclaveRuntime, "_resolve",
     "not page.is_epc and va in self.enclave.pages", "False"),
    ("TCS busy", Machine, "eenter", "if tcs.busy:", "if False:"),
    ("AbortPage", Machine, "translate_access", "if enclave_id is None:",
     "if False:"),
    ("file digest", EnclaveRuntime, "fs_open",
     " or content_digest([outside]) != row.digest", ""),
]


def _probe_failures():
    return {
        "remap_enumeration": remap_enumeration()[1],
        "adversary_schedules": random_adversary_schedules(200, seed=0)[1],
        "tcs_exclusivity": tcs_exclusivity_schedules(200, seed=0)[1],
        "environment_swap": environment_swap_detection(10, seed=0)[1],
    }


def test_remap_enumeration_reaches_the_sandbox_check(monkeypatch):
    _, cls, name, text, replacement = next(
        row for row in SHIPPED_CHECKS if row[0] == "is_epc sandbox")
    monkeypatch.setattr(cls, name, _mutant(cls, name, text, replacement))
    _, failures = remap_enumeration(n_pages=4, n_spaces=3)
    # The plain page read at each of the 4 vas in each of the 3 spaces.
    assert len(failures) == 4 * 3


@pytest.mark.parametrize("check, cls, name, text, replacement",
                         SHIPPED_CHECKS,
                         ids=[row[0] for row in SHIPPED_CHECKS])
def test_disabling_a_shipped_check_fails_some_probe(monkeypatch, check, cls,
                                                    name, text, replacement):
    monkeypatch.setattr(cls, name, _mutant(cls, name, text, replacement))
    failing = [probe for probe, failures in _probe_failures().items()
               if failures]
    assert failing, f"no probe notices the {check} check disabled"


# (leak, class, method, its EPC bookkeeping step, text that drops it)
EPC_LEAKS = [
    ("epc_used not raised", Machine, "_alloc_page", "self.epc_used += 1",
     "pass"),
    ("EPCM entry not stored", Machine, "eadd", "self.epcm[page.pa] = entry",
     "pass"),
]


@pytest.mark.parametrize("leak, cls, name, text, replacement", EPC_LEAKS,
                         ids=[row[0] for row in EPC_LEAKS])
def test_per_step_check_reports_an_epc_leak(monkeypatch, leak, cls, name,
                                            text, replacement):
    monkeypatch.setattr(cls, name, _mutant(cls, name, text, replacement))
    # With the end-of-schedule audit off, only the per-step check reports.
    monkeypatch.setattr(Machine, "check_epc_conservation", lambda self: None)
    reports = [failure for failures in _probe_failures().values()
               for failure in failures
               if failure.startswith("schedule 0: valid EPCM entries")]
    assert reports, f"no probe's per-step check reports the {leak} leak"


# Two leaks no probe can show, checked directly: a page missing from
# ``Machine.pages`` makes the probes' setup raise KeyError, and no probe
# calls ``eremove``.
def _db_runtime():
    machine = Machine()
    runtime = EnclaveRuntime(machine, Kernel(machine))
    runtime.runtime_init(runtime_pages=1, tcs_count=2)
    runtime.load_db(2)
    return machine, runtime


def test_check_invariants_catches_an_unregistered_page(monkeypatch):
    monkeypatch.setattr(Machine, "_alloc_page", _mutant(
        Machine, "_alloc_page", "self.pages[page.pa] = page", "pass"))
    _, runtime = _db_runtime()
    with pytest.raises(errors.InvariantViolation):
        runtime.check_invariants()


def test_check_invariants_catches_eremove_keeping_epc_used(monkeypatch):
    monkeypatch.setattr(Machine, "eremove", _mutant(
        Machine, "eremove", "self.epc_used -= 1", "pass"))
    machine, runtime = _db_runtime()
    runtime.check_invariants()
    machine.eremove(runtime.enclave, DB_BASE)
    with pytest.raises(errors.InvariantViolation):
        runtime.check_invariants()
