"""Smaller-scale runs of the adversary probe suites; the acceptance suite
runs them at full size."""

from enclavesim.enclave_runtime import EnclaveRuntime
from enclavesim.host_kernel import Kernel
from enclavesim.security import (
    environment_swap_detection,
    random_adversary_schedules,
    remap_enumeration,
    tcs_exclusivity_schedules,
)


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
    def resolve_without_sandbox_check(self, pid, va, access):
        space = self.kernel.containers[pid].address_space
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
