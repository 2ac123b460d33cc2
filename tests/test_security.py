"""Smaller-scale runs of the adversary probe suites (the acceptance suite
runs them at full size), and the guard table: every raise guard in the
package has a row in ``GUARDS`` naming the probe check or the test that
fails when the guard is disabled, so a new ``if ...: raise`` needs a row
too."""

import __future__
import ast
import inspect
import pathlib
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
    run_all,
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
    def resolve_without_sandbox_check(self, page_table, va):
        return self.machine.translate_access(page_table, va, self.enclave_id)

    monkeypatch.setattr(EnclaveRuntime, "_resolve",
                        resolve_without_sandbox_check)
    _, failures = random_adversary_schedules(200, seed=0)
    assert failures


def test_tcs_schedules_catch_a_leaked_tcs_row(monkeypatch):
    monkeypatch.setattr(Kernel, "tcs_release", lambda self, table, va: None)
    _, failures = tcs_exclusivity_schedules(200, seed=0)
    assert failures


def _compile(cls, name, rewrite):
    """``cls.name`` recompiled from ``rewrite`` of its dedented source, in
    its module's globals."""
    source = textwrap.dedent(inspect.getsource(getattr(cls, name)))
    code = compile(rewrite(source), f"<mutant {name}>", "exec",
                   flags=__future__.annotations.compiler_flag,
                   dont_inherit=True)
    namespace = {}
    exec(code, vars(sys.modules[cls.__module__]), namespace)
    return namespace[name]


def _mutant(cls, name, check, replacement):
    """``cls.name`` with the text ``check`` replaced; the text must occur
    exactly once, so a rewritten step fails here rather than leaving its
    row testing nothing."""
    def rewrite(source):
        assert source.count(check) == 1, f"{name}: {check!r}"
        return source.replace(check, replacement)
    return _compile(cls, name, rewrite)


# -- the guard table ----------------------------------------------------------
#
# Every raise guard in the modules below has one row in ``GUARDS``, and a
# new ``if ...: raise`` needs one too: ``test_guard_table_is_complete``
# fails on a guard with no row and on a row with no guard. A row names
# what fails when its condition is replaced by ``False``: a ``Probe``, for
# a guard whose mutant makes ``security.run_all(0, 200)`` report a
# failure (checked here, in-process), or the node id of a test that fails
# against the mutant. CI checks the test rows with
# ``tests/guard_mutants.py``, which applies each mutant to a copy of
# ``src/`` and runs that row's test there. A guard that no input can
# reach is deleted rather than listed.

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "enclavesim"
GUARDED_MODULES = ("sgx_core", "host_kernel", "enclave_runtime", "cost_model",
                   "workload_harness", "cli")


class Probe(str):
    """A row the probes check: disabling its guard makes ``run_all(0,
    200)`` report a failure. The string names the check in test ids."""


def find_guards(source):
    """The raise guards of ``source``, as ``{(function, condition): node}``.

    A guard is the test of an ``if`` whose body starts with ``raise``,
    and each operand of an ``or`` at the top of that test. ``function``
    is the dotted name of the enclosing classes and functions.
    ``condition`` is the guard's source text on one line; a repeat of the
    same text in one function is suffixed " (2)", " (3)" and so on, in
    source order."""
    found = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.If) and isinstance(child.body[0],
                                                        ast.Raise):
                test = child.test
                operands = (test.values if isinstance(test, ast.BoolOp)
                            and isinstance(test.op, ast.Or) else [])
                for condition in (test, *operands):
                    text = " ".join(ast.get_source_segment(
                        source, condition).replace("\\\n", " ").split())
                    key, repeat = (".".join(scope), text), 1
                    while key in found:
                        repeat += 1
                        key = (".".join(scope), f"{text} ({repeat})")
                    found[key] = condition
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def disable(source, function, condition):
    """``source`` with the guard's condition replaced by ``False``."""
    node = find_guards(source)[function, condition]
    data = source.encode()  # ast offsets count UTF-8 bytes
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    begin = starts[node.lineno - 1] + node.col_offset
    end = starts[node.end_lineno - 1] + node.end_col_offset
    return (data[:begin] + b"False" + data[end:]).decode()


def table_gaps(sources, table):
    """The guards of ``sources`` (module -> source text) that ``table``
    lacks, and the rows of ``table`` that name no guard, each sorted."""
    found = {(module, *key) for module, source in sources.items()
             for key in find_guards(source)}
    return sorted(found - table.keys()), sorted(table.keys() - found)


def _guard_mutant(module, function, condition):
    """The owner of ``function`` in ``enclavesim.<module>``, its attribute
    name, and the function recompiled with the guard disabled."""
    owner = sys.modules[f"enclavesim.{module}"]
    *path, name = function.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, _compile(
        owner, name, lambda source: disable(source, name, condition))


_SGX = "tests/test_sgx_core.py::"
_RUNTIME = "tests/test_enclave_runtime.py::"
_KERNEL = "tests/test_host_kernel.py::"
_COST = "tests/test_cost_model.py::"
_HARNESS = "tests/test_workload_harness.py::"
_CLI = "tests/test_cli.py::"
_SECURITY = "tests/test_security.py::"


# (module, function, condition) -> a Probe, or a test that fails when the
# condition is ``False``.
GUARDS = {
    # sgx_core
    ("sgx_core", "check_span", "offset < 0"):
        _SGX + "TestPageDigest::test_negative_write_offset_keeps_content",
    ("sgx_core", "check_span", "offset + length > PAGE_SIZE"):
        _SGX + "TestPageDigest::test_write_across_page_boundary_keeps_content",
    ("sgx_core", "Machine._alloc_page", "len(content) > PAGE_SIZE"):
        _SGX + "TestLifecycle::test_eadd_copies_and_pads_content",
    ("sgx_core", "Machine.ecreate", "enclave_id in self.enclaves"):
        _SGX + "TestLifecycle::test_ecreate_duplicate",
    ("sgx_core", "Machine.eadd", "not 0 <= va < _VA_LIMIT"):
        _SGX + "TestLifecycle::test_eadd_refuses_a_va_outside_64_bits",
    ("sgx_core", "Machine.eadd", "va in enclave.pages"):
        _SGX + "TestLifecycle::test_eadd_same_va_twice",
    ("sgx_core", "Machine.eadd", "self.epc_used >= self.epc_capacity_pages"):
        _SGX + "TestLifecycle::test_eadd_out_of_epc",
    ("sgx_core", "Machine.einit", "enclave.initialized"):
        _SGX + "TestLifecycle::test_einit_twice",
    ("sgx_core", "Machine.eremove", "enclave.tcs_table[va].busy"):
        _RUNTIME + "TestThreads::test_eremove_refuses_a_busy_tcs",
    ("sgx_core", "Machine.translate_access", "pa is None"):
        _SGX + "TestTranslate::test_unmapped_faults",
    ("sgx_core", "Machine.translate_access", "page is None"):
        _RUNTIME + "TestInstances::"
        "test_attached_mapping_of_a_destroyed_instance",
    ("sgx_core", "Machine.translate_access", "enclave_id is None"):
        Probe("AbortPage"),
    ("sgx_core", "Machine.translate_access",
     "page.enclave_id != enclave_id or page.va != va"):
        Probe("EPCM"),
    ("sgx_core", "Machine.translate_access", "page.enclave_id != enclave_id"):
        Probe("EPCM enclave id"),
    ("sgx_core", "Machine.translate_access", "page.va != va"):
        Probe("EPCM va"),
    ("sgx_core", "Machine.translate_access", "page.page_type is _TCS"):
        _SGX + "TestTranslate::test_tcs_page_refuses_regular_access",
    ("sgx_core", "Machine._tcs_at", "pa is None"):
        _SGX + "TestThreads::test_enter_through_a_bad_mapping",
    ("sgx_core", "Machine._tcs_at", "page is None or page.enclave_id is None"):
        _SGX + "TestThreads::test_enter_through_a_bad_mapping",
    ("sgx_core", "Machine._tcs_at", "page is None"):
        _SGX + "TestThreads::test_enter_through_a_bad_mapping",
    ("sgx_core", "Machine._tcs_at", "page.enclave_id is None"):
        _SGX + "TestThreads::test_enter_through_a_bad_mapping",
    ("sgx_core", "Machine._tcs_at", "page.va != tcs_va"):
        _RUNTIME + "TestThreads::test_refused_enter_releases_the_tcs_row",
    ("sgx_core", "Machine._tcs_at", "page.page_type is not _TCS"):
        _SGX + "TestThreads::test_enter_non_tcs_page",
    ("sgx_core", "Machine.eenter", "tcs.busy"):
        Probe("TCS busy"),
    ("sgx_core", "Machine.eresume", "tcs.saved_context is None"):
        _SGX + "TestThreads::test_resume_fresh_tcs",
    ("sgx_core", "Machine._live_tcs", "not thread.live"):
        _RUNTIME + "TestThreads::test_exit_on_suspended_thread_keeps_tcs_held",
    ("sgx_core", "Machine.check_epc_counts", "protected != self.epc_used"):
        _SGX + "TestLifecycle::test_conservation_names_a_drifted_epc_used",
    ("sgx_core", "Machine.check_epc_counts",
     "self.epc_used > self.epc_capacity_pages"):
        _SECURITY + "test_check_epc_counts_catches_an_overfull_epc",
    ("sgx_core", "Machine.check_epc_conservation",
     "owner is None or owner.pages.get(page.va) != pa"):
        _SGX + "TestLifecycle::test_audit_names_a_page_its_owner_does_not_map"
        "[unknown owner]",
    ("sgx_core", "Machine.check_epc_conservation", "owner is None"):
        _SGX + "TestLifecycle::test_audit_names_a_page_its_owner_does_not_map"
        "[unknown owner]",
    ("sgx_core", "Machine.check_epc_conservation",
     "owner.pages.get(page.va) != pa"):
        _SGX + "TestLifecycle::test_audit_names_a_page_its_owner_does_not_map"
        "[moved va]",
    ("sgx_core", "Machine.check_epc_conservation", "protected != kept"):
        _SGX + "TestLifecycle::test_audit_recount_checks_the_kept_count",
    ("sgx_core", "Machine.check_epc_conservation", "mapped != protected"):
        _SECURITY + "test_audit_catches_eremove_keeping_the_page_map_entry",

    # host_kernel
    ("host_kernel", "Kernel.record_enclave_mappings",
     "not enclave.initialized"):
        _KERNEL + "TestMappingRecord::test_uninitialized_rejected",
    ("host_kernel", "Kernel.alias_enclave", "table[va] != mappings[va]"):
        _KERNEL + "TestAlias::test_conflicting_va_rejected",
    ("host_kernel", "Kernel.tcs_release", "tcs_va not in table"):
        _KERNEL + "TestTcsTable::test_release_of_a_va_not_in_the_table",
    ("host_kernel", "Kernel.tcs_release", "table[tcs_va] is None"):
        _KERNEL + "TestTcsTable::test_release_unheld",

    # enclave_runtime
    ("enclave_runtime", "EnclaveRuntime._resolve",
     "page.enclave_id is None and va in self.enclave.pages"):
        Probe("plain page sandbox"),
    ("enclave_runtime", "EnclaveRuntime.read", "va >= COPY_BASE"):
        _RUNTIME + "TestForkCow::"
        "test_copy_vas_are_unreachable_outside_the_pair",
    ("enclave_runtime", "EnclaveRuntime.write", "va >= COPY_BASE"):
        _RUNTIME + "TestForkCow::"
        "test_copy_vas_are_unreachable_outside_the_pair",
    ("enclave_runtime", "EnclaveRuntime.check_invariants",
     "thread.tcs_va in live"):
        _RUNTIME + "TestThreads::test_check_invariants_flags_double_bound_tcs",
    ("enclave_runtime", "EnclaveRuntime.check_invariants", "tcs is None"):
        _RUNTIME + "TestThreads::test_check_invariants_names_a_removed_tcs",
    ("enclave_runtime", "EnclaveRuntime.check_invariants",
     "(holder is not None) != tcs.busy"):
        _RUNTIME + "TestThreads::test_check_invariants_flags_table_drift",
    ("enclave_runtime", "EnclaveRuntime._reserve_region",
     "base + length > DB_BASE"):
        _RUNTIME + "TestInstances::test_region_exhausted_adds_nothing",
    ("enclave_runtime", "EnclaveRuntime.instance_create",
     "not self.enclave.initialized"):
        _RUNTIME + "TestInstances::test_create_before_runtime_init",
    ("enclave_runtime", "EnclaveRuntime.instance_create",
     "not isinstance(code_size_pages, int) or code_size_pages < 1"):
        _RUNTIME + "TestInstances::test_size_below_one_page_refused[-2]",
    ("enclave_runtime", "EnclaveRuntime.instance_create",
     "not isinstance(code_size_pages, int)"):
        _RUNTIME + "TestInstances::test_fractional_size_refused",
    ("enclave_runtime", "EnclaveRuntime.instance_create",
     "code_size_pages < 1"):
        _RUNTIME + "TestInstances::test_size_below_one_page_refused[-2]",
    ("enclave_runtime", "EnclaveRuntime.instance_access",
     "not (in_runtime and access is Access.READ)"):
        _RUNTIME + "TestInstances::test_out_of_region_denied",
    ("enclave_runtime", "EnclaveRuntime._check_live",
     "instance.instance_id not in self.instances"):
        _RUNTIME + "TestInstances::test_destroyed_instance_region_reused",
    ("enclave_runtime", "EnclaveRuntime.instance_destroy",
     "self.instances.pop(instance_id, None) is None"):
        _RUNTIME + "TestInstances::test_destroyed_instance_region_reused",
    ("enclave_runtime", "EnclaveRuntime.fs_create", "name in self.files"):
        _RUNTIME + "TestFilesystem::test_duplicate_name_refused_across_pids",
    ("enclave_runtime", "EnclaveRuntime.fs_open",
     "outside is None or content_digest([outside]) != row.digest"):
        Probe("file check"),
    ("enclave_runtime", "EnclaveRuntime.fs_open", "outside is None"):
        _RUNTIME + "TestFilesystem::test_swapped_namespace_lacks_the_file",
    ("enclave_runtime", "EnclaveRuntime.fs_open",
     "content_digest([outside]) != row.digest"):
        Probe("file digest"),
    ("enclave_runtime", "EnclaveRuntime._owned_row", "row is None"):
        _RUNTIME + "TestFilesystem::test_open_missing",
    ("enclave_runtime", "EnclaveRuntime._owned_row",
     "self.instances[row.owner_instance].owner_pid != pid"):
        _RUNTIME + "TestFilesystem::test_non_owner_pid_denied",
    ("enclave_runtime", "EnclaveRuntime.fork_cow",
     "self.fork_pair is not None"):
        _RUNTIME + "TestForkCow::test_one_live_pair_until_retired[snapshot]",
    ("enclave_runtime", "EnclaveRuntime.fork_cow",
     "not self.threads[parent_pid].live"):
        _RUNTIME + "TestForkCow::test_fork_refuses_a_suspended_parent",
    ("enclave_runtime", "EnclaveRuntime.cow_write", "page_table is None"):
        _RUNTIME + "TestForkCow::test_retired_pair_refuses_cow_write",
    ("enclave_runtime", "EnclaveRuntime.cow_write",
     "not (DB_BASE <= va < DB_BASE + self.db_pages)"):
        _RUNTIME + "TestForkCow::test_cow_write_outside_the_db_extent",
    ("enclave_runtime", "EnclaveRuntime.cow_read", "page_table is None"):
        _RUNTIME + "TestForkCow::test_retired_pair_refuses_cow_read",
    ("enclave_runtime", "EnclaveRuntime.cow_read",
     "not (DB_BASE <= va < DB_BASE + self.db_pages)"):
        _RUNTIME + "TestForkCow::test_cow_read_outside_the_db_extent",
    ("enclave_runtime", "EnclaveRuntime.snapshot", "page_table is None"):
        _RUNTIME + "TestForkCow::test_second_snapshot_raises_a_fault",
    ("enclave_runtime", "EnclaveRuntime.snapshot",
     "child_pid != pair.child_pid"):
        _RUNTIME + "TestForkCow::test_parent_snapshot_is_refused",

    # cost_model
    ("cost_model", "CostParams.validate", "getattr(self, name) <= 0"):
        _COST + "TestParams::test_negative_component_rejected",
    ("cost_model", "CostParams.validate", "self.t_cow_copy < 0"):
        _CLI + "TestMain::test_negative_copy_cost_exits_two",
    ("cost_model", "CostParams.validate", "getattr(self, name) < 0"):
        _CLI + "TestMain::test_negative_figure_exits_two[strawman-runtime]",
    ("cost_model", "CostParams.validate", "not 2.32 <= self.t_alias <= 3.01"):
        _COST + "TestParams::test_alias_band_enforced",
    ("cost_model", "CostParams.validate", "value <= 0"):
        _CLI + "TestMain::test_non_positive_exec_time_exits_two",
    ("cost_model", "CostParams.validate", "not math.isfinite(pages)"):
        _CLI + "TestMain::"
        "test_overflowing_value_exits_one_without_output[instance-pages]",
    ("cost_model", "CostParams.validate",
     "not math.isfinite(self.t_epc_expand)"):
        _CLI + "TestMain::"
        "test_overflowing_value_exits_one_without_output[db-epc-expand]",
    ("cost_model", "CostLedger.charge", "duration_ms < 0"):
        _COST + "TestLedgerCharges::test_negative_duration_rejected",
    ("cost_model", "CostLedger.peak_mib", "self.count"):
        _COST + "TestLedgerOccupancy::test_leak_is_an_invariant_violation",
    ("cost_model", "occupancy_mib", "not math.isfinite(mib)"):
        _COST + "TestLedgerOccupancy::test_overflow_to_inf_is_a_config_error",
    ("cost_model", "occupancy_mib", "units and mib == base_mib"):
        _COST + "TestLedgerOccupancy::test_absorbed_change_is_a_config_error",

    # workload_harness
    ("workload_harness", "_ns", "not math.isfinite(ns)"):
        _CLI + "TestMain::"
        "test_overflowing_value_exits_one_without_output[fork]",
    ("workload_harness", "RequestTrace.__post_init__",
     "arrivals and not (0 <= arrivals[0] and arrivals[-1] * 1e6 < "
     "CLOCK_END_NS and not any(map(math.isnan, arrivals)))"):
        _HARNESS + "TestTraces::"
        "test_trace_rejects_an_arrival_off_the_clock[nan-inside]",
    ("workload_harness", "RequestTrace.__post_init__",
     "arrivals != sorted(arrivals)"):
        _HARNESS + "TestTraces::test_trace_rejects_unsorted",
    ("workload_harness", "gen_burst", "n < 1"):
        _HARNESS + "TestTraces::test_burst_rejects_zero",
    ("workload_harness", "gen_poisson", "not 0 < rate_per_s < math.inf"):
        _HARNESS + "TestTraces::"
        "test_poisson_rejects_a_rate_that_is_not_finite[nan]",
    ("workload_harness", "gen_poisson",
     "not 0 <= horizon * 1e6 < CLOCK_END_NS"):
        _HARNESS + "TestTraces::test_poisson_rejects_an_infinite_horizon",
    ("workload_harness", "_plan", "tail == 0"):
        _HARNESS + "TestServerlessOracle::"
        "test_refuses_exactly_the_plans_that_finish_in_0_ns[native]",
    ("workload_harness", "_check_clock",
     "last_ns + n * longest.total >= CLOCK_END_NS"):
        _CLI + "TestMain::test_run_off_the_clock_exits_one[finishes]",
    ("workload_harness", "run_serverless", "workers < 1"):
        _HARNESS + "TestServerlessLatency::test_no_workers_completes_nothing",
    ("workload_harness", "db_cycle", "exec_ns == 0"):
        _CLI + "TestMain::"
        "test_oversized_run_exits_one_before_simulating[sub-ns-request]",
    ("workload_harness", "db_cycle", "not math.isfinite(pages)"):
        _CLI + "TestMain::"
        "test_overflowing_value_exits_one_without_output[db-pages]",
    ("workload_harness", "db_cycle", "window_end == fork_start"):
        _CLI + "TestMain::test_zero_ns_snapshot_window_exits_one",
    ("workload_harness", "run_database", "db_mib <= 0"):
        _HARNESS + "TestDatabase::test_rejects_nonpositive_db",

    # cli
    ("cli", "_parse_float", "not math.isfinite(value)"):
        _CLI + "TestParseConfig::test_non_finite_duration_rejected[inf]",
    ("cli", "_parse_float", "not low <= value <= high"):
        _CLI + "TestMain::"
        "test_out_of_range_or_repeated_exits_one[write-ratio-above-one]",
    ("cli", "_parse_positive", "value <= 0"):
        _CLI + "TestMain::test_non_positive_size_exits_one[zero-rate]",
    ("cli", "_parse_count", "value < 1"):
        _CLI + "TestMain::test_bad_value_exits_one[zero-workers]",
    ("cli", "_parse_models", "not models"):
        _CLI + "TestMain::"
        "test_out_of_range_or_repeated_exits_one[empty-db-model]",
    ("cli", "_parse_models", "name in models[:i]"):
        _CLI + "TestMain::test_model_listed_twice_exits_one[latency]",
    ("cli", "parse_config", "scenario is not None"):
        _CLI + "TestParseConfig::test_two_scenario_sections",
    ("cli", "parse_config", '"=" not in line'):
        _CLI + "TestParseConfig::test_malformed_line_reports_number",
    ("cli", "parse_config", "scenario is None"):
        _CLI + "TestParseConfig::test_key_before_section",
    ("cli", "parse_config", "scenario is None (2)"):
        _CLI + "TestParseConfig::test_missing_section",
    ("cli", "parse_config", "scenario not in SCENARIOS"):
        _CLI + "TestParseConfig::test_unknown_scenario",
    ("cli", "parse_config", "key in seen"):
        _CLI + "TestMain::"
        "test_out_of_range_or_repeated_exits_one[duplicate-seed]",
    ("cli", "parse_config", "workload not in WORKLOADS"):
        _CLI + "TestMain::"
        "test_exec_override_of_no_workload_exits_one[t_exec.bogus]",
    ("cli", "parse_config", 'key == "t_exec"'):
        _CLI + "TestParseConfig::test_bare_exec_key",
    ("cli", "parse_config", "missing"):
        _CLI + "TestParseConfig::test_missing_required_key",
    ("cli", "_workloads", "config.workload not in params.t_exec"):
        _CLI + "TestRunScenario::"
        "test_unknown_workload_refused_before_any_arrival",
    ("cli", "_check_work_bounds", "cycle.pages > MAX_DB_PAGES"):
        _CLI + "TestMain::"
        "test_oversized_run_exits_one_before_simulating[db-pages]",
    ("cli", "_check_work_bounds",
     "cycle.end // cycle.exec_ns > MAX_DB_REQUESTS"):
        _CLI + "TestMain::"
        "test_oversized_run_exits_one_before_simulating[db-duration]",
    ("cli", "_check_work_bounds", "arrivals > MAX_ARRIVALS"):
        _CLI + "TestMain::"
        "test_oversized_run_exits_one_before_simulating[macro-arrivals]",
    ("cli", "_json_text", "not math.isfinite(value)"):
        _CLI + "TestMain::"
        "test_overflowing_value_exits_one_without_output[registration]",
    ("cli", "run_security_suite", "config.schedules > MAX_SCHEDULES"):
        _CLI + "TestMain::test_too_many_schedules_exit_one_before_probing",
    ("cli", "_check_out_dir", "not os.path.isdir(path)"):
        _CLI + "TestMain::"
        "test_out_at_a_file_exits_one_before_simulating[scenario-below-file]",
}


def test_guard_table_is_complete():
    sources = {module: (PACKAGE / f"{module}.py").read_text()
               for module in GUARDED_MODULES}
    unlisted, stale = table_gaps(sources, GUARDS)
    assert unlisted == [], "guards with no row in GUARDS"
    assert stale == [], "GUARDS rows that name no guard"


def test_guard_table_gaps_are_found():
    source = ("def f(x, y):\n"
              "    if x or \\\n"
              "            y.z:\n"
              "        raise ValueError\n"
              "    if x:\n"
              "        return\n"
              "    if x:\n"
              "        raise ValueError\n"
              "class C:\n"
              "    def g(self):\n"
              "        if not self:\n"
              "            raise ValueError\n")
    assert sorted(find_guards(source)) == [
        ("C.g", "not self"), ("f", "x"), ("f", "x (2)"), ("f", "x or y.z"),
        ("f", "y.z")]
    table = dict.fromkeys([("m", "f", "x or y.z"), ("m", "f", "x"),
                           ("m", "f", "y.z"), ("m", "f", "x (2)"),
                           ("m", "C.g", "not self")], "tests/test_m.py::t")
    assert table_gaps({"m": source}, table) == ([], [])
    stale = {**table, ("m", "f", "y"): "tests/test_m.py::t"}
    del stale["m", "C.g", "not self"]
    assert table_gaps({"m": source}, stale) == (
        [("m", "C.g", "not self")], [("m", "f", "y")])
    assert "if False or \\\n            y.z:" in disable(source, "f", "x")
    assert "if x or \\\n            False:" in disable(source, "f", "y.z")
    assert "if False:\n        raise" in disable(source, "f", "x (2)")


def test_guard_tests_exist():
    # Each test row names a test function (``tests/guard_mutants.py`` runs
    # it against its mutant).
    missing = []
    for node_id in sorted({test for test in GUARDS.values()
                           if not isinstance(test, Probe)}):
        path, *names = node_id.split("::")
        scope = ast.parse((ROOT / path).read_text())
        for name in names:
            scope = {getattr(node, "name", None): node
                     for node in scope.body}.get(name.partition("[")[0])
            if scope is None:
                missing.append(node_id)
                break
    assert missing == []


def _probe_failures():
    return {probe: failures
            for probe, (_, failures) in run_all(0, 200).items() if failures}


PROBE_ROWS = {check: key for key, check in GUARDS.items()
              if isinstance(check, Probe)}


@pytest.mark.parametrize("check", PROBE_ROWS)
def test_disabling_a_shipped_check_fails_some_probe(monkeypatch, check):
    monkeypatch.setattr(*_guard_mutant(*PROBE_ROWS[check]))
    assert _probe_failures(), f"no probe notices the {check} check disabled"


def test_remap_enumeration_reaches_the_sandbox_check(monkeypatch):
    monkeypatch.setattr(*_guard_mutant(*PROBE_ROWS["plain page sandbox"]))
    _, failures = remap_enumeration(n_pages=4, n_spaces=3)
    # The plain page read at each of the 4 vas in each of the 3 spaces.
    assert len(failures) == 4 * 3


# Probe checks that no guard's mutant reaches: each must report when the
# code it checks goes wrong, so each has a mutant of its own.

def test_remap_enumeration_reports_wrong_honest_bytes(monkeypatch):
    # Each database page is filled with the next page's bytes.
    monkeypatch.setattr(EnclaveRuntime, "load_db", _mutant(
        EnclaveRuntime, "load_db", "content = fill(i)",
        "content = fill(i + 1)"))
    _, failures = remap_enumeration(n_pages=4, n_spaces=3)
    # Each of the 4 honest mappings in each of the 3 spaces.
    assert len(failures) == 4 * 3
    assert all(failure.endswith("read wrong bytes") for failure in failures)


def test_adversary_schedules_report_an_unaborted_host_read(monkeypatch):
    # The hardware lets non-enclave mode read a protected page.
    monkeypatch.setattr(Machine, "translate_access", _mutant(
        Machine, "translate_access", "if page.enclave_id is None:",
        "if page.enclave_id is None or enclave_id is None:"))
    trials, failures = random_adversary_schedules(20, seed=0)
    # Only the host read at the end of each schedule notices.
    assert len(failures) == trials
    assert all(failure.endswith("not aborted") for failure in failures)


def test_environment_swap_reports_a_corrupted_identical_read(monkeypatch):
    # An open returns the file's digest, not its content.
    monkeypatch.setattr(EnclaveRuntime, "fs_open", _mutant(
        EnclaveRuntime, "fs_open", "return bytes(row.content)",
        "return bytes(row.digest)"))
    trials, failures = environment_swap_detection(10, seed=0)
    assert failures == [f"case {case}: identical swap corrupted read"
                        for case in range(trials)]


# (leak, class, method, its EPC bookkeeping step, text that drops it)
EPC_LEAKS = [
    ("epc_used not raised", Machine, "eadd", "self.epc_used += 1", "pass"),
    # The page is stored with no owner, va or page type.
    ("EPCM entry not stored", Machine, "eadd",
     "self._alloc_page(content, va, enclave.enclave_id, page_type)",
     "self._alloc_page(content)"),
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
               if failure.startswith("schedule 0: protected pages")]
    assert reports, f"no probe's per-step check reports the {leak} leak"


# Leaks no probe can show, checked directly: a page missing from
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


def test_audit_catches_eremove_keeping_the_page_map_entry(monkeypatch):
    # The page and its EPCM entry go, but the enclave still maps the va:
    # the kept counts agree, so only the audit sees the stale entry.
    monkeypatch.setattr(Machine, "eremove", _mutant(
        Machine, "eremove", "del enclave.pages[va], self.pages[pa]",
        "del self.pages[pa]"))
    machine, runtime = _db_runtime()
    machine.eremove(runtime.enclave, DB_BASE)
    runtime.check_invariants()
    with pytest.raises(errors.InvariantViolation,
                       match="5 page-map entries, 4 protected pages"):
        machine.check_epc_conservation()


def test_check_epc_counts_catches_an_overfull_epc(monkeypatch):
    # ``eadd`` refuses a page past capacity first; with that refusal
    # disabled, the per-step check reports the overflow.
    monkeypatch.setattr(*_guard_mutant(
        "sgx_core", "Machine.eadd",
        "self.epc_used >= self.epc_capacity_pages"))
    machine = Machine(epc_capacity_pages=1)
    enclave = machine.ecreate(1)
    machine.eadd(enclave, 0x10, b"")
    machine.check_epc_counts()
    machine.eadd(enclave, 0x11, b"")
    with pytest.raises(errors.InvariantViolation, match="capacity exceeded"):
        machine.check_epc_counts()
