"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the simulator from the outside: no
file of the program changes. Each wrapped call is one span
``(name, start, end, parent, op, error)``. A span's self time is its
duration minus the durations of its direct children.

Wrappers are installed only for the traced run and removed afterwards,
so the untraced run executes the program's own function objects.
"""

from __future__ import annotations

import contextlib
import csv
import os
import statistics
import time
from collections import Counter, defaultdict
from typing import Dict, List

# The modules whose namespaces are searched for imported copies of a
# wrapped function (``enclave_runtime`` imports ``digest_update`` by name,
# ``cli`` imports the harness entry points by name).
MODULES = ("sgx_core", "host_kernel", "enclave_runtime", "security",
           "cost_model", "workload_harness", "cli")

PROBES = ("remap_enumeration", "random_adversary_schedules",
          "tcs_exclusivity_schedules", "environment_swap_detection")


def _add(key, amount_of):
    def after(tracer, args, result, state):
        tracer.counts[key] += amount_of(args, result)
    return after


def _after_eadd(tracer, args, result, state):
    machine, enclave = args[0], args[1]
    if not enclave.initialized:
        tracer.counts["sgx_core.eadd.measured_pages"] += 1
    tracer.epc_peak = max(tracer.epc_peak, machine.epc_used)


def _after_cow_write(tracer, args, result, dirty_before):
    # A write that raised the pair's dirty count privatized a page.
    return ".first" if args[1].dirty_count > dirty_before else ".repeat"


def _after_probe(probe):
    def after(tracer, args, result, state):
        trials, failures = result
        tracer.counts[f"security.{probe}.trials"] += trials
        tracer.counts[f"security.{probe}.detected"] += trials - len(failures)
    return after


# (module, class or None, attribute, span name, before hook, after hook).
# ``before(args)`` returns a state passed to ``after(tracer, args, result,
# state)``; ``after`` may return a suffix appended to the span name.
TARGETS = [
    ("sgx_core", None, "digest_update", "sgx_core.digest", None,
     _add("sgx_core.digest.bytes", lambda a, r: len(a[1]))),
    ("sgx_core", "Machine", "eadd", "sgx_core.eadd", None, _after_eadd),
    ("sgx_core", "Machine", "translate_access", "sgx_core.translate_access",
     None, None),
    ("sgx_core", "Machine", "eremove", "sgx_core.eremove", None, None),
    ("sgx_core", "Machine", "read_page", "sgx_core.read_page", None, None),
    ("sgx_core", "Machine", "write_page", "sgx_core.write_page", None, None),
    ("sgx_core", "Machine", "eenter", "sgx_core.eenter", None, None),
    ("host_kernel", "Kernel", "alias_enclave", "host_kernel.alias_enclave",
     None, _add("host_kernel.alias_enclave.pages",
                lambda a, r: len(a[2].entries))),
    ("host_kernel", "Kernel", "tcs_acquire", "host_kernel.tcs_acquire",
     None, None),
    ("host_kernel", "Kernel", "create_container",
     "host_kernel.create_container", None, None),
    ("enclave_runtime", "EnclaveRuntime", "runtime_init",
     "enclave_runtime.runtime_init", None, None),
    ("enclave_runtime", "EnclaveRuntime", "instance_create",
     "enclave_runtime.instance_create", None, None),
    ("enclave_runtime", "EnclaveRuntime", "fork_cow",
     "enclave_runtime.fork_cow", None, None),
    ("enclave_runtime", "EnclaveRuntime", "cow_write",
     "enclave_runtime.cow_write", lambda a: a[1].dirty_count,
     _after_cow_write),
    ("enclave_runtime", "EnclaveRuntime", "cow_read",
     "enclave_runtime.cow_read", None, None),
    ("enclave_runtime", "EnclaveRuntime", "snapshot",
     "enclave_runtime.snapshot", None,
     _add("enclave_runtime.snapshot.pages", lambda a, r: a[0].db_pages)),
    ("enclave_runtime", "EnclaveRuntime", "fs_open",
     "enclave_runtime.fs_open", None, None),
    *[("security", None, probe, f"security.{probe}", None, _after_probe(probe))
      for probe in PROBES],
    ("cost_model", "CostLedger", "charge", "cost_model.charge", None, None),
    ("cost_model", "CostLedger", "occupy", "cost_model.occupy", None, None),
    ("workload_harness", None, "run_serverless",
     "workload_harness.run_serverless", None,
     _add("workload_harness.run_serverless.sim_requests",
          lambda a, r: len(a[1].arrivals))),
    ("workload_harness", None, "run_database",
     "workload_harness.run_database", None, None),
    ("workload_harness", None, "gen_poisson", "workload_harness.gen_poisson",
     None, None),
    ("cli", None, "main", "cli.main", None, None),
    ("cli", None, "parse_config", "cli.parse_config", None, None),
    ("cli", None, "write_outputs", "cli.write_outputs", None,
     _add("cli.write_outputs.bytes",
          lambda a, r: sum(os.path.getsize(p) for p in r))),
]


class Tracer:
    """Traces calls made inside ``op`` blocks of one run.

    Aggregates (calls, self and inclusive time, errors, per-op coverage)
    are accumulated as each span closes, for every span. The spans
    themselves are kept in memory up to ``MAX_KEPT_SPANS`` and written out
    at the end, so memory stays bounded on call-heavy workloads.
    """

    MAX_KEPT_SPANS = 200_000

    def __init__(self, sim):
        self.sim = sim
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self.epc_peak = 0
        self.op_id = -1
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.errors: Counter = Counter()
        self.coverage: List[float] = []
        # Open spans: [kept span index or -1, summed child duration].
        self._stack = [[-1, 0.0]]
        self._active = False
        self._undo = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [getattr(self.sim, name) for name in MODULES]
        for module, cls, attr, name, before, after in TARGETS:
            owner = getattr(getattr(self.sim, module), cls) if cls else None
            if owner is not None:
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(original, name, before,
                                                    after))
                continue
            original = getattr(self.sim, module).__dict__[attr]
            wrapped = self._wrap(original, name, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapped) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    # -- spans ---------------------------------------------------------------

    def _open(self):
        index = -1
        if len(self.spans) < self.MAX_KEPT_SPANS:
            index = len(self.spans)
            self.spans.append(None)
        frame = [index, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame, name, start, end, error):
        self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - frame[1]
        self.incl_s[name] += duration
        if error:
            self.errors[name, error] += 1
        parent = self._stack[-1]
        parent[1] += duration
        if frame[0] >= 0:
            self.spans[frame[0]] = (name, start, end, parent[0], self.op_id,
                                    error)
        return duration

    def _wrap(self, fn, name, before, after):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            state = before(args) if before is not None else None
            frame = tracer._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(frame, name, start, clock(), type(exc).__name__)
                raise
            end = clock()
            suffix = after(tracer, args, result, state) if after else None
            tracer._close(frame, name + suffix if suffix else name, start,
                          end, None)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark op; calls outside it are not traced."""
        self.op_id = op_id
        frame = self._open()
        self._active = True
        start = time.perf_counter()
        error = None
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._active = False
            duration = self._close(frame, "op", start, end, error)
            if duration > 0:
                self.coverage.append(frame[1] / duration)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["span", "name", "start_s", "end_s", "parent",
                             "op", "error"])
            for idx, (name, start, end, parent, op_id, error) in \
                    enumerate(self.spans):
                writer.writerow([idx, name, repr(start), repr(end), parent,
                                 op_id, error or ""])


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics of one traced run, keyed as in BENCHMARK.json
    (minus the traced-versus-untraced rates the caller adds)."""
    calls, self_s, incl_s = tracer.calls, tracer.self_s, tracer.incl_s
    errors, counts = tracer.errors, tracer.counts

    def faults(name, error=None):
        return sum(n for (span, err), n in errors.items()
                   if span == name and (error is None or err == error))

    total_op = incl_s["op"]
    metrics = {
        "sgx_core.digest.calls": calls["sgx_core.digest"],
        "sgx_core.digest.bytes": counts["sgx_core.digest.bytes"],
        "sgx_core.digest.self_s": self_s["sgx_core.digest"],
        "sgx_core.digest.self_share":
            self_s["sgx_core.digest"] / total_op if total_op else 0.0,
        "sgx_core.eadd.calls": calls["sgx_core.eadd"],
        "sgx_core.eadd.measured_pages": counts["sgx_core.eadd.measured_pages"],
        "sgx_core.eadd.self_s": self_s["sgx_core.eadd"],
        "sgx_core.translate_access.calls": calls["sgx_core.translate_access"],
        "sgx_core.translate_access.faults":
            faults("sgx_core.translate_access"),
        "sgx_core.translate_access.self_s":
            self_s["sgx_core.translate_access"],
        "sgx_core.eremove.calls": calls["sgx_core.eremove"],
        "sgx_core.eremove.self_s": self_s["sgx_core.eremove"],
        "sgx_core.read_page.self_s": self_s["sgx_core.read_page"],
        "sgx_core.write_page.self_s": self_s["sgx_core.write_page"],
        "sgx_core.eenter.calls": calls["sgx_core.eenter"],
        "sgx_core.eenter.tcs_busy": faults("sgx_core.eenter", "TcsBusy"),
        "sgx_core.epc_used_peak": tracer.epc_peak,
        "host_kernel.alias_enclave.calls": calls["host_kernel.alias_enclave"],
        "host_kernel.alias_enclave.pages":
            counts["host_kernel.alias_enclave.pages"],
        "host_kernel.alias_enclave.us_per_page":
            _ratio(self_s["host_kernel.alias_enclave"] * 1e6,
                   counts["host_kernel.alias_enclave.pages"]),
        "host_kernel.tcs_acquire.calls": calls["host_kernel.tcs_acquire"],
        "host_kernel.tcs_acquire.no_free":
            faults("host_kernel.tcs_acquire", "NoFreeTcs"),
        "host_kernel.create_container.calls":
            calls["host_kernel.create_container"],
        "enclave_runtime.runtime_init.self_s":
            self_s["enclave_runtime.runtime_init"],
        "enclave_runtime.instance_create.calls":
            calls["enclave_runtime.instance_create"],
        "enclave_runtime.instance_create.self_s":
            self_s["enclave_runtime.instance_create"],
        "enclave_runtime.fork_cow.self_s": self_s["enclave_runtime.fork_cow"],
        "enclave_runtime.cow_read.self_s": self_s["enclave_runtime.cow_read"],
        "enclave_runtime.snapshot.pages":
            counts["enclave_runtime.snapshot.pages"],
        "enclave_runtime.snapshot.self_s": self_s["enclave_runtime.snapshot"],
        "enclave_runtime.fs_open.integrity_faults":
            faults("enclave_runtime.fs_open", "FsIntegrityMismatch"),
    }
    first = calls["enclave_runtime.cow_write.first"]
    repeat = calls["enclave_runtime.cow_write.repeat"]
    metrics.update({
        "enclave_runtime.cow_write.first.calls": first,
        "enclave_runtime.cow_write.first.self_s":
            self_s["enclave_runtime.cow_write.first"],
        "enclave_runtime.cow_write.repeat.calls": repeat,
        "enclave_runtime.cow_write.repeat.self_s":
            self_s["enclave_runtime.cow_write.repeat"],
        "enclave_runtime.cow_write.privatize_ratio":
            _ratio(first, first + repeat),
    })
    for probe in PROBES:
        for count in ("trials", "detected"):
            key = f"security.{probe}.{count}"
            metrics[key] = counts[key]
        metrics[f"security.{probe}.self_s"] = self_s[f"security.{probe}"]
    sim_requests = counts["workload_harness.run_serverless.sim_requests"]
    metrics.update({
        "cost_model.charge.calls": calls["cost_model.charge"],
        "cost_model.charge.self_s": self_s["cost_model.charge"],
        "cost_model.occupy.calls": calls["cost_model.occupy"],
        "cost_model.occupy.self_s": self_s["cost_model.occupy"],
        "workload_harness.run_serverless.self_s":
            self_s["workload_harness.run_serverless"],
        "workload_harness.run_serverless.sim_requests": sim_requests,
        "workload_harness.sim_requests_per_s":
            _ratio(sim_requests, incl_s["workload_harness.run_serverless"]),
        "workload_harness.run_database.self_s":
            self_s["workload_harness.run_database"],
        "workload_harness.gen_poisson.self_s":
            self_s["workload_harness.gen_poisson"],
        "cli.parse_config.self_s": self_s["cli.parse_config"],
        "cli.write_outputs.self_s": self_s["cli.write_outputs"],
        "cli.write_outputs.bytes": counts["cli.write_outputs.bytes"],
        "trace.ops": calls["op"],
        "trace.spans": sum(calls.values()),
        "trace.span_coverage": statistics.median(tracer.coverage)
        if tracer.coverage else 0.0,
    })
    return metrics


def self_time_shares(tracer: Tracer):
    """(name, self seconds, share of all op wall time), largest first."""
    total = tracer.incl_s["op"] or 1.0
    return sorted(((name, s, s / total) for name, s in tracer.self_s.items()),
                  key=lambda row: -row[1])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
