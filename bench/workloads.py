"""The benchmark's three workloads.

Each workload is built from the simulator modules and a seed. Per op it
makes its inputs (``inputs``, untimed), calls into the program (``op``,
timed) and checks the output against its own expectations (``check``,
untimed; returns an error message or None). Checks also collect the
simulated-statistics record over the first ``RECORD_OPS`` ops, so that
record is the same for every run with the same seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import defaultdict

# Every run makes at least this many ops, so the 90th percentile has ten
# samples beyond it; the simulated record covers exactly these ops.
RECORD_OPS = 100

CALIBRATION_NOTE = ("simulated figures come from the cost model calibrated "
                    "to the paper's bands; they are not validated against "
                    "hardware")


def op_rng(seed: int, op: int) -> random.Random:
    """The inputs of op ``op`` depend only on the workload seed and ``op``."""
    return random.Random(f"{seed}/{op}")


def _nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1,
                              round(q * (len(ordered) - 1))))]


class ProbeSuite:
    """One op is one seeded probe schedule.

    Many tiny measured enclaves and translate-heavy reads: ``sgx_core``
    (eadd and its measurement digest, ``translate_access``) and
    ``host_kernel`` (aliasing, TCS table) do almost all the work; the cost
    model and the harness do none.
    """

    name = "probe-suite"
    # Traced-run window, in ops per second of ``--seconds``.
    trace_ops_per_s = 150

    def __init__(self, sim, seed: int, workdir):
        self.security = sim.security
        self.seed = seed
        self.fingerprint = hashlib.sha256()
        # probe -> [trials, detected]
        self.outcomes = defaultdict(lambda: [0, 0])

    def inputs(self, i: int):
        # run_all's mix is 1000 adversary : 1000 TCS : 50 environment-swap
        # : 1 remap enumeration; interleave it at about that ratio.
        if i % 2000 == 0:
            return "remap_enumeration", None
        k = i % 41
        if k == 40:
            probe = "environment_swap_detection"
        elif k % 2:
            probe = "random_adversary_schedules"
        else:
            probe = "tcs_exclusivity_schedules"
        return probe, op_rng(self.seed, i).getrandbits(32)

    def op(self, inp):
        probe, seed = inp
        fn = getattr(self.security, probe)
        return fn() if seed is None else fn(1, seed)

    def check(self, i: int, inp, out):
        probe, seed = inp
        trials, failures = out
        if 0 <= i < RECORD_OPS:
            outcome = self.outcomes[probe]
            outcome[0] += trials
            outcome[1] += trials - len(failures)
            self.fingerprint.update(
                f"{probe} {seed} {trials} {len(failures)}\n".encode())
        if trials < 1:
            return f"{probe} ran no trials"
        if failures:
            return f"{probe}(seed {seed}) undetected: {failures[0]}"
        return None

    def sim_record(self):
        return {
            "probes": {probe: {"trials": t, "detected": d}
                       for probe, (t, d) in sorted(self.outcomes.items())},
            "fingerprint": self.fingerprint.hexdigest(),
        }


class CowFork:
    """One op is one snapshot cycle on a long-lived database enclave.

    ``fork_cow``, then a seeded mix of parent and child ``cow_write`` and
    ``cow_read`` over a skewed key distribution (first, privatizing writes
    and repeat writes both occur), then ``snapshot``. The work is in
    ``enclave_runtime``'s copy-on-write paths, ``alias_enclave`` per page and
    the snapshot digest over unmeasured post-init pages.
    """

    name = "cow-fork"
    trace_ops_per_s = 2.5
    DB_PAGES = 256
    RUNTIME_PAGES = 16
    TCS_COUNT = 4
    ACCESSES = 256  # cow_write/cow_read calls per cycle
    WRITE_SHARE = 0.5
    VALUE_BYTES = 8

    def __init__(self, sim, seed: int, workdir):
        self.seed = seed
        self.page_size = sim.sgx_core.PAGE_SIZE
        self.machine = sim.sgx_core.Machine(epc_capacity_pages=4096)
        self.kernel = sim.host_kernel.Kernel(self.machine)
        self.runtime = sim.enclave_runtime.EnclaveRuntime(self.machine,
                                                          self.kernel)
        self.runtime.runtime_init(self.RUNTIME_PAGES, self.TCS_COUNT)
        rng = random.Random(f"{seed}/db")
        initial = [rng.randbytes(64) for _ in range(self.DB_PAGES)]
        self.runtime.load_db(self.DB_PAGES, fill=initial.__getitem__)
        self.vas = self.runtime.db_vas()
        # Eager-copy shadow of the parent's view, kept by the benchmark.
        self.shadow = {va: bytearray(content.ljust(self.page_size, b"\0"))
                       for va, content in zip(self.vas, initial)}
        self.parent = self.runtime.creator.pid
        self.runtime.enter(self.parent)
        self.baseline = self.machine.epc_used
        self.fingerprint = hashlib.sha256()
        self.dirty = []
        self.peak_epc_pages = self.baseline
        self.containers = len(self.kernel.containers)
        mismatch = self._parent_mismatch()
        if mismatch:
            raise RuntimeError(f"database load: {mismatch}")

    def inputs(self, i: int):
        rng = op_rng(self.seed, i)
        accesses = []
        for _ in range(self.ACCESSES):
            side = int(rng.random() < 0.5)  # 0 parent, 1 child
            # Cubed uniform: half the accesses hit the first eighth of the
            # pages, so repeat writes are common and first writes still occur.
            va = self.vas[int(self.DB_PAGES * rng.random() ** 3)]
            if rng.random() < self.WRITE_SHARE:
                offset = rng.randrange(self.page_size - self.VALUE_BYTES)
                accesses.append((side, va, offset,
                                 rng.randbytes(self.VALUE_BYTES)))
            else:
                accesses.append((side, va, None, None))
        return accesses

    def op(self, accesses):
        runtime = self.runtime
        pair = runtime.fork_cow(self.parent)
        pids = (pair.parent_pid, pair.child_pid)
        reads = []
        for side, va, offset, value in accesses:
            if value is None:
                reads.append(runtime.cow_read(pair, pids[side], va))
            else:
                runtime.cow_write(pair, pids[side], va, value, offset)
        runtime.snapshot(pair, pair.child_pid)
        return pair, reads

    def check(self, i: int, accesses, out):
        pair, reads = out
        child = {va: bytearray(content) for va, content in self.shadow.items()}
        views = (self.shadow, child)
        got = iter(reads)
        for n, (side, va, offset, value) in enumerate(accesses):
            view = views[side][va]
            if value is None:
                if next(got) != view:
                    return (f"access {n}: cow_read of {va:#x} differs "
                            f"from shadow")
            else:
                view[offset:offset + len(value)] = value
        mismatch = self._parent_mismatch()
        if mismatch:
            return f"after snapshot: {mismatch}"
        self.machine.check_epc_conservation()
        if self.machine.epc_used != self.baseline:
            return (f"EPC used {self.machine.epc_used} pages after snapshot, "
                    f"baseline {self.baseline}")
        if 0 <= i < RECORD_OPS:
            self.dirty.append(pair.dirty_count)
            self.peak_epc_pages = max(self.peak_epc_pages,
                                      self.baseline + pair.dirty_count)
            self.containers = len(self.kernel.containers)
            self.fingerprint.update(pair.dirty_count.to_bytes(4, "little"))
            for data in reads:
                self.fingerprint.update(data)
            for va in self.vas:
                self.fingerprint.update(self.shadow[va])
        return None

    def _parent_mismatch(self):
        pages, enclave_pages = self.machine.pages, self.runtime.enclave.pages
        for va in self.vas:
            if pages[enclave_pages[va]].content != self.shadow[va]:
                return f"parent page {va:#x} differs from shadow"
        return None

    def sim_record(self):
        mib = self.page_size / (1 << 20)
        cycles = len(self.dirty)
        return {
            "cycles": cycles,
            "db_pages": self.DB_PAGES,
            "dirty_pages_total": sum(self.dirty),
            "dirty_pages_per_cycle": sum(self.dirty) / cycles if cycles else 0,
            "fork_ratio_dirty_over_db": (sum(self.dirty) / cycles
                                         / self.DB_PAGES if cycles else 0),
            "peak_epc_mib": self.peak_epc_pages * mib,
            # Known defect: forked children stay registered after snapshot,
            # so this is 2 + cycles (creator, warm-up child, one per cycle).
            "containers_registered": self.containers,
            "fingerprint": self.fingerprint.hexdigest(),
        }


SWEEP_CONFIGS = {
    # Four models at a rate that backs up cc_cold's 8 workers and the
    # serialized EPC-expand lock of the shared-enclave model.
    "serverless_macro": ("[serverless_macro]\n"
                         "model = native, cc_cold, cc_warm, teemate\n"
                         "workload = {workload}\n"
                         "rate_per_s = 4\nduration_s = 150\nseed = 0\n"),
    "serverless_throughput": ("[serverless_throughput]\n"
                              "model = native, cc_cold, cc_warm, teemate\n"
                              "workload = all\nn_requests = 64\nseed = 0\n"),
    "database": ("[database]\nmodel = strawman, teemate\ndb_mib = 512\n"
                 "write_ratio = {write_ratio}\nsnapshot_interval_s = 2\n"
                 "duration_s = 60\nseed = 0\n"),
}


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class ScenarioSweep:
    """One op is one ``cli.main`` run; configs rotate through three
    scenarios. ``workload_harness``, ``cost_model`` and ``cli`` do all the
    work and ``sgx_core`` is never called: the control workload for
    hardware and runtime changes."""

    name = "scenario-sweep"
    trace_ops_per_s = 7.5

    def __init__(self, sim, seed: int, workdir):
        self.cli = sim.cli
        self.workload_names = sim.cost_model.WORKLOADS
        self.seed = seed
        self.workdir = workdir
        self.scenarios = list(SWEEP_CONFIGS)
        for scenario in self.scenarios:
            (workdir / scenario).mkdir(parents=True, exist_ok=True)
        self.fingerprints = {(s, f): hashlib.sha256() for s in self.scenarios
                             for f in ("summary.json", "metrics.csv")}
        self.records = {}

    def inputs(self, i: int):
        rng = op_rng(self.seed, i)
        scenario = self.scenarios[i % len(self.scenarios)]
        text = SWEEP_CONFIGS[scenario].format(
            workload=rng.choice(self.workload_names),
            write_ratio=rng.choice((0.1, 0.3, 0.5)))
        config = self.workdir / f"{scenario}.cfg"
        config.write_text(text)
        seed = rng.getrandbits(31)
        argv = [str(config), "--out", str(self.workdir / scenario),
                "--seed", str(seed)]
        return scenario, text, seed, argv

    def op(self, inp):
        return self.cli.main(inp[3])

    def check(self, i: int, inp, code):
        scenario, text, seed, _ = inp
        if code != 0:
            return f"{scenario}: exit code {code}"
        out = self.workdir / scenario
        summary_bytes = (out / "summary.json").read_bytes()
        csv_bytes = (out / "metrics.csv").read_bytes()
        try:
            summary = json.loads(summary_bytes,
                                 parse_constant=_reject_constant)
        except ValueError as exc:
            return f"{scenario}: summary.json is not strict JSON ({exc})"
        if 0 <= i < RECORD_OPS:
            self.fingerprints[scenario, "summary.json"].update(summary_bytes)
            self.fingerprints[scenario, "metrics.csv"].update(csv_bytes)
            if scenario not in self.records:
                self.records[scenario] = self._record(summary, text, seed)
        return None

    def _record(self, summary, text, seed):
        """Simulated statistics of one scenario run, per model. Response
        time is finish minus arrival, so it includes queueing that the
        service-time percentiles leave out."""
        config = self.cli.parse_config(text)
        config.seed = seed
        results = self.cli.run_scenario(config)
        record = {}
        for label, entry in summary["models"].items():
            row = {"service_p50_ms": entry["p50_ms"],
                   "service_p99_ms": entry["p99_ms"],
                   "peak_epc_mib": entry["peak_epc_mib"]}
            extras = entry["extras"]
            if "dirty_pages" in extras:
                row["dirty_pages"] = extras["dirty_pages"]
                row["fork_latency_ms"] = extras["fork_latency_ms"]
                ratio = entry.get("ratios", {}).get(
                    "fork_latency_speedup_vs_baseline")
                if ratio is not None:
                    row["fork_ratio_vs_first_model"] = ratio
            else:
                row["response_p99_ms"] = _nearest_rank(
                    [r.finish_ms - r.arrival_ms
                     for r in results[label].requests], 0.99)
            record[label] = row
        return record

    def sim_record(self):
        return {
            "scenarios": self.records,
            "fingerprints": {
                s: {f: self.fingerprints[s, f].hexdigest()
                    for f in ("summary.json", "metrics.csv")}
                for s in self.scenarios},
        }


WORKLOADS = {cls.name: cls for cls in (ProbeSuite, CowFork, ScenarioSweep)}
