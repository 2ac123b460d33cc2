"""Host-time benchmark of the enclavesim simulator.

Run from the repository root:

    python3 bench/run.py --workload probe-suite --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the program untouched.
``--trace 1`` wraps the program's public functions, runs a fixed window of
ops traced, replays the same ops untraced, and reports the per-layer
metrics. Both print a readable report and end with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. Metric names, units and
directions are declared in BENCHMARK.json; see bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import MODULES, Tracer, layer_metrics, self_time_shares
from workloads import CALIBRATION_NOTE, RECORD_OPS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "enclavesim-bench"

# Set-up is repeated until both limits are reached and its median reported.
SETUP_MIN_REPS = 5
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 40
# A measured loop stops here even below its op count, so that a run (two
# loops when traced) ends within 180 s.
HARD_STOP_S = 75.0


def import_program():
    """Import enclavesim afresh (dropping any earlier import) and return the
    package; its submodules are attributes of it."""
    for name in [m for m in sys.modules
                 if m == "enclavesim" or m.startswith("enclavesim.")]:
        del sys.modules[name]
    package = importlib.import_module("enclavesim")
    for name in MODULES:
        importlib.import_module(f"enclavesim.{name}")
    return package


def build(cls, seed, workdir):
    """Set up one workload: import, generate inputs, build, one warm-up op."""
    sim = import_program()
    workload = cls(sim, seed, workdir)
    inp = workload.inputs(-1)
    error = workload.check(-1, inp, workload.op(inp))
    if error:
        raise RuntimeError(f"warm-up op failed: {error}")
    return sim, workload


_REFERENCE_BYTES = bytes(range(256))


def _reference_kernel():
    acc, table = 0, {}
    for i, b in enumerate(_REFERENCE_BYTES):
        acc = ((acc ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        table[i & 63] = acc
    return acc


class Speedometer:
    """Samples how fast this host runs a fixed pure-Python kernel, so that
    slow-downs caused by other tenants of a shared host can be taken out
    of op times.

    A sample is the fastest of five kernel runs (about 0.2 ms in all),
    taken before and after an op unless one was taken in the last 20 ms. A
    timed interval is scaled by ``NOMINAL_S`` over the mean of the samples
    taken just before and just after it: the interval as it would have
    taken on a host where a sample takes ``NOMINAL_S``.
    """

    INTERVAL_S = 0.02
    # On a shared 2-core x86-64 host with Python 3.11 the fastest samples
    # were 35.6-36.3 us. Scaling to a constant rather than to each run's
    # fastest sample keeps runs that never saw an idle core comparable.
    NOMINAL_S = 36e-6

    def __init__(self):
        self.at = []
        self.seconds = []

    def sample(self, every=0.0):
        """Take a sample unless one was taken less than ``every`` s ago."""
        clock = time.perf_counter
        if self.at and clock() - self.at[-1] < every:
            return
        best = math.inf
        for _ in range(5):
            t0 = clock()
            _reference_kernel()
            best = min(best, clock() - t0)
        self.at.append(clock())
        self.seconds.append(best)

    def corrected(self, intervals):
        """Scale each (start, duration) interval; call after a last sample."""
        last = len(self.seconds) - 1
        out = []
        for start, duration in intervals:
            j = bisect.bisect_right(self.at, start)
            local = (self.seconds[max(j - 1, 0)] + self.seconds[min(j, last)])
            out.append(duration * self.NOMINAL_S / (local / 2))
        return out


class Run:
    """Per-op start and host time, and failures, of one measured loop."""

    def __init__(self):
        self.intervals = []
        self.failed = 0
        self.first_error = None

    def fail(self, message):
        self.failed += 1
        if self.first_error is None:
            self.first_error = message
            print(f"op failed: {message}", file=sys.stderr)


def run_ops(workload, speed, seconds=None, ops=None, tracer=None, min_ops=0):
    """Run ops 0, 1, ... until ``ops`` are done, or until ``seconds`` of
    wall time have passed and at least ``min_ops`` are done. Only the op
    call is timed; input generation, speed samples and checks are not."""
    run = Run()
    clock = time.perf_counter
    start = clock()
    i = 0
    while True:
        elapsed = clock() - start
        if ops is not None:
            if i >= ops:
                break
        elif elapsed >= seconds and i >= min_ops:
            break
        if elapsed >= HARD_STOP_S:
            break
        inp = workload.inputs(i)
        speed.sample(every=Speedometer.INTERVAL_S)
        t0 = clock()
        try:
            if tracer is None:
                out = workload.op(inp)
            else:
                with tracer.op(i):
                    out = workload.op(inp)
        except Exception:
            run.intervals.append((t0, clock() - t0))
            run.fail(f"op {i} raised:\n{traceback.format_exc()}")
        else:
            run.intervals.append((t0, clock() - t0))
            speed.sample(every=Speedometer.INTERVAL_S)
            try:
                error = workload.check(i, inp, out)
            except Exception:
                error = f"check raised:\n{traceback.format_exc()}"
            if error:
                run.fail(f"op {i}: {error}")
        i += 1
    speed.sample()
    return run


def untraced(cls, seed, seconds, workdir):
    speed = Speedometer()
    setup = []
    while len(setup) < SETUP_MIN_REPS or (
            sum(d for _, d in setup) < SETUP_MIN_S
            and len(setup) < SETUP_MAX_REPS):
        # Free the previous build, and its module objects, before the next.
        workload = None
        gc.collect()
        speed.sample()
        t0 = time.perf_counter()
        _, workload = build(cls, seed, workdir)
        setup.append((t0, time.perf_counter() - t0))
    run = run_ops(workload, speed, seconds=seconds, min_ops=RECORD_OPS)
    times = sorted(speed.corrected(run.intervals))
    raw = sorted(d for _, d in run.intervals)
    n = len(times)
    metrics = {
        "ops_per_s": n / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": times[math.ceil(0.9 * n) - 1] * 1e3,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "setup_s": statistics.median(speed.corrected(setup)),
    }
    info = {
        "ops": n,
        "samples_beyond_p90": n - math.ceil(0.9 * n),
        "error_rate": run.failed / n,
        "setup_reps": len(setup),
        "uncorrected": {
            "ops_per_s": n / sum(raw),
            "op_p50_ms": statistics.median(raw) * 1e3,
            "op_p90_ms": raw[math.ceil(0.9 * n) - 1] * 1e3,
            "setup_s": statistics.median(d for _, d in setup),
            "reference_median_us": statistics.median(speed.seconds) * 1e6,
            "reference_fastest_us": min(speed.seconds) * 1e6,
        },
        "sim": workload.sim_record(),
    }
    return run, metrics, info


def traced(cls, seed, seconds, workdir):
    window = max(1, round(cls.trace_ops_per_s * seconds))
    speed = Speedometer()
    sim, workload = build(cls, seed, workdir)
    tracer = Tracer(sim)
    tracer.install()
    try:
        traced_run = run_ops(workload, speed, ops=window, tracer=tracer)
    finally:
        tracer.uninstall()
    ops = len(traced_run.intervals)
    _, replay = build(cls, seed, workdir)
    replay_run = run_ops(replay, speed, ops=ops)
    run = Run()
    run.intervals = traced_run.intervals + replay_run.intervals
    run.failed = traced_run.failed + replay_run.failed
    metrics = layer_metrics(tracer)
    traced_rate = ops / sum(speed.corrected(traced_run.intervals))
    untraced_rate = ops / sum(speed.corrected(replay_run.intervals))
    metrics.update({
        "trace.traced_ops_per_s": traced_rate,
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.overhead_x": untraced_rate / traced_rate,
    })
    tracer.write_csv(workdir / "spans.csv")
    info = {
        "ops": ops,
        "self_time_top": [
            {"span": name, "self_s": s, "share": share}
            for name, s, share in self_time_shares(tracer)[:10]],
        "sim": workload.sim_record(),
        "spans_file": str((workdir / "spans.csv").relative_to(ROOT)),
        "spans_kept": len(tracer.spans),
    }
    return run, metrics, info


def print_report(workload, seed, trace, declared, metrics, info):
    mode = "traced, per-layer" if trace else "untraced, end-to-end"
    print(f"# enclavesim bench: workload={workload} seed={seed} ({mode}); "
          f"all times are host time")
    for name, spec in declared.items():
        print(f"{name:48s} {metrics[name]!r:>24} {spec['unit']}")
    if not trace:
        print(f"{'error_rate':48s} {info['error_rate']!r:>24} ratio")
        print("# times above are scaled to the nominal host speed "
              f"(reference sample {Speedometer.NOMINAL_S * 1e6:g} us); "
              "uncorrected:")
        for name, value in info["uncorrected"].items():
            print(f"#   {name:44s} {value!r:>24}")
        print(f"# {info['ops']} ops timed, {info['samples_beyond_p90']} "
              f"samples beyond p90; setup repeated {info['setup_reps']} times")
    else:
        print("# largest self-time shares of op wall time:")
        for row in info["self_time_top"]:
            print(f"#   {row['span']:44s} {row['share']:7.2%} "
                  f"{row['self_s']:.4f} s")
        print(f"# first {info['spans_kept']} spans written to "
              f"{info['spans_file']}")
    print(f"# simulated record over the first {min(info['ops'], RECORD_OPS)} "
          f"ops (ungated; {CALIBRATION_NOTE}):")
    for line in _record_lines(info["sim"], ""):
        print(f"#   {line}")


def _record_lines(record, prefix):
    """One line per nested dict: its scalar entries as key=value."""
    scalars = [f"{k}={v}" for k, v in record.items()
               if not isinstance(v, dict)]
    if scalars:
        yield f"{prefix or 'record'}: {' '.join(scalars)}"
    for key, value in record.items():
        if isinstance(value, dict):
            yield from _record_lines(value,
                                     f"{prefix}.{key}" if prefix else key)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "enclavesim" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    workdir = WORK_ROOT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cls = WORKLOADS[args.workload]
    if args.trace:
        run, metrics, info = traced(cls, args.seed, args.seconds, workdir)
    else:
        run, metrics, info = untraced(cls, args.seed, args.seconds, workdir)
    if set(metrics) != set(declared):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} do "
              f"not match BENCHMARK.json", file=sys.stderr)
        return 2
    print_report(args.workload, args.seed, args.trace, declared, metrics,
                 info)
    (workdir / f"report-trace{args.trace}.json").write_text(
        json.dumps({"metrics": metrics, **info}, indent=1, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": len(run.intervals),
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": spec["unit"]}
                    for name, spec in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
