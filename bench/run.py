#!/usr/bin/env python3
"""Benchmark of the pedoe library and CLI, one seeded workload per run.

    python3 bench/run.py --workload {solve,verify,cli_jobs,gasket} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout: it imports pedoe from ``src/``
and exits with status 2, printing no result, when that tree is missing.
The loop is closed with one caller: each op starts when the previous one
has been checked.  It runs ops until ``--seconds`` of program time (the
timed calls alone) have passed, checks every answer with the independent
oracles in ``oracles.py``, prints a readable report as ``#`` lines and,
as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
library's public functions (see ``spans.py``), runs the same op stream,
and reports per-layer metrics, then replays the first ops untraced to
measure the tracing overhead.  ``failed`` counts ops that raised, exited
with an unexpected code, ran past their time limit or failed an oracle.
``correct`` is false when an op failed, the oracles fail their self-test
or a set-up probe fails.  After the loop, a fixed stressed set of inputs
(``workloads.stress_ops``) runs untimed; some of it fails at the commit
that introduced this benchmark, from known defects (see README.md).  Its
fail ratio is reported on its own and counts in neither ``failed`` nor
``correct``.  Spans of a traced run are written to
``bench/_work/trace-<workload>-<seed>.jsonl.gz``.

Times are reported at a reference host speed.  The shared hosts this runs
on change speed by a factor of up to 1.6 within seconds, and that moves
every raw time alike.  So the benchmark times a fixed calibration kernel
every 20 ms of CPU time, inside ops too, takes the kernel's own time out
of the op's, and scales each op's time by ``REF_KERNEL_US / mean kernel
time in and around that op``.  The report also prints the raw values.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7


#: Calibration kernel time that defines the reference host speed (an idle
#: 2.1 GHz Xeon core); only ratios to it matter.
REF_KERNEL_US = 160.0
#: CPU seconds between two host-speed samples.
SPEED_SAMPLE_S = 0.02
#: Percentiles the tail may report.  Above p99 the value is set by the host
#: pre-empting the process, not by the program: on a 2-core shared host p99.9
#: of solve spread 65% across seeds.
TAIL_PERCENTILES = (99.0, 90.0, 50.0)


class HostSpeed:
    """Time of a fixed pure-Python and small-numpy kernel, sampled as the run goes.

    The kernel resembles the library's own mix of interpreter work and
    small array calls, so a slower host slows both by the same factor.
    While ``start``ed, a CPU-time interval timer (SIGPROF) takes a sample
    every SPEED_SAMPLE_S, inside long ops too; ``handler_time`` gives the
    time those samples took out of an op, which is not the program's.
    """

    def __init__(self, numpy):
        self.rows = numpy.linspace(0.5, 2.0, 12).reshape(3, 4)
        self.starts: list = []
        self.kernel_us: list = []
        self.spent = [0.0]  # time all samples so far took, for handler_time
        self.busy = False

    def _kernel(self) -> float:
        rows, s = self.rows, 0.0
        for i in range(60):
            row = rows[i % 3]
            s += float(row @ rows[(i + 1) % 3]) + abs(float(row[0]) - i) ** 0.5
            t = tuple(float(x) for x in row)
            s += sum(t) / len(t)
        return s

    def sample(self, *_) -> None:
        """Time the kernel: the faster of two runs, against interrupts."""
        if self.busy:  # the timer fired during a sample
            return
        self.busy = True
        start = time.perf_counter()
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - t0)
        end = time.perf_counter()
        self.starts.append(start)
        self.kernel_us.append(best * 1e6)
        self.spent.append(self.spent[-1] + end - start)
        self.busy = False

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, SPEED_SAMPLE_S, SPEED_SAMPLE_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def handler_time(self, t0: float, t1: float) -> float:
        """Time that samples started within [t0, t1] took."""
        i, j = bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)
        return self.spent[j] - self.spent[i]

    def scale(self, t0: float, t1: float) -> float:
        """REF_KERNEL_US over the mean kernel time in and just around [t0, t1]."""
        i, j = bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)
        around = self.kernel_us[max(i - 1, 0):j + 1]
        return REF_KERNEL_US * len(around) / sum(around)


class OpTimeout(Exception):
    """Raised by the interval timer; pedoe.cli.run catches no such class."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("solve", "verify", "cli_jobs", "gasket"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(workload: str, job: str, probes: dict, speed: HostSpeed) -> tuple:
    """Median time of fresh interpreters that import pedoe and do one first op.

    Each wall time is scaled to the reference speed by kernel samples taken
    just before and after its interpreter ran.  Returns (scaled, raw, errors).
    """
    code = (f"import sys\nsys.path.insert(0, {str(SRC)!r})\nimport pedoe, pedoe.cli\n"
            + probes[workload].format(job=job))
    scaled, raw, errors = [], [], []
    for _ in range(SETUP_SAMPLES):
        speed.sample()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120, check=False)
        t1 = time.perf_counter()
        speed.sample()
        raw.append(t1 - t0)
        scaled.append(raw[-1] * speed.scale(t0, t1))
        if proc.returncode != 0:
            errors.append((proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"])[-1])
    return statistics.median(scaled), statistics.median(raw), errors


def run_op(op, tracer=None):
    """Run one op; returns (start, end, result, exception text or None)."""
    if op.limit:
        signal.setitimer(signal.ITIMER_REAL, op.limit)
    t0 = time.perf_counter()
    try:
        result, exc = op.call(), None
    except OpTimeout:
        result, exc = None, "timeout"
    except Exception as e:  # every other failure of an op is counted, not fatal
        result, exc = None, f"{type(e).__name__}: {e}"
    finally:
        t1 = time.perf_counter()
        if op.limit:
            signal.setitimer(signal.ITIMER_REAL, 0)
    if tracer is not None:
        tracer.settle()
    return t0, t1, result, exc


def check(op, result, exc, verdict):
    """The oracle's verdict on an op; output the oracle cannot read is a failure."""
    if exc is not None:
        return verdict(False, 0.0, exc)
    try:
        return op.check(result)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as e:
        return verdict(False, 0.0, f"unreadable output: {type(e).__name__}: {e}")


def tail(latencies: list) -> tuple:
    """The highest of TAIL_PERCENTILES with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  A fixed ladder keeps the
    reported percentile the same across runs of similar length.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        rank = max(math.ceil(n * q / 100.0), 1)
        if n - rank >= 10:
            return ordered[rank - 1], q, n - rank
    return statistics.median(ordered), 50.0, n // 2


def run_stress(ops: list, verdict_type) -> Counter:
    """Run the stressed set untimed; returns failure counts by (kind, reason)."""
    failures = Counter()
    for op in ops:
        _, _, result, exc = run_op(op)
        verdict = check(op, result, exc, verdict_type)
        if not verdict.ok:
            failures[(op.kind, verdict.reason.split(":")[0][:60])] += 1
    return failures


def per_layer(tracer, speed: HostSpeed, n_ops: int, op_seconds: float, scale: float,
              out_bytes: int, gasket: list, worst: float, overhead: float,
              stress_fail_ratio: float) -> dict:
    """Per-layer metrics of a traced run; times are scaled to the reference speed.

    Span durations leave out the host-speed samples taken inside them, as
    op times do.
    """
    agg = tracer.self_times(lambda a, b: speed.handler_time(a * 1e-9, b * 1e-9) * 1e9)

    def calls(*names):
        return sum(agg.get(name, (0, 0))[1] for name in names) / n_ops

    def self_us(*names):
        return sum(agg.get(name, (0, 0))[0] for name in names) / n_ops / 1e3 * scale

    def module_us(module):
        return self_us(*[name for name in agg if name.startswith(module + ".")])

    total_self = sum(v[0] for v in agg.values())
    solves = sum(s for s, _ in gasket)
    circles = sum(c for _, c in gasket)
    sols = tracer.solutions
    m = {
        "linalg.eigen.calls_per_op": (calls("linalg.invert_symmetric", "linalg.inertia"), "calls/op"),
        "linalg.eigen.self_us_per_op": (self_us("linalg.invert_symmetric", "linalg.inertia",
                                                "linalg.jacobi_eigensystem"), "us"),
        "linalg.solve_affine.calls_per_op": (calls("linalg.solve_affine"), "calls/op"),
        "linalg.solve_affine.self_us_per_op": (self_us("linalg.solve_affine"), "us"),
        "linalg.self_us_per_op": (module_us("linalg"), "us"),
        "configuration.gram.calls_per_op": (calls("configuration.gram"), "calls/op"),
        "configuration.self_us_per_op": (module_us("configuration"), "us"),
        "solver.complete_configuration.calls_per_op":
            (calls("solver.complete_configuration"), "calls/op"),
        "solver.self_us_per_op": (module_us("solver"), "us"),
        "solver.solutions_per_call": (sum(sols) / len(sols) if sols else 0.0, "solutions/call"),
        "geometry.pedoe_vector.calls_per_op": (calls("geometry.pedoe_vector"), "calls/op"),
        "geometry.pedoe_vector.self_us_per_op": (self_us("geometry.pedoe_vector"), "us"),
        "geometry.sphere_from_vector.self_us_per_op": (self_us("geometry.sphere_from_vector"), "us"),
        "geometry.self_us_per_op": (module_us("geometry"), "us"),
        "minkowski.classify_ray.self_us_per_op": (self_us("minkowski.classify_ray"), "us"),
        "minkowski.metric.calls_per_op": (calls("minkowski.metric"), "calls/op"),
        "minkowski.self_us_per_op": (module_us("minkowski"), "us"),
        "cli.self_us_per_op": (module_us("cli"), "us"),
        "cli.load_job.self_us_per_op": (self_us("cli.load_job"), "us"),
        "cli.render_svg.self_us_per_op": (self_us("cli.render_svg"), "us"),
        "cli.output_bytes_per_op": (out_bytes / n_ops, "B/op"),
        "cli.gasket.solves_per_circle": (solves / circles if circles else 0.0, "solves/circle"),
        "accuracy.max_rel_error": (worst, "1"),
        "stress.fail_ratio": (stress_fail_ratio, "1"),
        "trace.op_us_per_op": (op_seconds / n_ops * 1e6 * scale, "us"),
        "trace.self_sum_ratio": (total_self / 1e9 / op_seconds, "1"),
        "trace.overhead_ratio": (overhead, "1"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pedoe" / "__init__.py").is_file():
        print(f"error: no pedoe sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # BLAS threads are pinned before numpy loads: the loop has one caller.
    for var in BLAS_VARS:
        os.environ[var] = "1"
    # One core for the loop, the speed samples and the set-up interpreters alike.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import numpy
    import pedoe
    import pedoe.cli

    import oracles
    import workloads
    from spans import Tracer

    if Path(pedoe.__file__).resolve().parent != (SRC / "pedoe").resolve():
        print(f"error: imported pedoe from {pedoe.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workdir, numpy, pedoe, oracles, workloads, Tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path, numpy, pedoe, oracles, workloads, Tracer) -> int:
    name, seed = args.workload, args.seed
    speed = HostSpeed(numpy)
    speed.sample()
    problems = [f"oracle self-test: {p}" for p in oracles.selftest()]
    if not args.trace:
        setup_s, setup_raw, errors = measure_setup(
            name, workloads.probe_job(str(workdir)), workloads.PROBES, speed)
        problems += [f"set-up probe failed: {e}" for e in errors]

    signal.signal(signal.SIGALRM, _on_alarm)
    for op in workloads.warmup(name, pedoe, seed, str(workdir)):
        run_op(op)
    speed.start()

    tracer = None
    if args.trace:
        tracer = Tracer(pedoe)
        tracer.install()
    stream = workloads.ops(name, pedoe, seed, str(workdir))
    # per-op records in typed arrays, so peak RSS does not grow with the op count
    latencies, starts, ends, completed = array("d"), array("d"), array("d"), array("b")
    gasket = []
    busy = worst = 0.0
    failed = out_bytes = 0
    failures = Counter()
    while busy < args.seconds:
        op = next(stream)
        if tracer is not None:
            tracer.op = len(latencies)
            first_span = len(tracer)
        t0, t1, result, exc = run_op(op, tracer)
        dt = t1 - t0 - speed.handler_time(t0, t1)
        starts.append(t0)
        ends.append(t1)
        busy += dt
        latencies.append(dt)
        completed.append(exc is None)
        if isinstance(result, workloads.CliResult):
            out_bytes += len(result.out.encode())
            if op.outfile and os.path.exists(op.outfile):
                out_bytes += os.path.getsize(op.outfile)
        verdict = check(op, result, exc, workloads.Verdict)
        if verdict.ok:
            worst = max(worst, verdict.error)
        else:
            failed += 1
            failures[(op.kind, verdict.reason.split(":")[0][:60])] += 1
        if tracer is not None and verdict.circles:
            gasket.append((tracer.count("solver.complete_configuration", first_span),
                           verdict.circles))
    speed.sample()
    if tracer is None:
        speed.stop()
    # read before the stressed set runs, which may grow the heap on a runaway job
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(latencies)
    scaled = array("d", (dt * speed.scale(t0, t1) for dt, t0, t1 in zip(latencies, starts, ends)))
    busy_scaled = sum(scaled)
    correct = not problems and failed == 0

    print(f"# pedoe benchmark: workload={name} seed={seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# env: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} blas_threads={os.environ['OPENBLAS_NUM_THREADS']}")
    print(f"# loop: closed, 1 caller; {n} ops in {busy:.3f} s of program time")
    print(f"# host speed: calibration kernel median {statistics.median(speed.kernel_us):.1f} us "
          f"over {len(speed.kernel_us)} samples (reference {REF_KERNEL_US:g} us); "
          f"scaled/raw time {busy_scaled / busy:.4f}")
    print(f"# fail_ratio {failed / n:.6f} ({failed} of {n})")
    for (kind, reason), count in sorted(failures.items()):
        print(f"#   failed {count:6d}  {kind:16s} {reason}")
    for problem in problems:
        print(f"# {problem}")

    if tracer is not None:
        tracer.uninstall()
        replay = workloads.ops(name, pedoe, seed, str(workdir))
        traced_s = untraced_s = 0.0
        replayed = []
        for i in range(n):
            if untraced_s >= args.seconds / 2:
                break
            t0, t1, _, exc = run_op(next(replay))
            if exc is None and completed[i]:
                replayed.append((i, t1 - t0 - speed.handler_time(t0, t1), (t0, t1)))
                untraced_s += replayed[-1][1]
        speed.sample()
        speed.stop()
        traced_s = sum(scaled[i] for i, _, _ in replayed)
        untraced_s = sum(dt * speed.scale(*iv) for _, dt, iv in replayed)
        overhead = traced_s / untraced_s if untraced_s else 1.0
        trace_path = WORK / f"trace-{name}-{seed}.jsonl.gz"
        tracer.write(trace_path)
        print(f"# spans: {len(tracer)} written to {trace_path.relative_to(ROOT)}")

    stress = workloads.stress_ops(name, pedoe, seed, str(workdir))
    stress_failures = run_stress(stress, workloads.Verdict)
    stress_failed = sum(stress_failures.values())
    stress_ratio = stress_failed / len(stress) if stress else 0.0
    print(f"# stressed set (untimed, not in failed): {stress_failed} of {len(stress)} failed")
    for (kind, reason), count in sorted(stress_failures.items()):
        print(f"#   failed {count:6d}  {kind:16s} {reason}")

    if tracer is not None:
        metrics = per_layer(tracer, speed, n, busy, busy_scaled / busy, out_bytes, gasket,
                            worst, overhead, stress_ratio)
    else:
        tail_s, tail_q, beyond = tail(scaled)
        raw_tail, _, _ = tail(latencies)
        metrics = {
            "throughput_ops_s": {"value": n / busy_scaled, "unit": "ops/s"},
            "latency_p50_ms": {"value": statistics.median(scaled) * 1e3, "unit": "ms"},
            "latency_tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
        print(f"# latency_tail_ms is p{tail_q:g} of {n} samples, {beyond} of them beyond it")
        print(f"# raw: throughput_ops_s {n / busy:.6g}  latency_p50_ms "
              f"{statistics.median(latencies) * 1e3:.6g}  latency_tail_ms {raw_tail * 1e3:.6g}  "
              f"setup_s {setup_raw:.6g}")
    for key, m in metrics.items():
        print(f"# {key:45s} {m['value']:.6g} {m['unit']}  (n={n})")
    print(json.dumps({"correct": correct, "attempted": n, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
