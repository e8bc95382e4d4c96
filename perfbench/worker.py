"""One benchmark run of one workload, in its own process.

Started by ``run.py`` with BLAS pinned to one thread and ``src`` on the
import path. Runs the workload's warm-up passes, then whole timed passes
until ``--seconds`` have elapsed, one job after another (a closed loop with
one client). Between stretches of timed work it runs the reference
computation of ``reference.py``, and reports timings scaled by it, with the
raw ones kept beside them. With ``--trace 1`` untraced and traced passes
alternate, and each pair, two passes over the same inputs, gives one sample
of the tracing overhead; traced runs report raw seconds. Writes its result
as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

import jacobisplit
from layers import Instrumentation, missing_spans, per_layer_metrics
from reference import REF_S, SpeedLog, reference_seconds
from spans import SpanRecorder
from stats import paired_overhead, scale_factors, tail
from workloads import WORKLOADS, TrajectoryTap, accuracy_digits

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_ERRORS_KEPT = 20
# Seconds of timed work between two reference runs: long enough that the
# reference adds about a fifth to a run, short enough to follow drift.
SEGMENT_S = 1.2


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "seed": seed,
    }


def end_to_end_metrics(walls, samples, nodes, deviations) -> dict[str, float]:
    """End-to-end metrics, except set-up time, from pass walls, (scenario,
    seconds) samples, integrated nodes and closed-form deviations.

    Latencies are summarized per scenario first: ``scenario_ms_p50`` is the
    median over scenarios of each one's median latency and
    ``scenario_ms_tail`` is the median latency of the slowest scenario. On
    a mix of very different scenarios a percentile of the pooled samples
    either falls in the gap between two of them or on an extreme sample of
    the slowest one, and moves with the number of passes a run fits in."""
    by_scenario: dict[str, list[float]] = {}
    for name, seconds in samples:
        by_scenario.setdefault(name, []).append(seconds)
    medians = [statistics.median(v) for v in by_scenario.values()]
    return {
        "wall_s": statistics.median(walls),
        "scenario_ms_p50": statistics.median(medians) * 1e3,
        "scenario_ms_tail": max(medians) * 1e3,
        "node_throughput": nodes / sum(t for _, t in samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy_digits": accuracy_digits(deviations) if deviations else math.nan,
    }


def pooled_tail(samples) -> dict:
    """The pooled percentile tail, kept in the result file for reference."""
    at = tail([t for _, t in samples])
    return {"samples": len(samples), "percentile": at and at[0], "ms": at and at[1] * 1e3}


def under_tap(tap: TrajectoryTap, change) -> None:
    """Apply ``change`` to the package's bindings beneath the trajectory tap,
    which wraps whatever ``cli.integrate`` is bound to."""
    tap.restore()
    change()
    tap.install()


class Runner:
    def __init__(self, workload):
        self.workload = workload
        self.instrumentation: Instrumentation | None = None
        self.speed: SpeedLog | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.log: list[tuple] = []  # (job, seconds, segment) of every run

    def run_pass(self, index: int) -> tuple[float, list[tuple], int]:
        """(seconds in jobs, (job, seconds, segment) samples, integration
        nodes) of one pass. ``segment`` is the segment of ``self.speed`` the
        job ran in, or None when no speed log is kept."""
        times, segments, nodes = [], [], 0
        jobs = self.workload.make_pass(index)
        for job in jobs:
            if job.prepare is not None:
                job.prepare()
            gc.collect()
            self.attempted += 1
            inst = self.instrumentation
            t0 = time.perf_counter()
            try:
                value = job.run() if inst is None else inst.run_job(job.run)
            except Exception:
                times.append(time.perf_counter() - t0)
                self._count_speed(times[-1], segments)
                self.workload.tap.check()
                self.failed += 1
                self.errors.append(f"{job.name}: {traceback.format_exc(limit=3)}")
                continue
            times.append(time.perf_counter() - t0)
            self._count_speed(times[-1], segments)
            try:
                n, error = job.check(value)
            except Exception:
                n, error = 0, f"{job.name}: check raised {traceback.format_exc(limit=3)}"
            nodes += n
            if error:
                self.failed += 1
                self.errors.append(error)
        samples = [(job.name, t, seg) for job, t, seg in zip(jobs, times, segments)]
        self.log += samples
        return sum(times), samples, nodes

    def _count_speed(self, seconds: float, segments: list) -> None:
        segments.append(None if self.speed is None else self.speed.segment)
        if self.speed is not None:
            self.speed.add(seconds)

    def timed(self, index: int, seconds: float, start: float):
        """Whole passes until ``seconds`` after ``start`` (at least one),
        with a reference run before the first job and after every
        ``SEGMENT_S`` of work. Returns the raw passes, the same passes with
        each job's seconds scaled by the reference times around it, as
        lists of (job, seconds), and the integration nodes."""
        self.speed = SpeedLog(SEGMENT_S)
        passes, nodes = [], 0
        while not passes or time.perf_counter() - start < seconds:
            _, samples, n = self.run_pass(index)
            passes.append(samples)
            nodes += n
            index += 1
        self.speed.close()
        factors = scale_factors(self.speed.refs, REF_S)
        raw = [[(name, t) for name, t, _ in p] for p in passes]
        scaled = [[(name, t * factors[seg]) for name, t, seg in p] for p in passes]
        return raw, scaled, nodes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--spans", help="where the traced run writes its spans (.npz)")
    args = parser.parse_args(argv)

    src = (Path.cwd() / "src").resolve()
    if Path(jacobisplit.__file__).resolve().parent.parent != src:
        print(f"error: jacobisplit was not imported from {src}", file=sys.stderr)
        return 2

    tap = TrajectoryTap()
    tap.install()
    workload = WORKLOADS[args.workload](args.seed, tap, Path(args.out_dir))
    runner = Runner(workload)
    index = 0
    for _ in range(workload.warmup_passes):
        runner.run_pass(index)
        index += 1
    if not args.trace:
        reference_seconds()  # warm-up

    start = time.perf_counter()
    result = {"workload": args.workload, "environment": environment(args.seed)}
    if args.trace:
        recorder = SpanRecorder()
        inst = Instrumentation(recorder)
        walls, traced_walls = [], []
        # pairs of an untraced pass and a traced one over the same inputs, so
        # drift in machine speed affects both sides of each sample alike
        while not traced_walls or time.perf_counter() - start < args.seconds:
            walls.append(runner.run_pass(index)[0])
            under_tap(tap, inst.install)
            runner.instrumentation = inst
            traced_walls.append(runner.run_pass(index)[0])
            runner.instrumentation = None
            under_tap(tap, inst.restore)
            index += 1
        tap.restore()
        table = recorder.table()
        if args.spans:
            recorder.write(args.spans)
        metrics = per_layer_metrics(table, inst, len(traced_walls))
        overhead = paired_overhead(walls, traced_walls)
        metrics["trace.overhead_s"] = overhead["seconds"]
        missing = missing_spans(table, args.workload)
        if missing:
            runner.errors.append("spans that never fired: " + ", ".join(missing))
        result.update(
            spans=len(recorder),
            span_table=table,
            traced_passes=len(traced_walls),
            trace_overhead=overhead,
            untraced_wall_s=statistics.median(walls),
            traced_wall_s=statistics.median(traced_walls),
        )
    else:
        raw, scaled, nodes = runner.timed(index, args.seconds, start)
        tap.restore()

        def summary(passes):
            walls = [sum(t for _, t in p) for p in passes]
            return end_to_end_metrics(walls, [s for p in passes for s in p], nodes, tap.deviations)

        metrics = summary(scaled)
        samples = [s for p in scaled for s in p]
        result.update(
            passes=len(scaled),
            raw_metrics=summary(raw),
            reference_s=runner.speed.refs,
            scenario_samples=dict(Counter(name for name, _ in samples)),
            pooled_tail=pooled_tail(samples),
        )
    result.update(
        correct=not runner.errors,
        attempted=runner.attempted,
        failed=runner.failed,
        failed_ratio=runner.failed / runner.attempted,
        errors=runner.errors[:MAX_ERRORS_KEPT],
        job_seconds=runner.log,
        metrics=metrics,
    )
    Path(args.result).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
