"""jacobisplit benchmark: one run of one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload builtin-sweep --seed 1 --seconds 25 --trace 0

Workloads are listed in ``BENCHMARK.json``. With ``--trace 0`` the run
starts ``worker.py`` in its own process to measure the workload, measures
set-up time (fresh interpreters importing jacobisplit) before and after it,
and reports every end-to-end metric; with ``--trace 1`` it reports the
per-layer metrics of a traced run instead. Timings of a run without
tracing are scaled by the reference computation in ``reference.py``, run
between stretches of measured work, to seconds of a machine of fixed
speed; the raw seconds are printed beside them. Human-readable lines go first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every output was correct.

BLAS is pinned to one thread in every process started here. Results,
spans and CLI outputs go to ``.bench_out/`` in the checkout; the bytecode
of every process started here goes to ``.bench_build/pycache/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Set-up samples taken before the workload and again after it; the median
# of both batches spans the whole run, not only a few seconds of it.
SETUP_REPEATS = 8
SETUP_CODE = "import jacobisplit; jacobisplit.builtin_scenarios()"
RUN_LIMIT_S = 175.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)  # before numpy loads, for the reference runs here

from reference import REF_S, reference_seconds  # noqa: E402
from stats import scale_factors  # noqa: E402


def child_env(root: Path) -> dict:
    """Environment of every process started here. Bytecode is read from and
    written to a cache of the benchmark's own, so whatever ``__pycache__``
    directories a checkout happens to hold do not change set-up time."""
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONPYCACHEPREFIX"] = str(root / ".bench_build" / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def measure_setup(root: Path, env: dict) -> tuple[list[float], list[float]]:
    """Raw and scaled wall times of fresh interpreters importing
    jacobisplit and building the built-in registry, each between two
    reference runs. No timeout: with one, ``subprocess`` polls for the exit
    in steps of up to 50 ms, which would show in the times."""
    times, refs = [], [reference_seconds()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=root, check=True)
        times.append(time.perf_counter() - t0)
        refs.append(reference_seconds())
    return times, [t * f for t, f in zip(times, scale_factors(refs, REF_S))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="jacobisplit benchmark (one run of one workload)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd()
    for needed in ("BENCHMARK.json", "src/jacobisplit/__init__.py", "configs/example_scenario.json"):
        if not (root / needed).is_file():
            print(f"error: {needed} not found; run from the root of a jacobisplit checkout", file=sys.stderr)
            return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    env = child_env(root)
    raw_setup, setup = [], []
    if not args.trace:
        # untimed: compiles whatever source is new or changed, so every
        # timed interpreter finds the bytecode cache warm
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=root, check=True)
        reference_seconds()  # warm-up
        raw_setup, setup = measure_setup(root, env)

    result_path = out / f"{args.workload}-trace{args.trace}-result.json"
    result_path.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--result", str(result_path), "--out-dir", str(out / f"{args.workload}-cli"),
        "--spans", str(out / f"{args.workload}-spans.npz"),
    ]
    remaining = RUN_LIMIT_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired:
        print(f"error: worker did not finish within {remaining:.0f} s", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not result_path.is_file():
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text())
    if setup:
        more_raw, more = measure_setup(root, env)
        raw_setup += more_raw
        setup += more
        result["raw_metrics"]["setup_s"] = statistics.median(raw_setup)

    measured = dict(result["metrics"])
    if setup:
        measured["setup_s"] = statistics.median(setup)
    metrics, errors = {}, list(result["errors"])
    for m in declared:
        value = measured.get(m["name"])
        if value is None or value != value:
            errors.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = result["correct"] and not errors

    result.update(setup_samples_s=setup, raw_setup_samples_s=raw_setup, reported=metrics)
    result_path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    env_info = result["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {env_info['nproc']}  cpu {env_info['cpu_model']}")
    print(f"python {env_info['python']}  numpy {env_info['numpy']}  blas {env_info['blas']}  "
          f"threads {env_info['blas_threads']}")
    if args.trace:
        overhead = result["trace_overhead"]
        print(f"traced passes {result['traced_passes']}  spans {result['spans']}  "
              f"untraced wall {result['untraced_wall_s']:.4f} s  traced wall {result['traced_wall_s']:.4f} s")
        if overhead["resolved"]:
            verdict = "resolved"
        elif overhead["pairs"] < 2:
            verdict = "unresolved: one untraced pass gives no spread to compare with"
        else:
            verdict = f"unresolved: within the untraced passes' range of {overhead['untraced_range_s']:.4f} s"
        print(f"trace overhead {overhead['seconds']:+.4f} s, median of {overhead['pairs']} paired "
              f"differences; {verdict}")
    else:
        pooled = result["pooled_tail"]
        refs = result["reference_s"]
        print(f"passes {result['passes']}  setup samples {len(setup)}  "
              f"samples per scenario {result['scenario_samples']}")
        print(f"reference runs {len(refs)}, median {statistics.median(refs):.4f} s; timings below are "
              f"scaled to a reference time of {REF_S} s, raw values in brackets")
        if pooled["percentile"] is None:
            print(f"pooled tail: none, {pooled['samples']} samples are fewer than 20")
        else:
            print(f"pooled tail: p{pooled['percentile']:g} of {pooled['samples']} samples = {pooled['ms']:.6g} ms")
    raw = result.get("raw_metrics", {})
    for name, m in metrics.items():
        unscaled = f"  [{raw[name]:.6g}]" if name in raw and raw[name] != m["value"] else ""
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}{unscaled}")
    print(f"  {'failed_ratio':44s} {result['failed_ratio']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} runs)")
    for error in errors:
        print(f"FAILED: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
