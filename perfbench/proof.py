"""Repeat the benchmark over seeds and summarize the spread of every metric.

Usage, from the root of a checkout:

    python3 perfbench/proof.py --seeds 1-10 --out summary.json
    python3 perfbench/proof.py --seeds 1-10 --trace-seed 0 --out perfbench/baseline.json
    python3 perfbench/proof.py --seeds 11-20 --compare perfbench/baseline.json --out new.json

For each workload it runs ``run.py`` once per seed with tracing off and
reports, per end-to-end metric, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median. A spread above the
metric's bound in ``BENCHMARK.json`` makes the exit code 1. The spread of
the raw, unscaled timings is printed beside it for comparison.
With ``--trace-seed`` it also makes one traced run per workload and keeps
its per-layer metrics. With ``--compare`` every median is checked against
an earlier summary's median and the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread, within_bound

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(last-line JSON, full result) of one run of ``run.py``."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    full = json.loads(Path(f".bench_out/{workload}-trace{trace}-result.json").read_text())
    return json.loads(lines[-1]), full


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": quartile_spread(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10", help="range like 1-10 or a list like 3,5,8")
    parser.add_argument("--trace-seed", type=int, help="also make one traced run per workload")
    parser.add_argument("--compare", help="earlier summary to check medians against")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("quartiles need at least two seeds")
    previous = json.loads(Path(args.compare).read_text()) if args.compare else None
    summary = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            line, full = run_once(workload, seed, spec["run_seconds"], 0)
            if not line["correct"]:
                print(f"{workload} seed {seed}: incorrect outputs: {full['errors']}", file=sys.stderr)
                ok = False
            runs.append({"seed": seed, "line": line, "raw_metrics": full["raw_metrics"],
                         "passes": full["passes"],
                         "scenario_samples": full["scenario_samples"],
                         "pooled_tail": full["pooled_tail"]})
            summary["environment"] = {k: v for k, v in full["environment"].items() if k != "seed"}
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in line["metrics"].items()), flush=True)
        entry = {"runs": runs, "metrics": {}}
        for m in spec["end_to_end"]:
            stats = summarize([r["line"]["metrics"][m["name"]]["value"] for r in runs])
            raw = summarize([r["raw_metrics"][m["name"]] for r in runs])
            stats.update(unit=m["unit"], bound=m["bound"], raw_median=raw["median"], raw_spread=raw["spread"])
            steady = stats["spread"] <= m["bound"] / 3
            within = stats["spread"] <= m["bound"]
            ok = ok and within
            note = "" if steady else ("  above a third of the bound" if within else "  ABOVE THE BOUND")
            if previous is not None:
                base = previous["workloads"][workload]["metrics"][m["name"]]["median"]
                held = within_bound(base, stats["median"], m["better"], m["bound"])
                stats["baseline_median"] = base
                ok = ok and held
                note += "" if held else f"  WORSE than {base:.5g} by more than the bound"
            entry["metrics"][m["name"]] = stats
            print(f"  {workload:17s} {m['name']:18s} median {stats['median']:<12.5g} {m['unit']:7s} "
                  f"spread {stats['spread']:.3f} (bound {m['bound']}, raw {raw['spread']:.3f}){note}")
        if args.trace_seed is not None:
            line, full = run_once(workload, args.trace_seed, spec["run_seconds"], 1)
            ok = ok and line["correct"]
            entry["traced"] = {
                "seed": args.trace_seed,
                "per_layer": {k: v["value"] for k, v in line["metrics"].items()},
                "span_table": full["span_table"],
                "traced_passes": full["traced_passes"],
                "untraced_wall_s": full["untraced_wall_s"],
                "traced_wall_s": full["traced_wall_s"],
                "trace_overhead": full["trace_overhead"],
            }
        summary["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
