"""Run every workload over several seeds and summarise each metric.

    python3 bench/baseline.py --seeds 1 2 3 4 5 6 7 8 9 10 --out bench/BENCH_seed.json

Each run is a fresh ``run.py`` process of ``run_seconds`` from
``BENCHMARK.json``; within a seed every workload runs, one after another, so
slow drift of the machine reaches all of them.  For each
end-to-end metric it prints the median, the quartiles and their distance as
a share of the median, next to the bound from ``BENCHMARK.json``.  With
``--trace`` it adds one traced run per workload (first seed) for the
per-layer metrics.  With ``--compare`` it also prints how much worse each
median is than in an earlier summary, as a share of the earlier median.

    python3 bench/baseline.py --seeds 1 2 3 4 5 6 7 8 9 10 --compare bench/BENCH_seed.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", help="write the summary as JSON")
    parser.add_argument("--compare", help="an earlier summary written by --out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    lower_is_better = {metric["name"]: metric["better"] == "lower" for metric in spec["end_to_end"]}
    earlier = json.loads(Path(args.compare).read_text())["workloads"] if args.compare else {}
    runs = {workload: [] for workload in workloads.WORKLOADS}
    for seed in args.seeds:
        for workload in workloads.WORKLOADS:
            runs[workload].append(run_once(workload, seed, seconds, 0))
    summary = {
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "load": "one process, one client, closed loop, no threads",
        },
        "run_seconds": seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    worst = 0.0
    for workload, results in runs.items():
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry = {"attempted": attempted, "failed": failed, "fail_share": failed / attempted, "end_to_end": {}}
        print(f"{workload}: fail_share={failed / attempted:.4f} ({failed}/{attempted} verdicts)")
        for name in results[0]["metrics"]:
            stats = summarise([r["metrics"][name]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = stats
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, stats["spread"] / bound)
                flag = "  OVER bound/3" if stats["spread"] > bound / 3 else ""
            print(f"  {name:<16} median {stats['median']:<12.6g} {stats['unit']:<4} "
                  f"q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} "
                  f"spread {stats['spread']:.4f} bound {bound}{flag}")
            if workload in earlier:
                before = earlier[workload]["end_to_end"][name]["median"]
                worse = (stats["median"] - before) / before
                if not lower_is_better[name]:
                    worse = -worse
                verdict = "OVER bound" if worse > bound else "within bound"
                print(f"  {'':<16} worse than {args.compare} by {worse:+.4f}: {verdict}")
        if args.trace:
            traced = run_once(workload, args.seeds[0], seconds, 1)
            entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
            entry["per_layer_seed"] = args.seeds[0]
        summary["workloads"][workload] = entry
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
