"""Run the benchmark over a series of seeds and report each metric's spread.

    python3 perfbench/series.py --workloads all --seeds 1-10 --out .perfbench/series-a

Each run is a separate ``perfbench/run.py`` process writing its result file
into ``--out``; the directory then serves as one side of ``run.py
--compare``.  For every workload and metric the summary gives the median and
the quartile spread (Q3 − Q1) as a share of the median, next to the bound
declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median) if median else 0.0


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    arguments = parser.parse_args()
    workloads = names if arguments.workloads == "all" else arguments.workloads.split(",")
    kind = "per_layer" if arguments.trace else "end_to_end"
    bounds = {metric["name"]: metric.get("bound") for metric in benchmark[kind]}
    for workload in workloads:
        values, walls = {}, []
        for seed in parse_seeds(arguments.seeds):
            began = time.perf_counter()
            completed = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(arguments.seconds), "--trace", str(arguments.trace), "--out", arguments.out],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            walls.append(time.perf_counter() - began)
            if completed.returncode != 0:
                print(completed.stderr, file=sys.stderr)
                return completed.returncode
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {len(walls)} runs, wall per run median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        for name, series in values.items():
            median, share = spread(series) if len(series) > 1 else (series[0], 0.0)
            bound = bounds.get(name)
            flag = "" if bound is None else ("  ok" if share < bound / 3 else ("  within bound" if share <= bound else "  OVER BOUND"))
            print(f"  {name:28s} median {median:12.4f}  spread {share:7.4f}  bound {bound}{flag}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
