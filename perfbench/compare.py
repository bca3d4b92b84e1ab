"""Compare two result sets, workload by workload.

    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR

A result set is a directory of result files (``run.py --out`` or
``series.py --out``).  Untraced runs are paired by seed.  For every
workload and end-to-end metric the report gives each side's median and
quartiles, the pairs each side won and a verdict:

* ``unresolved`` — the parent's quartile spread exceeds the metric's bound
  and not every change run beats every parent run;
* ``improved`` — the change wins at least 9/10 of the pairs and its median
  beats the parent's by more than the parent's quartile spread;
* ``regressed`` — the change's median is worse than the parent's by more
  than the bound;
* ``unchanged`` — otherwise.

Traced runs add the per-operation self time of every span, per side.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple


def load(directory: str) -> List[dict]:
    runs = []
    for path in sorted(Path(directory).glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if "context" in data:
            runs.append(data)
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: List[float], change: List[float], pairs: List[Tuple[float, float]],
            better: str, bound: float) -> Tuple[str, int, int]:
    """The verdict for one metric, with the pairs won by parent and change."""
    sign = 1.0 if better == "higher" else -1.0
    q1, parent_median, q3 = quartiles(parent)
    change_median = quartiles(change)[1]
    gain = sign * (change_median - parent_median)
    change_won = sum(1 for p, c in pairs if sign * (c - p) > 0)
    parent_won = sum(1 for p, c in pairs if sign * (c - p) < 0)
    spread = q3 - q1
    every_run_better = all(sign * (c - p) > 0 for c in change for p in parent)
    scale = abs(parent_median)
    if scale and spread / scale > bound and not every_run_better:
        return "unresolved", parent_won, change_won
    if pairs and change_won >= 0.9 * len(pairs) and gain > spread:
        return "improved", parent_won, change_won
    if -gain > bound * scale:
        return "regressed", parent_won, change_won
    return "unchanged", parent_won, change_won


def by_workload(runs: List[dict], traced: bool) -> Dict[str, Dict[int, List[dict]]]:
    grouped: Dict[str, Dict[int, List[dict]]] = defaultdict(lambda: defaultdict(list))
    for run in runs:
        info = run["context"]
        if bool(info["trace"]) == traced:
            grouped[info["workload"]][info["seed"]].append(run)
    return grouped


def main(parent_dir: str, change_dir: str, declared: List[dict]) -> int:
    parent_runs, change_runs = load(parent_dir), load(change_dir)
    parent, change = by_workload(parent_runs, False), by_workload(change_runs, False)
    for workload in sorted(set(parent) & set(change)):
        print(f"== {workload}")
        print(f"  {'metric':16s} {'parent median [Q1, Q3]':>34s} {'change median [Q1, Q3]':>34s}  won p/c  verdict")
        for metric in declared:
            name = metric["name"]
            p_values = [r["end_to_end"][name] for runs in parent[workload].values() for r in runs]
            c_values = [r["end_to_end"][name] for runs in change[workload].values() for r in runs]
            pairs = [
                (p["end_to_end"][name], c["end_to_end"][name])
                for seed in sorted(set(parent[workload]) & set(change[workload]))
                for p, c in zip(parent[workload][seed], change[workload][seed])
            ]
            outcome, p_won, c_won = verdict(p_values, c_values, pairs, metric["better"], metric["bound"])
            pq, cq = quartiles(p_values), quartiles(c_values)
            print(
                f"  {name:16s} {pq[1]:12.4f} [{pq[0]:9.4f}, {pq[2]:9.4f}] "
                f"{cq[1]:12.4f} [{cq[0]:9.4f}, {cq[2]:9.4f}]  {p_won:3d}/{c_won:<3d}  {outcome}"
            )
    traced_parent, traced_change = by_workload(parent_runs, True), by_workload(change_runs, True)
    for workload in sorted(set(traced_parent) & set(traced_change)):
        print(f"== {workload}: self time per operation (ms), traced runs")
        sides = []
        for grouped in (traced_parent, traced_change):
            samples: Dict[str, List[float]] = defaultdict(list)
            for runs in grouped[workload].values():
                for run in runs:
                    for span, value in run["self_times_ms"].items():
                        samples[span].append(value)
            sides.append({span: statistics.median(values) for span, values in samples.items()})
        for span in sorted(set(sides[0]) | set(sides[1])):
            before, after = sides[0].get(span, 0.0), sides[1].get(span, 0.0)
            print(f"  {span:20s} {before:10.4f} -> {after:10.4f}  ({after - before:+.4f})")
    return 0
