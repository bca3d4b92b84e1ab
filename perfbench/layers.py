"""Per-layer metrics of a traced run.

Two sources feed them:

* the spans and metrics-registry snapshots the program already emits,
  recorded per traced operation with :func:`repro.obs.capture` (or, for the
  CLI child, read back from its ``--telemetry-log``);
* the benchmark's own calls into each layer's public functions, made
  outside the timed operations on the pass's distinct inputs and wrapped in
  ``bench.*`` spans of their own.

A span's *self time* is its duration minus the time its child spans cover.
Times are per operation (span sources) or per distinct input (separate
calls); counts come from the first pass only, so they repeat exactly for a
seed.  An operation here is a traced ``run.Op``: ``pass_index``,
``seconds``, ``spans`` (the program's root spans) and ``metrics`` (its
registry snapshot).
"""

from __future__ import annotations

import io
import random
import statistics
import time
from collections import defaultdict
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.core.formulation import SocpFormulation, WorkloadSocpFormulation
from repro.dataflow.construction import build_srdf_specification, instantiate_srdf
from repro.dataflow.mcr import is_period_feasible, maximum_cycle_ratio
from repro.dataflow.simulation import meets_period
from repro.solver.barrier import BarrierOptions
from repro.taskgraph import load_workload, serialization

#: Program spans whose self time a named per-layer metric reports.
NAMED_SPANS = (
    "allocate", "allocate-workload", "admit", "anytime-verdict", "compile",
    "solve", "phase1", "centering", "rung", "cold-retry", "rounding", "verify",
)
CAPPED_NEWTON = BarrierOptions().max_newton_iterations
ORACLE_SUBSET = 8
ORACLE_TOLERANCE = 1e-6


@dataclass
class SpanTotals:
    count: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    inclusive: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    self_time: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    capped_rungs: int = 0

    def add(self, span: dict) -> None:
        name = span["name"]
        children = span.get("children", [])
        self.count[name] += 1
        self.inclusive[name] += span["seconds"]
        self.self_time[name] += span["seconds"] - sum(c["seconds"] for c in children)
        if name == "rung" and span.get("attributes", {}).get("newton_iterations", 0) >= CAPPED_NEWTON:
            self.capped_rungs += 1
        for child in children:
            self.add(child)


def totals_of(ops: list) -> SpanTotals:
    totals = SpanTotals()
    for op in ops:
        for root in op.spans:
            totals.add(root)
    return totals


def registry_total(ops: list, name: str, field_name: str = "value") -> float:
    """Sum one registry instrument field (counter value, histogram sum/count) over ops."""
    return float(sum((op.metrics.get(name) or {}).get(field_name) or 0.0 for op in ops))


def ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def span_layers(ops: list) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Layer metrics read from the program's spans and registry counters."""
    first = [op for op in ops if op.pass_index == 0]
    every, once = totals_of(ops), totals_of(first)
    n, n_first = len(ops), len(first)

    def per_op_ms(*names: str, self_only: bool = False) -> float:
        source = every.self_time if self_only else every.inclusive
        return 1000.0 * sum(source[name] for name in names) / n

    def first_per_op(name: str, field_name: str = "value") -> float:
        return registry_total(first, name, field_name) / n_first

    solves = registry_total(first, "solver.solves")
    computed = registry_total(first, "solver.elimination_blocks_computed")
    reused = registry_total(first, "solver.elimination_blocks_reused")
    nnz_sum = registry_total(first, "solver.sparse_nnz", "sum")
    nnz_count = registry_total(first, "solver.sparse_nnz", "count")
    skipped = registry_total(first, "solver.phase1_skipped")
    accounted = sum(every.self_time[name] for name in NAMED_SPANS)
    op_seconds = sum(op.seconds for op in ops)
    metrics = {
        "core.allocate_self_ms": per_op_ms("allocate", "allocate-workload", self_only=True),
        "core.rounding_ms": per_op_ms("rounding"),
        "core.verify_ms": per_op_ms("verify"),
        "core.anytime_ms": per_op_ms("anytime-verdict"),
        "core.admit_self_ms": per_op_ms("admit", self_only=True),
        "solver.compile_ms": per_op_ms("compile"),
        "solver.solve_ms": per_op_ms("solve"),
        "solver.phase1_ms": per_op_ms("phase1"),
        "solver.centering_ms": per_op_ms("centering"),
        "solver.rungs": once.count["rung"] / n_first,
        "solver.capped_rungs": once.capped_rungs / n_first,
        "solver.cold_retries": once.count["cold-retry"] / n_first,
        "solver.newton_iters": first_per_op("solver.newton_iterations", "sum"),
        "solver.phase1_newton_iters": first_per_op("solver.phase1_newton_iterations", "sum"),
        "solver.factorization_ms": 1000.0 * registry_total(ops, "solver.factorization_seconds", "sum") / n,
        "solver.schur_ms": 1000.0 * registry_total(ops, "solver.schur_seconds", "sum") / n,
        "solver.block_factorizations": first_per_op("solver.block_factorizations"),
        "solver.sparse_nnz": ratio(nnz_sum, nnz_count),
        "solver.dense_solves": first_per_op("solver.dense_solves"),
        "solver.sparse_solves": first_per_op("solver.sparse_solves"),
        "solver.phase1_skip": ratio(skipped, solves),
        "solver.elim_reuse": ratio(reused, computed + reused),
        "reliability.retries": first_per_op("reliability.retries"),
        "reliability.fallbacks": first_per_op("reliability.fallbacks"),
        "obs.accounted_pct": 100.0 * ratio(accounted, op_seconds),
    }
    details = {
        "solver.rungs": f"{once.count['rung']} rungs over {n_first} first-pass ops",
        "solver.capped_rungs": (
            f"{once.capped_rungs} of {once.count['rung']} rungs hit the "
            f"{CAPPED_NEWTON}-iteration cap over {n_first} ops"
        ),
        "solver.phase1_skip": f"{skipped:.0f}/{solves:.0f} solves",
        "solver.elim_reuse": f"{reused:.0f}/{computed + reused:.0f} blocks",
        "solver.sparse_nnz": f"mean over {nnz_count:.0f} solves",
        "obs.accounted_pct": f"named layer self time {1000 * accounted / n:.3f} of {1000 * op_seconds / n:.3f} ms per op",
    }
    return metrics, details


def self_times_ms(ops: list) -> Dict[str, float]:
    """Per-operation self time of every span name (the compare mode's layer view)."""
    every = totals_of(ops)
    own = sum(op.seconds for op in ops) - sum(
        root["seconds"] for op in ops for root in op.spans
    )
    result = {name: 1000.0 * value / len(ops) for name, value in sorted(every.self_time.items())}
    result["(unspanned)"] = 1000.0 * own / len(ops)
    return result


# -- the benchmark's own calls into each layer -----------------------------------------
def separate_layers(subjects: list) -> Tuple[Dict[str, float], List[dict]]:
    """Time load/validate/lower/build/MCR/simulation per distinct input (ms)."""
    totals: Dict[str, float] = defaultdict(float)

    def timed(layer: str, call, *args):
        with obs.span(f"bench.{layer}") as span:
            result = call(*args)
        totals[layer] += span.seconds
        return result

    with obs.capture() as captured:
        for subject in subjects:
            model = subject.model
            is_workload = hasattr(model, "applications")
            timed("load", load_workload if is_workload else serialization.load_configuration, subject.path)
            timed("validate", model.validate)
            configurations = (
                [app.configuration for app in model.applications] if is_workload else [model]
            )
            graphs = [graph for configuration in configurations for graph in configuration.task_graphs]
            timed("lower", lambda: [build_srdf_specification(graph) for graph in graphs])
            formulation = WorkloadSocpFormulation if is_workload else SocpFormulation
            timed("build", lambda: formulation(model).build())
            for mapped in subject.mappings:
                configuration = mapped.configuration
                for graph in configuration.task_graphs:
                    specification = build_srdf_specification(graph)

                    def mcr():
                        srdf = instantiate_srdf(
                            specification, graph, configuration.platform,
                            mapped.budgets, mapped.buffer_capacities,
                        )
                        maximum_cycle_ratio(srdf)
                        is_period_feasible(srdf, graph.period)
                        return srdf

                    srdf = timed("mcr", mcr)
                    if all(queue.has_integral_tokens for queue in srdf.queues):
                        timed("simulate", meets_period, srdf, graph.period, 60)
    count = max(len(subjects), 1)
    metrics = {
        "taskgraph.load_ms": 1000.0 * totals["load"] / count,
        "taskgraph.validate_ms": 1000.0 * totals["validate"] / count,
        "dataflow.lower_ms": 1000.0 * totals["lower"] / count,
        "core.build_ms": 1000.0 * totals["build"] / count,
        "dataflow.mcr_ms": 1000.0 * totals["mcr"] / count,
        "dataflow.simulate_ms": 1000.0 * totals["simulate"] / count,
    }
    return metrics, captured.spans


def cli_layers(env: Dict[str, str], configuration_path: Path, workdir: Path, repeats: int = 3):
    """Interpreter start, ``import repro.cli`` and in-process ``main`` times (ms)."""
    from workloads import run_child
    from repro import cli

    def child_ms(args: List[str]) -> float:
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            returncode, _ = run_child(args, env, workdir / "cli-layer.stdout")
            samples.append(1000.0 * (time.perf_counter() - start))
            if returncode != 0:
                raise RuntimeError(f"child {args} exited with {returncode}")
        return statistics.median(samples)

    interp = child_ms(["-c", "pass"])
    imported = child_ms(["-c", "import repro.cli"])
    argv = ["allocate", str(configuration_path), "--output", str(workdir / "cli-main.out.json"), "--stats"]
    samples = []
    for _ in range(repeats):
        with redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            returncode = cli.main(argv)
            samples.append(1000.0 * (time.perf_counter() - start))
        if returncode != 0:
            raise RuntimeError(f"repro.cli.main exited with {returncode}")
    return {
        "cli.interp_ms": interp,
        "cli.import_ms": imported - interp,
        "cli.main_ms": statistics.median(samples),
    }


def oracle_gap(seed: int) -> Tuple[float, str]:
    """Largest relative objective gap, default backend vs ``scipy``, on a
    seeded subset of the seed's config-stream inputs."""
    from workloads import ConfigStream

    stream = ConfigStream({}, None, None)
    keys = random.Random(f"oracle:{seed}").sample(stream.select(seed), ORACLE_SUBSET)
    gaps = []
    for key in keys:
        configuration = ConfigStream.configuration(key)
        default = SocpFormulation(configuration).solve()
        oracle = SocpFormulation(configuration).solve(backend="scipy")
        if default.is_optimal and oracle.is_optimal:
            gaps.append(abs(default.objective - oracle.objective) / max(1.0, abs(oracle.objective)))
        else:
            gaps.append(0.0 if default.status is oracle.status else 1.0)
    above = sum(gap > ORACLE_TOLERANCE for gap in gaps)
    return max(gaps), f"max over {len(gaps)} config-stream inputs; {above} above {ORACLE_TOLERANCE:g}"


def anytime_quality(records: list) -> Tuple[float, float, Dict[str, str]]:
    """Decided and agreeing shares of the anytime admission verdicts."""
    arrivals = [record for record in records if record.action == "arrive"]
    decided = [record for record in arrivals if record.verdict in ("admit", "reject")]
    agree = [
        record for record in decided
        if (record.verdict == "admit") == (record.status == "admitted")
    ]
    details = {
        "core.anytime_decided": f"{len(decided)}/{len(arrivals)} arrivals",
        "core.anytime_agree": f"{len(agree)}/{len(decided)} decided verdicts",
    }
    return ratio(len(decided), len(arrivals)), ratio(len(agree), len(decided)), details


def warm_hit(session_stats: List[Optional[object]]) -> Tuple[float, str]:
    warm = sum(stats.warm_started for stats in session_stats if stats is not None)
    solves = sum(stats.solves for stats in session_stats if stats is not None)
    return ratio(warm, solves), f"{warm}/{solves} session solves"


def trace_overhead_pct(traced: List[float], untraced: List[float]) -> float:
    return 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
