"""Command-line style experiment runner.

``python -m repro.experiments.runner`` regenerates the data behind every
figure of the paper's evaluation section and prints it as plain-text tables
(the same rows the benchmarks assert on and EXPERIMENTS.md records).

The figure sweeps can run through two engines:

* ``direct`` (default) — :class:`~repro.core.tradeoff.TradeoffExplorer`
  solves each capacity bound in-process, exactly as the seed did;
* ``batch`` — the sweeps are submitted as sweep *families* to
  :class:`~repro.batch.executor.BatchExecutor`, adding the persistent result
  cache (``--cache-dir``).  Both engines produce identical figure data and
  both solve each sweep through the session API: every sweep point is built
  at its own capacity bound and solved from its own start.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, Optional, Sequence

from repro.analysis.report import render_table
from repro.core.tradeoff import TradeoffCurve, TradeoffPoint
from repro.exceptions import AllocationError
from repro.experiments.figure2 import (
    DEFAULT_CAPACITY_SWEEP as FIGURE2_SWEEP,
    build_configuration as build_figure2_configuration,
    figure2_from_curve,
    run_figure2,
)
from repro.experiments.figure3 import (
    DEFAULT_CAPACITY_SWEEP as FIGURE3_SWEEP,
    build_configuration as build_figure3_configuration,
    figure3_from_curve,
    run_figure3,
)
from repro.taskgraph.configuration import Configuration


def batch_capacity_sweep(
    configuration: Configuration,
    capacity_sweep: Sequence[int],
    backend: str = "auto",
    cache_dir: Optional[str] = None,
) -> TradeoffCurve:
    """Run a capacity-bound sweep through the batch engine.

    Produces the same :class:`~repro.core.tradeoff.TradeoffCurve` a
    :class:`~repro.core.tradeoff.TradeoffExplorer` sweep would — the sweep is
    submitted as one *family* (:meth:`~repro.batch.executor.BatchExecutor.
    run_sweep`), so the whole family is one entry in the persistent result
    cache.  A family is one unit of work, so it always solves inline, with
    exactly the requested backend.
    """
    from repro.batch import BatchExecutor, ExecutorConfig, make_cache

    executor = BatchExecutor(
        config=ExecutorConfig(backend=backend),
        cache=make_cache(cache_dir, enabled=cache_dir is not None),
    )
    result = executor.run_sweep(
        configuration, capacity_sweep, label=f"{configuration.name}@sweep"
    )
    if result.status != "ok":
        # The direct engine propagates solver failures as exceptions;
        # mapping them to infeasible points would silently corrupt the
        # figure data, so the batch engine must fail loudly too.
        raise AllocationError(
            f"batch sweep {result.label!r} failed "
            f"({result.status}): {result.error}"
        )
    curve = TradeoffCurve(
        configuration_name=configuration.name,
        solver_stats=dict(result.solver_stats),
    )
    for point in result.points:
        curve.points.append(
            TradeoffPoint(
                capacity_limit=int(point["capacity_limit"]),
                feasible=bool(point["feasible"]),
                budgets=dict(point.get("budgets", {})),
                relaxed_budgets=dict(point.get("relaxed_budgets", {})),
                capacities={
                    name: int(value)
                    for name, value in dict(point.get("capacities", {})).items()
                },
                objective_value=point.get("objective_value"),
                solve_stats=dict(point.get("stats", {})),
            )
        )
    return curve


def run_all(
    backend: str = "auto",
    stream=None,
    engine: str = "direct",
    cache_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Run every experiment, print the tables, and return the raw results.

    With ``engine="batch"`` the figure sweeps are routed through the batch
    allocation engine (see :func:`batch_capacity_sweep`).
    """
    if engine not in ("direct", "batch"):
        raise ValueError(f"unknown engine {engine!r}; expected 'direct' or 'batch'")
    stream = stream or sys.stdout
    results: Dict[str, object] = {}

    def figure2_direct():
        return run_figure2(backend=backend)

    def figure2_batch():
        curve = batch_capacity_sweep(
            build_figure2_configuration(),
            FIGURE2_SWEEP,
            backend=backend,
            cache_dir=cache_dir,
        )
        return figure2_from_curve(curve)

    def figure3_direct():
        return run_figure3(backend=backend)

    def figure3_batch():
        curve = batch_capacity_sweep(
            build_figure3_configuration(),
            FIGURE3_SWEEP,
            backend=backend,
            cache_dir=cache_dir,
        )
        return figure3_from_curve(curve)

    run2: Callable = figure2_batch if engine == "batch" else figure2_direct
    run3: Callable = figure3_batch if engine == "batch" else figure3_direct

    start = time.perf_counter()
    figure2 = run2()
    elapsed2 = time.perf_counter() - start
    results["figure2"] = figure2
    print("Figure 2(a): producer-consumer budget vs. buffer capacity", file=stream)
    print(render_table(figure2.rows()), file=stream)
    print("", file=stream)
    print("Figure 2(b): budget reduction per extra container", file=stream)
    print(render_table(figure2.reduction_rows()), file=stream)
    print(f"(sweep solved in {elapsed2:.3f} s{_stats_suffix(figure2.curve)})", file=stream)
    print("", file=stream)

    start = time.perf_counter()
    figure3 = run3()
    elapsed3 = time.perf_counter() - start
    results["figure3"] = figure3
    print("Figure 3: three-task chain, per-task budgets vs. common capacity bound", file=stream)
    print(render_table(figure3.rows()), file=stream)
    print(f"(sweep solved in {elapsed3:.3f} s{_stats_suffix(figure3.curve)})", file=stream)

    results["runtime_seconds"] = {"figure2": elapsed2, "figure3": elapsed3}
    results["solver_stats"] = {
        "figure2": dict(figure2.curve.solver_stats) if figure2.curve else {},
        "figure3": dict(figure3.curve.solver_stats) if figure3.curve else {},
    }
    results["engine"] = engine
    return results


def _stats_suffix(curve: Optional[TradeoffCurve]) -> str:
    """Render a sweep's session statistics for the figure footer lines."""
    if curve is None or not curve.solver_stats:
        return ""
    stats = curve.solver_stats
    return (
        f"; {stats.get('compiles', 0)} compile(s), "
        f"phase I skipped on {stats.get('phase1_skipped', 0)}/{stats.get('solves', 0)} "
        f"solves, {stats.get('newton_iterations', 0)} Newton iterations"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--backend",
        default="auto",
        choices=["auto", "barrier", "scipy"],
        help="cone-solver backend to use (default: auto)",
    )
    parser.add_argument(
        "--engine",
        default="direct",
        choices=["direct", "batch"],
        help="run the sweeps in-process or through the batch engine (default: direct)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache directory for the batch engine (default: no cache)",
    )
    arguments = parser.parse_args(argv)
    run_all(
        backend=arguments.backend,
        engine=arguments.engine,
        cache_dir=arguments.cache_dir,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via examples
    raise SystemExit(main())
