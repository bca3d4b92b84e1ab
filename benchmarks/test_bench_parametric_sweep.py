"""Benchmark: session sweeps vs one-shot allocation per point.

A 20-point capacity sweep over a random-DAG configuration is solved two
ways:

* **rebuild** — :meth:`JointAllocator.allocate` per point: a fresh
  :class:`SocpFormulation` built, compiled and solved from its own start
  point;
* **session** — one :class:`AllocationSession`: each point built at its
  own limits and solved from its own start point.

Besides the timings, the benchmark asserts the acceptance criteria of the
session API: one compilation per point (plus the session's unlimited
program), phase I skipped on at least half the points, and every point
equal to the rebuild path's: the same objective, Newton counts and rounded
allocation.
"""

from __future__ import annotations

from repro.core import AllocatorOptions, JointAllocator
from repro.taskgraph.generators import random_dag_configuration

SWEEP = tuple(range(3, 23))  # 20 points, clear of pinned lower bounds

_reference_cache = {}


def _configuration():
    return random_dag_configuration(task_count=6, processor_count=6, seed=3)


def _options():
    return AllocatorOptions(run_simulation=False, verify=False)


def _buffer_names(configuration):
    return [buffer.name for _, buffer in configuration.all_buffers()]


def _rebuild_sweep():
    """The pre-session path: one full build/compile/cold-solve per point."""
    configuration = _configuration()
    allocator = JointAllocator(options=_options())
    points = []
    for limit in SWEEP:
        limits = {name: int(limit) for name in _buffer_names(configuration)}
        mapped = allocator.allocate(configuration, capacity_limits=limits)
        points.append(mapped)
    return points


def _session_sweep():
    configuration = _configuration()
    session = JointAllocator(options=_options()).session(configuration)
    points = []
    for limit in SWEEP:
        limits = {name: int(limit) for name in _buffer_names(configuration)}
        points.append(session.allocate(capacity_limits=limits))
    return points, session.stats


def _reference_points():
    """The rebuild-per-point results, computed once per benchmark session."""
    if "points" not in _reference_cache:
        _reference_cache["points"] = _rebuild_sweep()
    return _reference_cache["points"]


def _newton_total(mapped_points):
    return sum(
        int(mapped.solver_info["solve_stats"].get("newton_iterations", 0))
        + int(mapped.solver_info["solve_stats"].get("phase1_newton_iterations", 0))
        for mapped in mapped_points
    )


def _work(mapped):
    stats = mapped.solver_info["solve_stats"]
    return stats["newton_iterations"], stats["phase1_newton_iterations"]


def _assert_equivalent(points, reference):
    assert len(points) == len(reference)
    for mapped, ref in zip(points, reference):
        assert mapped.budgets == ref.budgets
        assert mapped.buffer_capacities == ref.buffer_capacities
        assert mapped.relaxed_budgets == ref.relaxed_budgets
        assert repr(mapped.objective_value) == repr(ref.objective_value)
        assert _work(mapped) == _work(ref)


def test_bench_sweep_rebuild_per_point(benchmark, record_series):
    points = benchmark(_rebuild_sweep)
    assert len(points) == len(SWEEP)
    record_series(benchmark, "newton_iterations_total", _newton_total(points))
    record_series(benchmark, "points", len(points))


def test_bench_sweep_warm_start(benchmark, record_series):
    points, stats = benchmark(_session_sweep)
    reference = _reference_points()
    _assert_equivalent(points, reference)

    # Acceptance criteria of the session API on this sweep: the session's
    # unlimited program plus one build per point, and one solve per point.
    assert stats.compiles == 1 + len(SWEEP)
    assert stats.solves == len(SWEEP)
    assert stats.phase1_skipped >= len(SWEEP) // 2, (
        f"phase I skipped on only {stats.phase1_skipped}/{len(SWEEP)} points"
    )
    session_newton = _newton_total(points)
    assert session_newton == _newton_total(reference)
    record_series(benchmark, "newton_iterations_total", session_newton)
    record_series(benchmark, "phase1_skipped", stats.phase1_skipped)
