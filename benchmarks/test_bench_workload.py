"""Benchmark: workload session sweeps vs rebuild-per-point.

The multi-application counterpart of ``test_bench_parametric_sweep``: a
12-point capacity sweep over *one application* of a two-application workload
(the other application keeps the shared platform loaded) is solved two ways:

* **rebuild** — :meth:`JointAllocator.allocate_workload` per point: a fresh
  :class:`WorkloadSocpFormulation` built, compiled and solved from its own
  start point;
* **session** — one workload :class:`AllocationSession`: each point built
  at its own limits and solved from its own start point.

Besides the timings, the benchmark asserts that the session API's
acceptance criteria carry over to the block-structured multi-application
case: one compilation per point (plus the session's unlimited program),
phase I skipped on at least half the points, and every point equal to the
rebuild path's: the same objective, Newton counts and rounded allocation.
"""

from __future__ import annotations

from repro.core import AllocatorOptions, JointAllocator
from repro.taskgraph import Workload
from repro.taskgraph.generators import random_dag_configuration

SWEEP = tuple(range(4, 16))  # 12 points, clear of pinned lower bounds
SWEPT_APP = "front"

_reference_cache = {}


def _workload():
    front = random_dag_configuration(
        task_count=4, processor_count=4, seed=5, wcet_range=(0.3, 0.9)
    )
    back = random_dag_configuration(
        task_count=4, processor_count=4, seed=11, wcet_range=(0.3, 0.9)
    )
    workload = Workload(front.platform, name="bench-workload")
    workload.add_application(SWEPT_APP, front)
    workload.add_application("back", back)
    return workload


def _options():
    return AllocatorOptions(run_simulation=False, verify=False)


def _limits(workload, limit):
    application = workload.application(SWEPT_APP)
    return {SWEPT_APP: {name: int(limit) for name in application.buffer_names()}}


def _rebuild_sweep():
    """The pre-session path: one full build/compile/cold-solve per point."""
    workload = _workload()
    allocator = JointAllocator(options=_options())
    return [
        allocator.allocate_workload(workload, capacity_limits=_limits(workload, limit))
        for limit in SWEEP
    ]


def _session_sweep():
    workload = _workload()
    session = JointAllocator(options=_options()).workload_session(workload)
    points = [
        session.allocate(capacity_limits=_limits(workload, limit)) for limit in SWEEP
    ]
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
        assert repr(mapped.objective_value) == repr(ref.objective_value)
        assert _work(mapped) == _work(ref)
        for app_name, ref_app in ref.applications.items():
            app = mapped.application(app_name)
            assert app.budgets == ref_app.budgets
            assert app.buffer_capacities == ref_app.buffer_capacities
            assert app.relaxed_budgets == ref_app.relaxed_budgets


def test_bench_workload_sweep_rebuild_per_point(benchmark, record_series):
    points = benchmark(_rebuild_sweep)
    assert len(points) == len(SWEEP)
    record_series(benchmark, "newton_iterations_total", _newton_total(points))
    record_series(benchmark, "points", len(points))


def test_bench_workload_sweep_warm_start(benchmark, record_series):
    points, stats = benchmark(_session_sweep)
    reference = _reference_points()
    _assert_equivalent(points, reference)

    # The session-API acceptance criteria, carried over to workloads.
    assert stats.compiles == 1 + len(SWEEP)
    assert stats.solves == len(SWEEP)
    assert stats.phase1_skipped >= len(SWEEP) // 2, (
        f"phase I skipped on only {stats.phase1_skipped}/{len(SWEEP)} points"
    )
    session_newton = _newton_total(points)
    assert session_newton == _newton_total(reference)
    record_series(benchmark, "newton_iterations_total", session_newton)
    record_series(benchmark, "phase1_skipped", stats.phase1_skipped)
