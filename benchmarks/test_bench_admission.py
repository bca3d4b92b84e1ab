"""Benchmark: incremental admission re-solve vs rebuild-per-event.

A run-time arrival/departure trace over one shared platform — eight
applications arriving, a few departing, a late arrival — is driven two ways:

* **rebuild** — every event allocates the current membership from scratch
  (fresh :class:`WorkloadSocpFormulation`, full compile, cold solve), the
  only option before the incremental session-editing API;
* **incremental** — one workload :class:`AllocationSession` edited per event
  (``add_application`` / ``remove_application``): the program is rebuilt
  for the new membership, and the previous optimum and the first-rung
  interior hint warm-start every re-solve.

Both paths must produce the same per-event objectives within 1e-6.  The
incremental path must also do strictly less Newton work over the trace
(phase I + phase II iterations) and skip phase I at least once.  Those are
deterministic counters; the wall times of both paths are recorded alongside
but not raced, because their best-of-3 ratio flips between runs on the same
tree.
"""

from __future__ import annotations

import time

import pytest

from repro.core import AllocatorOptions, JointAllocator
from repro.taskgraph import Workload
from repro.taskgraph.generators import random_dag_configuration

#: Arrival/departure event sequence; membership peaks at 8 applications and
#: never drops below 4 once the platform has filled up.
EVENTS = (
    ("arrive", "app0"),
    ("arrive", "app1"),
    ("arrive", "app2"),
    ("arrive", "app3"),
    ("arrive", "app4"),
    ("arrive", "app5"),
    ("arrive", "app6"),
    ("arrive", "app7"),
    ("depart", "app2"),
    ("depart", "app5"),
    ("arrive", "app8"),
    ("depart", "app0"),
)
APP_COUNT = 9
#: Best-of-REPEATS wall times absorb one-off noise spikes.
REPEATS = 3


def _applications():
    applications = [
        random_dag_configuration(
            task_count=4,
            processor_count=4,
            seed=31 + index,
            wcet_range=(0.5 / 8, 2.0 / 8),
        )
        for index in range(APP_COUNT)
    ]
    platform = applications[0].platform
    return platform, {f"app{index}": app for index, app in enumerate(applications)}


def _options():
    return AllocatorOptions(verify=False, run_simulation=False)


def _rebuild_trace():
    """Rebuild-per-event: a fresh workload program for every membership.

    Returns the per-event objectives and the summed solver work
    (``newton_iterations`` over both phases, ``phase1_skipped``).
    """
    platform, applications = _applications()
    allocator = JointAllocator(options=_options())
    running = {}
    objectives = []
    work = {"newton_iterations": 0, "phase1_skipped": 0}
    for action, name in EVENTS:
        if action == "arrive":
            running[name] = applications[name]
        else:
            del running[name]
        workload = Workload(platform, name="rebuild")
        for app_name, configuration in running.items():
            workload.add_application(app_name, configuration)
        mapped = allocator.allocate_workload(workload)
        objectives.append(mapped.objective_value)
        stats = mapped.solver_info["solve_stats"]
        work["newton_iterations"] += int(stats["newton_iterations"]) + int(
            stats["phase1_newton_iterations"]
        )
        work["phase1_skipped"] += int(bool(stats["phase1_skipped"]))
    return objectives, work


def _incremental_trace():
    """One session edited per event (the admission-control path)."""
    platform, applications = _applications()
    allocator = JointAllocator(options=_options())
    first_action, first_name = EVENTS[0]
    assert first_action == "arrive"
    workload = Workload(platform, name="incremental")
    workload.add_application(first_name, applications[first_name])
    session = allocator.workload_session(workload)
    objectives = [session.allocate().objective_value]
    for action, name in EVENTS[1:]:
        if action == "arrive":
            session.add_application(name, applications[name])
        else:
            session.remove_application(name)
        objectives.append(session.allocate().objective_value)
    return objectives, session.stats


def _interleaved_best_times(run_a, run_b):
    """Best-of-REPEATS for two competitors, alternating runs.

    Interleaving means background load during the benchmark hits both paths
    alike, so the comparison stays a fair race even on a busy machine.
    """
    best_a = best_b = float("inf")
    result_a = result_b = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result_a = run_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        result_b = run_b()
        best_b = min(best_b, time.perf_counter() - start)
    return (best_a, result_a), (best_b, result_b)


def test_bench_admission_trace_incremental_vs_rebuild(benchmark, record_series):
    (rebuild_time, (rebuild_objectives, rebuild_work)), (
        incremental_time,
        (objectives, stats),
    ) = _interleaved_best_times(_rebuild_trace, _incremental_trace)

    # Identical per-event optima: the incremental path is a pure
    # performance change.
    assert len(objectives) == len(EVENTS)
    for event, (warm, cold) in enumerate(zip(objectives, rebuild_objectives)):
        assert warm == pytest.approx(cold, abs=1e-6), EVENTS[event]

    # One compile per event (vs one *full rebuild* per event) and warm
    # starts throughout.
    assert stats.compiles == len(EVENTS)
    assert stats.warm_started >= len(EVENTS) - 1

    # Warm starts must save Newton work over cold rebuilds and skip phase I
    # at least once.  Deterministic counters, unlike the wall-clock race.
    incremental_newton = stats.newton_iterations + stats.phase1_newton_iterations
    assert incremental_newton < rebuild_work["newton_iterations"], (
        f"incremental admission took {incremental_newton} Newton iterations "
        f"vs {rebuild_work['newton_iterations']} rebuild-per-event"
    )
    assert stats.phase1_skipped >= 1

    record_series(benchmark, "events", len(EVENTS))
    record_series(benchmark, "rebuild_seconds", rebuild_time)
    record_series(benchmark, "incremental_seconds", incremental_time)
    record_series(
        benchmark, "speedup", rebuild_time / max(incremental_time, 1e-12)
    )
    record_series(benchmark, "warm_started", stats.warm_started)
    record_series(benchmark, "phase1_skipped", stats.phase1_skipped)
    record_series(benchmark, "incremental_newton_iterations", incremental_newton)
    record_series(
        benchmark, "rebuild_newton_iterations", rebuild_work["newton_iterations"]
    )
    benchmark(lambda: _incremental_trace())


def test_bench_admission_trace_rebuild_baseline(benchmark, record_series):
    objectives, _ = benchmark(_rebuild_trace)
    assert len(objectives) == len(EVENTS)
    record_series(benchmark, "events", len(EVENTS))
