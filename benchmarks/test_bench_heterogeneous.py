"""Benchmark: lowering/solve overhead of the generalised execution model.

An eight-application workload is solved in three guises:

* **plain** — the paper's model: single-phase tasks on a homogeneous
  platform (the baseline all overheads are measured against);
* **trivial twin** — the *same* workload expressed through the generalised
  fields (single-phase cyclo-static rates, a typed platform at uniform unit
  speed, explicit per-type cycle tables): generality must be free, so its
  allocation must match the plain baseline at 1e-9;
* **generalised** — a genuinely heterogeneous big/little workload (big cores
  at speed 2) where every application carries one two-phase cyclo-static
  task, lowered through the phase-unrolling pipeline.

The generalised instance doubles as the solver-mode equivalence gate: the
same program solved through the dense Newton path and the structured-sparse
path must agree at 1e-6.  Every equivalence assertion also runs under
``--benchmark-disable`` (the CI smoke gate), where the wall-clock numbers are
measured directly around the solve.
"""

from __future__ import annotations

import random

import pytest

from repro.core import AllocatorOptions, JointAllocator
from repro.core.formulation import WorkloadSocpFormulation
from repro.taskgraph import (
    Buffer,
    Configuration,
    Task,
    TaskGraph,
    Workload,
    heterogeneous_platform,
)
from repro.taskgraph.generators import random_dag_configuration

APP_COUNT = 8
EQUIV_TOL = 1e-6
TWIN_TOL = 1e-9

#: Wall-clock numbers shared between the benchmarks of this module (pytest
#: runs them in definition order: plain baseline first).
MEASURED = {}


def _plain_applications():
    """Eight light applications on one shared homogeneous platform."""
    applications = [
        random_dag_configuration(
            task_count=4,
            processor_count=4,
            seed=61 + index,
            wcet_range=(0.5 / 8, 2.0 / 8),
        )
        for index in range(APP_COUNT)
    ]
    return applications[0].platform, applications


def _plain_workload() -> Workload:
    platform, applications = _plain_applications()
    workload = Workload(platform, name="bench-plain")
    for index, application in enumerate(applications):
        workload.add_application(f"app{index}", application)
    return workload


def _twin_workload() -> Workload:
    """The plain workload re-expressed through every generalised field.

    The single processor type is named ``p`` so the generated processors
    keep the homogeneous names (``p1``…``p4``) and the task bindings carry
    over verbatim; tasks become one-phase cyclo-static with an explicit
    per-type cycle table, buffers carry unit rates.
    """
    platform, applications = _plain_applications()
    interval = next(iter(platform)).replenishment_interval
    typed = heterogeneous_platform(
        {"p": {"count": len(platform)}}, replenishment_interval=interval
    )
    workload = Workload(typed, name="bench-twin")
    for index, application in enumerate(applications):
        graphs = []
        for graph in application.task_graphs:
            twin = TaskGraph(name=graph.name, period=graph.period)
            for task in graph.tasks:
                twin.add_task(
                    Task(
                        name=task.name,
                        wcet=0.0,
                        phases=(task.wcet,),
                        processor=task.processor,
                        budget_weight=task.budget_weight,
                        min_budget=task.min_budget,
                        max_budget=task.max_budget,
                        cycles_by_type={"p": task.wcet},
                    )
                )
            for buffer in graph.buffers:
                twin.add_buffer(
                    Buffer(
                        name=buffer.name,
                        source=buffer.source,
                        target=buffer.target,
                        memory=buffer.memory,
                        container_size=buffer.container_size,
                        initial_tokens=buffer.initial_tokens,
                        capacity_weight=buffer.capacity_weight,
                        min_capacity=buffer.min_capacity,
                        max_capacity=buffer.max_capacity,
                        production_rates=(1,),
                        consumption_rates=(1,),
                    )
                )
            graphs.append(twin)
        workload.add_application(
            f"app{index}",
            Configuration(
                platform=typed,
                task_graphs=graphs,
                granularity=application.granularity,
                name=application.name,
            ),
        )
    return workload


def _generalised_workload() -> Workload:
    """Eight heterogeneous applications, each with one two-phase CSDF task.

    Four-task chains on a big/little platform (big cores clocked 2x): the
    head of every chain is cyclo-static (two phases producing one token
    each, the successor consuming both per firing) and every task carries a
    per-type cycle table with a 40% little-core penalty.
    """
    platform = heterogeneous_platform(
        {
            "big": {"count": 2, "speed": 2.0},
            "little": {"count": 2},
        },
        replenishment_interval=40.0,
        name="bench-big-little",
    )
    processors = list(platform.processors)
    workload = Workload(platform, name="bench-heterogeneous")
    for index in range(APP_COUNT):
        rng = random.Random(97 + index)
        graph = TaskGraph(name=f"chain{index}", period=10.0)
        for stage in range(4):
            cycles = rng.uniform(0.5 / 8, 2.0 / 8)
            kwargs = {}
            if stage == 0:
                kwargs["wcet"] = 0.0
                kwargs["phases"] = (cycles / 3.0, 2.0 * cycles / 3.0)
            else:
                kwargs["wcet"] = cycles
            graph.add_task(
                Task(
                    name=f"t{stage}",
                    processor=processors[(index + stage) % len(processors)],
                    cycles_by_type={"big": cycles, "little": 1.4 * cycles},
                    **kwargs,
                )
            )
        for stage in range(3):
            rates = {}
            if stage == 0:
                rates["production_rates"] = (1, 1)
                rates["consumption_rates"] = (2,)
            graph.add_buffer(
                Buffer(
                    name=f"b{stage}",
                    source=f"t{stage}",
                    target=f"t{stage + 1}",
                    memory="m1",
                    **rates,
                )
            )
        workload.add_application(
            f"app{index}",
            Configuration(
                platform=platform,
                task_graphs=[graph],
                granularity=0.25,
                name=f"app{index}",
            ),
        )
    return workload


def _options() -> AllocatorOptions:
    return AllocatorOptions(verify=False, run_simulation=False)


def _allocate(workload: Workload):
    return JointAllocator(options=_options()).allocate_workload(workload)


def test_bench_plain_sdf_baseline(benchmark, record_series, run_timed):
    mapped, wall = run_timed(lambda: _allocate(_plain_workload()))
    MEASURED["plain"] = (wall, mapped)
    record_series(benchmark, "applications", APP_COUNT)
    record_series(benchmark, "wall_seconds", round(wall, 4))
    record_series(benchmark, "objective", mapped.objective_value)


def test_bench_trivial_twin_generality_is_free(benchmark, record_series, run_timed):
    mapped, wall = run_timed(lambda: _allocate(_twin_workload()))
    plain = MEASURED.get("plain")
    if plain is None:  # module run out of order (e.g. -k selection)
        plain = (None, _allocate(_plain_workload()))
    plain_wall, plain_mapped = plain

    # The no-cost-of-generality gate: re-expressing the paper's model
    # through the generalised fields must not move the optimum at all.
    twin_budgets = mapped.flattened("budgets")
    plain_budgets = plain_mapped.flattened("budgets")
    assert set(twin_budgets) == set(plain_budgets)
    for name, budget in plain_budgets.items():
        assert twin_budgets[name] == pytest.approx(budget, abs=TWIN_TOL), name
    assert mapped.flattened("buffer_capacities") == plain_mapped.flattened(
        "buffer_capacities"
    )
    assert mapped.objective_value == pytest.approx(
        plain_mapped.objective_value, abs=TWIN_TOL
    )

    record_series(benchmark, "wall_seconds", round(wall, 4))
    if plain_wall is not None:
        record_series(
            benchmark, "overhead_vs_plain", round(wall / max(plain_wall, 1e-9), 3)
        )


def test_bench_heterogeneous_csdf_workload(benchmark, record_series, run_timed):
    workload = _generalised_workload()
    mapped, wall = run_timed(lambda: _allocate(workload))
    assert mapped.objective_value is not None
    for name in workload.application_names:
        application = mapped.application(name)
        assert all(budget > 0 for budget in application.budgets.values())

    record_series(benchmark, "applications", APP_COUNT)
    record_series(benchmark, "wall_seconds", round(wall, 4))
    plain = MEASURED.get("plain")
    if plain is not None and plain[0] is not None:
        record_series(
            benchmark,
            "overhead_vs_plain_sdf",
            round(wall / max(plain[0], 1e-9), 3),
        )


@pytest.mark.parametrize("mode", ["dense", "structured"])
def test_bench_heterogeneous_solver_modes_agree(benchmark, record_series, run_timed, mode):
    """Dense and structured-sparse solves of the same program.

    The generalised workload lowers to one cone program; both Newton paths
    must land on the same optimum (objective and every variable) within 1e-6.
    """
    formulation = WorkloadSocpFormulation(_generalised_workload())
    solution, wall = run_timed(
        lambda: formulation.solve(backend="barrier", structured=mode == "structured")
    )
    assert solution.is_optimal
    MEASURED[("mode", mode)] = solution

    reference = MEASURED.get(("mode", "dense"))
    if reference is not None and reference is not solution:
        scale = max(1.0, abs(reference.objective))
        assert abs(solution.objective - reference.objective) / scale < EQUIV_TOL, (
            f"{mode} optimum drifted from the dense baseline"
        )
        reference_values = {
            variable.name: value for variable, value in reference.values.items()
        }
        for variable, value in solution.values.items():
            assert value == pytest.approx(
                reference_values[variable.name], abs=1e-4, rel=EQUIV_TOL * 100
            ), variable.name

    record_series(benchmark, "mode", mode)
    record_series(benchmark, "wall_seconds", round(wall, 4))
    record_series(benchmark, "objective", solution.objective)
