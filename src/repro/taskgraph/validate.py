"""Structural validation of configurations.

The checks here catch modelling mistakes *before* the optimiser runs, so that
infeasibility reported by the solver can be attributed to genuine resource
shortage rather than to malformed input:

* every task is bound to an existing processor, every buffer to an existing
  memory;
* worst-case execution times fit within the processor's replenishment
  interval and within the throughput period (otherwise no budget can ever
  satisfy the constraint ``̺·χ/β ≤ µ`` with ``β ≤ ̺``);
* per-processor load (lower bound) does not obviously exceed capacity;
* buffer capacity bounds are consistent with the number of initial tokens.
"""

from __future__ import annotations

from typing import List

from repro.exceptions import (
    BindingError,
    GraphStructureError,
    InfeasibleModelError,
    ModelError,
)
from repro.taskgraph.configuration import Configuration
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.platform import Platform


def validate_task_graph(graph: TaskGraph, platform: Platform) -> None:
    """Validate one task graph against a platform."""
    if not graph.tasks:
        raise GraphStructureError(f"task graph {graph.name!r} contains no tasks")
    # Raises ModelError on rate profiles that disagree with the phases or
    # with each other.
    graph.repetition_vector
    for task in graph.tasks:
        if not platform.has_processor(task.processor):
            raise BindingError(
                f"task {task.name!r} of graph {graph.name!r} is bound to unknown "
                f"processor {task.processor!r}"
            )
        processor = platform.processor(task.processor)
        effective_total = graph.period_cycles(task.name, processor)
        if effective_total > graph.period:
            # A genuine infeasibility of the operating point (not a malformed
            # model): a DVFS down-clock can push a task past the period, and
            # sweeps treat this as an infeasible point rather than an error.
            raise InfeasibleModelError(
                f"task {task.name!r}: worst-case execution time {effective_total} exceeds "
                f"the throughput period {graph.period}; even a full budget cannot "
                f"satisfy the requirement"
            )
        if task.max_budget is not None and task.max_budget > processor.allocatable_capacity:
            raise ModelError(
                f"task {task.name!r}: max_budget {task.max_budget} exceeds the "
                f"allocatable capacity {processor.allocatable_capacity} of processor "
                f"{task.processor!r}"
            )
    for buffer in graph.buffers:
        if not platform.has_memory(buffer.memory):
            raise BindingError(
                f"buffer {buffer.name!r} of graph {graph.name!r} is placed in unknown "
                f"memory {buffer.memory!r}"
            )
        memory = platform.memory(buffer.memory)
        if memory.is_bounded:
            minimal = buffer.storage_for(buffer.smallest_feasible_capacity)
            if minimal > memory.capacity:
                raise ModelError(
                    f"buffer {buffer.name!r}: even its smallest feasible capacity "
                    f"({buffer.smallest_feasible_capacity} containers) does not fit "
                    f"in memory {buffer.memory!r} (capacity {memory.capacity})"
                )


def validate_configuration(configuration: Configuration) -> None:
    """Validate a full configuration.

    Raises the first problem found as a :class:`~repro.exceptions.ModelError`
    subclass.
    """
    if not configuration.task_graphs:
        raise ModelError(
            f"configuration {configuration.name!r} contains no task graphs"
        )
    for graph in configuration.task_graphs:
        validate_task_graph(graph, configuration.platform)

    _check_processor_load(configuration)
    _check_memory_lower_bounds(configuration)


def processor_load_lower_bound(
    processor, processor_name: str, configurations
) -> float:
    """Lower bound on a processor's budget demand across configurations.

    The budget of task ``w`` must satisfy ``̺(p)·χ(w)/β(w) ≤ µ(T)``, i.e.
    ``β(w) ≥ ̺(p)·χ(w)/µ(T)``.  Summing this lower bound (plus one granule of
    rounding slack per task at its configuration's granularity, cf.
    Constraint (9)) over the tasks bound to the processor gives a quick
    necessary condition for feasibility.  The single definition of the
    screen's arithmetic, shared by the per-configuration check and the
    combined-workload check of :meth:`repro.taskgraph.workload.Workload.
    validate` (which passes one configuration per application).
    """
    lower_bound = processor.scheduling_overhead
    for configuration in configurations:
        for graph in configuration.task_graphs:
            for task in graph.tasks:
                if task.processor != processor_name:
                    continue
                minimum_budget = (
                    processor.replenishment_interval
                    * graph.period_cycles(task.name, processor)
                    / graph.period
                )
                if task.min_budget is not None:
                    minimum_budget = max(minimum_budget, task.min_budget)
                lower_bound += minimum_budget + configuration.granularity
    return lower_bound


def memory_minimal_storage(memory_name: str, configurations) -> float:
    """Total storage of the smallest feasible buffer capacities in one memory.

    Like :func:`processor_load_lower_bound`, shared between the
    per-configuration screen and the combined-workload screen.
    """
    minimal_storage = 0.0
    for configuration in configurations:
        for _, buffer in configuration.all_buffers():
            if buffer.memory != memory_name:
                continue
            minimal_storage += buffer.storage_for(buffer.smallest_feasible_capacity)
    return minimal_storage


def _check_processor_load(configuration: Configuration) -> None:
    """Reject configurations whose minimum possible load already exceeds capacity."""
    for processor_name, processor in configuration.platform.processors.items():
        lower_bound = processor_load_lower_bound(
            processor, processor_name, [configuration]
        )
        if lower_bound > processor.replenishment_interval + 1e-9:
            raise InfeasibleModelError(
                f"processor {processor_name!r} is overloaded: the throughput "
                f"requirements alone need at least {lower_bound:.6g} budget per "
                f"replenishment interval of {processor.replenishment_interval:.6g}"
            )


def _check_memory_lower_bounds(configuration: Configuration) -> None:
    """Reject configurations whose minimal buffer capacities do not fit in memory."""
    for memory_name, memory in configuration.platform.memories.items():
        if not memory.is_bounded:
            continue
        minimal_storage = memory_minimal_storage(memory_name, [configuration])
        if minimal_storage > memory.capacity + 1e-9:
            raise InfeasibleModelError(
                f"memory {memory_name!r} is too small: the smallest feasible buffer "
                f"capacities already need {minimal_storage:.6g} of {memory.capacity:.6g}"
            )


def collect_warnings(configuration: Configuration) -> List[str]:
    """Non-fatal observations about a configuration (used by reports)."""
    warnings: List[str] = []
    for graph in configuration.task_graphs:
        if not graph.is_connected():
            warnings.append(
                f"task graph {graph.name!r} is not weakly connected; its components "
                f"are analysed jointly but do not constrain each other"
            )
        if not graph.buffers:
            warnings.append(f"task graph {graph.name!r} has no buffers")
        for task in graph.tasks:
            processor = configuration.platform.processor(task.processor)
            if task.wcet > 0.5 * processor.replenishment_interval:
                warnings.append(
                    f"task {task.name!r} occupies more than half the replenishment "
                    f"interval of {task.processor!r} in the worst case"
                )
    return warnings
