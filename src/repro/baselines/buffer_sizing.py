"""Buffer sizing for *fixed* budgets (one phase of the classical two-phase flow).

When the budgets are already decided, the actor firing durations of the
dataflow model are constants and the throughput-constrained buffer-sizing
problem becomes a linear program (the formulation the paper builds on, cf. its
reference [9]): minimise the weighted capacities subject to the start-time
constraints (1) and the memory capacity constraints.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.exceptions import (
    AllocationError,
    InfeasibleProblemError,
    NumericalError,
)
from repro.core.objective import ObjectiveWeights
from repro.core.rounding import round_capacities
from repro.dataflow.construction import (
    build_srdf_specification,
    queue_token_terms,
    task_actor_duration,
)
from repro.solver.problem import ConeProgram, RowWriter
from repro.solver.result import SolverStatus
from repro.solver.variable import Variable
from repro.taskgraph.configuration import Configuration


def minimal_buffer_capacities(
    configuration: Configuration,
    budgets: Mapping[str, float],
    weights: Optional[ObjectiveWeights] = None,
    capacity_limits: Optional[Mapping[str, int]] = None,
    backend: str = "auto",
) -> Dict[str, int]:
    """Smallest (weighted) buffer capacities that meet the throughput requirements.

    Parameters
    ----------
    configuration:
        The configuration whose buffers are to be sized.
    budgets:
        Fixed budget per task (time units per replenishment interval).
    capacity_limits:
        Optional per-buffer upper bounds (containers).

    Returns
    -------
    dict
        Conservatively rounded capacity per buffer name.

    Raises
    ------
    InfeasibleProblemError
        When no finite capacities satisfy the throughput requirement with the
        given budgets (or the memory / capacity bounds are too tight).
    """
    weights = weights or ObjectiveWeights()
    capacity_limits = dict(capacity_limits or {})
    program = ConeProgram(name=f"buffer-sizing[{configuration.name}]")

    capacity_vars: Dict[str, Variable] = {}
    #: per actor its start-time column (-1: pinned to 0)
    start_columns: Dict[str, int] = {}
    objective_coefficients = []
    rows = RowWriter()

    for graph in configuration.task_graphs:
        spec = build_srdf_specification(graph)

        # Start-time variables, pinning one actor per weakly connected component.
        for reference, *others in spec.components():
            start_columns[reference] = -1
            for actor_name in others:
                start_columns[actor_name] = program.num_variables
                program.add_variable(f"s[{actor_name}]")

        for buffer in graph.buffers:
            lower = float(buffer.smallest_feasible_capacity)
            upper: Optional[float] = None
            if buffer.max_capacity is not None:
                upper = float(buffer.max_capacity)
            if buffer.name in capacity_limits:
                limit = float(capacity_limits[buffer.name])
                upper = limit if upper is None else min(upper, limit)
            capacity_vars[buffer.name] = program.add_variable(
                f"capacity[{buffer.name}]", lower=lower, upper=upper
            )
            coefficient = weights.capacity_coefficient(buffer)
            objective_coefficients.append(float(coefficient if coefficient else 1.0))

        # s_source + duration − δ(e)·period − s_target ≤ 0, one row per queue.
        for queue in spec.queues:
            task = graph.task(queue.source_task)
            processor = configuration.platform.processor(task.processor)
            if task.name not in budgets:
                raise AllocationError(f"no budget provided for task {task.name!r}")
            budget = float(budgets[task.name])
            if budget <= 0.0 or budget > processor.replenishment_interval + 1e-9:
                raise AllocationError(
                    f"budget {budget} of task {task.name!r} is outside "
                    f"(0, {processor.replenishment_interval}]"
                )
            duration = task_actor_duration(
                task, processor, queue.source_role, queue.source_phase, budget
            )
            # δ(e) as the joint formulation writes it: cyclo-static space
            # queues carry token_scale·γ + token_offset, not γ − ι.
            buffer_name, scale, offset = queue_token_terms(queue)
            source, target = start_columns[queue.source], start_columns[queue.target]
            first = len(rows.columns)
            if source >= 0 and source != target:
                rows.columns.append(source)
                rows.values.append(1.0)
            if buffer_name is not None and scale != 0.0:
                rows.columns.append(program.position(capacity_vars[buffer_name]))
                rows.values.append(-(scale * graph.period))
            if target >= 0 and source != target:
                rows.columns.append(target)
                rows.values.append(-1.0)
            rows.lengths.append(len(rows.columns) - first)
            rows.constants.append(duration - offset * graph.period)
            rows.names.append(f"pas[{queue.name}]")

    # Memory constraints (Constraint (10) with fixed +1 rounding slack).
    for memory_name, memory in configuration.platform.memories.items():
        if not memory.is_bounded:
            continue
        buffers = configuration.buffers_in_memory(memory_name)
        if not buffers:
            continue
        charged = 0.0
        first = len(rows.columns)
        for buffer in buffers:
            charged += buffer.container_size
            if buffer.container_size != 0:
                rows.columns.append(program.position(capacity_vars[buffer.name]))
                rows.values.append(float(buffer.container_size))
        rows.lengths.append(len(rows.columns) - first)
        rows.constants.append(charged - memory.capacity)
        rows.names.append(f"memory[{memory_name}]")

    rows.add_to(program)
    program.minimize(
        [program.position(var) for var in capacity_vars.values()],
        objective_coefficients,
    )
    solution = program.solve(backend=backend)
    if solution.status is SolverStatus.INFEASIBLE:
        raise InfeasibleProblemError(
            f"no buffer capacities satisfy the throughput requirements of "
            f"{configuration.name!r} for the given budgets"
        )
    if not solution.is_optimal:
        raise NumericalError(
            f"buffer sizing failed: {solution.status.value} ({solution.message})"
        )
    relaxed = {name: solution.value(var) for name, var in capacity_vars.items()}
    return round_capacities(relaxed)
