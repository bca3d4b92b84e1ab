"""The classical two-phase mapping flow the paper argues against.

Before this paper, budgets and buffer capacities were computed in two separate
phases (e.g. Moreira et al. EMSOFT'07, Stuijk et al. DAC'07):

* **budget-first**: pick the smallest budgets that could ever satisfy the
  throughput requirement (assuming unbounded buffers), then size the buffers
  for those budgets;
* **buffer-first**: pick the smallest buffers (one container, or just enough
  to hold the initial tokens), then compute budgets for those buffers.

Both orders ignore the budget/buffer trade-off, so they either over-allocate
one resource or report infeasibility even though a joint solution exists (a
*false negative*).  This module implements both orders so that the benchmarks
can quantify the benefit of the joint formulation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.exceptions import InfeasibleProblemError, ReproError
from repro.baselines.buffer_sizing import minimal_buffer_capacities
from repro.baselines.budget_minimization import minimal_budgets_fixed_capacities
from repro.core.objective import ObjectiveWeights
from repro.core.rounding import round_budget
from repro.core.validation import verify_mapping
from repro.taskgraph.configuration import Configuration, MappedConfiguration


class TwoPhaseOrder(enum.Enum):
    """Which resource the two-phase flow fixes first."""

    BUDGET_FIRST = "budget_first"
    BUFFER_FIRST = "buffer_first"


@dataclass
class TwoPhaseResult:
    """Outcome of a two-phase mapping attempt."""

    order: TwoPhaseOrder
    feasible: bool
    mapped: Optional[MappedConfiguration] = None
    failure_reason: str = ""

    @property
    def total_budget(self) -> float:
        if not self.feasible or self.mapped is None:
            return math.inf
        return sum(self.mapped.budgets.values())

    @property
    def total_capacity(self) -> int:
        if not self.feasible or self.mapped is None:
            return 0
        return sum(self.mapped.buffer_capacities.values())


def minimum_throughput_budgets(configuration: Configuration) -> Dict[str, float]:
    """Smallest per-task budgets that any buffer sizing could ever work with.

    With unbounded buffers the only binding constraint involving a single task
    is its self-loop: ``̺(p)·χ(w)/β(w) ≤ µ(T)``, i.e. ``β(w) ≥ ̺(p)·χ(w)/µ(T)``,
    with ``χ(w)`` the task's effective cycles per period
    (:meth:`~repro.taskgraph.graph.TaskGraph.period_cycles`, as in the joint
    formulation's budget bound).  The result is rounded up to the allocation
    granularity.
    """
    budgets: Dict[str, float] = {}
    for graph in configuration.task_graphs:
        for task in graph.tasks:
            processor = configuration.platform.processor(task.processor)
            minimal = (
                processor.replenishment_interval
                * graph.period_cycles(task.name, processor)
                / graph.period
            )
            if task.min_budget is not None:
                minimal = max(minimal, task.min_budget)
            budgets[task.name] = round_budget(minimal, configuration.granularity)
    return budgets


def minimum_buffer_capacities(configuration: Configuration) -> Dict[str, int]:
    """Smallest structurally valid capacity per buffer (ignoring throughput)."""
    return {
        buffer.name: buffer.smallest_feasible_capacity
        for _, buffer in configuration.all_buffers()
    }


def run_two_phase(
    configuration: Configuration,
    order: TwoPhaseOrder = TwoPhaseOrder.BUDGET_FIRST,
    weights: Optional[ObjectiveWeights] = None,
) -> TwoPhaseResult:
    """Run the two-phase flow in the requested order.

    The result's ``mapped`` configuration is verified with the same
    independent dataflow analyses as the joint allocator's output, so the two
    flows can be compared apples-to-apples.
    """
    configuration.validate()
    try:
        if order is TwoPhaseOrder.BUDGET_FIRST:
            mapped = _budget_first(configuration, weights)
        elif order is TwoPhaseOrder.BUFFER_FIRST:
            mapped = _buffer_first(configuration, weights)
        else:  # pragma: no cover - defensive
            raise ReproError(f"unknown two-phase order {order!r}")
    except InfeasibleProblemError as error:
        return TwoPhaseResult(order=order, feasible=False, failure_reason=str(error))

    report = verify_mapping(mapped, run_simulation=False)
    if not report.is_valid:
        return TwoPhaseResult(
            order=order, feasible=False, failure_reason=report.summary()
        )
    return TwoPhaseResult(order=order, feasible=True, mapped=mapped)


def _budget_first(
    configuration: Configuration, weights: Optional[ObjectiveWeights]
) -> MappedConfiguration:
    budgets = minimum_throughput_budgets(configuration)
    _check_processor_capacity(configuration, budgets)
    capacities = minimal_buffer_capacities(
        configuration, budgets, weights=weights or ObjectiveWeights()
    )
    return MappedConfiguration(
        configuration=configuration,
        budgets=budgets,
        buffer_capacities=capacities,
        relaxed_budgets=dict(budgets),
        relaxed_capacities={name: float(value) for name, value in capacities.items()},
        solver_info={"flow": "two-phase", "order": TwoPhaseOrder.BUDGET_FIRST.value},
    )


def _buffer_first(
    configuration: Configuration, weights: Optional[ObjectiveWeights]
) -> MappedConfiguration:
    capacities = minimum_buffer_capacities(configuration)
    mapped = minimal_budgets_fixed_capacities(
        configuration, capacities, weights=weights or ObjectiveWeights.prefer_budgets()
    )
    mapped.solver_info["flow"] = "two-phase"
    mapped.solver_info["order"] = TwoPhaseOrder.BUFFER_FIRST.value
    return mapped


def _check_processor_capacity(
    configuration: Configuration, budgets: Dict[str, float]
) -> None:
    for processor_name, processor in configuration.platform.processors.items():
        tasks = configuration.tasks_on_processor(processor_name)
        total = sum(budgets[task.name] for task in tasks) + processor.scheduling_overhead
        if total > processor.replenishment_interval + 1e-9:
            raise InfeasibleProblemError(
                f"two-phase (budget-first): minimal throughput budgets already "
                f"overload processor {processor_name!r}"
            )


def compare_with_joint(
    configuration: Configuration,
    joint: MappedConfiguration,
    weights: Optional[ObjectiveWeights] = None,
) -> Dict[str, object]:
    """Run both two-phase orders and summarise them against a joint mapping.

    Returns a dictionary with, per flow, feasibility, total budget and total
    capacity — the data behind the paper's argument that joint computation
    avoids false negatives and over-allocation.
    """
    rows: Dict[str, object] = {
        "joint": {
            "feasible": True,
            "total_budget": sum(joint.budgets.values()),
            "total_capacity": sum(joint.buffer_capacities.values()),
        }
    }
    for order in TwoPhaseOrder:
        result = run_two_phase(configuration, order=order, weights=weights)
        rows[order.value] = {
            "feasible": result.feasible,
            "total_budget": result.total_budget if result.feasible else None,
            "total_capacity": result.total_capacity if result.feasible else None,
            "failure_reason": result.failure_reason,
        }
    return rows
