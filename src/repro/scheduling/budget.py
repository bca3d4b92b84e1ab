"""Per-processor budget allocations.

This module ties the abstract budgets computed by the optimiser to concrete
budget-scheduler configurations: it checks Constraint (4)/(9) of the paper —
the budgets (plus scheduling overhead) fit in the replenishment interval —
and materialises TDM slot tables for each processor of a mapped
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

from repro.exceptions import AllocationError
from repro.taskgraph.configuration import MappedConfiguration
from repro.taskgraph.platform import Processor

if TYPE_CHECKING:  # the TDM and latency-rate models load on first use
    from repro.scheduling.latency_rate import LatencyRateServer
    from repro.scheduling.tdm import TdmScheduler, TdmSlotTable


@dataclass
class BudgetAllocation:
    """Budgets of the tasks bound to one processor."""

    processor: Processor
    budgets: Dict[str, float] = field(default_factory=dict)
    granularity: float = 1.0

    @property
    def total_budget(self) -> float:
        return sum(self.budgets.values())

    @property
    def utilisation(self) -> float:
        """Fraction of the replenishment interval handed out as budgets."""
        return self.total_budget / self.processor.replenishment_interval

    def is_feasible(self, tolerance: float = 1e-9) -> bool:
        """Constraint (4): budgets plus overhead fit in the replenishment interval."""
        return (
            self.total_budget + self.processor.scheduling_overhead
            <= self.processor.replenishment_interval + tolerance
        )

    def latency_rate_bounds(self) -> Dict[str, LatencyRateServer]:
        """Latency-rate guarantee per task under this allocation."""
        from repro.scheduling.latency_rate import LatencyRateServer

        return {
            task: LatencyRateServer.from_budget(
                budget, self.processor.replenishment_interval
            )
            for task, budget in self.budgets.items()
        }

    def slot_table(self, interleave: bool = True) -> TdmSlotTable:
        """Materialise a TDM slot table realising these budgets."""
        from repro.scheduling.tdm import build_slot_table

        if not self.is_feasible():
            raise AllocationError(
                f"budgets on processor {self.processor.name!r} exceed its "
                f"replenishment interval"
            )
        return build_slot_table(
            budgets=self.budgets,
            replenishment_interval=self.processor.replenishment_interval,
            granularity=self.granularity,
            scheduling_overhead=self.processor.scheduling_overhead,
            interleave=interleave,
        )

    def scheduler(self, interleave: bool = True) -> TdmScheduler:
        from repro.scheduling.tdm import TdmScheduler

        return TdmScheduler(self.slot_table(interleave=interleave))


def allocations_from_mapping(mapped: MappedConfiguration) -> Dict[str, BudgetAllocation]:
    """Group the budgets of a mapped configuration per processor.

    Tasks without a recorded budget are skipped; detecting missing budgets is
    the job of :func:`repro.core.validation.verify_mapping`.
    """
    configuration = mapped.configuration
    allocations: Dict[str, BudgetAllocation] = {}
    for processor_name, processor in configuration.platform.processors.items():
        allocation = BudgetAllocation(
            processor=processor, granularity=configuration.granularity
        )
        for task in configuration.tasks_on_processor(processor_name):
            if task.name in mapped.budgets:
                allocation.budgets[task.name] = mapped.budget(task.name)
        allocations[processor_name] = allocation
    return allocations


def validate_budget_feasibility(mapped: MappedConfiguration) -> List[str]:
    """Return a list of violations of the per-processor capacity constraint."""
    problems: List[str] = []
    for processor_name, allocation in allocations_from_mapping(mapped).items():
        if not allocation.is_feasible():
            problems.append(
                f"processor {processor_name!r}: budgets {allocation.total_budget:.6g} "
                f"plus overhead {allocation.processor.scheduling_overhead:.6g} exceed "
                f"the replenishment interval "
                f"{allocation.processor.replenishment_interval:.6g}"
            )
    return problems
