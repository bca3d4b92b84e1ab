"""Fast feasibility screening of configurations.

These checks are *necessary* conditions derived in closed form; they run in
linear time and let callers reject hopeless configurations (or explain
infeasibility) without invoking the cone solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.taskgraph.configuration import Configuration
from repro.taskgraph.validate import processor_load_lower_bound


@dataclass
class FeasibilityScreen:
    """Result of the closed-form feasibility screening."""

    processor_load: Dict[str, float] = field(default_factory=dict)
    memory_load: Dict[str, float] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    @property
    def may_be_feasible(self) -> bool:
        """False only when a necessary condition is violated."""
        return not self.violations


def screen_configuration(configuration: Configuration) -> FeasibilityScreen:
    """Evaluate closed-form necessary conditions for the joint problem.

    * Per processor, the sum of the throughput-implied minimum budgets
      ``̺·χ/µ`` plus one granule of rounding slack per task plus the
      scheduling overhead must fit in the replenishment interval
      (Constraint (9) with the smallest possible budgets;
      :func:`~repro.taskgraph.validate.processor_load_lower_bound`, so ``χ``
      is the task's cycles per period on its processor).
    * Per bounded memory, the smallest feasible buffer capacities plus one
      container of rounding slack per buffer must fit (Constraint (10) with
      the smallest possible capacities).
    """
    screen = FeasibilityScreen()
    platform = configuration.platform

    for processor_name, processor in platform.processors.items():
        demand = processor_load_lower_bound(processor, processor_name, [configuration])
        load = demand / processor.replenishment_interval
        screen.processor_load[processor_name] = load
        if load > 1.0 + 1e-12:
            screen.violations.append(
                f"processor {processor_name!r}: minimum budget demand is "
                f"{load:.3f}× its replenishment interval"
            )

    for memory_name, memory in platform.memories.items():
        if not memory.is_bounded:
            continue
        demand = 0.0
        for _, buffer in configuration.all_buffers():
            if buffer.memory != memory_name:
                continue
            demand += buffer.storage_for(buffer.smallest_feasible_capacity + 1)
        load = demand / memory.capacity
        screen.memory_load[memory_name] = load
        if load > 1.0 + 1e-12:
            screen.violations.append(
                f"memory {memory_name!r}: minimum buffer demand is {load:.3f}× its capacity"
            )
    return screen
