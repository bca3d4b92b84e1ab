"""Independent verification of mapped configurations.

The allocator's outputs are checked against analyses that do not share code
with the SOCP formulation:

* a periodic admissible schedule with the required period exists for the
  SRDF graph instantiated with the *rounded* budgets and capacities
  (difference-constraint feasibility / maximum cycle ratio);
* the self-timed simulation of that graph sustains the required period;
* the budgets fit on every processor including scheduling overhead
  (Constraint (4));
* the buffers fit in every bounded memory;
* budgets are positive multiples of the granularity and capacities are
  positive integers not below the number of initially filled containers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.exceptions import ReproError
from repro.dataflow.construction import build_srdf_specification, instantiate_srdf
from repro.dataflow.mcr import longest_path_potentials, maximum_cycle_ratio
from repro.dataflow.simulation import _sustains_schedule
from repro.scheduling.budget import validate_budget_feasibility
from repro.taskgraph.configuration import MappedConfiguration

#: Iterations of the self-timed simulation that checks each graph's period.
_SIMULATE_ITERATIONS = 60


@dataclass
class VerificationReport:
    """Outcome of verifying a mapped configuration."""

    issues: List[str] = field(default_factory=list)
    checked_graphs: int = 0
    minimum_periods: Dict[str, float] = field(default_factory=dict)

    @property
    def is_valid(self) -> bool:
        return not self.issues

    def add_issue(self, message: str) -> None:
        self.issues.append(message)

    def summary(self) -> str:
        if self.is_valid:
            return (
                f"mapping verified: {self.checked_graphs} task graph(s), "
                f"all throughput, processor and memory constraints satisfied"
            )
        lines = [f"mapping verification found {len(self.issues)} issue(s):"]
        lines.extend(f"  - {issue}" for issue in self.issues)
        return "\n".join(lines)


def verify_mapping(
    mapped: MappedConfiguration,
    run_simulation: bool = True,
) -> VerificationReport:
    """Verify a mapped configuration; returns a report rather than raising."""
    report = VerificationReport()
    configuration = mapped.configuration
    granularity = configuration.granularity

    _check_values(mapped, report, granularity)
    report.issues.extend(validate_budget_feasibility(mapped))
    _check_memories(mapped, report)

    for graph in configuration.task_graphs:
        report.checked_graphs += 1
        missing = [t.name for t in graph.tasks if t.name not in mapped.budgets]
        missing += [b.name for b in graph.buffers if b.name not in mapped.buffer_capacities]
        if missing:
            report.add_issue(
                f"graph {graph.name!r}: missing budgets/capacities for {missing}"
            )
            continue
        specification = build_srdf_specification(graph)
        try:
            srdf = instantiate_srdf(
                specification,
                graph,
                configuration.platform,
                mapped.budgets,
                mapped.buffer_capacities,
            )
        except ReproError as error:
            report.add_issue(f"graph {graph.name!r}: {error}")
            continue
        report.minimum_periods[graph.name] = maximum_cycle_ratio(srdf)
        # One Bellman–Ford pass: the potentials decide the periodic schedule's
        # existence and are the bounds the simulation is checked against.
        potentials = longest_path_potentials(srdf, graph.period)
        if potentials is None:
            report.add_issue(
                f"graph {graph.name!r}: no periodic admissible schedule with period "
                f"{graph.period} exists for the rounded budgets/capacities "
                f"(minimum period {report.minimum_periods[graph.name]:.6g})"
            )
            continue
        # Queues lowered from true CSDF buffers can carry fractional token
        # counts (the affine capacity linearisation); the MCR/potential
        # analyses above handle them, but the self-timed simulation indexes
        # firings by integer token counts and is skipped for such graphs.
        simulatable = all(q.has_integral_tokens for q in srdf.queues)
        if run_simulation and simulatable and not _sustains_schedule(
            srdf, potentials, graph.period, _SIMULATE_ITERATIONS
        ):
            report.add_issue(
                f"graph {graph.name!r}: the self-timed simulation does not sustain "
                f"the required period {graph.period}"
            )
    return report


def _check_values(
    mapped: MappedConfiguration, report: VerificationReport, granularity: float
) -> None:
    for task_name, budget in mapped.budgets.items():
        if budget <= 0.0:
            report.add_issue(f"task {task_name!r}: budget {budget} is not positive")
            continue
        granules = budget / granularity
        if abs(granules - round(granules)) > 1e-6:
            report.add_issue(
                f"task {task_name!r}: budget {budget} is not a multiple of the "
                f"granularity {granularity}"
            )
        graph, task = mapped.configuration.find_task(task_name)
        processor = mapped.configuration.platform.processor(task.processor)
        if budget > processor.replenishment_interval + 1e-9:
            report.add_issue(
                f"task {task_name!r}: budget {budget} exceeds the replenishment "
                f"interval of processor {task.processor!r}"
            )
    for buffer_name, capacity in mapped.buffer_capacities.items():
        if capacity < 1:
            report.add_issue(
                f"buffer {buffer_name!r}: capacity {capacity} is below one container"
            )
            continue
        if capacity != int(capacity):
            report.add_issue(
                f"buffer {buffer_name!r}: capacity {capacity} is not integral"
            )
        _, buffer = mapped.configuration.find_buffer(buffer_name)
        if capacity < buffer.initial_tokens:
            report.add_issue(
                f"buffer {buffer_name!r}: capacity {capacity} cannot hold the "
                f"{buffer.initial_tokens} initially filled containers"
            )
        if buffer.max_capacity is not None and capacity > buffer.max_capacity:
            report.add_issue(
                f"buffer {buffer_name!r}: capacity {capacity} exceeds the declared "
                f"maximum {buffer.max_capacity}"
            )


def _check_memories(mapped: MappedConfiguration, report: VerificationReport) -> None:
    configuration = mapped.configuration
    for memory_name, memory in configuration.platform.memories.items():
        if not memory.is_bounded:
            continue
        usage = 0.0
        for buffer in configuration.buffers_in_memory(memory_name):
            capacity = mapped.buffer_capacities.get(buffer.name)
            if capacity is None:
                continue
            usage += buffer.storage_for(capacity)
        if usage > memory.capacity + 1e-9:
            report.add_issue(
                f"memory {memory_name!r}: buffers use {usage:.6g} of only "
                f"{memory.capacity:.6g} available"
            )
