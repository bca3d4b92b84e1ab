"""Throughput analysis of mapped configurations.

Given a mapped configuration (budgets + buffer capacities), these helpers
answer the questions a system integrator asks after the allocator ran:

* what is the minimum period each task graph can actually sustain (its
  maximum cycle ratio), and how much slack is left against the requirement?
* which cycles of the dataflow graph are critical (and therefore which
  buffers/budgets to enlarge when more performance is needed)?
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

from repro.dataflow.construction import build_srdf_specification, instantiate_srdf
from repro.dataflow.mcr import CycleRatio, critical_cycles, maximum_cycle_ratio
from repro.taskgraph.configuration import MappedConfiguration


@dataclass
class GraphThroughputReport:
    """Throughput figures for one task graph under a mapping."""

    graph_name: str
    required_period: float
    minimum_period: float
    critical: List[CycleRatio] = field(default_factory=list)

    @property
    def slack(self) -> float:
        """How much slower the graph could run and still meet its requirement."""
        if math.isinf(self.minimum_period):
            return -math.inf
        return self.required_period - self.minimum_period

    @property
    def meets_requirement(self) -> bool:
        # The minimum period is exact up to rounding; the allowance keeps
        # mappings that are tight by construction (budgets found by a
        # feasibility bisection, say) from failing on the last bits.
        return self.minimum_period <= self.required_period * (1.0 + 1e-6)

    @property
    def throughput(self) -> float:
        """Iterations per time unit the mapping can sustain."""
        if self.minimum_period <= 0.0:
            return math.inf
        return 1.0 / self.minimum_period

    def critical_buffer_names(self) -> List[str]:
        """Buffers appearing on a critical cycle (candidates for enlargement)."""
        names: List[str] = []
        for cycle in self.critical:
            for queue in cycle.queues:
                # Queue names of buffer queues are "<buffer>.data" / "<buffer>.space".
                if queue.name.endswith(".data") or queue.name.endswith(".space"):
                    buffer_name = queue.name.rsplit(".", 1)[0]
                    if buffer_name not in names:
                        names.append(buffer_name)
        return names


def analyse_throughput(
    mapped: MappedConfiguration, include_critical_cycles: bool = True
) -> Dict[str, GraphThroughputReport]:
    """Compute a :class:`GraphThroughputReport` for every task graph."""
    configuration = mapped.configuration
    reports: Dict[str, GraphThroughputReport] = {}
    for graph in configuration.task_graphs:
        spec = build_srdf_specification(graph)
        srdf = instantiate_srdf(
            spec, graph, configuration.platform, mapped.budgets, mapped.buffer_capacities
        )
        minimum_period = maximum_cycle_ratio(srdf)
        critical = critical_cycles(srdf) if include_critical_cycles else []
        reports[graph.name] = GraphThroughputReport(
            graph_name=graph.name,
            required_period=graph.period,
            minimum_period=minimum_period,
            critical=critical,
        )
    return reports


def utilisation_summary(mapped: MappedConfiguration) -> Dict[str, float]:
    """Budget utilisation per processor (fraction of the replenishment interval)."""
    configuration = mapped.configuration
    return {
        name: mapped.processor_utilisation(name)
        for name in configuration.platform.processors
    }
