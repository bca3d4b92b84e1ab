"""End-to-end latency analysis of mapped task graphs.

Besides throughput, system integrators care about the end-to-end latency of a
job: how long after a source task starts does the sink task finish one
iteration?  For a mapped configuration two conservative estimates are
provided:

* the **schedule latency**: the makespan of the first iteration of the
  as-soon-as-possible periodic admissible schedule at the required period
  (valid for the steady state of any budget-scheduled implementation, by the
  monotonicity argument of the paper), and
* the **self-timed latency**: the finish time of the first firing of the last
  actor in the self-timed (worst-case firing duration) execution, which is
  the classical start-up latency bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro._graphs import topological_order
from repro.exceptions import AnalysisError
from repro.dataflow.construction import (
    build_srdf_specification,
    finish_actor_name,
    instantiate_srdf,
)
from repro.dataflow.mcr import longest_path_potentials
from repro.dataflow.simulation import simulate
from repro.taskgraph.configuration import MappedConfiguration


@dataclass(frozen=True)
class LatencyReport:
    """Latency figures for one task graph under a mapping."""

    graph_name: str
    required_period: float
    schedule_latency: float
    self_timed_latency: float

    @property
    def periods_of_latency(self) -> float:
        """Schedule latency expressed in multiples of the throughput period."""
        return self.schedule_latency / self.required_period


def analyse_latency(mapped: MappedConfiguration) -> Dict[str, LatencyReport]:
    """Compute a :class:`LatencyReport` per task graph of a mapped configuration.

    Raises
    ------
    AnalysisError
        If the mapping does not admit a periodic schedule at the required
        period (latency is undefined for an infeasible mapping).
    """
    configuration = mapped.configuration
    reports: Dict[str, LatencyReport] = {}
    for graph in configuration.task_graphs:
        specification = build_srdf_specification(graph)
        srdf = instantiate_srdf(
            specification,
            graph,
            configuration.platform,
            mapped.budgets,
            mapped.buffer_capacities,
        )
        potentials = longest_path_potentials(srdf, graph.period)
        if potentials is None:
            raise AnalysisError(
                f"graph {graph.name!r}: no periodic admissible schedule with period "
                f"{graph.period}; compute a valid mapping before analysing latency"
            )
        # Completion of one iteration in the ASAP periodic schedule: the last
        # finish among the v2 actors (v2 models the budget-limited execution).
        schedule_latency = 0.0
        trace = simulate(srdf, iterations=1)
        self_timed_latency = 0.0
        for task in graph.tasks:
            actor = finish_actor_name(task.name)
            duration = srdf.firing_duration(actor)
            schedule_latency = max(schedule_latency, potentials[actor] + duration)
            self_timed_latency = max(
                self_timed_latency, trace.start_time(actor, 1) + duration
            )
        reports[graph.name] = LatencyReport(
            graph_name=graph.name,
            required_period=graph.period,
            schedule_latency=schedule_latency,
            self_timed_latency=self_timed_latency,
        )
    return reports


def latency_lower_bound(mapped: MappedConfiguration, graph_name: str) -> float:
    """A simple lower bound: the longest chain of v2 firing durations.

    Any schedule (periodic or self-timed) must execute the tasks of the
    longest dependency chain in sequence, each taking at least its
    budget-limited firing duration.
    """
    configuration = mapped.configuration
    graph = configuration.task_graph(graph_name)
    durations = {}
    for task in graph.tasks:
        processor = configuration.platform.processor(task.processor)
        durations[task.name] = (
            processor.replenishment_interval * task.wcet / mapped.budget(task.name)
        )

    # Longest path over the acyclic part of the task graph (buffers with
    # initial tokens do not impose a first-iteration ordering).
    edges = [
        (buffer.source, buffer.target)
        for buffer in graph.buffers
        if buffer.initial_tokens == 0 and buffer.source != buffer.target
    ]
    order = topological_order(graph.task_names, edges)
    if order is None:
        raise AnalysisError(
            f"graph {graph_name!r} has a token-free cycle; it deadlocks"
        )
    # Longest-path dynamic programme: relax edges in topological order.
    rank = {name: position for position, name in enumerate(order)}
    start = dict.fromkeys(order, 0.0)
    for source, target in sorted(edges, key=lambda edge: rank[edge[0]]):
        start[target] = max(start[target], start[source] + durations[source])
    return max((start[name] + durations[name] for name in order), default=0.0)
