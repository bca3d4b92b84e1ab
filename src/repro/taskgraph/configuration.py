"""Configuration and mapped configuration.

A :class:`Configuration` is the *input* of the joint budget/buffer
computation: a set of task graphs with throughput requirements, a platform on
which they are bound, and the budget allocation granularity ``g``.  A
:class:`MappedConfiguration` is the *output*: the same configuration augmented
with an integral budget ``β(w)`` per task and an integral capacity ``γ(b)``
per buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.exceptions import ModelError
from repro.taskgraph.buffer import Buffer
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.platform import Platform
from repro.taskgraph.task import Task


class Configuration:
    """The input of the mapping step (the tuple ``C`` of the paper).

    Task and buffer names must be unique across *all* task graphs of the
    configuration so that budgets and capacities can be reported in flat
    dictionaries.
    """

    def __init__(
        self,
        platform: Platform,
        task_graphs: Iterable[TaskGraph] = (),
        granularity: float = 1.0,
        name: str = "configuration",
    ) -> None:
        if not (math.isfinite(granularity) and granularity > 0.0):
            raise ModelError(
                "budget allocation granularity must be positive and finite, "
                f"got {granularity!r}"
            )
        self.name = name
        self.platform = platform
        self.granularity = float(granularity)
        self._graphs: Dict[str, TaskGraph] = {}
        for graph in task_graphs:
            self.add_task_graph(graph)

    # -- construction -----------------------------------------------------------
    def add_task_graph(self, graph: TaskGraph) -> TaskGraph:
        if graph.name in self._graphs:
            raise ModelError(f"duplicate task graph name {graph.name!r}")
        existing_tasks = {t.name for g in self._graphs.values() for t in g.tasks}
        existing_buffers = {b.name for g in self._graphs.values() for b in g.buffers}
        for task in graph.tasks:
            if task.name in existing_tasks:
                raise ModelError(
                    f"task name {task.name!r} appears in more than one task graph"
                )
        for buffer in graph.buffers:
            if buffer.name in existing_buffers:
                raise ModelError(
                    f"buffer name {buffer.name!r} appears in more than one task graph"
                )
        self._graphs[graph.name] = graph
        return graph

    # -- lookup --------------------------------------------------------------------
    @property
    def task_graphs(self) -> Tuple[TaskGraph, ...]:
        return tuple(self._graphs.values())

    def task_graph(self, name: str) -> TaskGraph:
        try:
            return self._graphs[name]
        except KeyError:
            raise ModelError(f"unknown task graph {name!r}") from None

    def all_tasks(self) -> List[Tuple[TaskGraph, Task]]:
        """All ``(graph, task)`` pairs of the configuration (the set ``W_Q``)."""
        return [(graph, task) for graph in self._graphs.values() for task in graph.tasks]

    def all_buffers(self) -> List[Tuple[TaskGraph, Buffer]]:
        """All ``(graph, buffer)`` pairs of the configuration (the set ``B_Q``)."""
        return [
            (graph, buffer) for graph in self._graphs.values() for buffer in graph.buffers
        ]

    def find_task(self, name: str) -> Tuple[TaskGraph, Task]:
        for graph in self._graphs.values():
            if graph.has_task(name):
                return graph, graph.task(name)
        raise ModelError(f"no task named {name!r} in configuration {self.name!r}")

    def find_buffer(self, name: str) -> Tuple[TaskGraph, Buffer]:
        for graph in self._graphs.values():
            if graph.has_buffer(name):
                return graph, graph.buffer(name)
        raise ModelError(f"no buffer named {name!r} in configuration {self.name!r}")

    def tasks_on_processor(self, processor_name: str) -> List[Task]:
        """The set ``τ(p)`` of tasks bound to a processor."""
        self.platform.processor(processor_name)
        return [task for _, task in self.all_tasks() if task.processor == processor_name]

    def buffers_in_memory(self, memory_name: str) -> List[Buffer]:
        """The buffers placed in a memory (the set ``ψ(m)`` of the paper)."""
        self.platform.memory(memory_name)
        return [buffer for _, buffer in self.all_buffers() if buffer.memory == memory_name]

    def __iter__(self) -> Iterator[TaskGraph]:
        return iter(self._graphs.values())

    def __len__(self) -> int:
        return len(self._graphs)

    # -- validation -----------------------------------------------------------------
    def validate(self) -> None:
        """Check structural consistency; raise a :class:`ModelError` subclass on failure."""
        from repro.taskgraph.validate import validate_configuration

        validate_configuration(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Configuration({self.name!r}, graphs={len(self._graphs)}, "
            f"processors={len(self.platform)}, granularity={self.granularity})"
        )


@dataclass
class MappedConfiguration:
    """The output of the mapping step: budgets and buffer capacities.

    Attributes
    ----------
    configuration:
        The input configuration this mapping belongs to.
    budgets:
        Integral budget ``β(w)`` per task name, expressed in the platform's
        time unit and guaranteed to be a multiple of the configuration's
        granularity.
    buffer_capacities:
        Integral capacity ``γ(b)`` per buffer name, in containers.
    relaxed_budgets, relaxed_capacities:
        The real-valued optimiser outputs ``β'(w)`` and ``ι(b) + δ'(e)``
        before conservative rounding; useful for analysis and reporting.
    objective_value:
        Value of the weighted objective at the relaxed optimum.
    solver_info:
        Free-form diagnostics from the solver (backend, iterations, time).
    """

    configuration: Configuration
    budgets: Dict[str, float]
    buffer_capacities: Dict[str, int]
    relaxed_budgets: Dict[str, float] = field(default_factory=dict)
    relaxed_capacities: Dict[str, float] = field(default_factory=dict)
    objective_value: Optional[float] = None
    solver_info: Dict[str, object] = field(default_factory=dict)

    def budget(self, task_name: str) -> float:
        try:
            return self.budgets[task_name]
        except KeyError:
            raise ModelError(f"no budget recorded for task {task_name!r}") from None

    def capacity(self, buffer_name: str) -> int:
        try:
            return self.buffer_capacities[buffer_name]
        except KeyError:
            raise ModelError(
                f"no capacity recorded for buffer {buffer_name!r}"
            ) from None

    def flattened(self, attribute: str) -> Dict[str, float]:
        """A copy of one per-name mapping (``"budgets"``, ``"relaxed_capacities"``,
        …): the flat view :meth:`MappedWorkload.flattened
        <repro.taskgraph.workload.MappedWorkload.flattened>` gives a workload."""
        return dict(getattr(self, attribute))

    def total_budget(self, processor_name: Optional[str] = None) -> float:
        """Sum of budgets, optionally restricted to one processor."""
        if processor_name is None:
            return sum(self.budgets.values())
        tasks = self.configuration.tasks_on_processor(processor_name)
        return sum(self.budgets[task.name] for task in tasks)

    def total_storage(self, memory_name: Optional[str] = None) -> float:
        """Total memory footprint of the buffers, optionally for one memory."""
        total = 0.0
        for _, buffer in self.configuration.all_buffers():
            if memory_name is not None and buffer.memory != memory_name:
                continue
            total += buffer.storage_for(self.buffer_capacities[buffer.name])
        return total

    def processor_utilisation(self, processor_name: str) -> float:
        """Fraction of a processor's replenishment interval allocated to budgets."""
        processor = self.configuration.platform.processor(processor_name)
        return self.total_budget(processor_name) / processor.replenishment_interval

    def as_dict(self) -> Dict[str, object]:
        """Plain-dictionary summary used by reports and serialisation."""
        return {
            "budgets": dict(self.budgets),
            "buffer_capacities": dict(self.buffer_capacities),
            "relaxed_budgets": dict(self.relaxed_budgets),
            "relaxed_capacities": dict(self.relaxed_capacities),
            "objective_value": self.objective_value,
            "solver_info": dict(self.solver_info),
        }
