"""Task graph model.

A task graph ``T = (W, B, π, χ, ν, ζ, ι)`` is a directed multigraph whose
vertices are tasks and whose edges are FIFO buffers, together with a
throughput requirement expressed as a period ``µ(T)``: in steady state, every
task must complete one execution every ``µ(T)`` time units.
"""

from __future__ import annotations

from math import isfinite
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro._graphs import repetition_vector, undirected_components
from repro._units import MAX_DURATION
from repro.exceptions import GraphStructureError, ModelError
from repro.taskgraph.buffer import Buffer
from repro.taskgraph.task import Task, effective_iteration_cycles


class TaskGraph:
    """A throughput-constrained task graph.

    Parameters
    ----------
    name:
        Unique identifier of the task graph (the paper calls these *jobs*).
    period:
        The throughput requirement ``µ(T)`` as the maximum allowed steady-state
        period between successive executions of each task.
    tasks, buffers:
        Optional initial content; tasks referenced by buffers must be added
        first (or in the same call).
    """

    def __init__(
        self,
        name: str,
        period: float,
        tasks: Iterable[Task] = (),
        buffers: Iterable[Buffer] = (),
    ) -> None:
        if not name:
            raise ModelError("task graph name must be non-empty")
        if not (isfinite(period) and period > 0.0):
            raise ModelError(
                f"task graph {name!r} needs a positive finite throughput period, "
                f"got {period!r}"
            )
        if period > MAX_DURATION:
            raise ModelError(
                f"task graph {name!r}: throughput period {period!r} exceeds the "
                f"largest supported duration {MAX_DURATION:g}"
            )
        self.name = name
        self.period = float(period)
        self._tasks: Dict[str, Task] = {}
        self._buffers: Dict[str, Buffer] = {}
        self._repetitions: Optional[Mapping[str, int]] = None
        for task in tasks:
            self.add_task(task)
        for buffer in buffers:
            self.add_buffer(buffer)

    # -- construction ---------------------------------------------------------
    def add_task(self, task: Task) -> Task:
        if task.name in self._tasks:
            raise ModelError(
                f"task graph {self.name!r} already contains a task named {task.name!r}"
            )
        self._tasks[task.name] = task
        self._repetitions = None
        return task

    def add_buffer(self, buffer: Buffer) -> Buffer:
        if buffer.name in self._buffers:
            raise ModelError(
                f"task graph {self.name!r} already contains a buffer named {buffer.name!r}"
            )
        for endpoint in (buffer.source, buffer.target):
            if endpoint not in self._tasks:
                raise GraphStructureError(
                    f"buffer {buffer.name!r} references task {endpoint!r} which is "
                    f"not part of task graph {self.name!r}"
                )
        self._buffers[buffer.name] = buffer
        self._repetitions = None
        return buffer

    # -- lookup ---------------------------------------------------------------
    def task(self, name: str) -> Task:
        try:
            return self._tasks[name]
        except KeyError:
            raise GraphStructureError(
                f"task graph {self.name!r} has no task named {name!r}"
            ) from None

    def buffer(self, name: str) -> Buffer:
        try:
            return self._buffers[name]
        except KeyError:
            raise GraphStructureError(
                f"task graph {self.name!r} has no buffer named {name!r}"
            ) from None

    def has_task(self, name: str) -> bool:
        return name in self._tasks

    def has_buffer(self, name: str) -> bool:
        return name in self._buffers

    @property
    def tasks(self) -> Tuple[Task, ...]:
        return tuple(self._tasks.values())

    @property
    def buffers(self) -> Tuple[Buffer, ...]:
        return tuple(self._buffers.values())

    @property
    def task_names(self) -> Tuple[str, ...]:
        return tuple(self._tasks.keys())

    @property
    def buffer_names(self) -> Tuple[str, ...]:
        return tuple(self._buffers.keys())

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks.values())

    # -- topology ----------------------------------------------------------------
    def output_buffers(self, task_name: str) -> List[Buffer]:
        """Buffers produced into by ``task_name``."""
        self.task(task_name)
        return [b for b in self._buffers.values() if b.source == task_name]

    def input_buffers(self, task_name: str) -> List[Buffer]:
        """Buffers consumed from by ``task_name``."""
        self.task(task_name)
        return [b for b in self._buffers.values() if b.target == task_name]

    def successors(self, task_name: str) -> List[str]:
        """Names of tasks that consume data produced by ``task_name``."""
        return sorted({b.target for b in self.output_buffers(task_name)})

    def predecessors(self, task_name: str) -> List[str]:
        """Names of tasks whose data ``task_name`` consumes."""
        return sorted({b.source for b in self.input_buffers(task_name)})

    def _components(self) -> List[List[str]]:
        """Weakly connected components, in task insertion order."""
        edges = ((buffer.source, buffer.target) for buffer in self._buffers.values())
        return list(undirected_components(self._tasks, edges))

    def is_connected(self) -> bool:
        """True when the task graph is weakly connected (or has a single task)."""
        return len(self._components()) <= 1

    def undirected_cycles_exist(self) -> bool:
        """True when the graph (ignoring direction) contains a cycle.

        Self-loops and parallel buffers count as cycles.  A multigraph is a
        forest exactly when it has ``|V| − components`` edges.
        """
        return len(self._buffers) > len(self._tasks) - len(self._components())

    # -- cyclo-static structure ---------------------------------------------------
    @property
    def repetition_vector(self) -> Mapping[str, int]:
        """The repetition vector ``q`` as a read-only view, without the copy
        :meth:`repetitions` makes.

        Solved once and cached until the next task or buffer is added (tasks
        and buffers are immutable).
        """
        if self._repetitions is None:
            tasks = self._tasks
            channels = []
            for buffer in self._buffers.values():
                source, target = tasks[buffer.source], tasks[buffer.target]
                _check_rate_length(buffer.name, "production", buffer.production_rates, source)
                _check_rate_length(buffer.name, "consumption", buffer.consumption_rates, target)
                channels.append(
                    (source.name, target.name, buffer.total_production, buffer.total_consumption)
                )
            repetitions = repetition_vector(tasks, channels)
            for buffer, (source, target, produced, consumed) in zip(
                self._buffers.values(), channels
            ):
                if repetitions[source] * produced != repetitions[target] * consumed:
                    raise ModelError(
                        f"task graph {self.name!r}: inconsistent cyclo-static rates "
                        f"on buffer {buffer.name!r} ({source!r} -> {target!r}); "
                        f"no repetition vector exists"
                    )
            self._repetitions = MappingProxyType(repetitions)
        return self._repetitions

    def repetitions(self) -> Dict[str, int]:
        """The repetition vector ``q``: phase-cycle iterations per task per graph
        iteration.

        Solved from the balance equations
        ``q(src) * Σ production = q(dst) * Σ consumption`` per buffer, with
        exact integer arithmetic, normalised to the smallest positive
        integers per weakly-connected component.  For a single-rate graph
        every entry is 1.  Raises :class:`ModelError` when
        a rate profile's length differs from its task's phase count, or when
        the rates are inconsistent (the graph has no periodic schedule).

        The throughput period ``µ(T)`` is interpreted *per graph iteration*:
        task ``w`` completes ``q(w)`` full phase cycles (``q(w) * P(w)``
        firings) every ``µ`` time units.  For single-rate graphs this is
        exactly the paper's "one execution per period".
        """
        return dict(self.repetition_vector)

    def period_cycles(self, task_name: str, processor: object) -> float:
        """Effective execution time a task needs per throughput period.

        One full set of firings per period: ``q(w)`` phase cycles, resolved
        against the processor's type/speed.  For a plain task on a unit-speed
        processor this returns exactly ``task.wcet``.
        """
        return effective_iteration_cycles(
            self.task(task_name), processor, self.repetition_vector[task_name]
        )

    def processors_used(self) -> Tuple[str, ...]:
        """Sorted names of the processors this graph's tasks are bound to."""
        return tuple(sorted({task.processor for task in self._tasks.values()}))

    def memories_used(self) -> Tuple[str, ...]:
        """Sorted names of the memories this graph's buffers are placed in."""
        return tuple(sorted({buffer.memory for buffer in self._buffers.values()}))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaskGraph({self.name!r}, period={self.period}, "
            f"tasks={len(self._tasks)}, buffers={len(self._buffers)})"
        )


def _check_rate_length(
    buffer_name: str, which: str, rates: Optional[Tuple[int, ...]], task: Task
) -> None:
    """Reject a rate profile whose length differs from the task's phase count."""
    if rates is not None and len(rates) != task.phase_count:
        raise ModelError(
            f"buffer {buffer_name!r}: {which} rates have {len(rates)} entries "
            f"but task {task.name!r} has {task.phase_count} phase(s)"
        )
