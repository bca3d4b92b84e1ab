"""Task graph model.

A task graph ``T = (W, B, π, χ, ν, ζ, ι)`` is a directed multigraph whose
vertices are tasks and whose edges are FIFO buffers, together with a
throughput requirement expressed as a period ``µ(T)``: in steady state, every
task must complete one execution every ``µ(T)`` time units.
"""

from __future__ import annotations

from math import isfinite
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro._graphs import repetition_vector, undirected_components
from repro._units import MAX_DURATION
from repro.exceptions import GraphStructureError, ModelError
from repro.taskgraph.buffer import Buffer
from repro.taskgraph.task import Task


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
        self._repetitions: Optional[Dict[str, int]] = None
        self._cyclo_static: Optional[bool] = None
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
        self._cyclo_static = None
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
        self._cyclo_static = None
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
    def is_cyclo_static(self) -> bool:
        """Whether any task has multiple phases or any buffer non-unit rates.

        Single-phase, one-token-per-firing graphs — including ones built
        through the CSDF fields with trivial values — take the legacy
        single-rate lowering path unchanged.  Cached until the next task or
        buffer is added (tasks and buffers are immutable).
        """
        if self._cyclo_static is None:
            self._cyclo_static = any(
                task.phase_count > 1 for task in self._tasks.values()
            ) or any(buffer.is_multi_rate for buffer in self._buffers.values())
        return self._cyclo_static

    def repetitions(self) -> Dict[str, int]:
        """The repetition vector ``q``: phase-cycle iterations per task per graph
        iteration.

        Solved from the balance equations
        ``q(src) * Σ production = q(dst) * Σ consumption`` per buffer, with
        exact :class:`~fractions.Fraction` arithmetic, normalised to the
        smallest positive integers per weakly-connected component.  For a
        single-rate graph every entry is 1.  Raises :class:`ModelError` when
        the rates are inconsistent (the graph has no periodic schedule).

        The throughput period ``µ(T)`` is interpreted *per graph iteration*:
        task ``w`` completes ``q(w)`` full phase cycles (``q(w) * P(w)``
        firings) every ``µ`` time units.  For single-rate graphs this is
        exactly the paper's "one execution per period".
        """
        if self._repetitions is not None:
            return dict(self._repetitions)
        buffers = self._buffers.values()
        repetitions = repetition_vector(
            self._tasks,
            ((b.source, b.target, b.total_production, b.total_consumption) for b in buffers),
        )
        for buffer in buffers:
            produced = repetitions[buffer.source] * buffer.total_production
            if produced != repetitions[buffer.target] * buffer.total_consumption:
                raise ModelError(
                    f"task graph {self.name!r}: inconsistent cyclo-static rates "
                    f"on buffer {buffer.name!r} ({buffer.source!r} -> "
                    f"{buffer.target!r}); no repetition vector exists"
                )
        self._repetitions = repetitions
        return dict(repetitions)

    def period_cycles(self, task_name: str, processor: object) -> float:
        """Effective execution time a task needs per throughput period.

        One full set of firings per period: ``q(w)`` phase cycles for a
        cyclo-static graph, a single ``wcet`` otherwise — resolved against
        the processor's type/speed.  For a plain task on a unit-speed
        processor this returns exactly ``task.wcet``.
        """
        from repro.taskgraph.task import effective_iteration_cycles

        task = self.task(task_name)
        reps = self.repetitions()[task_name] if self.is_cyclo_static else 1
        return effective_iteration_cycles(task, processor, reps)

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
