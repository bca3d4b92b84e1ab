"""Multiprocessor platform model: processors, memories and the platform itself.

This mirrors Section II-A of the paper.  A processor ``p`` runs a budget
scheduler (e.g. TDM) with a replenishment interval ``̺(p)`` and a worst-case
scheduling overhead ``o(p)`` per replenishment interval; a memory ``m`` has a
maximum storage capacity ``ς(m)`` that bounds the total size of the FIFO
buffers placed in it.

Beyond the paper, processors carry a *type/speed* model: ``proc_type`` names
the processor family (tasks may declare per-type base cycle counts),
``speed`` scales cycle costs down (a speed-2 processor executes the same
cycles in half the time), and ``dvfs_levels`` optionally enumerates the
discrete speeds the processor can be set to — swept as discrete dimensions
by the trade-off layer.  The defaults (``"generic"``, ``1.0``, ``None``)
reproduce the paper's uniform platform exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro._units import MAX_DURATION
from repro.exceptions import BindingError, ModelError


@dataclass(frozen=True)
class Processor:
    """A processor running a budget scheduler.

    Attributes
    ----------
    name:
        Unique identifier within the platform.
    replenishment_interval:
        The interval ``̺(p)`` over which every task's budget is guaranteed.
        Expressed in the same time unit as all other durations.
    scheduling_overhead:
        Worst-case scheduler overhead ``o(p)`` per replenishment interval;
        pre-allocated budget that is not available to tasks (Constraint (9)).
    proc_type:
        Processor family name; tasks with a ``cycles_by_type`` table resolve
        their base cycle count against it.  ``"generic"`` is the uniform
        default.
    speed:
        Relative clock-speed factor: effective execution time of a firing is
        ``base_cycles / speed``.  ``1.0`` is the paper's uniform platform.
    dvfs_levels:
        Optional tuple of discrete speeds this processor can run at (must
        include ``speed``); ``None`` means the speed is fixed.
    """

    name: str
    replenishment_interval: float
    scheduling_overhead: float = 0.0
    proc_type: str = "generic"
    speed: float = 1.0
    dvfs_levels: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("processor name must be non-empty")
        if not (
            math.isfinite(self.replenishment_interval)
            and self.replenishment_interval > 0.0
        ):
            raise ModelError(
                f"processor {self.name!r} needs a positive finite replenishment "
                f"interval, got {self.replenishment_interval!r}"
            )
        if self.replenishment_interval > MAX_DURATION:
            raise ModelError(
                f"processor {self.name!r}: replenishment interval "
                f"{self.replenishment_interval!r} exceeds the largest supported "
                f"duration {MAX_DURATION:g}"
            )
        if not (
            math.isfinite(self.scheduling_overhead) and self.scheduling_overhead >= 0.0
        ):
            raise ModelError(
                f"processor {self.name!r} needs a finite non-negative scheduling "
                f"overhead, got {self.scheduling_overhead!r}"
            )
        if self.scheduling_overhead >= self.replenishment_interval:
            raise ModelError(
                f"processor {self.name!r}: scheduling overhead "
                f"{self.scheduling_overhead} leaves no budget within the "
                f"replenishment interval {self.replenishment_interval}"
            )
        if not self.proc_type:
            raise ModelError(f"processor {self.name!r} needs a non-empty proc_type")
        if not (math.isfinite(self.speed) and self.speed > 0.0):
            raise ModelError(
                f"processor {self.name!r} needs a positive finite speed, "
                f"got {self.speed!r}"
            )
        if self.dvfs_levels is not None:
            levels = tuple(float(level) for level in self.dvfs_levels)
            if not levels:
                raise ModelError(
                    f"processor {self.name!r}: dvfs_levels must be non-empty "
                    f"when given"
                )
            for level in levels:
                if not (math.isfinite(level) and level > 0.0):
                    raise ModelError(
                        f"processor {self.name!r}: DVFS level {level!r} must "
                        f"be positive and finite"
                    )
            if len(set(levels)) != len(levels):
                raise ModelError(
                    f"processor {self.name!r} has duplicate DVFS levels"
                )
            if self.speed not in levels:
                raise ModelError(
                    f"processor {self.name!r}: current speed {self.speed} is "
                    f"not one of its DVFS levels {sorted(levels)}"
                )
            object.__setattr__(self, "dvfs_levels", levels)

    @property
    def allocatable_capacity(self) -> float:
        """Budget available to tasks per replenishment interval."""
        return self.replenishment_interval - self.scheduling_overhead

    def at_speed(self, speed: float) -> "Processor":
        """This processor set to a different DVFS level.

        Requires ``dvfs_levels`` to be declared and to contain ``speed``;
        a fixed-speed processor cannot be re-clocked.
        """
        if self.dvfs_levels is None:
            raise ModelError(
                f"processor {self.name!r} has no DVFS levels; cannot set "
                f"speed {speed!r}"
            )
        if speed not in self.dvfs_levels:
            raise ModelError(
                f"processor {self.name!r}: speed {speed!r} is not one of its "
                f"DVFS levels {sorted(self.dvfs_levels)}"
            )
        return replace(self, speed=speed)


@dataclass(frozen=True)
class Memory:
    """A memory in which FIFO buffers are placed.

    ``capacity`` is the maximum total storage ``ς(m)``, in the same unit as
    the buffers' container sizes (e.g. bytes or words); ``None`` means the
    memory is unconstrained.
    """

    name: str
    capacity: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("memory name must be non-empty")
        if self.capacity is not None and not (
            math.isfinite(self.capacity) and self.capacity > 0.0
        ):
            raise ModelError(
                f"memory {self.name!r} needs a positive finite capacity or None, "
                f"got {self.capacity!r}"
            )

    @property
    def is_bounded(self) -> bool:
        return self.capacity is not None


class Platform:
    """A set of processors and memories.

    The platform corresponds to the ``(P, M, ̺, o, ς)`` part of the paper's
    configuration tuple.
    """

    def __init__(
        self,
        processors: Iterable[Processor] = (),
        memories: Iterable[Memory] = (),
        name: str = "platform",
    ) -> None:
        self.name = name
        self._processors: Dict[str, Processor] = {}
        self._memories: Dict[str, Memory] = {}
        for processor in processors:
            self.add_processor(processor)
        for memory in memories:
            self.add_memory(memory)

    # -- construction -------------------------------------------------------
    def add_processor(self, processor: Processor) -> Processor:
        if processor.name in self._processors:
            raise ModelError(f"duplicate processor name {processor.name!r}")
        self._processors[processor.name] = processor
        return processor

    def add_memory(self, memory: Memory) -> Memory:
        if memory.name in self._memories:
            raise ModelError(f"duplicate memory name {memory.name!r}")
        self._memories[memory.name] = memory
        return memory

    # -- lookup --------------------------------------------------------------
    def processor(self, name: str) -> Processor:
        try:
            return self._processors[name]
        except KeyError:
            raise BindingError(f"unknown processor {name!r}") from None

    def memory(self, name: str) -> Memory:
        try:
            return self._memories[name]
        except KeyError:
            raise BindingError(f"unknown memory {name!r}") from None

    def has_processor(self, name: str) -> bool:
        return name in self._processors

    def has_memory(self, name: str) -> bool:
        return name in self._memories

    @property
    def processors(self) -> Dict[str, Processor]:
        return dict(self._processors)

    @property
    def memories(self) -> Dict[str, Memory]:
        return dict(self._memories)

    @property
    def is_uniform_speed(self) -> bool:
        """Whether every processor runs at unit speed (the paper's platform)."""
        return all(p.speed == 1.0 for p in self._processors.values())

    def with_speeds(self, speeds: Mapping[str, float]) -> "Platform":
        """A copy of this platform with some processors re-clocked.

        ``speeds`` maps processor names to target DVFS levels; unnamed
        processors are kept as-is.  Used by the trade-off layer's discrete
        DVFS sweeps, which rebuild the configuration per sweep point.
        """
        for name in speeds:
            self.processor(name)  # raise BindingError on unknown names
        processors = [
            p.at_speed(speeds[p.name]) if p.name in speeds else p
            for p in self._processors.values()
        ]
        return Platform(
            processors=processors,
            memories=self._memories.values(),
            name=self.name,
        )

    def __iter__(self) -> Iterator[Processor]:
        return iter(self._processors.values())

    def __len__(self) -> int:
        return len(self._processors)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Platform({self.name!r}, processors={sorted(self._processors)}, "
            f"memories={sorted(self._memories)})"
        )


def homogeneous_platform(
    processor_count: int,
    replenishment_interval: float,
    scheduling_overhead: float = 0.0,
    memory_capacity: Optional[float] = None,
    memory_count: int = 1,
    name: str = "platform",
) -> Platform:
    """Create a platform with identical processors and memories.

    Convenience used by the experiments: the paper's platforms consist of
    identical TDM-scheduled processors with a 40 Mcycle replenishment
    interval.
    """
    if processor_count <= 0:
        raise ModelError("processor_count must be positive")
    if memory_count <= 0:
        raise ModelError("memory_count must be positive")
    processors = [
        Processor(
            name=f"p{i + 1}",
            replenishment_interval=replenishment_interval,
            scheduling_overhead=scheduling_overhead,
        )
        for i in range(processor_count)
    ]
    memories = [
        Memory(name=f"m{i + 1}", capacity=memory_capacity) for i in range(memory_count)
    ]
    return Platform(processors=processors, memories=memories, name=name)


def heterogeneous_platform(
    processor_types: Mapping[str, Mapping[str, object]],
    replenishment_interval: float,
    scheduling_overhead: float = 0.0,
    memory_capacity: Optional[float] = None,
    memory_count: int = 1,
    name: str = "platform",
) -> Platform:
    """Create a platform mixing several processor types.

    ``processor_types`` maps a type name to its spec, e.g.::

        heterogeneous_platform(
            {
                "risc": {"count": 2, "speed": 1.0},
                "dsp": {"count": 1, "speed": 2.0, "dvfs_levels": (1.0, 2.0)},
            },
            replenishment_interval=40.0,
        )

    Each spec accepts ``count`` (default 1), ``speed`` (default 1.0),
    ``dvfs_levels`` (default None) and per-type overrides of
    ``replenishment_interval`` / ``scheduling_overhead``.  Processors are
    named ``f"{type}{i + 1}"`` (``risc1``, ``risc2``, ``dsp1``, …); memories
    follow the ``homogeneous_platform`` convention.
    """
    if not processor_types:
        raise ModelError("processor_types must be non-empty")
    if memory_count <= 0:
        raise ModelError("memory_count must be positive")
    processors = []
    for proc_type, spec in processor_types.items():
        count = int(spec.get("count", 1))
        if count <= 0:
            raise ModelError(
                f"processor type {proc_type!r} needs a positive count, "
                f"got {spec.get('count')!r}"
            )
        speed = float(spec.get("speed", 1.0))
        dvfs_levels = spec.get("dvfs_levels")
        if dvfs_levels is not None:
            dvfs_levels = tuple(float(level) for level in dvfs_levels)
        interval = float(spec.get("replenishment_interval", replenishment_interval))
        overhead = float(spec.get("scheduling_overhead", scheduling_overhead))
        for i in range(count):
            processors.append(
                Processor(
                    name=f"{proc_type}{i + 1}",
                    replenishment_interval=interval,
                    scheduling_overhead=overhead,
                    proc_type=proc_type,
                    speed=speed,
                    dvfs_levels=dvfs_levels,
                )
            )
    memories = [
        Memory(name=f"m{i + 1}", capacity=memory_capacity) for i in range(memory_count)
    ]
    return Platform(processors=processors, memories=memories, name=name)
