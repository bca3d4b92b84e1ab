"""FIFO buffer model.

Tasks communicate over fixed-capacity FIFO buffers.  A buffer ``b`` from task
``w_a`` to task ``w_b`` is placed in memory ``ν(b)``, has containers of size
``ζ(b)`` and starts with ``ι(b)`` initially filled containers.  Its capacity
``γ(b)`` — the total number of containers — is an *output* of the joint
budget/buffer computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.exceptions import ModelError


def _normalize_rates(
    buffer_name: str, which: str, rates: Optional[Sequence[int]]
) -> Optional[Tuple[int, ...]]:
    if rates is None:
        return None
    normalized = []
    for index, rate in enumerate(rates):
        value = int(rate)
        if value != rate:
            raise ModelError(
                f"buffer {buffer_name!r}: {which} rate {rate!r} at phase "
                f"{index} must be an integer"
            )
        if value < 0:
            raise ModelError(
                f"buffer {buffer_name!r}: {which} rate at phase {index} "
                f"must be non-negative, got {rate!r}"
            )
        normalized.append(value)
    if not normalized:
        raise ModelError(
            f"buffer {buffer_name!r}: {which} rates must be non-empty when given"
        )
    if sum(normalized) == 0:
        raise ModelError(
            f"buffer {buffer_name!r}: {which} rates must not all be zero"
        )
    return tuple(normalized)


@dataclass(frozen=True)
class Buffer:
    """A FIFO buffer between two tasks of the same task graph.

    Attributes
    ----------
    name:
        Unique identifier (unique within the whole configuration).
    source, target:
        Names of the producing and consuming tasks.  Self-edges
        (``source == target``) are allowed and model cyclic state of a task.
    memory:
        Name of the memory ``ν(b)`` the buffer is placed in.
    container_size:
        Size ``ζ(b)`` of one container, in the memory's capacity unit.
    initial_tokens:
        Number ``ι(b)`` of initially *filled* containers.
    capacity_weight:
        Coefficient ``b(b)`` of this buffer's capacity in the objective
        function of the joint optimisation.
    min_capacity, max_capacity:
        Optional bounds on the computed capacity ``γ(b)`` in containers.  The
        capacity always has to be at least ``max(initial_tokens, 1)``.
    production_rates, consumption_rates:
        Optional cyclo-static token rates: containers produced per source
        phase / consumed per target phase.  The length must match the
        adjacent task's phase count (validated at the graph level).  ``None``
        means one container per firing — the paper's single-rate model.
    """

    name: str
    source: str
    target: str
    memory: str
    container_size: float = 1.0
    initial_tokens: int = 0
    capacity_weight: float = 1.0
    min_capacity: Optional[int] = None
    max_capacity: Optional[int] = None
    production_rates: Optional[Tuple[int, ...]] = None
    consumption_rates: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("buffer name must be non-empty")
        object.__setattr__(
            self,
            "production_rates",
            _normalize_rates(self.name, "production", self.production_rates),
        )
        object.__setattr__(
            self,
            "consumption_rates",
            _normalize_rates(self.name, "consumption", self.consumption_rates),
        )
        if not self.source or not self.target:
            raise ModelError(
                f"buffer {self.name!r} must connect two tasks (source and target)"
            )
        if not self.memory:
            raise ModelError(f"buffer {self.name!r} must be placed in a memory")
        if not (math.isfinite(self.container_size) and self.container_size > 0.0):
            raise ModelError(
                f"buffer {self.name!r} needs a positive finite container size, "
                f"got {self.container_size!r}"
            )
        if self.initial_tokens < 0:
            raise ModelError(
                f"buffer {self.name!r} has a negative number of initial tokens"
            )
        if not (math.isfinite(self.capacity_weight) and self.capacity_weight >= 0.0):
            raise ModelError(
                f"buffer {self.name!r} needs a finite non-negative capacity "
                f"weight, got {self.capacity_weight!r}"
            )
        if self.min_capacity is not None and self.min_capacity < 1:
            raise ModelError(f"buffer {self.name!r}: min_capacity must be at least 1")
        if self.max_capacity is not None and self.max_capacity < 1:
            raise ModelError(f"buffer {self.name!r}: max_capacity must be at least 1")
        if (
            self.min_capacity is not None
            and self.max_capacity is not None
            and self.min_capacity > self.max_capacity
        ):
            raise ModelError(
                f"buffer {self.name!r}: min_capacity {self.min_capacity} exceeds "
                f"max_capacity {self.max_capacity}"
            )
        if self.max_capacity is not None and self.max_capacity < self.initial_tokens:
            raise ModelError(
                f"buffer {self.name!r}: max_capacity {self.max_capacity} is smaller "
                f"than the number of initially filled containers {self.initial_tokens}"
            )

    @property
    def total_production(self) -> int:
        """Containers produced per full source phase cycle (1 if single-rate)."""
        return sum(self.production_rates) if self.production_rates else 1

    @property
    def total_consumption(self) -> int:
        """Containers consumed per full target phase cycle (1 if single-rate)."""
        return sum(self.consumption_rates) if self.consumption_rates else 1

    @property
    def smallest_feasible_capacity(self) -> int:
        """Smallest capacity that can hold the initial tokens and one transfer."""
        lower = max(1, self.initial_tokens)
        if self.production_rates is not None:
            lower = max(lower, max(self.production_rates))
        if self.consumption_rates is not None:
            lower = max(lower, max(self.consumption_rates))
        if self.min_capacity is not None:
            lower = max(lower, self.min_capacity)
        return lower

    def storage_for(self, capacity: int) -> float:
        """Memory footprint of this buffer for a given capacity in containers."""
        if capacity < 1:
            raise ModelError(
                f"buffer {self.name!r}: capacity must be at least one container"
            )
        return capacity * self.container_size

    def with_bounds(
        self, min_capacity: Optional[int] = None, max_capacity: Optional[int] = None
    ) -> "Buffer":
        """Return a copy with different capacity bounds (used by sweeps)."""
        return Buffer(
            name=self.name,
            source=self.source,
            target=self.target,
            memory=self.memory,
            container_size=self.container_size,
            initial_tokens=self.initial_tokens,
            capacity_weight=self.capacity_weight,
            min_capacity=min_capacity,
            max_capacity=max_capacity,
            production_rates=self.production_rates,
            consumption_rates=self.consumption_rates,
        )
