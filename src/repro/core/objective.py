"""Objective weighting helpers.

The objective of Algorithm 1 is a weighted sum of budgets and buffer
capacities: ``Σ a(w)·β'(w) + Σ b(e)·ζ(e)·δ'(e)``.  The weights express which
resource is scarcer on the platform at hand.  Tasks and buffers carry default
weights (``budget_weight`` and ``capacity_weight``); an
:class:`ObjectiveWeights` object can scale or override them per solve without
rebuilding the configuration — this is how the trade-off sweeps of the paper's
experiments "prefer minimisation of the budgets over minimisation of the
buffer sizes".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.taskgraph.buffer import Buffer
from repro.taskgraph.task import Task


@dataclass
class ObjectiveWeights:
    """Scaling and overrides applied to the per-task / per-buffer weights.

    The effective objective coefficient of a task is
    ``budget_scale · override.get(task, task.budget_weight)`` and analogously
    for buffers (times the container size ``ζ``).
    """

    budget_scale: float = 1.0
    capacity_scale: float = 1.0
    budget_overrides: Dict[str, float] = field(default_factory=dict)
    capacity_overrides: Dict[str, float] = field(default_factory=dict)

    def budget_coefficient(self, task: Task) -> float:
        base = self.budget_overrides.get(task.name, task.budget_weight)
        return self.budget_scale * base

    def capacity_coefficient(self, buffer: Buffer) -> float:
        base = self.capacity_overrides.get(buffer.name, buffer.capacity_weight)
        return self.capacity_scale * base * buffer.container_size

    # -- common presets -----------------------------------------------------
    @classmethod
    def balanced(cls) -> "ObjectiveWeights":
        """Equal emphasis on budgets and buffer capacities."""
        return cls()

    @classmethod
    def prefer_budgets(cls, ratio: float = 1e3) -> "ObjectiveWeights":
        """Budgets are ``ratio`` times more expensive than buffer capacities.

        This is the setting of the paper's experiments: processor cycles are
        the scarce resource, so budgets are minimised first and buffer
        capacities act as a tie-breaker.
        """
        if ratio <= 0.0:
            raise ValueError("ratio must be positive")
        return cls(budget_scale=1.0, capacity_scale=1.0 / ratio)

    @classmethod
    def prefer_buffers(cls, ratio: float = 1e3) -> "ObjectiveWeights":
        """Buffer capacities are ``ratio`` times more expensive than budgets."""
        if ratio <= 0.0:
            raise ValueError("ratio must be positive")
        return cls(budget_scale=1.0 / ratio, capacity_scale=1.0)

    @classmethod
    def budgets_only(cls) -> "ObjectiveWeights":
        """Ignore buffer capacities in the objective entirely."""
        return cls(budget_scale=1.0, capacity_scale=0.0)

    @classmethod
    def buffers_only(cls) -> "ObjectiveWeights":
        """Ignore budgets in the objective entirely."""
        return cls(budget_scale=0.0, capacity_scale=1.0)


#: Objective presets usable in campaigns and on the command line.
WEIGHT_PRESETS = {
    "balanced": ObjectiveWeights.balanced,
    "prefer-budgets": ObjectiveWeights.prefer_budgets,
    "prefer-buffers": ObjectiveWeights.prefer_buffers,
}


def resolve_weights(name: str) -> ObjectiveWeights:
    """The :class:`ObjectiveWeights` of the preset called ``name``."""
    try:
        preset = WEIGHT_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown objective preset {name!r}; expected one of {sorted(WEIGHT_PRESETS)}"
        ) from None
    return preset()
