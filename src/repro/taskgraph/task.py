"""Task model.

A task ``w`` is a piece of sequential code that is bound to a processor
``π(w)``, has a worst-case execution time ``χ(w)`` on that processor and is
scheduled by the processor's budget scheduler with an (initially unknown)
budget ``β(w)``.  A task starts an execution when sufficient data is present
in all of its input FIFO buffers and sufficient space is present in all of its
output FIFO buffers.

Two generalisations of the paper's model live here as optional fields:

* **Cyclo-static phases** — ``phases`` gives per-phase worst-case execution
  times; the task cycles through them (phase ``k`` of firing ``n`` is
  ``n mod len(phases)``).  A task without phases is the single-phase
  degenerate case, and ``wcet`` then is the (only) phase's cost.
* **Per-processor-type cycle costs** — ``cycles_by_type`` maps a processor
  *type* (see :class:`repro.taskgraph.platform.Processor`) to the base cycle
  count on that type.  The *effective* execution time on a concrete processor
  is the type-resolved base count divided by the processor's ``speed``; the
  module-level helpers :func:`effective_cycles` and
  :func:`effective_iteration_cycles` perform that resolution and reduce
  exactly to ``task.wcet`` for default-valued models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import ModelError


def _normalize_phases(
    name: str, phases: Optional[Sequence[float]]
) -> Optional[Tuple[float, ...]]:
    if phases is None:
        return None
    normalized = tuple(float(p) for p in phases)
    if not normalized:
        raise ModelError(f"task {name!r}: phases must be non-empty when given")
    for index, value in enumerate(normalized):
        if not (math.isfinite(value) and value > 0.0):
            raise ModelError(
                f"task {name!r}: phase {index} needs a positive finite "
                f"execution time, got {value!r}"
            )
    return normalized


def _normalize_cycles_by_type(
    name: str,
    cycles_by_type: Optional[
        Union[Mapping[str, float], Sequence[Tuple[str, float]]]
    ],
) -> Optional[Tuple[Tuple[str, float], ...]]:
    if cycles_by_type is None:
        return None
    if isinstance(cycles_by_type, Mapping):
        items = list(cycles_by_type.items())
    else:
        items = [(str(k), v) for k, v in cycles_by_type]
    if not items:
        raise ModelError(
            f"task {name!r}: cycles_by_type must be non-empty when given"
        )
    seen = set()
    normalized = []
    for proc_type, cycles in items:
        if not proc_type:
            raise ModelError(
                f"task {name!r}: cycles_by_type has an empty processor type"
            )
        if proc_type in seen:
            raise ModelError(
                f"task {name!r}: duplicate processor type {proc_type!r} "
                f"in cycles_by_type"
            )
        seen.add(proc_type)
        value = float(cycles)
        if not (math.isfinite(value) and value > 0.0):
            raise ModelError(
                f"task {name!r}: cycles_by_type[{proc_type!r}] must be "
                f"positive and finite, got {cycles!r}"
            )
        normalized.append((proc_type, value))
    return tuple(sorted(normalized))


@dataclass(frozen=True)
class Task:
    """A task of a task graph.

    Attributes
    ----------
    name:
        Unique identifier (unique within the whole configuration).
    wcet:
        Worst-case execution time ``χ(w)`` on the bound processor, in the same
        time unit as the replenishment intervals.  When ``phases`` is given,
        ``wcet`` may be omitted (pass ``0.0``): it is derived as the maximum
        per-phase cost, preserving the meaning "worst case of one firing".
    processor:
        Name of the processor ``π(w)`` the task is bound to.
    budget_weight:
        Coefficient ``a(w)`` of this task's budget in the objective function
        of the joint optimisation (larger means "this budget is more
        expensive").
    min_budget, max_budget:
        Optional bounds on the budget allocated to this task.  ``None`` leaves
        the bound to be derived from the throughput requirement and processor
        capacity.
    phases:
        Optional cyclo-static per-phase execution times.  ``None`` (or a
        single entry) is the plain single-phase task of the paper.
    cycles_by_type:
        Optional per-processor-type base cycle counts, stored as a sorted
        tuple of ``(type, cycles)`` pairs (a mapping is accepted and
        normalised).  ``None`` means ``wcet``/``phases`` apply on any type.
    """

    name: str
    wcet: float
    processor: str
    budget_weight: float = 1.0
    min_budget: Optional[float] = None
    max_budget: Optional[float] = None
    phases: Optional[Tuple[float, ...]] = None
    cycles_by_type: Optional[Tuple[Tuple[str, float], ...]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("task name must be non-empty")
        object.__setattr__(
            self, "phases", _normalize_phases(self.name, self.phases)
        )
        object.__setattr__(
            self,
            "cycles_by_type",
            _normalize_cycles_by_type(self.name, self.cycles_by_type),
        )
        if self.phases is not None and not self.wcet:
            object.__setattr__(self, "wcet", max(self.phases))
        if not (math.isfinite(self.wcet) and self.wcet > 0.0):
            raise ModelError(
                f"task {self.name!r} needs a positive finite worst-case execution "
                f"time, got {self.wcet!r}"
            )
        if not self.processor:
            raise ModelError(f"task {self.name!r} must be bound to a processor")
        if not (math.isfinite(self.budget_weight) and self.budget_weight >= 0.0):
            raise ModelError(
                f"task {self.name!r} needs a finite non-negative budget weight, "
                f"got {self.budget_weight!r}"
            )
        for bound in ("min_budget", "max_budget"):
            value = getattr(self, bound)
            if value is not None and not (math.isfinite(value) and value > 0.0):
                raise ModelError(
                    f"task {self.name!r}: {bound} must be positive and finite, "
                    f"got {value!r}"
                )
        if (
            self.min_budget is not None
            and self.max_budget is not None
            and self.min_budget > self.max_budget
        ):
            raise ModelError(
                f"task {self.name!r}: min_budget {self.min_budget} exceeds "
                f"max_budget {self.max_budget}"
            )

    # -- cyclo-static helpers ------------------------------------------------
    @property
    def phase_count(self) -> int:
        """Number of cyclo-static phases (1 for a plain task)."""
        return len(self.phases) if self.phases is not None else 1

    def phase_cycles(self, phase: int) -> float:
        """Base cycle count of one phase (``wcet`` for a plain task)."""
        if self.phases is None:
            if phase != 0:
                raise ModelError(
                    f"task {self.name!r} has a single phase, got phase {phase}"
                )
            return self.wcet
        try:
            return self.phases[phase]
        except IndexError:
            raise ModelError(
                f"task {self.name!r} has {len(self.phases)} phases, "
                f"got phase {phase}"
            ) from None

    @property
    def iteration_cycles(self) -> float:
        """Total base cycles of one full phase cycle (``wcet`` for a plain task)."""
        if self.phases is None:
            return self.wcet
        return sum(self.phases)

    def with_processor(self, processor: str) -> "Task":
        """Return a copy of this task bound to a different processor."""
        return Task(
            name=self.name,
            wcet=self.wcet,
            processor=processor,
            budget_weight=self.budget_weight,
            min_budget=self.min_budget,
            max_budget=self.max_budget,
            phases=self.phases,
            cycles_by_type=self.cycles_by_type,
        )


def _type_scale(task: Task, processor: "object") -> Optional[float]:
    """The base-cycle override for ``task`` on ``processor``'s type, if any.

    Returns ``None`` when the task has no per-type cycle table (its
    ``wcet``/``phases`` then apply verbatim).  Raises :class:`ModelError`
    when a table exists but has no entry for the processor's type — a
    binding to an incompatible processor type.
    """
    if task.cycles_by_type is None:
        return None
    proc_type = getattr(processor, "proc_type", "generic")
    for entry_type, cycles in task.cycles_by_type:
        if entry_type == proc_type:
            return cycles
    raise ModelError(
        f"task {task.name!r} has no cycle cost for processor type "
        f"{proc_type!r} (processor {getattr(processor, 'name', '?')!r}); "
        f"known types: {[t for t, _ in task.cycles_by_type]}"
    )


def effective_cycles(
    task: Task, processor: "object", phase: Optional[int] = None
) -> float:
    """Effective execution time of one firing of ``task`` on ``processor``.

    Resolves the per-type base cycle count (``cycles_by_type`` overrides the
    whole-iteration cost; per-phase costs are scaled proportionally) and
    divides by the processor ``speed``.  For a default model — no per-type
    table, unit speed — this returns exactly ``task.wcet`` (or the exact
    phase entry), with no floating-point perturbation.
    """
    base_override = _type_scale(task, processor)
    if phase is None or task.phases is None:
        base = task.wcet if base_override is None else base_override
        if phase is not None and task.phases is None and phase != 0:
            raise ModelError(
                f"task {task.name!r} has a single phase, got phase {phase}"
            )
    else:
        phase_base = task.phase_cycles(phase)
        if base_override is None:
            base = phase_base
        else:
            # Per-type override gives the worst-phase cost; scale each
            # phase's cost by the same ratio so the phase profile is kept.
            base = phase_base * (base_override / task.wcet)
    speed = getattr(processor, "speed", 1.0)
    if speed == 1.0:
        return base
    return base / speed


def effective_iteration_cycles(
    task: Task, processor: "object", repetitions: int = 1
) -> float:
    """Effective execution time of ``repetitions`` full phase cycles.

    For a plain task this is ``repetitions * wcet`` — exactly ``wcet`` when
    ``repetitions == 1`` on a default processor, preserving byte-identical
    legacy arithmetic.
    """
    base_override = _type_scale(task, processor)
    if task.phases is None:
        base = task.wcet if base_override is None else base_override
    else:
        total = sum(task.phases)
        if base_override is None:
            base = total
        else:
            base = total * (base_override / task.wcet)
    speed = getattr(processor, "speed", 1.0)
    if speed != 1.0:
        base = base / speed
    if repetitions == 1:
        return base
    return repetitions * base
