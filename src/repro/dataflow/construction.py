"""Construction of SRDF graphs from task graphs (Section II-C of the paper).

Every task ``w_a`` bound to processor ``p = π(w_a)`` with budget ``β(w_a)`` is
modelled by a two-actor dataflow component:

* ``v_a1`` with firing duration ``̺(p) − β(w_a)`` — the worst-case time a task
  waits before its budget becomes available again, and
* ``v_a2`` with firing duration ``̺(p)·χ(w_a)/β(w_a)`` — the worst-case time
  to execute ``χ(w_a)`` cycles when the task only receives ``β(w_a)`` cycles
  per replenishment interval,

connected by a queue ``v_a1 → v_a2`` without tokens and a self-loop on
``v_a2`` with one token.  Every FIFO buffer ``b_ab`` becomes a pair of opposed
queues: a *data* queue ``v_a2 → v_b1`` with ``ι(b)`` tokens and a *space*
queue ``v_b2 → v_a1`` with ``γ(b) − ι(b)`` tokens.

Because the budgets and capacities are precisely what the joint optimisation
computes, the construction is split into a *specification* (the topology and
the classification of queues, independent of the unknowns) and an
*instantiation* (a concrete :class:`~repro.dataflow.graph.SRDFGraph` for given
budgets and capacities).  The SOCP formulation iterates over the specification
to emit constraints, and the validators instantiate it to check the result.

Cyclo-static lowering
---------------------

This module is the single lowering point of the model→analysis pipeline: a
*cyclo-static* task graph (multi-phase tasks and/or non-unit token rates) is
expanded here into the same single-rate specification the formulation and
validators consume, so nothing downstream distinguishes the two.  The
expansion unrolls each task ``w`` into ``R(w) = q(w)·P(w)`` firing copies per
graph iteration (``q`` the repetition vector, ``P(w)`` the phase count), each
with its own two-actor component whose execution cost is that copy's phase
cost:

* the legacy self-loop generalises to a one-token *serialisation chain*
  through the copies' ``v2`` actors (copy ``k`` → copy ``k+1``, wrapping with
  the single token), which reduces exactly to the self-loop at ``R = 1``;
* each buffer becomes one *data* edge per consuming copy, whose constant
  token count is read off the integer cumulative production/consumption
  staircases (reducing to ``ι(b)`` tokens at single-rate), and one *space*
  edge per producing copy whose token count is **affine in the capacity**:
  ``(γ(b) − ι(b) + cc − cp) / T`` with ``T`` the tokens moved per iteration
  and ``cc``/``cp`` the staircase values at the gating copies.  At
  single-rate this is exactly ``γ(b) − ι(b)``; for true CSDF it is a
  conservative (throughput-safe) linearisation of the integer staircase.

Non-cyclo-static graphs take the historical code path verbatim, producing
bit-identical specifications.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro._graphs import undirected_components
from repro.exceptions import AllocationError, ModelError
from repro.dataflow.graph import Actor, Queue, SRDFGraph
from repro.taskgraph.configuration import Configuration
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.platform import Platform, Processor
from repro.taskgraph.task import Task, effective_cycles


class QueueKind(enum.Enum):
    """Role of a queue in the two-actor-per-task construction."""

    TASK_INTERNAL = "task_internal"  #: v_i1 → v_i2, no tokens (queue set E1)
    SELF_LOOP = "self_loop"          #: v_i2 → v_i2, one token (queue set E2)
    DATA = "data"                    #: v_a2 → v_b1, ι(b) tokens (queue set E2)
    SPACE = "space"                  #: v_b2 → v_a1, γ(b) − ι(b) tokens (queue set E2)


class ActorRole(enum.Enum):
    """Which half of the two-actor component an actor is."""

    START = "v1"   #: models waiting for the budget replenishment
    FINISH = "v2"  #: models the budget-limited execution


@dataclass(frozen=True)
class ActorSpec:
    """One actor of the constructed SRDF graph, tied to its task.

    ``phase`` is the cyclo-static phase index this firing copy executes
    (``None`` for single-phase tasks, whose execution cost is the plain
    ``wcet``).
    """

    name: str
    task: str
    role: ActorRole
    phase: Optional[int] = None


@dataclass(frozen=True)
class QueueSpec:
    """One queue of the constructed SRDF graph.

    ``source_task`` identifies the task whose (budget-dependent) firing
    duration appears on the right-hand side of Constraint (1) for this queue;
    ``source_phase`` narrows it to one cyclo-static phase (``None`` means the
    task's plain ``wcet``).  ``buffer`` is set for DATA/SPACE queues.
    ``fixed_tokens`` carries the token count when it does not depend on the
    computed buffer capacity (internal queues: 0, self-loops/serialisation
    chains: 0 or 1, data queues: the staircase constant); it is ``None`` for
    SPACE queues, whose token count is affine in the capacity:
    ``token_scale·γ(b) + offset``, where ``offset`` is ``token_offset`` when
    set and ``−ι(b)`` otherwise (the historical single-rate case).
    """

    name: str
    source: str
    target: str
    kind: QueueKind
    source_task: str
    source_role: ActorRole
    buffer: Optional[str] = None
    fixed_tokens: Optional[int] = None
    source_phase: Optional[int] = None
    token_scale: float = 1.0
    token_offset: Optional[float] = None

    @property
    def in_queue_set_e1(self) -> bool:
        """True for output queues of v_i1 actors (Constraint (2)/(6))."""
        return self.source_role is ActorRole.START

    @property
    def in_queue_set_e2(self) -> bool:
        """True for output queues of v_i2 actors (Constraint (3)/(7))."""
        return self.source_role is ActorRole.FINISH


def start_actor_name(task_name: str) -> str:
    """Name of the ``v_i1`` actor of a task."""
    return f"{task_name}.v1"


def finish_actor_name(task_name: str) -> str:
    """Name of the ``v_i2`` actor of a task."""
    return f"{task_name}.v2"


def copy_name(task_name: str, copy: int, copies: int) -> str:
    """Base name of one unrolled firing copy of a cyclo-static task.

    The single-copy case keeps the bare task name, so a trivially-expanded
    graph produces the same actor names as the legacy construction.
    """
    return task_name if copies == 1 else f"{task_name}#{copy}"


@dataclass
class SrdfSpecification:
    """Topology of the SRDF graph derived from one task graph."""

    graph_name: str
    period: float
    actors: List[ActorSpec]
    queues: List[QueueSpec]

    def actor_names(self) -> Tuple[str, ...]:
        return tuple(actor.name for actor in self.actors)

    def components(self) -> List[List[str]]:
        """Each weakly connected component's sorted actor names, in actor order."""
        edges = ((queue.source, queue.target) for queue in self.queues)
        return [sorted(c) for c in undirected_components(self.actor_names(), edges)]

    def queues_of_kind(self, kind: QueueKind) -> List[QueueSpec]:
        return [queue for queue in self.queues if queue.kind is kind]

    def queue_for_buffer(self, buffer_name: str, kind: QueueKind) -> QueueSpec:
        for queue in self.queues:
            if queue.buffer == buffer_name and queue.kind is kind:
                return queue
        raise ModelError(
            f"no {kind.value} queue for buffer {buffer_name!r} in the specification"
        )

    def queues_for_buffer(
        self, buffer_name: str, kind: QueueKind
    ) -> List[QueueSpec]:
        """All queues of one kind lowered from one buffer (CSDF emits several)."""
        return [
            queue
            for queue in self.queues
            if queue.buffer == buffer_name and queue.kind is kind
        ]


def build_srdf_specification(graph: TaskGraph) -> SrdfSpecification:
    """Derive the SRDF topology of a task graph (Section II-C).

    Cyclo-static graphs are phase-unrolled through
    :func:`_build_cyclo_static_specification`; single-rate graphs take the
    historical construction verbatim.
    """
    if graph.is_cyclo_static:
        return _build_cyclo_static_specification(graph)
    actors: List[ActorSpec] = []
    queues: List[QueueSpec] = []

    for task in graph.tasks:
        v1 = start_actor_name(task.name)
        v2 = finish_actor_name(task.name)
        actors.append(ActorSpec(name=v1, task=task.name, role=ActorRole.START))
        actors.append(ActorSpec(name=v2, task=task.name, role=ActorRole.FINISH))
        queues.append(
            QueueSpec(
                name=f"{task.name}.internal",
                source=v1,
                target=v2,
                kind=QueueKind.TASK_INTERNAL,
                source_task=task.name,
                source_role=ActorRole.START,
                fixed_tokens=0,
            )
        )
        queues.append(
            QueueSpec(
                name=f"{task.name}.self",
                source=v2,
                target=v2,
                kind=QueueKind.SELF_LOOP,
                source_task=task.name,
                source_role=ActorRole.FINISH,
                fixed_tokens=1,
            )
        )

    for buffer in graph.buffers:
        producer_finish = finish_actor_name(buffer.source)
        consumer_start = start_actor_name(buffer.target)
        consumer_finish = finish_actor_name(buffer.target)
        producer_start = start_actor_name(buffer.source)
        queues.append(
            QueueSpec(
                name=f"{buffer.name}.data",
                source=producer_finish,
                target=consumer_start,
                kind=QueueKind.DATA,
                source_task=buffer.source,
                source_role=ActorRole.FINISH,
                buffer=buffer.name,
                fixed_tokens=buffer.initial_tokens,
            )
        )
        queues.append(
            QueueSpec(
                name=f"{buffer.name}.space",
                source=consumer_finish,
                target=producer_start,
                kind=QueueKind.SPACE,
                source_task=buffer.target,
                source_role=ActorRole.FINISH,
                buffer=buffer.name,
                fixed_tokens=None,
            )
        )

    return SrdfSpecification(
        graph_name=graph.name, period=graph.period, actors=actors, queues=queues
    )


def _phase_rates(
    rates: Optional[Sequence[int]], phase_count: int, copies: int
) -> List[int]:
    """Per-copy token rates over one graph iteration (default: 1 per firing)."""
    if rates is None:
        return [1] * copies
    return [rates[k % phase_count] for k in range(copies)]


def _cumulative(values: Sequence[int]) -> List[int]:
    """Cumulative-sum staircase: ``out[k] = sum(values[:k])``."""
    out = [0]
    for value in values:
        out.append(out[-1] + value)
    return out


def _first_reaching(staircase: Sequence[int], needed: int) -> int:
    """Smallest ``k`` with ``staircase[k] ≥ needed`` (``needed ≥ 1``)."""
    for k, value in enumerate(staircase):
        if value >= needed:
            return k
    raise ModelError(
        f"internal lowering error: staircase {list(staircase)} never reaches "
        f"{needed}"
    )


def _check_rate_lengths(graph: TaskGraph) -> None:
    """Reject rate profiles whose length disagrees with the task's phases."""
    for buffer in graph.buffers:
        source = graph.task(buffer.source)
        target = graph.task(buffer.target)
        if (
            buffer.production_rates is not None
            and len(buffer.production_rates) != source.phase_count
        ):
            raise ModelError(
                f"buffer {buffer.name!r}: production rates have "
                f"{len(buffer.production_rates)} entries but task "
                f"{source.name!r} has {source.phase_count} phase(s)"
            )
        if (
            buffer.consumption_rates is not None
            and len(buffer.consumption_rates) != target.phase_count
        ):
            raise ModelError(
                f"buffer {buffer.name!r}: consumption rates have "
                f"{len(buffer.consumption_rates)} entries but task "
                f"{target.name!r} has {target.phase_count} phase(s)"
            )


def _build_cyclo_static_specification(graph: TaskGraph) -> SrdfSpecification:
    """Phase-unroll a cyclo-static task graph into a single-rate specification.

    Task ``w`` becomes ``R(w) = q(w)·P(w)`` two-actor components (one per
    firing of one graph iteration); the period µ then bounds the time of one
    *iteration* — every unrolled actor fires once per µ.  See the module
    docstring for the data/space edge construction.
    """
    _check_rate_lengths(graph)
    repetitions = graph.repetitions()

    actors: List[ActorSpec] = []
    queues: List[QueueSpec] = []
    copies_of: Dict[str, int] = {}

    for task in graph.tasks:
        copies = repetitions[task.name] * task.phase_count
        copies_of[task.name] = copies
        phase_count = task.phase_count
        for k in range(copies):
            base = copy_name(task.name, k, copies)
            phase = k % phase_count if phase_count > 1 else None
            actors.append(
                ActorSpec(
                    name=f"{base}.v1",
                    task=task.name,
                    role=ActorRole.START,
                    phase=phase,
                )
            )
            actors.append(
                ActorSpec(
                    name=f"{base}.v2",
                    task=task.name,
                    role=ActorRole.FINISH,
                    phase=phase,
                )
            )
            queues.append(
                QueueSpec(
                    name=f"{base}.internal",
                    source=f"{base}.v1",
                    target=f"{base}.v2",
                    kind=QueueKind.TASK_INTERNAL,
                    source_task=task.name,
                    source_role=ActorRole.START,
                    fixed_tokens=0,
                    source_phase=phase,
                )
            )
        # Serialisation chain through the copies' v2 actors: one token
        # circulates, so the copies execute in phase order and exactly one
        # iteration of the task is in flight — the legacy self-loop at R=1.
        for k in range(copies):
            successor = (k + 1) % copies
            source_base = copy_name(task.name, k, copies)
            target_base = copy_name(task.name, successor, copies)
            queues.append(
                QueueSpec(
                    name=(
                        f"{task.name}.self"
                        if copies == 1
                        else f"{task.name}.seq{k}"
                    ),
                    source=f"{source_base}.v2",
                    target=f"{target_base}.v2",
                    kind=QueueKind.SELF_LOOP,
                    source_task=task.name,
                    source_role=ActorRole.FINISH,
                    fixed_tokens=1 if k == copies - 1 else 0,
                    source_phase=k % phase_count if phase_count > 1 else None,
                )
            )

    for buffer in graph.buffers:
        source = graph.task(buffer.source)
        target = graph.task(buffer.target)
        producer_copies = copies_of[buffer.source]
        consumer_copies = copies_of[buffer.target]
        production = _phase_rates(
            buffer.production_rates, source.phase_count, producer_copies
        )
        consumption = _phase_rates(
            buffer.consumption_rates, target.phase_count, consumer_copies
        )
        produced = _cumulative(production)   # cp: producer staircase
        consumed = _cumulative(consumption)  # cc: consumer staircase
        iteration_tokens = produced[-1]
        if iteration_tokens != consumed[-1]:
            raise ModelError(
                f"buffer {buffer.name!r}: repetition-scaled production "
                f"{iteration_tokens} and consumption {consumed[-1]} disagree"
            )
        initial = buffer.initial_tokens

        # Data edges: consumer copy l needs cc[l+1] − ι cumulative tokens;
        # the producer firing releasing them is found on the (periodically
        # extended) production staircase.  Its iteration offset becomes the
        # edge's constant token count — exactly ι at single-rate.
        for l in range(consumer_copies):
            if consumption[l] == 0:
                continue
            needed = consumed[l + 1] - initial
            if needed <= 0:
                # Served by initial tokens in iteration 0; in steady state
                # the dependency is on production `lead` iterations back.
                # Shift whole iterations until the residual need lands in
                # (0, T] and read the copy off the one-period staircase.
                lead = 1 + (-needed) // iteration_tokens
                needed += lead * iteration_tokens
            else:
                lead = 0
            producer_index = _first_reaching(produced, needed) - 1
            delta = lead
            source_base = copy_name(buffer.source, producer_index, producer_copies)
            target_base = copy_name(buffer.target, l, consumer_copies)
            queues.append(
                QueueSpec(
                    name=(
                        f"{buffer.name}.data"
                        if consumer_copies == 1
                        else f"{buffer.name}.data{l}"
                    ),
                    source=f"{source_base}.v2",
                    target=f"{target_base}.v1",
                    kind=QueueKind.DATA,
                    source_task=buffer.source,
                    source_role=ActorRole.FINISH,
                    buffer=buffer.name,
                    fixed_tokens=delta,
                    source_phase=(
                        producer_index % source.phase_count
                        if source.phase_count > 1
                        else None
                    ),
                )
            )

        # Space edges: producer copy k needs cc to reach cp[k+1] + ι − γ.
        # The gating consumer copy is the first whose staircase covers
        # cp[k+1]; the capacity-dependent iteration offset
        # (γ − ι + cc[l+1] − cp[k+1]) / T is affine in γ and reduces to the
        # legacy γ − ι at single-rate.  For true CSDF it is a conservative
        # linearisation: the modelled producer waits for a consumer firing
        # no earlier than the one that really frees its space.
        for k in range(producer_copies):
            if production[k] == 0:
                continue
            gating = _first_reaching(consumed, produced[k + 1]) - 1
            scale = 1.0 / iteration_tokens
            offset = (consumed[gating + 1] - produced[k + 1] - initial) * scale
            source_base = copy_name(buffer.target, gating, consumer_copies)
            target_base = copy_name(buffer.source, k, producer_copies)
            queues.append(
                QueueSpec(
                    name=(
                        f"{buffer.name}.space"
                        if producer_copies == 1
                        else f"{buffer.name}.space{k}"
                    ),
                    source=f"{source_base}.v2",
                    target=f"{target_base}.v1",
                    kind=QueueKind.SPACE,
                    source_task=buffer.target,
                    source_role=ActorRole.FINISH,
                    buffer=buffer.name,
                    fixed_tokens=None,
                    source_phase=(
                        gating % target.phase_count
                        if target.phase_count > 1
                        else None
                    ),
                    token_scale=scale,
                    token_offset=offset,
                )
            )

    return SrdfSpecification(
        graph_name=graph.name, period=graph.period, actors=actors, queues=queues
    )


def build_configuration_specifications(
    configuration: Configuration,
) -> Dict[str, SrdfSpecification]:
    """Build one SRDF specification per task graph of a configuration."""
    return {
        graph.name: build_srdf_specification(graph)
        for graph in configuration.task_graphs
    }


def actor_firing_duration(
    role: ActorRole,
    replenishment_interval: float,
    wcet: float,
    budget: float,
    speed: float = 1.0,
) -> float:
    """Firing duration of a task's actor for a concrete budget.

    ``ρ(v_i1) = ̺(p) − β(w)`` and ``ρ(v_i2) = ̺(p)·χ(w)/β(w)`` (Section II-C).
    ``speed`` divides the cycle count for DVFS-scaled processors; the unit
    default leaves the historical arithmetic untouched.
    """
    if budget <= 0.0:
        raise AllocationError(f"budget must be positive, got {budget!r}")
    if budget > replenishment_interval + 1e-9:
        raise AllocationError(
            f"budget {budget} exceeds the replenishment interval {replenishment_interval}"
        )
    if speed <= 0.0:
        raise AllocationError(f"speed must be positive, got {speed!r}")
    if role is ActorRole.START:
        return max(0.0, replenishment_interval - budget)
    cycles = wcet if speed == 1.0 else wcet / speed
    return replenishment_interval * cycles / budget


def task_actor_duration(
    task: Task,
    processor: Processor,
    role: ActorRole,
    phase: Optional[int],
    budget: float,
) -> float:
    """Firing duration of one actor of ``task`` on ``processor`` for a budget.

    :func:`actor_firing_duration` on the task's effective (type-, speed- and
    phase-resolved) cycle count, :func:`~repro.taskgraph.task.effective_cycles`:
    the one duration the SRDF construction and the baselines share.
    """
    return actor_firing_duration(
        role,
        processor.replenishment_interval,
        effective_cycles(task, processor, phase),
        budget,
    )


def queue_token_terms(
    queue: QueueSpec, graph: TaskGraph
) -> Tuple[Optional[str], float, float]:
    """The token count ``δ(e)`` of a queue as ``(buffer, scale, offset)``:
    ``δ(e) = scale·γ(buffer) + offset``.

    The one definition of ``δ(e)`` in terms of the capacity variable, shared
    by the joint formulation (Constraint (7)) and the fixed-budget
    buffer-sizing LP.  A queue whose tokens do not depend on a capacity has
    no buffer and scale 0; a single-rate space queue carries ``γ(b) − ι(b)``
    and a cyclo-static one ``token_scale·γ(b) + token_offset``.
    """
    if queue.fixed_tokens is not None:
        return None, 0.0, float(queue.fixed_tokens)
    buffer = graph.buffer(queue.buffer)  # type: ignore[arg-type]
    if queue.token_offset is None:
        return buffer.name, 1.0, -float(buffer.initial_tokens)
    return buffer.name, float(queue.token_scale), float(queue.token_offset)


def _queue_tokens(
    queue_spec: QueueSpec, graph: TaskGraph, capacities: Mapping[str, int]
) -> float:
    """Concrete token count of one queue (int-valued for fixed/legacy queues)."""
    if queue_spec.fixed_tokens is not None:
        return queue_spec.fixed_tokens
    buffer = graph.buffer(queue_spec.buffer)  # type: ignore[arg-type]
    if buffer.name not in capacities:
        raise AllocationError(f"no capacity provided for buffer {buffer.name!r}")
    capacity = int(capacities[buffer.name])
    if capacity < buffer.initial_tokens:
        raise AllocationError(
            f"capacity {capacity} of buffer {buffer.name!r} is smaller than "
            f"its number of initially filled containers {buffer.initial_tokens}"
        )
    if queue_spec.token_offset is None:
        return capacity - buffer.initial_tokens
    return queue_spec.token_scale * capacity + queue_spec.token_offset


def instantiate_srdf(
    specification: SrdfSpecification,
    graph: TaskGraph,
    platform: Platform,
    budgets: Mapping[str, float],
    capacities: Mapping[str, int],
) -> SRDFGraph:
    """Instantiate the SRDF graph for concrete budgets and buffer capacities.

    Parameters
    ----------
    budgets:
        Budget per task name (time units per replenishment interval).
    capacities:
        Capacity per buffer name (containers).
    """
    actors: List[Actor] = []
    for actor_spec in specification.actors:
        task = graph.task(actor_spec.task)
        processor = platform.processor(task.processor)
        if task.name not in budgets:
            raise AllocationError(f"no budget provided for task {task.name!r}")
        duration = task_actor_duration(
            task, processor, actor_spec.role, actor_spec.phase, float(budgets[task.name])
        )
        actors.append(Actor(name=actor_spec.name, firing_duration=duration))

    queues: List[Queue] = []
    for queue_spec in specification.queues:
        tokens = _queue_tokens(queue_spec, graph, capacities)
        queues.append(
            Queue(
                name=queue_spec.name,
                source=queue_spec.source,
                target=queue_spec.target,
                tokens=tokens,
            )
        )

    return SRDFGraph(name=f"{specification.graph_name}.srdf", actors=actors, queues=queues)


def instantiate_from_configuration(
    configuration: Configuration,
    budgets: Mapping[str, float],
    capacities: Mapping[str, int],
) -> Dict[str, SRDFGraph]:
    """Instantiate the SRDF graph of every task graph in a configuration."""
    graphs: Dict[str, SRDFGraph] = {}
    for graph in configuration.task_graphs:
        specification = build_srdf_specification(graph)
        graphs[graph.name] = instantiate_srdf(
            specification, graph, configuration.platform, budgets, capacities
        )
    return graphs
