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

Multi-rate and cyclo-static graphs
----------------------------------

This module is the one lowering from task graphs to SRDF.  It unrolls each
task ``w`` into ``R(w) = q(w)·P(w)`` firing copies per graph iteration (``q``
the repetition vector, ``P(w)`` the phase count), each with its own
two-actor component whose execution cost is that copy's phase cost:

* the copies' ``v2`` actors form a one-token *serialisation chain* (copy
  ``k`` → copy ``k+1``, wrapping with the single token);
* each buffer becomes one *data* edge per consuming copy, whose constant
  token count is read off the integer cumulative production/consumption
  staircases, and one *space* edge per producing copy whose token count is
  **affine in the capacity**: ``(γ(b) − ι(b) + cc − cp) / T`` with ``T`` the
  tokens moved per iteration and ``cc``/``cp`` the staircase values at the
  gating copies.  For true CSDF this is a conservative (throughput-safe)
  linearisation of the integer staircase.

A single-rate graph has one copy per task, and the construction is then
exactly the paper's: the chain is the self-loop, the data edge carries
``ι(b)`` tokens and the space edge ``γ(b) − ι(b)``.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Mapping, Optional, Tuple

from repro._graphs import undirected_components
from repro.exceptions import AllocationError
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
    ``token_scale·γ(b) + token_offset`` (``γ(b) − ι(b)`` at single rate).
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

    Task ``w`` becomes ``R(w) = q(w)·P(w)`` two-actor components (one per
    firing of one graph iteration); the period µ then bounds the time of one
    *iteration* — every unrolled actor fires once per µ.  See the module
    docstring for the data/space edge construction.
    """
    repetitions = graph.repetition_vector
    actors: List[ActorSpec] = []
    queues: List[QueueSpec] = []
    start, finish = ActorRole.START, ActorRole.FINISH
    # Specs are built with positional arguments, in field order: passing
    # QueueSpec's optional fields by keyword costs ~8 % of the lowering.
    #: per task: its copies' v1 names, v2 names and phases (``None`` for a
    #: single-phase task)
    copies_of: Dict[str, Tuple[List[str], List[str], List[Optional[int]]]] = {}

    for task in graph.tasks:
        name = task.name
        phase_count = task.phase_count
        copies = repetitions[name] * phase_count
        bases = [name] if copies == 1 else [f"{name}#{k}" for k in range(copies)]
        starts = [start_actor_name(base) for base in bases]
        finishes = [finish_actor_name(base) for base in bases]
        if phase_count == 1:
            phases: List[Optional[int]] = [None] * copies
        else:
            phases = [k % phase_count for k in range(copies)]
        copies_of[name] = (starts, finishes, phases)
        for base, v1, v2, phase in zip(bases, starts, finishes, phases):
            actors.append(ActorSpec(v1, name, start, phase))
            actors.append(ActorSpec(v2, name, finish, phase))
            queues.append(
                QueueSpec(
                    f"{base}.internal", v1, v2, QueueKind.TASK_INTERNAL, name, start,
                    None, 0, phase,
                )
            )
        # Serialisation chain through the copies' v2 actors: one token
        # circulates, so the copies execute in phase order and exactly one
        # iteration of the task is in flight — the self-loop at R = 1.
        if copies == 1:
            chain = [f"{name}.self"]
        else:
            chain = [f"{name}.seq{k}" for k in range(copies)]
        for k in range(copies):
            queues.append(
                QueueSpec(
                    chain[k], finishes[k], finishes[(k + 1) % copies], QueueKind.SELF_LOOP,
                    name, finish, None, 1 if k == copies - 1 else 0, phases[k],
                )
            )

    for buffer in graph.buffers:
        producer_starts, producer_finishes, producer_phases = copies_of[buffer.source]
        consumer_starts, consumer_finishes, consumer_phases = copies_of[buffer.target]
        producers, consumers = len(producer_starts), len(consumer_starts)
        production = buffer.production_rates or (1,)
        production *= producers // len(production)
        consumption = buffer.consumption_rates or (1,)
        consumption *= consumers // len(consumption)
        produced = list(accumulate(production, initial=0))  # cp staircase
        consumed = list(accumulate(consumption, initial=0))  # cc staircase
        # T: both staircases end at it, as the repetition vector balances
        # every buffer.
        iteration_tokens = produced[-1]
        initial = buffer.initial_tokens
        data = f"{buffer.name}.data"
        space = f"{buffer.name}.space"

        # Data edges: consumer copy l needs cc[l+1] − ι cumulative tokens;
        # the producer firing releasing them is found on the (periodically
        # extended) production staircase.  Its iteration offset becomes the
        # edge's constant token count — exactly ι at single rate.
        for l, rate in enumerate(consumption):
            if rate == 0:
                continue
            needed = consumed[l + 1] - initial
            lead = 0
            if needed <= 0:
                # Served by initial tokens in iteration 0; in steady state
                # the dependency is on production `lead` iterations back.
                # Shift whole iterations until the residual need lands in
                # (0, T] and read the copy off the one-period staircase.
                lead = 1 + (-needed) // iteration_tokens
                needed += lead * iteration_tokens
            producer = bisect_left(produced, needed) - 1
            queues.append(
                QueueSpec(
                    data if consumers == 1 else f"{data}{l}",
                    producer_finishes[producer], consumer_starts[l], QueueKind.DATA,
                    buffer.source, finish, buffer.name, lead, producer_phases[producer],
                )
            )

        # Space edges: producer copy k needs cc to reach cp[k+1] + ι − γ.
        # The gating consumer copy is the first whose staircase covers
        # cp[k+1]; the capacity-dependent iteration offset
        # (γ − ι + cc[l+1] − cp[k+1]) / T is affine in γ and is γ − ι at
        # single rate.  For true CSDF it is a conservative linearisation:
        # the modelled producer waits for a consumer firing no earlier than
        # the one that really frees its space.
        scale = 1.0 / iteration_tokens
        for k, rate in enumerate(production):
            if rate == 0:
                continue
            gating = bisect_left(consumed, produced[k + 1]) - 1
            offset = consumed[gating + 1] - produced[k + 1] - initial
            queues.append(
                QueueSpec(
                    space if producers == 1 else f"{space}{k}",
                    consumer_finishes[gating], producer_starts[k], QueueKind.SPACE,
                    buffer.target, finish, buffer.name, None, consumer_phases[gating],
                    scale, offset * scale,
                )
            )

    return SrdfSpecification(
        graph_name=graph.name, period=graph.period, actors=actors, queues=queues
    )


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


def queue_token_terms(queue: QueueSpec) -> Tuple[Optional[str], float, float]:
    """The token count ``δ(e)`` of a queue as ``(buffer, scale, offset)``:
    ``δ(e) = scale·γ(buffer) + offset``.

    The one definition of ``δ(e)`` in terms of the capacity variable, shared
    by the joint formulation (Constraint (7)) and the fixed-budget
    buffer-sizing LP.  A queue whose tokens do not depend on a capacity has
    no buffer and scale 0; a space queue carries
    ``token_scale·γ(b) + token_offset``.
    """
    if queue.fixed_tokens is not None:
        return None, 0.0, float(queue.fixed_tokens)
    return queue.buffer, float(queue.token_scale), float(queue.token_offset)  # type: ignore[arg-type]


def _queue_tokens(
    queue_spec: QueueSpec, graph: TaskGraph, capacities: Mapping[str, int]
) -> float:
    """Concrete token count of one queue (an int for capacity-free queues)."""
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
    return queue_spec.token_scale * capacity + queue_spec.token_offset  # type: ignore[operator]


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
