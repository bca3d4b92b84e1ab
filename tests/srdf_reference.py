"""Reference for the SDF→SRDF lowering on single-rate task graphs.

The paper's Section II-C construction written out directly, one task and
one buffer at a time: each task becomes ``v1 → v2`` with an empty internal
queue and a one-token self-loop on ``v2``, and each buffer a data queue
``v_a2 → v_b1`` with ``ι(b)`` tokens and a space queue ``v_b2 → v_a1`` with
``γ(b) − ι(b)`` tokens.  No repetition vector, no phase copies and no
staircases.  :func:`~repro.dataflow.construction.build_srdf_specification`
must produce the same actors and queues on every single-rate graph, with
the space queue's ``γ(b) − ι(b)`` carried as ``token_scale = 1`` and
``token_offset = −ι(b)``.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.dataflow.construction import (
    ActorRole,
    ActorSpec,
    QueueKind,
    QueueSpec,
    SrdfSpecification,
    finish_actor_name,
    queue_token_terms,
    start_actor_name,
    task_actor_duration,
)
from repro.dataflow.graph import Actor, Queue, SRDFGraph


def reference_specification(graph) -> SrdfSpecification:
    """The two-actor-per-task construction of a single-rate task graph.

    Space queues leave ``token_offset`` unset: their tokens are
    ``γ(b) − ι(b)`` (:func:`reference_token_terms`).
    """
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


def reference_token_terms(
    queue: QueueSpec, graph
) -> Tuple[Optional[str], float, float]:
    """``δ(e)`` of a reference queue as ``(buffer, scale, offset)``: the
    fixed count, or ``γ(b) − ι(b)`` for a space queue."""
    if queue.fixed_tokens is not None:
        return None, 0.0, float(queue.fixed_tokens)
    buffer = graph.buffer(queue.buffer)
    return buffer.name, 1.0, -float(buffer.initial_tokens)


def reference_srdf(graph, platform, budgets, capacities) -> SRDFGraph:
    """The reference construction instantiated for concrete budgets and
    capacities: a space queue holds ``γ(b) − ι(b)`` tokens, an ``int``."""
    specification = reference_specification(graph)
    actors = []
    for actor in specification.actors:
        task = graph.task(actor.task)
        processor = platform.processor(task.processor)
        duration = task_actor_duration(
            task, processor, actor.role, actor.phase, float(budgets[task.name])
        )
        actors.append(Actor(name=actor.name, firing_duration=duration))
    queues = []
    for queue in specification.queues:
        if queue.fixed_tokens is not None:
            tokens = queue.fixed_tokens
        else:
            buffer = graph.buffer(queue.buffer)
            tokens = int(capacities[buffer.name]) - buffer.initial_tokens
        queues.append(Queue(queue.name, queue.source, queue.target, tokens))
    return SRDFGraph(name=f"{graph.name}.srdf", actors=actors, queues=queues)


def assert_lowers_like_the_reference(graph, specification) -> None:
    """``specification`` is the reference construction of ``graph``: equal
    actors, equal queues apart from the space queues' ``token_offset``, and
    the same token terms, value and type, on every queue."""
    reference = reference_specification(graph)
    assert specification.graph_name == reference.graph_name
    assert specification.period == reference.period
    assert specification.actors == reference.actors
    assert len(specification.queues) == len(reference.queues)
    for queue, expected in zip(specification.queues, reference.queues):
        assert dataclasses.replace(queue, token_offset=None) == expected, queue.name
        terms = queue_token_terms(queue)
        expected_terms = reference_token_terms(expected, graph)
        assert terms == expected_terms, queue.name
        assert [type(term) for term in terms] == [type(t) for t in expected_terms]
