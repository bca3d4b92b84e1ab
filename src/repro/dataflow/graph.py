"""Single-rate dataflow (SRDF) graphs.

An SRDF graph (also known as a homogeneous SDF graph, computation graph or
marked graph) is a directed multigraph whose vertices are *actors* with a
single firing duration ``ρ(v)`` and whose edges are unbounded token *queues*
with an initial number of tokens ``δ(e)``.  In every firing an actor consumes
one token from each input queue and produces one token on each output queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro._graphs import simple_cycles, topological_order
from repro.exceptions import GraphStructureError, ModelError


@dataclass(frozen=True)
class Actor:
    """An SRDF actor with a single worst-case firing duration ``ρ(v) ≥ 0``."""

    name: str
    firing_duration: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("actor name must be non-empty")
        if self.firing_duration < 0.0:
            raise ModelError(
                f"actor {self.name!r} has a negative firing duration "
                f"{self.firing_duration!r}"
            )


@dataclass(frozen=True)
class Queue:
    """A token queue (edge) of an SRDF graph with ``δ(e)`` initial tokens.

    ``tokens`` is integral for directly-constructed graphs; queues lowered
    from cyclo-static buffers may carry fractional counts (the affine
    capacity linearisation), which the MCR/potential analyses handle
    unchanged while the integer-indexed self-timed simulation skips them.
    """

    name: str
    source: str
    target: str
    tokens: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("queue name must be non-empty")
        if self.tokens < 0:
            raise ModelError(f"queue {self.name!r} has a negative token count")

    @property
    def has_integral_tokens(self) -> bool:
        return float(self.tokens).is_integer()

    @property
    def is_self_loop(self) -> bool:
        return self.source == self.target


class SRDFGraph:
    """A single-rate dataflow graph ``G = (V, E, ρ, δ)``."""

    def __init__(
        self,
        name: str = "srdf",
        actors: Iterable[Actor] = (),
        queues: Iterable[Queue] = (),
    ) -> None:
        self.name = name
        self._actors: Dict[str, Actor] = {}
        self._queues: Dict[str, Queue] = {}
        self._outgoing: Dict[str, List[str]] = {}
        self._incoming: Dict[str, List[str]] = {}
        for actor in actors:
            self.add_actor(actor)
        for queue in queues:
            self.add_queue(queue)

    # -- construction -----------------------------------------------------------
    def add_actor(self, actor: Actor) -> Actor:
        if actor.name in self._actors:
            raise ModelError(f"duplicate actor name {actor.name!r}")
        self._actors[actor.name] = actor
        self._outgoing[actor.name] = []
        self._incoming[actor.name] = []
        return actor

    def add_queue(self, queue: Queue) -> Queue:
        if queue.name in self._queues:
            raise ModelError(f"duplicate queue name {queue.name!r}")
        for endpoint in (queue.source, queue.target):
            if endpoint not in self._actors:
                raise GraphStructureError(
                    f"queue {queue.name!r} references unknown actor {endpoint!r}"
                )
        self._queues[queue.name] = queue
        self._outgoing[queue.source].append(queue.name)
        self._incoming[queue.target].append(queue.name)
        return queue

    # -- lookup ----------------------------------------------------------------------
    def actor(self, name: str) -> Actor:
        try:
            return self._actors[name]
        except KeyError:
            raise GraphStructureError(f"unknown actor {name!r}") from None

    def queue(self, name: str) -> Queue:
        try:
            return self._queues[name]
        except KeyError:
            raise GraphStructureError(f"unknown queue {name!r}") from None

    def has_actor(self, name: str) -> bool:
        return name in self._actors

    @property
    def actors(self) -> Tuple[Actor, ...]:
        return tuple(self._actors.values())

    @property
    def queues(self) -> Tuple[Queue, ...]:
        return tuple(self._queues.values())

    @property
    def actor_names(self) -> Tuple[str, ...]:
        return tuple(self._actors.keys())

    def firing_duration(self, actor_name: str) -> float:
        return self.actor(actor_name).firing_duration

    def tokens(self, queue_name: str) -> int:
        return self.queue(queue_name).tokens

    def output_queues(self, actor_name: str) -> List[Queue]:
        self.actor(actor_name)
        return [self._queues[name] for name in self._outgoing[actor_name]]

    def input_queues(self, actor_name: str) -> List[Queue]:
        self.actor(actor_name)
        return [self._queues[name] for name in self._incoming[actor_name]]

    def __len__(self) -> int:
        return len(self._actors)

    def __iter__(self) -> Iterator[Actor]:
        return iter(self._actors.values())

    # -- derived views ------------------------------------------------------------------
    def with_updates(
        self,
        firing_durations: Optional[Dict[str, float]] = None,
        tokens: Optional[Dict[str, int]] = None,
        name: Optional[str] = None,
    ) -> "SRDFGraph":
        """Return a copy with some firing durations and/or token counts replaced.

        Used heavily by monotonicity tests and by the conservative-rounding
        argument: rounding budgets up only ever *decreases* firing durations
        and rounding token counts up only ever *adds* tokens.
        """
        firing_durations = firing_durations or {}
        tokens = tokens or {}
        for actor_name in firing_durations:
            self.actor(actor_name)
        for queue_name in tokens:
            self.queue(queue_name)
        actors = [
            Actor(
                name=actor.name,
                firing_duration=firing_durations.get(actor.name, actor.firing_duration),
            )
            for actor in self._actors.values()
        ]
        queues = [
            Queue(
                name=queue.name,
                source=queue.source,
                target=queue.target,
                tokens=tokens.get(queue.name, queue.tokens),
            )
            for queue in self._queues.values()
        ]
        return SRDFGraph(name=name or self.name, actors=actors, queues=queues)

    # -- structural properties ----------------------------------------------------------
    def simple_cycles(self) -> List[List[Queue]]:
        """Enumerate the simple cycles as lists of queues.

        Intended for small graphs (tests, exact maximum-cycle-ratio
        computation); the number of simple cycles can be exponential.
        """
        # Self-loops are simple cycles of length one.
        cycles = [[queue] for queue in self._queues.values() if queue.is_self_loop]
        # Of parallel queues, a cycle takes the one with the fewest tokens
        # (any other choice is dominated for cycle-ratio purposes).
        fewest: Dict[Tuple[str, str], Queue] = {}
        for queue in sorted(self._queues.values(), key=lambda queue: queue.tokens):
            fewest.setdefault((queue.source, queue.target), queue)
        for node_cycle in simple_cycles(self._actors, fewest):
            hops = zip(node_cycle, node_cycle[1:] + node_cycle[:1])
            cycles.append([fewest[hop] for hop in hops])
        return cycles

    def is_deadlock_free(self) -> bool:
        """True when every directed cycle carries at least one initial token."""
        token_free = [(q.source, q.target) for q in self._queues.values() if q.tokens == 0]
        return topological_order(self._actors, token_free) is not None

    def total_tokens(self) -> int:
        return sum(queue.tokens for queue in self._queues.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SRDFGraph({self.name!r}, actors={len(self._actors)}, "
            f"queues={len(self._queues)})"
        )
