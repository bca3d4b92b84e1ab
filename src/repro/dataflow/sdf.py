"""Multi-rate synchronous dataflow (SDF) graphs and their SRDF expansion.

The paper restricts itself to task graphs that can be modelled by single-rate
dataflow graphs and names the extension to "more dynamic applications" as
future work.  This module implements the classical first step of that
extension: multi-rate SDF graphs (Lee & Messerschmitt 1987) with

* consistency checking through the balance equations,
* repetition-vector computation, and
* expansion into an equivalent single-rate (homogeneous) graph, so that all
  analyses of :mod:`repro.dataflow` (MCR, PAS, simulation) apply unchanged.

The expansion follows the standard construction (Sriram & Bhattacharyya): the
``k``-th firing of actor ``v`` becomes its own SRDF actor, and for every SDF
channel the producing firings are connected to the consuming firings that use
their tokens, with initial tokens distributed first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro._graphs import repetition_vector
from repro.exceptions import GraphStructureError, ModelError
from repro.dataflow.graph import Actor, Queue, SRDFGraph


@dataclass(frozen=True)
class SDFActor:
    """A multi-rate SDF actor with a single firing duration."""

    name: str
    firing_duration: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("SDF actor name must be non-empty")
        if self.firing_duration < 0.0:
            raise ModelError(f"SDF actor {self.name!r} has a negative firing duration")


@dataclass(frozen=True)
class SDFChannel:
    """A channel with production/consumption rates and initial tokens."""

    name: str
    source: str
    target: str
    production_rate: int
    consumption_rate: int
    tokens: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("SDF channel name must be non-empty")
        if self.production_rate < 1 or self.consumption_rate < 1:
            raise ModelError(
                f"channel {self.name!r} needs positive production and consumption rates"
            )
        if self.tokens < 0:
            raise ModelError(f"channel {self.name!r} has a negative token count")


class SDFGraph:
    """A multi-rate synchronous dataflow graph."""

    def __init__(
        self,
        name: str = "sdf",
        actors: Tuple[SDFActor, ...] = (),
        channels: Tuple[SDFChannel, ...] = (),
    ) -> None:
        self.name = name
        self._actors: Dict[str, SDFActor] = {}
        self._channels: Dict[str, SDFChannel] = {}
        for actor in actors:
            self.add_actor(actor)
        for channel in channels:
            self.add_channel(channel)

    def add_actor(self, actor: SDFActor) -> SDFActor:
        if actor.name in self._actors:
            raise ModelError(f"duplicate SDF actor name {actor.name!r}")
        self._actors[actor.name] = actor
        return actor

    def add_channel(self, channel: SDFChannel) -> SDFChannel:
        if channel.name in self._channels:
            raise ModelError(f"duplicate SDF channel name {channel.name!r}")
        for endpoint in (channel.source, channel.target):
            if endpoint not in self._actors:
                raise GraphStructureError(
                    f"channel {channel.name!r} references unknown actor {endpoint!r}"
                )
        self._channels[channel.name] = channel
        return channel

    @property
    def actors(self) -> Tuple[SDFActor, ...]:
        return tuple(self._actors.values())

    @property
    def channels(self) -> Tuple[SDFChannel, ...]:
        return tuple(self._channels.values())

    def actor(self, name: str) -> SDFActor:
        try:
            return self._actors[name]
        except KeyError:
            raise GraphStructureError(f"unknown SDF actor {name!r}") from None

    # -- consistency ------------------------------------------------------------
    def repetition_vector(self) -> Dict[str, int]:
        """Smallest positive integer firing counts balancing every channel.

        Raises
        ------
        GraphStructureError
            If the graph is inconsistent (the balance equations only admit the
            trivial all-zero solution).
        """
        channels = self._channels.values()
        repetitions = repetition_vector(
            self._actors,
            ((c.source, c.target, c.production_rate, c.consumption_rate) for c in channels),
        )
        for channel in channels:
            produced = repetitions[channel.source] * channel.production_rate
            if produced != repetitions[channel.target] * channel.consumption_rate:
                raise GraphStructureError(
                    f"SDF graph {self.name!r} is inconsistent at channel "
                    f"{channel.name!r}"
                )
        return repetitions

    def is_consistent(self) -> bool:
        try:
            self.repetition_vector()
        except GraphStructureError:
            return False
        return True

    # -- expansion ----------------------------------------------------------------
    def to_srdf(self) -> SRDFGraph:
        """Expand into an equivalent single-rate (homogeneous) dataflow graph."""
        repetitions = self.repetition_vector()
        srdf = SRDFGraph(name=f"{self.name}.hsdf")
        for actor in self._actors.values():
            for k in range(repetitions[actor.name]):
                srdf.add_actor(
                    Actor(name=f"{actor.name}#{k}", firing_duration=actor.firing_duration)
                )
        for channel in self._channels.values():
            self._expand_channel(srdf, channel, repetitions)
        return srdf

    def _expand_channel(
        self, srdf: SRDFGraph, channel: SDFChannel, repetitions: Dict[str, int]
    ) -> None:
        """Connect producing firings to the consuming firings of their tokens.

        Token ``t`` (0-based, counting initial tokens first) is produced by
        firing ``(t − tokens) // production`` of the source (or exists
        initially when ``t < tokens``) and consumed by firing
        ``t // consumption`` of the target, all within one graph iteration;
        indices wrap modulo the repetition counts with the wrap count becoming
        initial tokens on the expanded edge.
        """
        production = channel.production_rate
        consumption = channel.consumption_rate
        source_repetitions = repetitions[channel.source]
        target_repetitions = repetitions[channel.target]
        tokens_per_iteration = production * source_repetitions

        edge_index = 0
        for consumer_firing in range(target_repetitions):
            for slot in range(consumption):
                token_index = consumer_firing * consumption + slot
                shifted = token_index - channel.tokens
                # How many iterations back the producing firing lies (0 = same
                # iteration); negative shifted values are initial tokens.
                iterations_back = -(-(-shifted) // tokens_per_iteration) if shifted < 0 else 0
                if shifted < 0:
                    iterations_back = (-shifted + tokens_per_iteration - 1) // tokens_per_iteration
                producer_global = shifted + iterations_back * tokens_per_iteration
                producer_firing = producer_global // production
                initial = iterations_back
                srdf.add_queue(
                    Queue(
                        name=f"{channel.name}#{edge_index}",
                        source=f"{channel.source}#{producer_firing % source_repetitions}",
                        target=f"{channel.target}#{consumer_firing}",
                        tokens=initial,
                    )
                )
                edge_index += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SDFGraph({self.name!r}, actors={len(self._actors)}, "
            f"channels={len(self._channels)})"
        )
