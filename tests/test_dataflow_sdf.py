"""Multi-rate (SDF) task graphs: repetition vectors and their lowering to SRDF.

A buffer with non-unit token rates makes its tasks fire ``q(w)`` times per
graph iteration.  :meth:`TaskGraph.repetitions` solves ``q`` from the
balance equations, and :func:`build_srdf_specification` gives every firing
its own two-actor copy, with one data queue per consuming copy bound to the
producing copy that releases its tokens.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import GraphStructureError, ModelError
from repro.dataflow.construction import (
    QueueKind,
    build_srdf_specification,
    instantiate_srdf,
)
from repro.dataflow.mcr import maximum_cycle_ratio
from repro.dataflow.simulation import simulate
from repro.taskgraph import Buffer, Memory, Platform, Processor, Task, TaskGraph


def _sdf(name, wcets, channels) -> TaskGraph:
    """Tasks ``{name: wcet}`` on processors ``p1, p2, …`` and buffers
    ``(name, source, target, production, consumption, initial tokens)``."""
    graph = TaskGraph(name=name, period=100.0)
    for index, (task, wcet) in enumerate(wcets.items()):
        graph.add_task(Task(name=task, wcet=wcet, processor=f"p{index + 1}"))
    for buffer, source, target, production, consumption, tokens in channels:
        graph.add_buffer(
            Buffer(
                name=buffer,
                source=source,
                target=target,
                memory="m1",
                initial_tokens=tokens,
                production_rates=(production,),
                consumption_rates=(consumption,),
            )
        )
    return graph


def _downsampler() -> TaskGraph:
    """A 2:1 down-sampler: src produces 2 tokens, snk consumes 1 per firing."""
    return _sdf("downsample", {"src": 1.0, "snk": 1.0}, [("c", "src", "snk", 2, 1, 0)])


def _instantiate(graph: TaskGraph, capacities):
    """The graph's SRDF at full budgets: ``v1`` waits 0 and ``v2`` takes ``wcet``."""
    interval = 4.0
    platform = Platform(
        processors=[
            Processor(name=f"p{index + 1}", replenishment_interval=interval)
            for index in range(len(graph))
        ],
        memories=[Memory(name="m1")],
    )
    return instantiate_srdf(
        build_srdf_specification(graph),
        graph,
        platform,
        {task.name: interval for task in graph.tasks},
        capacities,
    )


class TestRepetitionVector:
    def test_single_rate_graph(self):
        graph = _sdf("sr", {"a": 1.0, "b": 1.0}, [("ab", "a", "b", 1, 1, 0)])
        assert graph.repetitions() == {"a": 1, "b": 1}

    def test_downsampler(self):
        assert _downsampler().repetitions() == {"src": 1, "snk": 2}

    def test_three_actor_rates(self):
        graph = _sdf(
            "abc",
            {"a": 1.0, "b": 1.0, "c": 1.0},
            [("ab", "a", "b", 3, 2, 0), ("bc", "b", "c", 1, 2, 0)],
        )
        repetitions = graph.repetitions()
        assert repetitions == {"a": 4, "b": 6, "c": 3}
        # Balance equations hold.
        assert repetitions["a"] * 3 == repetitions["b"] * 2
        assert repetitions["b"] * 1 == repetitions["c"] * 2

    def test_inconsistent_graph_detected(self):
        graph = _sdf(
            "bad",
            {"a": 1.0, "b": 1.0},
            [("ab", "a", "b", 2, 1, 0), ("ba", "b", "a", 1, 1, 2)],
        )
        with pytest.raises(ModelError, match="inconsistent cyclo-static rates"):
            graph.repetitions()
        with pytest.raises(ModelError, match="inconsistent cyclo-static rates"):
            build_srdf_specification(graph)

    def test_disconnected_components(self):
        graph = _sdf("two", {"a": 1.0, "b": 1.0}, [])
        assert graph.repetitions() == {"a": 1, "b": 1}

    def test_disconnected_components_are_normalised_separately(self):
        graph = _sdf(
            "two-chains",
            dict.fromkeys("abcd", 1.0),
            [("ab", "a", "b", 1, 2, 0), ("cd", "c", "d", 1, 3, 0)],
        )
        assert graph.repetitions() == {"a": 2, "b": 1, "c": 3, "d": 1}

    def test_empty_graph(self):
        assert TaskGraph(name="empty", period=1.0).repetitions() == {}

    def test_validation_of_inputs(self):
        with pytest.raises(ModelError):
            Task(name="", wcet=1.0, processor="p1")
        with pytest.raises(ModelError, match="must not all be zero"):
            Buffer(name="c", source="a", target="b", memory="m1", production_rates=(0,))
        graph = _sdf("g", {"a": 1.0}, [])
        with pytest.raises(GraphStructureError):
            graph.add_buffer(Buffer(name="c", source="a", target="zzz", memory="m1"))


class TestSrdfExpansion:
    def test_actor_copies_match_repetition_vector(self):
        specification = build_srdf_specification(_downsampler())
        copies = {actor.name.rsplit(".", 1)[0] for actor in specification.actors}
        assert copies == {"src", "snk#0", "snk#1"}

    def test_expanded_edges_preserve_dependencies(self):
        specification = build_srdf_specification(_downsampler())
        data = specification.queues_for_buffer("c", QueueKind.DATA)
        # Both snk firings depend on src firing 0 in the same iteration.
        assert [(queue.source, queue.target) for queue in data] == [
            ("src.v2", "snk#0.v1"),
            ("src.v2", "snk#1.v1"),
        ]
        assert all(queue.fixed_tokens == 0 for queue in data)

    def test_initial_tokens_become_iteration_offsets(self):
        graph = _sdf(
            "cycle",
            {"a": 1.0, "b": 2.0},
            [("ab", "a", "b", 1, 1, 0), ("ba", "b", "a", 1, 1, 1)],
        )
        specification = build_srdf_specification(graph)
        # Exactly one data queue of 'ba' carries the initial token.
        ba = specification.queues_for_buffer("ba", QueueKind.DATA)
        assert sum(queue.fixed_tokens for queue in ba) == 1
        # The graph is live and has MCR = (1 + 2) / 1 = 3.
        srdf = _instantiate(graph, {"ab": 2, "ba": 2})
        assert maximum_cycle_ratio(srdf) == pytest.approx(3.0, rel=1e-6)

    def test_expanded_graph_simulates(self):
        # src's one space queue carries γ/2 tokens: integral at γ = 4.
        srdf = _instantiate(_downsampler(), {"c": 4})
        trace = simulate(srdf, iterations=10)
        assert trace.iterations == 10


@settings(max_examples=30, deadline=None)
@given(
    production=st.integers(min_value=1, max_value=4),
    consumption=st.integers(min_value=1, max_value=4),
)
def test_repetition_vector_balances_every_channel(production, consumption):
    """Property: the repetition vector satisfies the balance equations."""
    graph = _sdf(
        "prop", {"src": 1.0, "snk": 1.0}, [("c", "src", "snk", production, consumption, 0)]
    )
    repetitions = graph.repetitions()
    assert repetitions["src"] * production == repetitions["snk"] * consumption
    assert math.gcd(repetitions["src"], repetitions["snk"]) == 1


@settings(max_examples=20, deadline=None)
@given(
    production=st.integers(min_value=1, max_value=3),
    consumption=st.integers(min_value=1, max_value=3),
)
def test_expansion_preserves_total_token_production(production, consumption):
    """Property: one data queue per consumer firing, one space queue per
    producer firing, and every space queue counts the ``T`` tokens the
    buffer moves per iteration."""
    graph = _sdf(
        "prop", {"src": 1.0, "snk": 1.0}, [("c", "src", "snk", production, consumption, 0)]
    )
    repetitions = graph.repetitions()
    specification = build_srdf_specification(graph)
    data = specification.queues_for_buffer("c", QueueKind.DATA)
    space = specification.queues_for_buffer("c", QueueKind.SPACE)
    assert len(data) == repetitions["snk"]
    assert len(space) == repetitions["src"]
    tokens = production * repetitions["src"]
    assert tokens == consumption * repetitions["snk"]
    assert all(queue.token_scale == 1.0 / tokens for queue in space)
