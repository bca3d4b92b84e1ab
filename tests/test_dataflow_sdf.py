"""Tests for the multi-rate SDF extension (repetition vectors, SRDF expansion)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import GraphStructureError, ModelError
from repro.dataflow.mcr import maximum_cycle_ratio
from repro.dataflow.sdf import SDFActor, SDFChannel, SDFGraph
from repro.dataflow.simulation import simulate


def _downsampler() -> SDFGraph:
    """A 2:1 down-sampler: src produces 2 tokens, snk consumes 1 per firing."""
    graph = SDFGraph("downsample")
    graph.add_actor(SDFActor("src", 1.0))
    graph.add_actor(SDFActor("snk", 1.0))
    graph.add_channel(SDFChannel("c", "src", "snk", production_rate=2, consumption_rate=1))
    return graph


class TestRepetitionVector:
    def test_single_rate_graph(self):
        graph = SDFGraph("sr")
        graph.add_actor(SDFActor("a", 1.0))
        graph.add_actor(SDFActor("b", 1.0))
        graph.add_channel(SDFChannel("ab", "a", "b", 1, 1))
        assert graph.repetition_vector() == {"a": 1, "b": 1}

    def test_downsampler(self):
        assert _downsampler().repetition_vector() == {"src": 1, "snk": 2}

    def test_three_actor_rates(self):
        graph = SDFGraph("abc")
        graph.add_actor(SDFActor("a", 1.0))
        graph.add_actor(SDFActor("b", 1.0))
        graph.add_actor(SDFActor("c", 1.0))
        graph.add_channel(SDFChannel("ab", "a", "b", 3, 2))
        graph.add_channel(SDFChannel("bc", "b", "c", 1, 2))
        repetitions = graph.repetition_vector()
        assert repetitions == {"a": 4, "b": 6, "c": 3}
        # Balance equations hold.
        assert repetitions["a"] * 3 == repetitions["b"] * 2
        assert repetitions["b"] * 1 == repetitions["c"] * 2

    def test_inconsistent_graph_detected(self):
        graph = SDFGraph("bad")
        graph.add_actor(SDFActor("a", 1.0))
        graph.add_actor(SDFActor("b", 1.0))
        graph.add_channel(SDFChannel("ab", "a", "b", 2, 1))
        graph.add_channel(SDFChannel("ba", "b", "a", 1, 1, tokens=2))
        assert not graph.is_consistent()
        with pytest.raises(GraphStructureError):
            graph.repetition_vector()

    def test_disconnected_components(self):
        graph = SDFGraph("two")
        graph.add_actor(SDFActor("a", 1.0))
        graph.add_actor(SDFActor("b", 1.0))
        assert graph.repetition_vector() == {"a": 1, "b": 1}

    def test_disconnected_components_are_normalised_separately(self):
        graph = SDFGraph("two-chains")
        for name in "abcd":
            graph.add_actor(SDFActor(name, 1.0))
        graph.add_channel(SDFChannel("ab", "a", "b", 1, 2))
        graph.add_channel(SDFChannel("cd", "c", "d", 1, 3))
        assert graph.repetition_vector() == {"a": 2, "b": 1, "c": 3, "d": 1}

    def test_empty_graph(self):
        assert SDFGraph("empty").repetition_vector() == {}

    def test_validation_of_inputs(self):
        with pytest.raises(ModelError):
            SDFActor("", 1.0)
        with pytest.raises(ModelError):
            SDFChannel("c", "a", "b", 0, 1)
        graph = SDFGraph("g")
        graph.add_actor(SDFActor("a", 1.0))
        with pytest.raises(GraphStructureError):
            graph.add_channel(SDFChannel("c", "a", "zzz", 1, 1))


class TestSrdfExpansion:
    def test_actor_copies_match_repetition_vector(self):
        srdf = _downsampler().to_srdf()
        names = set(srdf.actor_names)
        assert names == {"src#0", "snk#0", "snk#1"}

    def test_expanded_edges_preserve_dependencies(self):
        srdf = _downsampler().to_srdf()
        # Both snk firings depend on src firing 0 in the same iteration.
        incoming = {q.source for q in srdf.input_queues("snk#0")}
        assert incoming == {"src#0"}
        incoming = {q.source for q in srdf.input_queues("snk#1")}
        assert incoming == {"src#0"}
        assert all(q.tokens == 0 for q in srdf.queues)

    def test_initial_tokens_become_iteration_offsets(self):
        graph = SDFGraph("cycle")
        graph.add_actor(SDFActor("a", 1.0))
        graph.add_actor(SDFActor("b", 2.0))
        graph.add_channel(SDFChannel("ab", "a", "b", 1, 1))
        graph.add_channel(SDFChannel("ba", "b", "a", 1, 1, tokens=1))
        srdf = graph.to_srdf()
        # Exactly one expanded edge of 'ba' carries the initial token.
        ba_edges = [q for q in srdf.queues if q.name.startswith("ba#")]
        assert sum(q.tokens for q in ba_edges) == 1
        # The expanded graph is live and has MCR = (1 + 2) / 1 = 3.
        assert maximum_cycle_ratio(srdf) == pytest.approx(3.0, rel=1e-6)

    def test_expanded_graph_simulates(self):
        graph = SDFGraph("cycle")
        graph.add_actor(SDFActor("a", 1.0))
        graph.add_actor(SDFActor("b", 1.0))
        graph.add_channel(SDFChannel("ab", "a", "b", 2, 1))
        graph.add_channel(SDFChannel("ba", "b", "a", 1, 2, tokens=2))
        srdf = graph.to_srdf()
        trace = simulate(srdf, iterations=10)
        assert trace.iterations == 10


@settings(max_examples=30, deadline=None)
@given(
    production=st.integers(min_value=1, max_value=4),
    consumption=st.integers(min_value=1, max_value=4),
    duration_src=st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
    duration_snk=st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
)
def test_repetition_vector_balances_every_channel(
    production, consumption, duration_src, duration_snk
):
    """Property: the repetition vector satisfies the balance equations."""
    graph = SDFGraph("prop")
    graph.add_actor(SDFActor("src", duration_src))
    graph.add_actor(SDFActor("snk", duration_snk))
    graph.add_channel(SDFChannel("c", "src", "snk", production, consumption))
    repetitions = graph.repetition_vector()
    assert repetitions["src"] * production == repetitions["snk"] * consumption
    import math

    assert math.gcd(repetitions["src"], repetitions["snk"]) == 1


@settings(max_examples=20, deadline=None)
@given(
    production=st.integers(min_value=1, max_value=3),
    consumption=st.integers(min_value=1, max_value=3),
)
def test_expansion_preserves_total_token_production(production, consumption):
    """Property: the expanded SRDF graph has one edge per consumed token per iteration."""
    graph = SDFGraph("prop")
    graph.add_actor(SDFActor("src", 1.0))
    graph.add_actor(SDFActor("snk", 1.0))
    graph.add_channel(SDFChannel("c", "src", "snk", production, consumption))
    repetitions = graph.repetition_vector()
    srdf = graph.to_srdf()
    expanded_edges = [q for q in srdf.queues if q.name.startswith("c#")]
    assert len(expanded_edges) == consumption * repetitions["snk"]
