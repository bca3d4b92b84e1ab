"""Unit tests for SRDF graphs."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphStructureError, ModelError
from repro.dataflow.graph import Actor, Queue, SRDFGraph


class TestActorAndQueue:
    def test_actor_rejects_negative_duration(self):
        with pytest.raises(ModelError):
            Actor("a", -1.0)

    def test_queue_rejects_negative_tokens(self):
        with pytest.raises(ModelError):
            Queue("q", "a", "b", tokens=-1)

    def test_self_loop_detection(self):
        assert Queue("q", "a", "a", tokens=1).is_self_loop
        assert not Queue("q", "a", "b", tokens=1).is_self_loop


class TestSRDFGraph:
    def _graph(self) -> SRDFGraph:
        graph = SRDFGraph("g")
        graph.add_actor(Actor("a", 1.0))
        graph.add_actor(Actor("b", 2.0))
        graph.add_queue(Queue("ab", "a", "b", tokens=0))
        graph.add_queue(Queue("ba", "b", "a", tokens=3))
        return graph

    def test_lookup(self):
        graph = self._graph()
        assert graph.firing_duration("b") == 2.0
        assert graph.tokens("ba") == 3
        with pytest.raises(GraphStructureError):
            graph.actor("zzz")
        with pytest.raises(GraphStructureError):
            graph.queue("zzz")

    def test_duplicate_names_rejected(self):
        graph = self._graph()
        with pytest.raises(ModelError):
            graph.add_actor(Actor("a", 1.0))
        with pytest.raises(ModelError):
            graph.add_queue(Queue("ab", "a", "b", tokens=1))

    def test_queue_endpoints_must_exist(self):
        graph = self._graph()
        with pytest.raises(GraphStructureError):
            graph.add_queue(Queue("xz", "x", "z", tokens=0))

    def test_adjacency(self):
        graph = self._graph()
        assert [q.name for q in graph.output_queues("a")] == ["ab"]
        assert [q.name for q in graph.input_queues("a")] == ["ba"]

    def test_total_tokens(self):
        assert self._graph().total_tokens() == 3

    def test_with_updates_creates_modified_copy(self):
        graph = self._graph()
        faster = graph.with_updates(firing_durations={"b": 0.5}, tokens={"ab": 2})
        assert faster.firing_duration("b") == 0.5
        assert faster.tokens("ab") == 2
        # original untouched
        assert graph.firing_duration("b") == 2.0
        assert graph.tokens("ab") == 0

    def test_with_updates_rejects_unknown_names(self):
        graph = self._graph()
        with pytest.raises(GraphStructureError):
            graph.with_updates(firing_durations={"zzz": 1.0})

    def test_deadlock_detection(self):
        graph = self._graph()
        assert graph.is_deadlock_free()
        graph.add_actor(Actor("c", 1.0))
        graph.add_queue(Queue("bc", "b", "c", tokens=0))
        graph.add_queue(Queue("cb", "c", "b", tokens=0))
        assert not graph.is_deadlock_free()

    def test_tokenless_self_loop_deadlocks(self):
        graph = SRDFGraph("g")
        graph.add_actor(Actor("a", 1.0))
        graph.add_queue(Queue("aa", "a", "a", tokens=0))
        assert not graph.is_deadlock_free()

    def test_simple_cycles_include_self_loops(self):
        graph = self._graph()
        graph.add_queue(Queue("aa", "a", "a", tokens=1))
        cycles = graph.simple_cycles()
        lengths = sorted(len(c) for c in cycles)
        assert lengths == [1, 2]

    def test_parallel_edges_pick_fewest_tokens(self):
        graph = self._graph()
        graph.add_queue(Queue("ba2", "b", "a", tokens=1))
        cycles = graph.simple_cycles()
        two_hop = [c for c in cycles if len(c) == 2][0]
        tokens = {q.name for q in two_hop}
        assert "ba2" in tokens  # the parallel edge with fewer tokens is chosen
