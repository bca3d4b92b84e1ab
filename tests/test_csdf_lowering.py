"""Unit tests of the CSDF → SRDF lowering in dataflow/construction.

The expansion is checked structurally (actor/queue counts, repetition
vectors), against rejection of malformed rate profiles, and against a
hand-computed two-phase chain whose maximum cycle ratio is known exactly.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ModelError
from repro.dataflow.construction import (
    QueueKind,
    build_srdf_specification,
    instantiate_srdf,
)
from repro.dataflow.mcr import is_period_feasible, maximum_cycle_ratio
from repro.taskgraph import (
    Buffer,
    Memory,
    Platform,
    Processor,
    Task,
    TaskGraph,
)


def _platform(count: int = 2, interval: float = 4.0) -> Platform:
    return Platform(
        processors=[
            Processor(name=f"p{i + 1}", replenishment_interval=interval)
            for i in range(count)
        ],
        memories=[Memory(name="m1")],
    )


def _two_phase_chain() -> TaskGraph:
    """Two-phase producer feeding a single-phase consumer.

    ``a`` cycles through phases of 1.0 and 2.0 Mcycles, producing one token
    per phase; ``b`` consumes two tokens per firing.  The balance equations
    give ``q(a) = q(b) = 1``, hence ``R(a) = 2`` and ``R(b) = 1`` with
    ``T = 2`` tokens moved per iteration.
    """
    graph = TaskGraph(name="two-phase", period=10.0)
    graph.add_task(Task(name="a", wcet=0.0, phases=(1.0, 2.0), processor="p1"))
    graph.add_task(Task(name="b", wcet=1.0, processor="p2"))
    graph.add_buffer(
        Buffer(
            name="c",
            source="a",
            target="b",
            memory="m1",
            production_rates=(1, 1),
            consumption_rates=(2,),
        )
    )
    return graph


class TestStructure:
    def test_repetition_vector_of_two_phase_chain(self):
        graph = _two_phase_chain()
        assert graph.repetitions() == {"a": 1, "b": 1}

    def test_repetition_vector_scales_with_rates(self):
        graph = TaskGraph(name="scaled", period=10.0)
        graph.add_task(Task(name="a", wcet=1.0, processor="p1"))
        graph.add_task(Task(name="b", wcet=1.0, processor="p2"))
        graph.add_buffer(
            Buffer(
                name="c",
                source="a",
                target="b",
                memory="m1",
                production_rates=(3,),
                consumption_rates=(2,),
            )
        )
        assert graph.repetitions() == {"a": 2, "b": 3}

    def test_unrolled_actor_and_queue_counts(self):
        specification = build_srdf_specification(_two_phase_chain())
        # R(a) = 2 and R(b) = 1 copies, two actors per copy.
        assert len(specification.actors) == 6
        names = set(specification.actor_names())
        assert {"a#0.v1", "a#0.v2", "a#1.v1", "a#1.v2", "b.v1", "b.v2"} == names
        # 3 internals + 2 serialisation arcs + 1 self-loop + 1 data + 2 space.
        assert len(specification.queues) == 9
        assert len(specification.queues_of_kind(QueueKind.TASK_INTERNAL)) == 3
        assert len(specification.queues_of_kind(QueueKind.SELF_LOOP)) == 3
        assert len(specification.queues_for_buffer("c", QueueKind.DATA)) == 1
        assert len(specification.queues_for_buffer("c", QueueKind.SPACE)) == 2

    def test_serialisation_chain_carries_one_token(self):
        specification = build_srdf_specification(_two_phase_chain())
        chain = {
            queue.name: queue
            for queue in specification.queues_of_kind(QueueKind.SELF_LOOP)
        }
        assert chain["a.seq0"].fixed_tokens == 0
        assert chain["a.seq1"].fixed_tokens == 1
        assert chain["a.seq1"].source == "a#1.v2"
        assert chain["a.seq1"].target == "a#0.v2"
        # The single-copy consumer keeps the legacy self-loop.
        assert chain["b.self"].fixed_tokens == 1

    def test_data_edge_binds_the_releasing_producer_copy(self):
        specification = build_srdf_specification(_two_phase_chain())
        (data,) = specification.queues_for_buffer("c", QueueKind.DATA)
        # b's single firing needs both tokens of the iteration, which only
        # a's second copy has produced.
        assert data.source == "a#1.v2"
        assert data.target == "b.v1"
        assert data.fixed_tokens == 0

    def test_space_edges_are_affine_in_the_capacity(self):
        specification = build_srdf_specification(_two_phase_chain())
        space = {
            queue.name: queue
            for queue in specification.queues_for_buffer("c", QueueKind.SPACE)
        }
        # T = 2 tokens per iteration: scale 1/2; offsets (cc − cp − ι) / T.
        assert space["c.space0"].token_scale == pytest.approx(0.5)
        assert space["c.space0"].token_offset == pytest.approx(0.5)
        assert space["c.space1"].token_scale == pytest.approx(0.5)
        assert space["c.space1"].token_offset == pytest.approx(0.0)
        assert space["c.space0"].target == "a#0.v1"
        assert space["c.space1"].target == "a#1.v1"


class TestRejection:
    def test_zero_rate_profile_is_rejected(self):
        with pytest.raises(ModelError, match="must not all be zero"):
            Buffer(
                name="c",
                source="a",
                target="b",
                memory="m1",
                production_rates=(0, 0),
            )

    def test_empty_phase_list_is_rejected(self):
        with pytest.raises(ModelError, match="non-empty"):
            Task(name="a", wcet=1.0, processor="p1", phases=())

    def test_rate_length_must_match_phase_count(self):
        graph = TaskGraph(name="mismatch", period=10.0)
        graph.add_task(Task(name="a", wcet=0.0, phases=(1.0, 2.0), processor="p1"))
        graph.add_task(Task(name="b", wcet=1.0, processor="p2"))
        graph.add_buffer(
            Buffer(
                name="c",
                source="a",
                target="b",
                memory="m1",
                production_rates=(1, 1, 1),
            )
        )
        with pytest.raises(ModelError, match="3 entries"):
            build_srdf_specification(graph)

    def test_inconsistent_rates_have_no_repetition_vector(self):
        graph = TaskGraph(name="inconsistent", period=10.0)
        for name in ("a", "b", "c"):
            graph.add_task(Task(name=name, wcet=1.0, processor="p1"))
        graph.add_buffer(Buffer(name="ab", source="a", target="b", memory="m1"))
        graph.add_buffer(Buffer(name="bc", source="b", target="c", memory="m1"))
        graph.add_buffer(
            Buffer(
                name="ac",
                source="a",
                target="c",
                memory="m1",
                production_rates=(2,),
                consumption_rates=(1,),
            )
        )
        with pytest.raises(ModelError, match="inconsistent cyclo-static rates"):
            build_srdf_specification(graph)


class TestHandComputedMcr:
    """Instantiate the two-phase chain and check the exact cycle ratio."""

    def _instantiate(self, capacity: int):
        graph = _two_phase_chain()
        specification = build_srdf_specification(graph)
        return instantiate_srdf(
            specification,
            graph,
            _platform(interval=4.0),
            budgets={"a": 4.0, "b": 4.0},
            capacities={"c": capacity},
        )

    def test_firing_durations_follow_the_phases(self):
        srdf = self._instantiate(capacity=4)
        durations = {actor.name: actor.firing_duration for actor in srdf.actors}
        # Full budgets: v1 actors wait 0; v2 actors run ̺·χ_phase/β.
        assert durations["a#0.v1"] == pytest.approx(0.0)
        assert durations["a#0.v2"] == pytest.approx(1.0)
        assert durations["a#1.v2"] == pytest.approx(2.0)
        assert durations["b.v2"] == pytest.approx(1.0)

    def test_space_tokens_are_fractional_affine_values(self):
        srdf = self._instantiate(capacity=4)
        tokens = {queue.name: queue.tokens for queue in srdf.queues}
        assert tokens["c.space0"] == pytest.approx(2.5)
        assert tokens["c.space1"] == pytest.approx(2.0)
        assert not all(queue.has_integral_tokens for queue in srdf.queues)

    def test_maximum_cycle_ratio_is_the_serial_chain(self):
        # The serialisation chain carries one token past 1.0 + 2.0 time units
        # of execution, so one full iteration of `a` takes 3 time units and
        # no other cycle is slower at capacity 4.
        srdf = self._instantiate(capacity=4)
        assert maximum_cycle_ratio(srdf) == pytest.approx(3.0)
        assert is_period_feasible(srdf, 3.0)
        assert not is_period_feasible(srdf, 2.9)

    def test_tight_capacity_slows_the_iteration(self):
        # With capacity 1 only half an iteration of space exists: the space
        # edge b.v2 → a#0.v1 carries one token for three time units of
        # execution around the cycle.
        srdf = self._instantiate(capacity=1)
        assert maximum_cycle_ratio(srdf) > 3.0
