"""Tests of the task-graph → SRDF construction (Section II-C of the paper)."""

from __future__ import annotations


import pytest

from repro.exceptions import AllocationError
from repro.dataflow.construction import (
    ActorRole,
    QueueKind,
    actor_firing_duration,
    build_srdf_specification,
    finish_actor_name,
    instantiate_from_configuration,
    instantiate_srdf,
    start_actor_name,
)
from repro.dataflow.mcr import is_period_feasible, maximum_cycle_ratio
from repro.baselines.budget_minimization import producer_consumer_minimum_budget


class TestSpecification:
    def test_two_actors_per_task(self, paper_producer_consumer):
        graph = paper_producer_consumer.task_graphs[0]
        spec = build_srdf_specification(graph)
        assert len(spec.actors) == 2 * len(graph.tasks)
        roles = {(a.task, a.role) for a in spec.actors}
        assert ("wa", ActorRole.START) in roles
        assert ("wa", ActorRole.FINISH) in roles

    def test_queue_kinds_and_counts(self, paper_producer_consumer):
        graph = paper_producer_consumer.task_graphs[0]
        spec = build_srdf_specification(graph)
        assert len(spec.queues_of_kind(QueueKind.TASK_INTERNAL)) == 2
        assert len(spec.queues_of_kind(QueueKind.SELF_LOOP)) == 2
        assert len(spec.queues_of_kind(QueueKind.DATA)) == 1
        assert len(spec.queues_of_kind(QueueKind.SPACE)) == 1

    def test_queue_set_partition_matches_paper(self, paper_producer_consumer):
        """E1 holds exactly the outputs of v_i1 actors, E2 those of v_i2 actors."""
        graph = paper_producer_consumer.task_graphs[0]
        spec = build_srdf_specification(graph)
        for queue in spec.queues:
            if queue.kind is QueueKind.TASK_INTERNAL:
                assert queue.in_queue_set_e1 and not queue.in_queue_set_e2
            else:
                assert queue.in_queue_set_e2 and not queue.in_queue_set_e1

    def test_data_and_space_queue_orientation(self, paper_producer_consumer):
        graph = paper_producer_consumer.task_graphs[0]
        spec = build_srdf_specification(graph)
        (data,) = spec.queues_for_buffer("bab", QueueKind.DATA)
        (space,) = spec.queues_for_buffer("bab", QueueKind.SPACE)
        assert data.source == finish_actor_name("wa")
        assert data.target == start_actor_name("wb")
        assert space.source == finish_actor_name("wb")
        assert space.target == start_actor_name("wa")
        assert data.fixed_tokens == 0           # ι(b): initially empty
        assert space.fixed_tokens is None       # γ(b) − ι(b): decided by the optimiser

    def test_self_loop_has_one_token(self, paper_chain3):
        spec = build_srdf_specification(paper_chain3.task_graphs[0])
        for queue in spec.queues_of_kind(QueueKind.SELF_LOOP):
            assert queue.fixed_tokens == 1
            assert queue.source == queue.target


class TestFiringDurations:
    def test_formulas_match_paper(self):
        # ρ(v_i1) = ̺ − β ; ρ(v_i2) = ̺·χ/β
        assert actor_firing_duration(ActorRole.START, 40.0, 1.0, 8.0) == pytest.approx(32.0)
        assert actor_firing_duration(ActorRole.FINISH, 40.0, 1.0, 8.0) == pytest.approx(5.0)

    def test_full_budget_gives_zero_waiting(self):
        assert actor_firing_duration(ActorRole.START, 40.0, 1.0, 40.0) == pytest.approx(0.0)
        assert actor_firing_duration(ActorRole.FINISH, 40.0, 2.0, 40.0) == pytest.approx(2.0)

    def test_invalid_budgets_rejected(self):
        with pytest.raises(AllocationError):
            actor_firing_duration(ActorRole.START, 40.0, 1.0, 0.0)
        with pytest.raises(AllocationError):
            actor_firing_duration(ActorRole.FINISH, 40.0, 1.0, 41.0)


class TestInstantiation:
    def test_instantiated_graph_structure(self, paper_producer_consumer):
        graph = paper_producer_consumer.task_graphs[0]
        spec = build_srdf_specification(graph)
        srdf = instantiate_srdf(
            spec,
            graph,
            paper_producer_consumer.platform,
            budgets={"wa": 10.0, "wb": 10.0},
            capacities={"bab": 4},
        )
        assert len(srdf.actors) == 4
        assert len(srdf.queues) == 6
        assert srdf.tokens("bab.space") == 4
        assert srdf.tokens("bab.data") == 0
        assert srdf.firing_duration(start_actor_name("wa")) == pytest.approx(30.0)
        assert srdf.firing_duration(finish_actor_name("wa")) == pytest.approx(4.0)

    def test_missing_budget_or_capacity_rejected(self, paper_producer_consumer):
        graph = paper_producer_consumer.task_graphs[0]
        spec = build_srdf_specification(graph)
        with pytest.raises(AllocationError):
            instantiate_srdf(
                spec, graph, paper_producer_consumer.platform, {"wa": 10.0}, {"bab": 4}
            )
        with pytest.raises(AllocationError):
            instantiate_srdf(
                spec,
                graph,
                paper_producer_consumer.platform,
                {"wa": 10.0, "wb": 10.0},
                {},
            )

    def test_capacity_below_initial_tokens_rejected(self):
        from repro.taskgraph.generators import ring_configuration

        config = ring_configuration(stages=3, initial_tokens=2)
        graph = config.task_graphs[0]
        spec = build_srdf_specification(graph)
        budgets = {task.name: 10.0 for task in graph.tasks}
        capacities = {buffer.name: 2 for buffer in graph.buffers}
        capacities["b2"] = 1  # buffer b2 carries the 2 initial tokens
        with pytest.raises(AllocationError):
            instantiate_srdf(spec, graph, config.platform, budgets, capacities)

    def test_initial_tokens_split_between_data_and_space(self):
        from repro.taskgraph.generators import ring_configuration

        config = ring_configuration(stages=3, initial_tokens=2)
        graph = config.task_graphs[0]
        spec = build_srdf_specification(graph)
        budgets = {task.name: 10.0 for task in graph.tasks}
        capacities = {buffer.name: 5 for buffer in graph.buffers}
        srdf = instantiate_srdf(spec, graph, config.platform, budgets, capacities)
        # The feedback buffer has ι = 2 data tokens and 5 − 2 = 3 space tokens.
        assert srdf.tokens("b2.data") == 2
        assert srdf.tokens("b2.space") == 3

    def test_instantiate_from_configuration(self, paper_chain3):
        budgets = {task.name: 10.0 for _, task in paper_chain3.all_tasks()}
        capacities = {buffer.name: 5 for _, buffer in paper_chain3.all_buffers()}
        graphs = instantiate_from_configuration(paper_chain3, budgets, capacities)
        assert set(graphs) == {"chain3"}
        assert len(graphs["chain3"].actors) == 6


class TestConstructionSemantics:
    """The instantiated dataflow graph must reflect the known analytic behaviour."""

    def test_throughput_feasibility_matches_closed_form(self, paper_producer_consumer):
        """PAS feasibility of the instantiated graph flips exactly at β_min(d)."""
        graph = paper_producer_consumer.task_graphs[0]
        spec = build_srdf_specification(graph)
        for capacity in (2, 4, 7):
            beta_min = producer_consumer_minimum_budget(capacity)
            for factor, expected in ((1.02, True), (0.9, False)):
                budget = min(beta_min * factor, 40.0)
                srdf = instantiate_srdf(
                    spec,
                    graph,
                    paper_producer_consumer.platform,
                    budgets={"wa": budget, "wb": budget},
                    capacities={"bab": capacity},
                )
                assert is_period_feasible(srdf, graph.period) is expected, (
                    capacity,
                    factor,
                )

    def test_mcr_decreases_with_capacity(self, paper_producer_consumer):
        graph = paper_producer_consumer.task_graphs[0]
        spec = build_srdf_specification(graph)
        budgets = {"wa": 10.0, "wb": 10.0}
        periods = []
        for capacity in (1, 2, 4, 8):
            srdf = instantiate_srdf(
                spec, graph, paper_producer_consumer.platform, budgets, {"bab": capacity}
            )
            periods.append(maximum_cycle_ratio(srdf))
        assert all(earlier >= later - 1e-9 for earlier, later in zip(periods, periods[1:]))

    def test_mcr_decreases_with_budget(self, paper_producer_consumer):
        graph = paper_producer_consumer.task_graphs[0]
        spec = build_srdf_specification(graph)
        periods = []
        for budget in (5.0, 10.0, 20.0, 40.0):
            srdf = instantiate_srdf(
                spec,
                graph,
                paper_producer_consumer.platform,
                {"wa": budget, "wb": budget},
                {"bab": 4},
            )
            periods.append(maximum_cycle_ratio(srdf))
        assert all(earlier >= later - 1e-9 for earlier, later in zip(periods, periods[1:]))
