"""Tests for the synthetic configuration generators."""

from __future__ import annotations

import pytest

from repro._graphs import topological_order
from repro.dataflow.construction import build_srdf_specification
from repro.exceptions import ModelError
from repro.taskgraph.generators import (
    chain_configuration,
    csdf_chain_configuration,
    fork_join_configuration,
    heterogeneous_random_configuration,
    multi_job_configuration,
    producer_consumer_configuration,
    random_dag_configuration,
    ring_configuration,
)


class TestProducerConsumer:
    def test_matches_paper_parameters(self):
        config = producer_consumer_configuration()
        config.validate()
        graph = config.task_graph("T1")
        assert graph.period == 10.0
        assert graph.task("wa").wcet == 1.0
        assert config.platform.processor("p1").replenishment_interval == 40.0
        assert graph.task("wa").processor != graph.task("wb").processor
        buffer = graph.buffer("bab")
        assert buffer.initial_tokens == 0
        assert buffer.container_size == 1.0

    def test_capacity_bound_is_applied(self):
        config = producer_consumer_configuration(max_capacity=3)
        assert config.task_graph("T1").buffer("bab").max_capacity == 3

    def test_weights_prefer_budgets(self):
        config = producer_consumer_configuration()
        graph = config.task_graph("T1")
        assert graph.task("wa").budget_weight > graph.buffer("bab").capacity_weight


class TestChain:
    def test_three_stage_chain_matches_paper(self):
        config = chain_configuration(stages=3)
        config.validate()
        graph = config.task_graph("chain3")
        assert sorted(graph.task_names) == ["wa", "wb", "wc"]
        assert sorted(graph.buffer_names) == ["bab", "bbc"]
        assert graph.buffer("bab").source == "wa"
        assert graph.buffer("bbc").target == "wc"
        # One processor per stage.
        assert len(set(t.processor for t in graph.tasks)) == 3

    def test_longer_chains(self):
        config = chain_configuration(stages=6)
        config.validate()
        assert len(config.task_graph("chain6").buffers) == 5

    def test_rejects_single_stage(self):
        with pytest.raises(ModelError):
            chain_configuration(stages=1)


class TestForkJoin:
    def test_structure(self):
        config = fork_join_configuration(branches=3)
        config.validate()
        graph = config.task_graphs[0]
        assert len(graph.tasks) == 5
        assert len(graph.buffers) == 6
        assert graph.successors("split") == ["worker1", "worker2", "worker3"]
        assert graph.predecessors("merge") == ["worker1", "worker2", "worker3"]

    def test_rejects_zero_branches(self):
        with pytest.raises(ModelError):
            fork_join_configuration(branches=0)


class TestRing:
    def test_cyclic_structure_with_initial_tokens(self):
        config = ring_configuration(stages=4, initial_tokens=2)
        config.validate()
        graph = config.task_graphs[0]
        assert len(graph.buffers) == 4
        assert sum(b.initial_tokens for b in graph.buffers) == 2
        assert graph.undirected_cycles_exist()

    def test_requires_initial_tokens(self):
        with pytest.raises(ModelError):
            ring_configuration(stages=3, initial_tokens=0)


class TestRandomDag:
    def test_deterministic_for_seed(self):
        a = random_dag_configuration(task_count=10, processor_count=3, seed=7)
        b = random_dag_configuration(task_count=10, processor_count=3, seed=7)
        assert [t.wcet for _, t in a.all_tasks()] == [t.wcet for _, t in b.all_tasks()]
        assert [bf.name for _, bf in a.all_buffers()] == [bf.name for _, bf in b.all_buffers()]

    def test_different_seeds_differ(self):
        a = random_dag_configuration(task_count=10, processor_count=3, seed=1)
        b = random_dag_configuration(task_count=10, processor_count=3, seed=2)
        assert [round(t.wcet, 6) for _, t in a.all_tasks()] != [
            round(t.wcet, 6) for _, t in b.all_tasks()
        ]

    def test_validates_and_is_connected(self):
        config = random_dag_configuration(task_count=12, processor_count=4, seed=3)
        config.validate()
        assert config.task_graphs[0].is_connected()

    def test_acyclic(self):
        config = random_dag_configuration(task_count=12, processor_count=4, seed=5)
        graph = config.task_graphs[0]
        edges = [(buffer.source, buffer.target) for buffer in graph.buffers]
        assert topological_order(graph.task_names, edges) is not None

    def test_rejects_tiny_inputs(self):
        with pytest.raises(ModelError):
            random_dag_configuration(task_count=1, processor_count=1)


class TestMultiJob:
    def test_jobs_share_processors(self):
        config = multi_job_configuration(job_count=3, stages_per_job=2)
        config.validate()
        assert len(config.task_graphs) == 3
        # Stage 0 of every job is bound to p1.
        stage0_processors = {
            graph.task(f"{graph.name}_s0").processor for graph in config.task_graphs
        }
        assert stage0_processors == {"p1"}

    def test_rejects_invalid_counts(self):
        with pytest.raises(ModelError):
            multi_job_configuration(job_count=0)
        with pytest.raises(ModelError):
            multi_job_configuration(stages_per_job=1)


class TestCsdfChain:
    def test_validates_and_is_cyclo_static(self):
        config = csdf_chain_configuration(stages=3, phases_per_task=2)
        config.validate()
        graph = config.task_graphs[0]
        assert all(task.phase_count == 2 for task in graph.tasks)
        assert graph.repetitions() == {task.name: 1 for task in graph.tasks}
        # Two phase copies per task, two actors per copy.
        specification = build_srdf_specification(graph)
        assert len(specification.actors) == 2 * 2 * len(graph.tasks)

    def test_phases_sum_to_the_nominal_wcet(self):
        config = csdf_chain_configuration(wcet=2.0, phases_per_task=3)
        for _, task in config.all_tasks():
            assert sum(task.phases) == pytest.approx(2.0)

    def test_single_phase_degenerates_to_plain_chain(self):
        config = csdf_chain_configuration(phases_per_task=1)
        graph = config.task_graphs[0]
        assert graph.repetitions() == {task.name: 1 for task in graph.tasks}
        # One copy per task: the plain two-actor construction.
        specification = build_srdf_specification(graph)
        assert len(specification.actors) == 2 * len(graph.tasks)

    def test_rejects_invalid_counts(self):
        with pytest.raises(ModelError):
            csdf_chain_configuration(stages=1)
        with pytest.raises(ModelError):
            csdf_chain_configuration(phases_per_task=0)


class TestHeterogeneousRandom:
    def test_validates_on_the_typed_platform(self):
        config = heterogeneous_random_configuration(task_count=6, seed=2)
        config.validate()
        types = {p.proc_type for p in config.platform}
        assert types == {"big", "little"}
        assert config.platform.processor("big1").speed == 2.0
        assert config.platform.processor("little1").speed == 1.0

    def test_every_task_has_a_cycle_table(self):
        config = heterogeneous_random_configuration(task_count=6, seed=2)
        for _, task in config.all_tasks():
            table = dict(task.cycles_by_type)
            assert set(table) == {"big", "little"}
            assert table["little"] > table["big"]

    def test_is_deterministic_per_seed(self):
        first = heterogeneous_random_configuration(task_count=8, seed=5)
        second = heterogeneous_random_configuration(task_count=8, seed=5)
        assert [t for _, t in first.all_tasks()] == [t for _, t in second.all_tasks()]
        other = heterogeneous_random_configuration(task_count=8, seed=6)
        assert [t for _, t in first.all_tasks()] != [t for _, t in other.all_tasks()]

    def test_dvfs_levels_are_applied(self):
        config = heterogeneous_random_configuration(
            task_count=4, seed=0, dvfs_levels=(1.0, 2.0)
        )
        assert config.platform.processor("big1").dvfs_levels == (1.0, 2.0)
        assert config.platform.processor("little1").dvfs_levels is None

    def test_rejects_tiny_inputs(self):
        with pytest.raises(ModelError):
            heterogeneous_random_configuration(task_count=1)
        with pytest.raises(ModelError):
            heterogeneous_random_configuration(big_count=0)
