"""Equivalence lock-ins for the generalised execution model.

The generalisation is only allowed to *extend* the paper's model: a
single-phase cyclo-static task graph must analyse identically to the plain
SDF formulation, and a heterogeneous platform whose processors all run at
unit speed must allocate identically to the homogeneous platform — across
one-shot allocation, workload sessions and a replayed admission trace.
"""

from __future__ import annotations

import pytest

from repro.core.admission import AdmissionTrace, replay_trace
from repro.core.allocator import allocate, allocate_workload
from repro.dataflow.construction import build_srdf_specification, instantiate_srdf
from repro.dataflow.mcr import maximum_cycle_ratio
from repro.taskgraph import (
    Buffer,
    Configuration,
    Task,
    TaskGraph,
    heterogeneous_platform,
    workload_from_configurations,
)
from repro.taskgraph.generators import chain_configuration
from srdf_reference import reference_srdf


def _single_phase_csdf_twin(configuration: Configuration) -> Configuration:
    """The same configuration expressed through the CSDF fields trivially."""
    graphs = []
    for graph in configuration.task_graphs:
        twin = TaskGraph(name=graph.name, period=graph.period)
        for task in graph.tasks:
            twin.add_task(
                Task(
                    name=task.name,
                    wcet=0.0,
                    phases=(task.wcet,),
                    processor=task.processor,
                    budget_weight=task.budget_weight,
                    min_budget=task.min_budget,
                    max_budget=task.max_budget,
                )
            )
        for buffer in graph.buffers:
            twin.add_buffer(
                Buffer(
                    name=buffer.name,
                    source=buffer.source,
                    target=buffer.target,
                    memory=buffer.memory,
                    container_size=buffer.container_size,
                    initial_tokens=buffer.initial_tokens,
                    capacity_weight=buffer.capacity_weight,
                    min_capacity=buffer.min_capacity,
                    max_capacity=buffer.max_capacity,
                    production_rates=(1,),
                    consumption_rates=(1,),
                )
            )
        graphs.append(twin)
    return Configuration(
        platform=configuration.platform,
        task_graphs=graphs,
        granularity=configuration.granularity,
        name=configuration.name,
    )


def _uniform_hetero_twin(configuration: Configuration) -> Configuration:
    """The same configuration on a typed platform at uniform unit speed.

    The single processor type is named ``p`` so the generated processors
    (``p1``, ``p2``, …) keep the homogeneous names and the task bindings
    carry over verbatim; every task declares an explicit per-type cycle
    table whose only entry equals its ``wcet``.
    """
    processor_count = len(configuration.platform)
    interval = next(iter(configuration.platform)).replenishment_interval
    platform = heterogeneous_platform(
        {"p": {"count": processor_count}}, replenishment_interval=interval
    )
    graphs = []
    for graph in configuration.task_graphs:
        twin = TaskGraph(name=graph.name, period=graph.period)
        for task in graph.tasks:
            twin.add_task(
                Task(
                    name=task.name,
                    wcet=task.wcet,
                    processor=task.processor,
                    budget_weight=task.budget_weight,
                    min_budget=task.min_budget,
                    max_budget=task.max_budget,
                    cycles_by_type={"p": task.wcet},
                )
            )
        for buffer in graph.buffers:
            twin.add_buffer(buffer)
        graphs.append(twin)
    return Configuration(
        platform=platform,
        task_graphs=graphs,
        granularity=configuration.granularity,
        name=configuration.name,
    )


def _assert_allocations_match(mapped_a, mapped_b, tolerance: float = 1e-9):
    assert set(mapped_a.budgets) == set(mapped_b.budgets)
    for name, budget in mapped_a.budgets.items():
        assert mapped_b.budgets[name] == pytest.approx(budget, abs=tolerance)
    assert mapped_a.buffer_capacities == mapped_b.buffer_capacities
    assert mapped_b.objective_value == pytest.approx(
        mapped_a.objective_value, abs=tolerance
    )


class TestSinglePhaseCsdfEqualsSdf:
    def test_not_classified_as_cyclo_static(self):
        # One firing per iteration, so one two-actor copy per task.
        twin = _single_phase_csdf_twin(chain_configuration())
        for graph in twin.task_graphs:
            assert set(graph.repetitions().values()) == {1}
            specification = build_srdf_specification(graph)
            assert [actor.task for actor in specification.actors] == [
                task.name for task in graph.tasks for _ in range(2)
            ]

    def test_specifications_are_identical(self):
        plain = chain_configuration()
        twin = _single_phase_csdf_twin(plain)
        for plain_graph, twin_graph in zip(plain.task_graphs, twin.task_graphs):
            assert build_srdf_specification(twin_graph) == build_srdf_specification(
                plain_graph
            )

    def test_forced_expansion_instantiates_the_same_graph(self):
        # The phase-unrolled lowering at one copy per task must instantiate
        # token-for-token like the paper's construction written out directly.
        plain = chain_configuration()
        graph = plain.task_graphs[0]
        budgets = {task.name: 8.0 for task in graph.tasks}
        capacities = {buffer.name: 3 for buffer in graph.buffers}
        legacy = reference_srdf(graph, plain.platform, budgets, capacities)
        expanded = instantiate_srdf(
            build_srdf_specification(graph),
            graph,
            plain.platform,
            budgets,
            capacities,
        )
        assert [(a.name, a.firing_duration) for a in expanded.actors] == [
            (a.name, a.firing_duration) for a in legacy.actors
        ]
        assert [(q.name, q.source, q.target, q.tokens) for q in expanded.queues] == [
            (q.name, q.source, q.target, q.tokens) for q in legacy.queues
        ]
        assert maximum_cycle_ratio(expanded) == pytest.approx(
            maximum_cycle_ratio(legacy), abs=1e-9
        )

    def test_allocation_matches(self):
        plain = chain_configuration(max_capacity=8)
        twin = _single_phase_csdf_twin(plain)
        _assert_allocations_match(allocate(plain), allocate(twin))

    def test_workload_allocation_matches(self):
        plain_a = chain_configuration(max_capacity=8)
        plain_b = chain_configuration(stages=2, max_capacity=8)
        plain_b.task_graphs[0].name = "second"
        plain = workload_from_configurations(
            [plain_a, plain_b], name="plain-workload"
        )
        twin = workload_from_configurations(
            [_single_phase_csdf_twin(plain_a), _single_phase_csdf_twin(plain_b)],
            name="twin-workload",
        )
        mapped_plain = allocate_workload(plain)
        mapped_twin = allocate_workload(twin)
        assert mapped_twin.flattened("budgets") == pytest.approx(
            mapped_plain.flattened("budgets"), abs=1e-9
        )
        assert mapped_twin.flattened("buffer_capacities") == mapped_plain.flattened(
            "buffer_capacities"
        )


class TestUniformHeterogeneousEqualsHomogeneous:
    def test_platform_is_uniform_speed(self):
        twin = _uniform_hetero_twin(chain_configuration())
        assert twin.platform.is_uniform_speed
        assert all(p.proc_type == "p" for p in twin.platform)

    def test_allocation_matches(self):
        plain = chain_configuration(max_capacity=8)
        twin = _uniform_hetero_twin(plain)
        _assert_allocations_match(allocate(plain), allocate(twin))

    def test_workload_allocation_matches(self):
        plain_a = chain_configuration(max_capacity=8)
        plain_b = chain_configuration(stages=2, max_capacity=8)
        plain_b.task_graphs[0].name = "second"
        plain = workload_from_configurations(
            [plain_a, plain_b], name="plain-workload"
        )
        twin = workload_from_configurations(
            [_uniform_hetero_twin(plain_a), _uniform_hetero_twin(plain_b)],
            name="twin-workload",
            platform=_uniform_hetero_twin(plain_a).platform,
        )
        mapped_plain = allocate_workload(plain)
        mapped_twin = allocate_workload(twin)
        assert mapped_twin.flattened("budgets") == pytest.approx(
            mapped_plain.flattened("budgets"), abs=1e-9
        )

    def test_replayed_admission_trace_matches(self):
        def build_trace(transform):
            app_a = transform(chain_configuration(max_capacity=8))
            app_b = transform(chain_configuration(max_capacity=8))
            # A hog whose per-task demand cannot fit next to the others.
            hog = transform(chain_configuration(wcet=9.0, max_capacity=8))
            trace = AdmissionTrace(platform=app_a.platform, name="equiv")
            trace.arrive("app-a", app_a)
            trace.arrive("app-b", app_b)
            trace.arrive("hog", hog)
            trace.depart("app-a")
            return trace

        plain_result = replay_trace(build_trace(lambda c: c))
        twin_result = replay_trace(build_trace(_uniform_hetero_twin))
        plain_records = [(r.action, r.application, r.status) for r in plain_result.records]
        twin_records = [(r.action, r.application, r.status) for r in twin_result.records]
        assert twin_records == plain_records
        statuses = [r.status for r in plain_result.records]
        assert statuses == ["admitted", "admitted", "rejected", "departed"]
        for plain_record, twin_record in zip(plain_result.records, twin_result.records):
            if plain_record.objective_value is None:
                assert twin_record.objective_value is None
            else:
                assert twin_record.objective_value == pytest.approx(
                    plain_record.objective_value, abs=1e-9
                )
