"""Unit tests for the application model: tasks, buffers, platforms, task graphs."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import BindingError, GraphStructureError, ModelError
from repro.taskgraph import (
    Buffer,
    Memory,
    Platform,
    Processor,
    Task,
    TaskGraph,
    homogeneous_platform,
    serialization,
)
from repro.taskgraph.generators import chain_configuration


class TestProcessor:
    def test_valid_processor(self):
        p = Processor("p1", replenishment_interval=40.0, scheduling_overhead=2.0)
        assert p.allocatable_capacity == pytest.approx(38.0)

    def test_rejects_non_positive_interval(self):
        with pytest.raises(ModelError):
            Processor("p1", replenishment_interval=0.0)

    def test_rejects_negative_overhead(self):
        with pytest.raises(ModelError):
            Processor("p1", replenishment_interval=10.0, scheduling_overhead=-1.0)

    def test_rejects_overhead_consuming_everything(self):
        with pytest.raises(ModelError):
            Processor("p1", replenishment_interval=10.0, scheduling_overhead=10.0)

    def test_rejects_empty_name(self):
        with pytest.raises(ModelError):
            Processor("", replenishment_interval=10.0)


class TestMemory:
    def test_unbounded_memory(self):
        m = Memory("m1")
        assert not m.is_bounded

    def test_bounded_memory(self):
        m = Memory("m1", capacity=64.0)
        assert m.is_bounded

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ModelError):
            Memory("m1", capacity=0.0)


class TestPlatform:
    def test_lookup(self):
        platform = Platform(
            processors=[Processor("p1", 40.0)], memories=[Memory("m1", 100.0)]
        )
        assert platform.processor("p1").replenishment_interval == 40.0
        assert platform.memory("m1").capacity == 100.0
        assert platform.has_processor("p1")
        assert not platform.has_processor("p9")

    def test_unknown_names_raise_binding_error(self):
        platform = Platform()
        with pytest.raises(BindingError):
            platform.processor("p1")
        with pytest.raises(BindingError):
            platform.memory("m1")

    def test_duplicate_processor_rejected(self):
        platform = Platform(processors=[Processor("p1", 40.0)])
        with pytest.raises(ModelError):
            platform.add_processor(Processor("p1", 40.0))

    def test_homogeneous_platform_factory(self):
        platform = homogeneous_platform(3, replenishment_interval=40.0, memory_capacity=32.0)
        assert len(platform) == 3
        assert sorted(platform.processors) == ["p1", "p2", "p3"]
        assert platform.memory("m1").capacity == 32.0

    def test_homogeneous_platform_rejects_zero_processors(self):
        with pytest.raises(ModelError):
            homogeneous_platform(0, replenishment_interval=40.0)


class TestTask:
    def test_valid_task(self):
        task = Task("w", wcet=1.0, processor="p1")
        assert task.budget_weight == 1.0

    def test_rejects_non_positive_wcet(self):
        with pytest.raises(ModelError):
            Task("w", wcet=0.0, processor="p1")

    def test_rejects_missing_processor(self):
        with pytest.raises(ModelError):
            Task("w", wcet=1.0, processor="")

    def test_rejects_inconsistent_budget_bounds(self):
        with pytest.raises(ModelError):
            Task("w", wcet=1.0, processor="p1", min_budget=5.0, max_budget=4.0)

    def test_with_processor_returns_copy(self):
        task = Task("w", wcet=1.0, processor="p1", budget_weight=2.0)
        moved = task.with_processor("p2")
        assert moved.processor == "p2"
        assert moved.budget_weight == 2.0
        assert task.processor == "p1"


class TestBuffer:
    def test_valid_buffer(self):
        b = Buffer("b", source="a", target="c", memory="m1", initial_tokens=2)
        assert b.smallest_feasible_capacity == 2

    def test_smallest_capacity_is_at_least_one(self):
        b = Buffer("b", source="a", target="c", memory="m1")
        assert b.smallest_feasible_capacity == 1

    def test_storage_for(self):
        b = Buffer("b", source="a", target="c", memory="m1", container_size=4.0)
        assert b.storage_for(3) == pytest.approx(12.0)
        with pytest.raises(ModelError):
            b.storage_for(0)

    def test_rejects_max_capacity_below_initial_tokens(self):
        with pytest.raises(ModelError):
            Buffer("b", source="a", target="c", memory="m1", initial_tokens=4, max_capacity=3)

    def test_rejects_inconsistent_capacity_bounds(self):
        with pytest.raises(ModelError):
            Buffer("b", source="a", target="c", memory="m1", min_capacity=5, max_capacity=2)

    def test_with_bounds(self):
        b = Buffer("b", source="a", target="c", memory="m1")
        bounded = b.with_bounds(max_capacity=7)
        assert bounded.max_capacity == 7
        assert b.max_capacity is None


class TestTaskGraph:
    def _graph(self) -> TaskGraph:
        graph = TaskGraph("job", period=10.0)
        graph.add_task(Task("a", wcet=1.0, processor="p1"))
        graph.add_task(Task("b", wcet=1.0, processor="p2"))
        graph.add_buffer(Buffer("ab", source="a", target="b", memory="m1"))
        return graph

    def test_rejects_non_positive_period(self):
        with pytest.raises(ModelError):
            TaskGraph("job", period=0.0)

    def test_duplicate_task_rejected(self):
        graph = self._graph()
        with pytest.raises(ModelError):
            graph.add_task(Task("a", wcet=1.0, processor="p1"))

    def test_buffer_endpoints_must_exist(self):
        graph = self._graph()
        with pytest.raises(GraphStructureError):
            graph.add_buffer(Buffer("xz", source="x", target="z", memory="m1"))

    def test_topology_queries(self):
        graph = self._graph()
        assert graph.successors("a") == ["b"]
        assert graph.predecessors("b") == ["a"]
        assert [b.name for b in graph.output_buffers("a")] == ["ab"]
        assert [b.name for b in graph.input_buffers("b")] == ["ab"]
        assert graph.processors_used() == ("p1", "p2")
        assert graph.memories_used() == ("m1",)

    def test_is_connected(self):
        graph = self._graph()
        assert graph.is_connected()
        graph.add_task(Task("lonely", wcet=1.0, processor="p1"))
        assert not graph.is_connected()

    def test_undirected_cycles(self):
        graph = self._graph()
        assert not graph.undirected_cycles_exist()
        graph.add_buffer(Buffer("ba", source="b", target="a", memory="m1", initial_tokens=1))
        assert graph.undirected_cycles_exist()

    def test_unknown_lookup_raises(self):
        graph = self._graph()
        with pytest.raises(GraphStructureError):
            graph.task("zzz")
        with pytest.raises(GraphStructureError):
            graph.buffer("zzz")


#: Float model inputs that must be finite, with their place in saved JSON.
_FINITE_FIELDS = {
    "wcet": lambda graph: graph["tasks"][0],
    "budget_weight": lambda graph: graph["tasks"][0],
    "period": lambda graph: graph,
    "capacity_weight": lambda graph: graph["buffers"][0],
    "container_size": lambda graph: graph["buffers"][0],
}


def _construct_with(field: str, value: float) -> None:
    task_kwargs = {"wcet": 1.0, "budget_weight": 1.0}
    buffer_kwargs = {"capacity_weight": 1.0, "container_size": 1.0}
    period = value if field == "period" else 10.0
    if field in task_kwargs:
        task_kwargs[field] = value
    if field in buffer_kwargs:
        buffer_kwargs[field] = value
    TaskGraph(
        "g",
        period=period,
        tasks=[Task("a", processor="p1", **task_kwargs), Task("b", 1.0, "p1")],
        buffers=[Buffer("bab", "a", "b", "m1", **buffer_kwargs)],
    )


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("field", sorted(_FINITE_FIELDS))
@pytest.mark.parametrize("route", ["constructor", "load_configuration"])
def test_rejects_non_finite_inputs(tmp_path, route, field, value):
    if route == "constructor":
        with pytest.raises(ModelError, match=repr(value)):
            _construct_with(field, value)
        return

    path = tmp_path / "config.json"
    serialization.save_configuration(chain_configuration(stages=3), path)
    payload = json.loads(path.read_text())
    _FINITE_FIELDS[field](payload["task_graphs"][0])[field] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelError, match=repr(value)):
        serialization.load_configuration(path)
