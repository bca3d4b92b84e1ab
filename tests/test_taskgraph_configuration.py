"""Unit tests for configurations, builders, validation and serialisation."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.exceptions import BindingError, ModelError
from repro.taskgraph import (
    Configuration,
    ConfigurationBuilder,
    MappedConfiguration,
    Memory,
    Platform,
    Processor,
    Task,
    TaskGraph,
)
from repro.taskgraph import serialization
from repro.taskgraph.validate import collect_warnings, validate_configuration


def _simple_configuration(memory_capacity=None, period=10.0) -> Configuration:
    builder = (
        ConfigurationBuilder(name="test", granularity=1.0)
        .processor("p1", replenishment_interval=40.0)
        .processor("p2", replenishment_interval=40.0)
        .memory("m1", capacity=memory_capacity)
        .task_graph("job", period=period)
        .task("a", wcet=1.0, processor="p1")
        .task("b", wcet=1.0, processor="p2")
        .buffer("ab", source="a", target="b", memory="m1")
    )
    return builder.build()


class TestConfiguration:
    def test_builder_produces_valid_configuration(self):
        config = _simple_configuration()
        assert len(config) == 1
        assert [t.name for _, t in config.all_tasks()] == ["a", "b"]
        assert [b.name for _, b in config.all_buffers()] == ["ab"]

    def test_duplicate_task_names_across_graphs_rejected(self):
        platform = Platform(processors=[Processor("p1", 40.0)], memories=[Memory("m1")])
        graph1 = TaskGraph("g1", period=10.0, tasks=[Task("a", 1.0, "p1")])
        graph2 = TaskGraph("g2", period=10.0, tasks=[Task("a", 1.0, "p1")])
        with pytest.raises(ModelError):
            Configuration(platform=platform, task_graphs=[graph1, graph2])

    def test_rejects_non_positive_granularity(self):
        platform = Platform(processors=[Processor("p1", 40.0)])
        with pytest.raises(ModelError):
            Configuration(platform=platform, granularity=0.0)

    def test_tasks_on_processor(self):
        config = _simple_configuration()
        assert [t.name for t in config.tasks_on_processor("p1")] == ["a"]
        with pytest.raises(BindingError):
            config.tasks_on_processor("p99")

    def test_buffers_in_memory(self):
        config = _simple_configuration()
        assert [b.name for b in config.buffers_in_memory("m1")] == ["ab"]

    def test_find_task_and_buffer(self):
        config = _simple_configuration()
        graph, task = config.find_task("b")
        assert graph.name == "job" and task.processor == "p2"
        with pytest.raises(ModelError):
            config.find_task("nope")
        with pytest.raises(ModelError):
            config.find_buffer("nope")


class TestValidation:
    def test_valid_configuration_passes(self):
        validate_configuration(_simple_configuration())

    def test_unknown_processor_binding_detected(self):
        platform = Platform(processors=[Processor("p1", 40.0)], memories=[Memory("m1")])
        graph = TaskGraph("g", period=10.0, tasks=[Task("a", 1.0, "p_missing")])
        config = Configuration(platform=platform, task_graphs=[graph])
        with pytest.raises(BindingError):
            validate_configuration(config)

    def test_wcet_exceeding_period_detected(self):
        with pytest.raises(ModelError):
            _simple_configuration(period=0.5).validate()

    def test_overloaded_processor_detected(self):
        builder = (
            ConfigurationBuilder(name="overload", granularity=1.0)
            .processor("p1", replenishment_interval=40.0)
            .memory("m1")
            .task_graph("job", period=10.0)
        )
        # Each task needs at least 40·4/10 = 16 budget + 1 granule; four such
        # tasks cannot fit in a 40-cycle replenishment interval.
        for i in range(4):
            builder.task(f"t{i}", wcet=4.0, processor="p1")
        with pytest.raises(ModelError):
            builder.build()

    def test_memory_too_small_detected(self):
        with pytest.raises(ModelError):
            _simple_configuration(memory_capacity=0.5).validate()

    def test_empty_configuration_rejected(self):
        platform = Platform(processors=[Processor("p1", 40.0)])
        config = Configuration(platform=platform)
        with pytest.raises(ModelError):
            validate_configuration(config)

    def test_warnings_for_disconnected_graph(self):
        config = _simple_configuration()
        graph = config.task_graph("job")
        graph.add_task(Task("orphan", wcet=1.0, processor="p1"))
        warnings = collect_warnings(config)
        assert any("not weakly connected" in w for w in warnings)

    def test_warning_for_large_wcet(self):
        builder = (
            ConfigurationBuilder(name="warn", granularity=1.0)
            .processor("p1", replenishment_interval=40.0)
            .processor("p2", replenishment_interval=40.0)
            .memory("m1")
            .task_graph("job", period=30.0)
            .task("a", wcet=25.0, processor="p1")
            .task("b", wcet=1.0, processor="p2")
            .buffer("ab", source="a", target="b", memory="m1")
        )
        warnings = collect_warnings(builder.build())
        assert any("more than half" in w for w in warnings)


class TestBuilder:
    def test_task_before_graph_rejected(self):
        builder = ConfigurationBuilder().processor("p1", 40.0).memory("m1")
        with pytest.raises(ModelError):
            builder.task("a", wcet=1.0, processor="p1")

    def test_multiple_graphs(self):
        config = (
            ConfigurationBuilder(name="multi")
            .processor("p1", 40.0)
            .processor("p2", 40.0)
            .memory("m1")
            .task_graph("j1", period=10.0)
            .task("a1", wcet=1.0, processor="p1")
            .task("b1", wcet=1.0, processor="p2")
            .buffer("f1", source="a1", target="b1", memory="m1")
            .task_graph("j2", period=20.0)
            .task("a2", wcet=1.0, processor="p1")
            .task("b2", wcet=1.0, processor="p2")
            .buffer("f2", source="a2", target="b2", memory="m1")
            .build()
        )
        assert len(config) == 2
        assert config.task_graph("j2").period == 20.0


class TestMappedConfiguration:
    def _mapped(self) -> MappedConfiguration:
        config = _simple_configuration()
        return MappedConfiguration(
            configuration=config,
            budgets={"a": 18.0, "b": 20.0},
            buffer_capacities={"ab": 5},
        )

    def test_accessors(self):
        mapped = self._mapped()
        assert mapped.budget("a") == 18.0
        assert mapped.capacity("ab") == 5
        with pytest.raises(ModelError):
            mapped.budget("zzz")
        with pytest.raises(ModelError):
            mapped.capacity("zzz")

    def test_totals_and_utilisation(self):
        mapped = self._mapped()
        assert mapped.total_budget() == pytest.approx(38.0)
        assert mapped.total_budget("p1") == pytest.approx(18.0)
        assert mapped.total_storage() == pytest.approx(5.0)
        assert mapped.processor_utilisation("p2") == pytest.approx(0.5)

    def test_as_dict(self):
        data = self._mapped().as_dict()
        assert data["budgets"]["a"] == 18.0
        assert data["buffer_capacities"]["ab"] == 5


class TestSerialization:
    def test_round_trip(self):
        config = _simple_configuration(memory_capacity=64.0)
        text = serialization.configuration_to_json(config)
        restored = serialization.configuration_from_json(text)
        assert restored.name == config.name
        assert restored.granularity == config.granularity
        assert sorted(restored.platform.processors) == sorted(config.platform.processors)
        original_graph = config.task_graph("job")
        restored_graph = restored.task_graph("job")
        assert restored_graph.period == original_graph.period
        assert restored_graph.task("a").wcet == original_graph.task("a").wcet
        assert restored_graph.buffer("ab").memory == "m1"

    def test_save_and_load(self, tmp_path):
        config = _simple_configuration()
        path = tmp_path / "config.json"
        serialization.save_configuration(config, path)
        restored = serialization.load_configuration(path)
        assert restored.name == config.name

    def test_newer_format_version_rejected(self):
        data = serialization.configuration_to_dict(_simple_configuration())
        data["format_version"] = 99
        with pytest.raises(ModelError):
            serialization.configuration_from_dict(data)

    @pytest.mark.parametrize(
        "path,value",
        [
            (("granularity",), math.nan),
            (("platform", "processors", 0, "replenishment_interval"), math.nan),
            (("platform", "processors", 0, "replenishment_interval"), math.inf),
            (("platform", "processors", 0, "scheduling_overhead"), math.nan),
            (("platform", "processors", 0, "speed"), math.nan),
            (("platform", "memories", 0, "capacity"), math.nan),
            (("task_graphs", 0, "buffers", 0, "initial_tokens"), 1.5),
            (("task_graphs", 0, "buffers", 0, "max_capacity"), 7.5),
            (("task_graphs", 0, "buffers", 0, "production_rates"), [1.5]),
        ],
        ids=[
            "granularity-nan",
            "replenishment-nan",
            "replenishment-inf",
            "overhead-nan",
            "speed-nan",
            "memory-capacity-nan",
            "initial-tokens-fractional",
            "max-capacity-fractional",
            "rate-fractional",
        ],
    )
    def test_non_finite_or_fractional_input_is_a_model_error(self, path, value):
        """NaN, inf and fractional counts are rejected at the model boundary:
        never a raw ValueError / OverflowError / FormulationError from deeper
        down, never accepted, and never truncated into another model."""
        data = serialization.configuration_to_dict(
            _simple_configuration(memory_capacity=64.0)
        )
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ModelError):
            repro.allocate(serialization.configuration_from_dict(data))

    @pytest.mark.parametrize(
        "path,field",
        [
            (("task_graphs", 0, "period"), "throughput period"),
            (("platform", "processors", 0, "replenishment_interval"), "replenishment interval"),
        ],
        ids=["period", "replenishment-interval"],
    )
    def test_overflowing_duration_is_a_model_error(self, path, field):
        """A period or replenishment interval near the largest float loads
        into sums over the tasks that overflow to infinity; it is rejected
        at the boundary with the field's name, never a raw OverflowError
        from the formulation."""
        data = serialization.configuration_to_dict(_simple_configuration())
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = 1e308
        with pytest.raises(ModelError, match=field):
            repro.allocate(serialization.configuration_from_dict(data))

    def test_overflowing_period_ratio_is_a_model_error(self):
        """Each duration within bounds, but a tiny period against large
        replenishment intervals overflows the sufficient capacity bound:
        a ModelError naming both fields, never a raw OverflowError."""
        from repro.taskgraph.generators import random_dag_configuration

        data = serialization.configuration_to_dict(
            random_dag_configuration(4, 2, seed=1)
        )
        for graph in data["task_graphs"]:
            graph["period"] = 1e-250
            for task in graph["tasks"]:
                task["wcet"] = 1e-251
        for processor in data["platform"]["processors"]:
            processor["replenishment_interval"] = 1e90
        configuration = serialization.configuration_from_dict(data)
        with pytest.raises(ModelError, match="period .*replenishment_interval"):
            repro.allocate(configuration)

    def test_mapped_configuration_to_dict_embeds_configuration(self):
        config = _simple_configuration()
        mapped = MappedConfiguration(
            configuration=config, budgets={"a": 4.0, "b": 4.0}, buffer_capacities={"ab": 10}
        )
        data = serialization.mapped_configuration_to_dict(mapped)
        assert data["configuration"]["name"] == "test"
        assert data["budgets"]["a"] == 4.0


@settings(max_examples=30, deadline=None)
@given(
    processors=st.integers(min_value=1, max_value=4),
    period=st.floats(min_value=5.0, max_value=50.0, allow_nan=False),
    wcet=st.floats(min_value=0.1, max_value=2.0, allow_nan=False),
    container=st.floats(min_value=0.5, max_value=8.0, allow_nan=False),
    tokens=st.integers(min_value=0, max_value=3),
)
def test_serialization_round_trip_property(processors, period, wcet, container, tokens):
    """Property: configurations survive a dict round-trip unchanged."""
    builder = ConfigurationBuilder(name="prop", granularity=1.0)
    for i in range(processors):
        builder.processor(f"p{i + 1}", replenishment_interval=40.0)
    builder.memory("m1")
    builder.task_graph("job", period=period)
    builder.task("src", wcet=min(wcet, period), processor="p1")
    builder.task("dst", wcet=min(wcet, period), processor=f"p{processors}")
    builder.buffer(
        "flow",
        source="src",
        target="dst",
        memory="m1",
        container_size=container,
        initial_tokens=tokens,
    )
    config = builder.build(validate=False)
    restored = serialization.configuration_from_dict(
        serialization.configuration_to_dict(config)
    )
    graph = restored.task_graph("job")
    assert graph.period == pytest.approx(period)
    assert graph.task("src").wcet == pytest.approx(min(wcet, period))
    assert graph.buffer("flow").container_size == pytest.approx(container)
    assert graph.buffer("flow").initial_tokens == tokens
    assert len(restored.platform.processors) == processors
