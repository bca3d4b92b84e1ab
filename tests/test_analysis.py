"""Tests for the analysis helpers: throughput, feasibility screening, sensitivity, reports."""

from __future__ import annotations


import pytest

from repro.analysis import (
    analyse_throughput,
    budget_reduction_curve,
    diminishing_returns,
    marginal_capacity_values,
    render_markdown_table,
    render_series,
    render_table,
    screen_configuration,
    utilisation_summary,
)
from repro.core import AllocatorOptions, ObjectiveWeights, TradeoffExplorer, allocate
from repro.taskgraph import ConfigurationBuilder, MappedConfiguration
from repro.taskgraph.generators import (
    chain_configuration,
    csdf_chain_configuration,
    heterogeneous_random_configuration,
    producer_consumer_configuration,
)
from repro.taskgraph.validate import processor_load_lower_bound


class TestThroughputAnalysis:
    def test_reports_slack_and_critical_cycles(self):
        config = producer_consumer_configuration(max_capacity=5)
        mapped = allocate(config, weights=ObjectiveWeights.prefer_budgets())
        reports = analyse_throughput(mapped)
        report = reports["T1"]
        assert report.meets_requirement
        assert report.minimum_period <= 10.0 + 1e-9
        assert report.slack >= -1e-9
        assert report.throughput == pytest.approx(1.0 / report.minimum_period)
        # At the budget-minimising optimum the producer-consumer cycle through
        # the buffer is critical, so the buffer shows up as a candidate.
        assert "bab" in report.critical_buffer_names()

    def test_failing_mapping_is_reported(self):
        config = producer_consumer_configuration()
        mapped = MappedConfiguration(
            configuration=config,
            budgets={"wa": 4.0, "wb": 4.0},
            buffer_capacities={"bab": 1},
        )
        report = analyse_throughput(mapped)["T1"]
        assert not report.meets_requirement
        assert report.minimum_period > 10.0

    def test_utilisation_summary(self):
        config = producer_consumer_configuration(max_capacity=5)
        mapped = allocate(config, weights=ObjectiveWeights.prefer_budgets())
        utilisation = utilisation_summary(mapped)
        assert set(utilisation) == {"p1", "p2"}
        assert all(0.0 < value <= 1.0 for value in utilisation.values())


class TestFeasibilityScreen:
    def test_accepts_feasible_configuration(self):
        screen = screen_configuration(producer_consumer_configuration())
        assert screen.may_be_feasible
        assert screen.processor_load["p1"] == pytest.approx((4.0 + 1.0) / 40.0)

    def test_detects_overloaded_processor(self):
        builder = (
            ConfigurationBuilder(name="hot", granularity=1.0)
            .processor("p1", replenishment_interval=40.0)
            .processor("p2", replenishment_interval=40.0)
            .memory("m1")
            .task_graph("job", period=10.0)
        )
        builder.task("a", wcet=5.0, processor="p1")
        builder.task("b", wcet=5.0, processor="p1")
        builder.task("c", wcet=1.0, processor="p2")
        builder.buffer("ab", source="a", target="b", memory="m1")
        builder.buffer("bc", source="b", target="c", memory="m1")
        config = builder.build(validate=False)
        screen = screen_configuration(config)
        assert not screen.may_be_feasible
        assert any("p1" in violation for violation in screen.violations)

    def test_detects_memory_pressure(self):
        config = producer_consumer_configuration(memory_capacity=1.5)
        screen = screen_configuration(config)
        assert not screen.may_be_feasible
        assert "m1" in screen.memory_load

    @pytest.mark.parametrize(
        "make",
        [csdf_chain_configuration, lambda: heterogeneous_random_configuration(seed=1)],
        ids=["csdf", "heterogeneous"],
    )
    def test_processor_load_counts_cycles_per_period(self, make):
        # A CSDF task's cycles per period and a heterogeneous task's
        # type/speed-resolved cycles are not its wcet: the screen must agree
        # with the load bound the workload screens use.
        config = make()
        screen = screen_configuration(config)
        for name, processor in config.platform.processors.items():
            expected = processor_load_lower_bound(processor, name, [config])
            assert screen.processor_load[name] == pytest.approx(
                expected / processor.replenishment_interval, rel=1e-12
            )


class TestSensitivity:
    @pytest.fixture(scope="class")
    def curve(self):
        explorer = TradeoffExplorer(
            allocator_options=AllocatorOptions(run_simulation=False)
        )
        return explorer.sweep_capacity_limit(
            producer_consumer_configuration(), range(1, 11)
        )

    def test_budget_reduction_curve(self, curve):
        steps = budget_reduction_curve(curve, task_name="wa")
        assert len(steps) == 9
        assert steps[0].capacity_limit == 2
        assert steps[0].reduction == pytest.approx(4.829, abs=0.05)
        assert steps[-1].reduction < 1.0

    def test_diminishing_returns_predicate(self, curve):
        steps = budget_reduction_curve(curve, task_name="wa")
        assert diminishing_returns(steps)
        assert not diminishing_returns(list(reversed(steps)))

    def test_marginal_capacity_values(self):
        config = chain_configuration(stages=3)
        values = marginal_capacity_values(
            config, {"bab": 2, "bbc": 2}, weights=ObjectiveWeights.prefer_budgets()
        )
        assert {v.buffer_name for v in values} == {"bab", "bbc"}
        # Adding a container to either buffer saves budget at this point.
        assert all(v.saving > 0.0 for v in values)
        # The two buffers are symmetric in the chain, so the savings match.
        savings = sorted(v.saving for v in values)
        assert savings[0] == pytest.approx(savings[1], rel=1e-2)


class TestReportRendering:
    def test_render_table_alignment_and_values(self):
        rows = [
            {"capacity": 1, "budget": 36.1078, "feasible": True},
            {"capacity": 2, "budget": None, "feasible": False},
        ]
        text = render_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert "capacity" in lines[0]
        assert "36.11" in text
        assert "-" in lines[-1]
        assert "no" in lines[-1]

    def test_render_table_empty(self):
        assert render_table([]) == "(no rows)"

    def test_render_markdown_table(self):
        rows = [{"a": 1, "b": 2.5}]
        text = render_markdown_table(rows)
        assert text.splitlines()[0] == "| a | b |"
        assert "| 1 | 2.5 |" in text

    def test_render_series(self):
        text = render_series("d", [1, 2], {"budget": [36.1, 31.3]})
        assert "36.1" in text and "31.3" in text
        assert text.splitlines()[0].startswith("d")

    def test_column_selection(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        text = render_table(rows, columns=["c", "a"])
        header = text.splitlines()[0]
        assert "c" in header and "a" in header and "b" not in header
