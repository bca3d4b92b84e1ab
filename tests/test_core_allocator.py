"""Tests of the joint allocator: solving, rounding, verification, error handling."""

from __future__ import annotations

import pytest

from repro.exceptions import AllocationError, InfeasibleProblemError
from repro.core import (
    AllocatorOptions,
    JointAllocator,
    ObjectiveWeights,
    allocate,
    verify_mapping,
)
from repro.core.validation import VerificationReport
from repro.baselines.budget_minimization import producer_consumer_minimum_budget
from repro.taskgraph import MappedConfiguration, Workload
from repro.taskgraph.generators import (
    chain_configuration,
    fork_join_configuration,
    multi_job_configuration,
    producer_consumer_configuration,
    ring_configuration,
)


class TestAllocateProducerConsumer:
    def test_relaxed_budget_matches_closed_form(self):
        for capacity in (2, 5, 8):
            config = producer_consumer_configuration(max_capacity=capacity)
            mapped = allocate(config, weights=ObjectiveWeights.prefer_budgets())
            expected = producer_consumer_minimum_budget(capacity)
            assert mapped.relaxed_budgets["wa"] == pytest.approx(expected, rel=1e-3)
            assert mapped.relaxed_budgets["wb"] == pytest.approx(expected, rel=1e-3)

    def test_rounded_budgets_are_granular_and_conservative(self):
        config = producer_consumer_configuration(max_capacity=5, granularity=2.0)
        mapped = allocate(config, weights=ObjectiveWeights.prefer_budgets())
        for task_name, budget in mapped.budgets.items():
            relaxed = mapped.relaxed_budgets[task_name]
            assert budget >= relaxed - 1e-6
            assert budget <= relaxed + 2.0 + 1e-6
            assert abs(budget / 2.0 - round(budget / 2.0)) < 1e-9

    def test_unconstrained_capacity_reaches_minimum_budget(self):
        """Without a capacity bound the budget falls to the ̺·χ/µ = 4 floor."""
        config = producer_consumer_configuration()
        mapped = allocate(config, weights=ObjectiveWeights.prefer_budgets())
        assert mapped.budgets["wa"] == pytest.approx(4.0)
        assert mapped.buffer_capacities["bab"] <= 11

    def test_verification_is_recorded(self):
        config = producer_consumer_configuration(max_capacity=4)
        mapped = allocate(config)
        assert "verification" in mapped.solver_info
        assert "verified" in str(mapped.solver_info["verification"])

    def test_mapping_passes_independent_verification(self):
        config = producer_consumer_configuration(max_capacity=3)
        mapped = allocate(config)
        report = verify_mapping(mapped)
        assert report.is_valid, report.summary()
        assert report.minimum_periods["T1"] <= 10.0 + 1e-9


class TestAllocateOtherTopologies:
    @pytest.mark.parametrize(
        "config_factory",
        [
            lambda: chain_configuration(stages=3, max_capacity=4),
            lambda: chain_configuration(stages=5, max_capacity=6),
            lambda: fork_join_configuration(branches=2, max_capacity=5),
            lambda: ring_configuration(stages=3, initial_tokens=2, max_capacity=6),
            lambda: multi_job_configuration(job_count=2, stages_per_job=2, max_capacity=6),
        ],
        ids=["chain3", "chain5", "forkjoin2", "ring3", "multijob2x2"],
    )
    def test_allocation_verifies_end_to_end(self, config_factory):
        config = config_factory()
        mapped = allocate(config, weights=ObjectiveWeights.prefer_budgets())
        report = verify_mapping(mapped)
        assert report.is_valid, report.summary()
        # Budgets respect the throughput-implied minimum.
        for graph in config.task_graphs:
            for task in graph.tasks:
                processor = config.platform.processor(task.processor)
                minimum = processor.replenishment_interval * task.wcet / graph.period
                assert mapped.budgets[task.name] >= minimum - 1e-6

    def test_memory_bound_forces_larger_budgets(self):
        roomy = allocate(
            producer_consumer_configuration(memory_capacity=12.0),
            weights=ObjectiveWeights.prefer_budgets(),
        )
        tight = allocate(
            producer_consumer_configuration(memory_capacity=4.0),
            weights=ObjectiveWeights.prefer_budgets(),
        )
        assert tight.buffer_capacities["bab"] < roomy.buffer_capacities["bab"]
        assert sum(tight.budgets.values()) > sum(roomy.budgets.values())


class TestInfeasibilityAndErrors:
    def test_capacity_bound_of_one_with_tight_period_is_infeasible(self):
        # With one container the minimum budget is ≈ 36.1; demand a period of
        # 2 Mcycles instead and even a full budget cannot deliver it.
        config = producer_consumer_configuration(period=2.0, max_capacity=1)
        with pytest.raises(InfeasibleProblemError):
            allocate(config)

    def test_memory_too_small_is_rejected_by_validation(self):
        config = producer_consumer_configuration(memory_capacity=1.0)
        with pytest.raises(Exception):
            # Validation rejects it before the solver runs (ModelError) —
            # either way the caller sees a ReproError subclass.
            allocate(config)

    def test_capacity_limits_argument(self):
        config = producer_consumer_configuration()
        allocator = JointAllocator(weights=ObjectiveWeights.prefer_budgets())
        mapped = allocator.allocate(config, capacity_limits={"bab": 2})
        assert mapped.buffer_capacities["bab"] <= 2
        expected = producer_consumer_minimum_budget(2)
        assert mapped.relaxed_budgets["wa"] == pytest.approx(expected, rel=1e-3)

    def test_budget_limits_argument(self):
        config = producer_consumer_configuration()
        allocator = JointAllocator(weights=ObjectiveWeights.prefer_buffers())
        mapped = allocator.allocate(config, budget_limits={"wa": 10.0, "wb": 10.0})
        assert mapped.budgets["wa"] <= 10.0 + 1e-9
        # A 10-Mcycle budget needs at least 5 containers (β_min(4) ≈ 10.6 > 10).
        assert mapped.buffer_capacities["bab"] >= 5

    def test_verification_failure_raises_when_requested(self):
        config = producer_consumer_configuration(max_capacity=4)
        allocator = JointAllocator(options=AllocatorOptions())
        mapped = allocator.allocate(config)
        # Corrupt the mapping and check that verification catches it.
        mapped.budgets["wa"] = 1.0
        report = allocator.verify(mapped)
        assert not report.is_valid

    @staticmethod
    def _failing_verifier(monkeypatch):
        """Make every mapping fail verification with one known issue."""
        import repro.core.allocator as allocator_module

        def verify_mapping(mapped, **_options):
            report = VerificationReport()
            report.add_issue("injected verification issue")
            return report

        monkeypatch.setattr(allocator_module, "verify_mapping", verify_mapping)

    def test_allocate_raises_when_the_rounded_mapping_fails_verification(
        self, monkeypatch
    ):
        self._failing_verifier(monkeypatch)
        with pytest.raises(AllocationError) as error:
            JointAllocator().allocate(producer_consumer_configuration(max_capacity=4))
        message = str(error.value)
        assert "the rounded mapping failed verification" in message
        assert "mapping verification found 1 issue(s)" in message
        assert "injected verification issue" in message

    def test_allocate_workload_raises_when_the_rounded_mapping_fails_verification(
        self, monkeypatch
    ):
        self._failing_verifier(monkeypatch)
        workload = Workload(chain_configuration(stages=2).platform, name="duo")
        workload.add_application("video", chain_configuration(stages=2))
        workload.add_application("audio", chain_configuration(stages=2, period=20.0))
        with pytest.raises(AllocationError) as error:
            JointAllocator().allocate_workload(workload)
        message = str(error.value)
        assert "the rounded workload mapping failed verification" in message
        assert "mapping verification found 2 issue(s)" in message
        assert "application 'video': injected verification issue" in message
        assert "application 'audio': injected verification issue" in message

    def test_allocator_options_disable_verification(self):
        config = producer_consumer_configuration(max_capacity=4)
        allocator = JointAllocator(
            options=AllocatorOptions(verify=False, run_simulation=False)
        )
        mapped = allocator.allocate(config)
        assert "verification" not in mapped.solver_info


class TestVerifyMappingDetails:
    def _mapped(self, budgets, capacities) -> MappedConfiguration:
        config = producer_consumer_configuration()
        return MappedConfiguration(
            configuration=config, budgets=budgets, buffer_capacities=capacities
        )

    def test_detects_non_granular_budget(self):
        report = verify_mapping(self._mapped({"wa": 4.5, "wb": 4.0}, {"bab": 10}))
        assert any("not a multiple" in issue for issue in report.issues)

    def test_detects_missing_entries(self):
        report = verify_mapping(self._mapped({"wa": 4.0}, {"bab": 10}))
        assert any("missing budgets" in issue for issue in report.issues)

    def test_detects_throughput_violation(self):
        report = verify_mapping(self._mapped({"wa": 4.0, "wb": 4.0}, {"bab": 1}))
        assert any("periodic admissible schedule" in issue for issue in report.issues)

    def test_detects_capacity_below_one(self):
        report = verify_mapping(self._mapped({"wa": 4.0, "wb": 4.0}, {"bab": 0}))
        assert any("below one container" in issue for issue in report.issues)

    def test_detects_overloaded_processor(self):
        report = verify_mapping(self._mapped({"wa": 44.0, "wb": 4.0}, {"bab": 10}))
        assert not report.is_valid

    def test_detects_memory_overflow(self):
        config = producer_consumer_configuration(memory_capacity=4.0)
        mapped = MappedConfiguration(
            configuration=config,
            budgets={"wa": 36.0, "wb": 36.0},
            buffer_capacities={"bab": 8},
        )
        report = verify_mapping(mapped)
        assert any("memory" in issue for issue in report.issues)

    def test_summary_mentions_issue_count(self):
        report = verify_mapping(self._mapped({"wa": 4.5, "wb": 4.0}, {"bab": 0}))
        assert "issue" in report.summary()
        good = verify_mapping(self._mapped({"wa": 39.0, "wb": 39.0}, {"bab": 10}))
        assert good.is_valid
        assert "verified" in good.summary()

    def test_one_longest_path_run_per_graph(self, monkeypatch):
        # The schedule-existence check and the simulation check share one
        # Bellman–Ford run per verified graph.
        from repro.core import validation
        from repro.dataflow import mcr

        calls = []
        original = mcr.longest_path_potentials

        def counting(graph, period):
            calls.append(graph.name)
            return original(graph, period)

        monkeypatch.setattr(mcr, "longest_path_potentials", counting)
        monkeypatch.setattr(validation, "longest_path_potentials", counting, raising=False)
        report = verify_mapping(self._mapped({"wa": 39.0, "wb": 39.0}, {"bab": 10}))
        assert report.is_valid and report.checked_graphs == 1
        assert len(calls) == 1
