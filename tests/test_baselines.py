"""Tests of the baseline flows and independent oracles."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import AllocationError, InfeasibleProblemError
from repro.baselines import (
    TwoPhaseOrder,
    bisect_uniform_budget,
    compare_with_joint,
    is_uniform_budget_feasible,
    minimal_budgets_fixed_capacities,
    minimal_buffer_capacities,
    minimum_buffer_capacities,
    minimum_throughput_budgets,
    producer_consumer_minimum_budget,
    run_two_phase,
)
from repro.core import ObjectiveWeights, allocate, verify_mapping
from repro.core.formulation import effective_budget_bounds
from repro.taskgraph import MappedConfiguration
from repro.taskgraph.generators import (
    chain_configuration,
    csdf_chain_configuration,
    heterogeneous_random_configuration,
    producer_consumer_configuration,
)


class TestClosedForm:
    def test_matches_manual_values(self):
        # d = 10 hits the self-loop floor of 4 Mcycles.
        assert producer_consumer_minimum_budget(10) == pytest.approx(4.0)
        # d = 1: 2(40 − β) + 2·40/β = 10  =>  β ≈ 36.108.
        assert producer_consumer_minimum_budget(1) == pytest.approx(36.1078, abs=1e-3)

    def test_monotone_in_capacity(self):
        values = [producer_consumer_minimum_budget(d) for d in range(1, 12)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_rejects_zero_capacity(self):
        with pytest.raises(InfeasibleProblemError):
            producer_consumer_minimum_budget(0)


class TestBisectionOracle:
    def test_agrees_with_closed_form(self):
        config = producer_consumer_configuration()
        for capacity in (2, 4, 9):
            oracle = bisect_uniform_budget(config, {"bab": capacity})
            assert oracle == pytest.approx(
                producer_consumer_minimum_budget(capacity), rel=1e-4
            )

    def test_feasibility_predicate(self):
        config = producer_consumer_configuration()
        beta = producer_consumer_minimum_budget(5)
        assert is_uniform_budget_feasible(config, beta * 1.01, {"bab": 5})
        assert not is_uniform_budget_feasible(config, beta * 0.95, {"bab": 5})
        assert not is_uniform_budget_feasible(config, -1.0, {"bab": 5})
        assert not is_uniform_budget_feasible(config, 100.0, {"bab": 5})

    def test_infeasible_case_raises(self):
        # With one container the cycle needs 2(̺ − β) + 2̺χ/β ≤ µ; even the
        # full budget gives 2 Mcycles, so a 1.5-Mcycle period is hopeless.
        config = producer_consumer_configuration(period=1.5)
        with pytest.raises(InfeasibleProblemError):
            bisect_uniform_budget(config, {"bab": 1})

    def test_socp_with_fixed_capacities_matches_oracle(self):
        config = producer_consumer_configuration()
        mapped = minimal_budgets_fixed_capacities(config, {"bab": 6})
        oracle = bisect_uniform_budget(config, {"bab": 6})
        assert mapped.relaxed_budgets["wa"] == pytest.approx(oracle, rel=1e-3)


class TestBufferSizingLP:
    def test_minimal_capacity_for_generous_budgets(self):
        config = producer_consumer_configuration()
        capacities = minimal_buffer_capacities(config, {"wa": 39.0, "wb": 39.0})
        # With nearly full budgets the cycle needs ⌈(2·1 + 2·40/39)/10⌉ = 1... the
        # exact value is small; what matters is that it is minimal and feasible.
        assert capacities["bab"] >= 1
        from repro.core import verify_mapping
        from repro.taskgraph import MappedConfiguration

        mapped = MappedConfiguration(
            configuration=config,
            budgets={"wa": 39.0, "wb": 39.0},
            buffer_capacities=capacities,
        )
        assert verify_mapping(mapped).is_valid

    def test_capacity_grows_as_budget_shrinks(self):
        config = producer_consumer_configuration()
        small = minimal_buffer_capacities(config, {"wa": 36.0, "wb": 36.0})
        large = minimal_buffer_capacities(config, {"wa": 5.0, "wb": 5.0})
        assert large["bab"] > small["bab"]

    def test_matches_closed_form_inverse(self):
        config = producer_consumer_configuration()
        for capacity in (3, 6, 9):
            beta = producer_consumer_minimum_budget(capacity) * 1.001
            sized = minimal_buffer_capacities(config, {"wa": beta, "wb": beta})
            assert sized["bab"] == capacity

    def test_missing_budget_rejected(self):
        config = producer_consumer_configuration()
        with pytest.raises(AllocationError):
            minimal_buffer_capacities(config, {"wa": 10.0})

    def test_infeasible_when_budget_below_floor(self):
        config = producer_consumer_configuration()
        with pytest.raises(InfeasibleProblemError):
            # 2 Mcycles < the 4-Mcycle floor: no finite buffer can help.
            minimal_buffer_capacities(config, {"wa": 2.0, "wb": 2.0})

    @pytest.mark.parametrize("seed", [0, 3])
    def test_sizes_heterogeneous_budgets_with_effective_cycles(self, seed):
        """On a big/little platform the firing durations come from the type-
        and speed-resolved cycle counts, as in the SRDF construction: at
        budgets the joint allocator verified, the LP finds capacities that
        verify too."""
        config = heterogeneous_random_configuration(seed=seed)
        joint = allocate(config)
        assert verify_mapping(joint).is_valid
        capacities = minimal_buffer_capacities(config, joint.budgets)
        sized = MappedConfiguration(
            configuration=config, budgets=joint.budgets, buffer_capacities=capacities
        )
        assert verify_mapping(sized).is_valid


    @pytest.mark.parametrize("phases", [2, 3])
    def test_sizes_cyclo_static_space_queues_like_the_formulation(self, phases):
        """A cyclo-static space queue carries ``token_scale·γ + token_offset``
        tokens, not ``γ − ι``: at the joint allocator's budgets the LP's
        capacities verify and need no more containers than the joint's."""
        config = csdf_chain_configuration(stages=2, phases_per_task=phases)
        joint = allocate(config)
        capacities = minimal_buffer_capacities(config, joint.budgets)
        sized = MappedConfiguration(
            configuration=config, budgets=joint.budgets, buffer_capacities=capacities
        )
        assert verify_mapping(sized).is_valid
        assert set(capacities) == set(joint.buffer_capacities)
        for name, capacity in capacities.items():
            assert capacity <= joint.buffer_capacities[name]


class TestTwoPhaseFlows:
    def test_minimum_throughput_budgets(self):
        config = producer_consumer_configuration()
        budgets = minimum_throughput_budgets(config)
        assert budgets == {"wa": 4.0, "wb": 4.0}

    def test_minimum_throughput_budgets_use_effective_cycles(self):
        """The budget floor is the joint formulation's self-loop bound, with
        the task's effective cycles on its processor type and speed."""
        config = heterogeneous_random_configuration(seed=0)
        budgets = minimum_throughput_budgets(config)
        for graph in config.task_graphs:
            for task in graph.tasks:
                lower, _ = effective_budget_bounds(config, graph, task, {})
                assert lower <= budgets[task.name] < lower + config.granularity + 1e-9

    def test_minimum_buffer_capacities(self):
        config = producer_consumer_configuration()
        assert minimum_buffer_capacities(config) == {"bab": 1}

    def test_budget_first_allocates_minimal_budgets_and_large_buffers(self):
        config = producer_consumer_configuration()
        result = run_two_phase(config, TwoPhaseOrder.BUDGET_FIRST)
        assert result.feasible
        assert result.mapped is not None
        assert result.mapped.budgets == {"wa": 4.0, "wb": 4.0}
        assert result.mapped.buffer_capacities["bab"] == 10

    def test_buffer_first_allocates_minimal_buffers_and_large_budgets(self):
        config = producer_consumer_configuration()
        result = run_two_phase(config, TwoPhaseOrder.BUFFER_FIRST)
        assert result.feasible
        assert result.mapped is not None
        assert result.mapped.buffer_capacities["bab"] == 1
        assert result.mapped.budgets["wa"] == pytest.approx(37.0)

    def test_budget_first_false_negative_under_memory_pressure(self):
        """The motivating failure of the two-phase flow (paper, Section I).

        With a memory of 6 containers the joint formulation finds a mapping
        (e.g. 5 containers with ≈ 18-Mcycle budgets), but the budget-first
        flow fixes 4-Mcycle budgets, then needs 10 containers and fails.
        """
        config = producer_consumer_configuration(memory_capacity=6.0)
        joint = allocate(config, weights=ObjectiveWeights.prefer_budgets())
        assert sum(joint.budgets.values()) <= 2 * 39.0
        result = run_two_phase(config, TwoPhaseOrder.BUDGET_FIRST)
        assert not result.feasible
        assert result.total_budget == math.inf

    def test_buffer_first_overallocates_budget(self):
        config = producer_consumer_configuration()
        joint = allocate(config, weights=ObjectiveWeights.prefer_budgets())
        buffer_first = run_two_phase(config, TwoPhaseOrder.BUFFER_FIRST)
        assert buffer_first.feasible
        assert buffer_first.total_budget > sum(joint.budgets.values()) + 10.0

    def test_compare_with_joint_summary(self):
        config = producer_consumer_configuration(memory_capacity=6.0)
        joint = allocate(config, weights=ObjectiveWeights.prefer_budgets())
        summary = compare_with_joint(config, joint)
        assert summary["joint"]["feasible"] is True
        assert summary[TwoPhaseOrder.BUDGET_FIRST.value]["feasible"] is False
        assert summary[TwoPhaseOrder.BUFFER_FIRST.value]["feasible"] is True

    def test_two_phase_on_chain(self):
        config = chain_configuration(stages=3)
        for order in TwoPhaseOrder:
            result = run_two_phase(config, order)
            assert result.feasible
            assert result.total_capacity >= 2


@settings(max_examples=15, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=10),
    replenishment=st.floats(min_value=20.0, max_value=80.0, allow_nan=False),
    wcet=st.floats(min_value=0.5, max_value=2.0, allow_nan=False),
)
def test_joint_allocator_matches_closed_form_for_random_parameters(
    capacity, replenishment, wcet
):
    """Property: on producer-consumer instances with random parameters the
    relaxed SOCP optimum equals the closed-form minimum budget."""
    period = 10.0
    try:
        expected = producer_consumer_minimum_budget(
            capacity, replenishment_interval=replenishment, wcet=wcet, period=period
        )
    except InfeasibleProblemError:
        expected = None
    config = producer_consumer_configuration(
        replenishment_interval=replenishment,
        wcet=wcet,
        period=period,
        max_capacity=capacity,
    )
    if expected is None or expected > replenishment - 1.0:
        # The configuration is infeasible (or only feasible without rounding
        # slack); the allocator must refuse rather than return something wrong.
        with pytest.raises(InfeasibleProblemError):
            allocate(config, weights=ObjectiveWeights.prefer_budgets(), verify=True)
        return
    mapped = allocate(config, weights=ObjectiveWeights.prefer_budgets())
    assert mapped.relaxed_budgets["wa"] == pytest.approx(expected, rel=2e-3)
