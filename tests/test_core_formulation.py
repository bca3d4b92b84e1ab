"""Tests of the Algorithm-1 cone program builder (SocpFormulation).

A configuration is the formulation's one block, ``formulation.blocks[0]``.
"""

from __future__ import annotations

import pytest

from repro.core.formulation import SocpFormulation
from repro.core.objective import ObjectiveWeights
from repro.solver import SolverStatus
from repro.taskgraph import ConfigurationBuilder
from repro.taskgraph.generators import (
    producer_consumer_configuration,
    random_dag_configuration,
    ring_configuration,
)


class TestVariableCreation:
    def test_variable_counts(self, paper_producer_consumer):
        formulation = SocpFormulation(paper_producer_consumer)
        program = formulation.build()
        # 2 budgets + 2 lambdas + 1 capacity + 3 free start times (one of the
        # four actors is pinned to zero).
        assert len(program.variables) == 8
        assert set(formulation.blocks[0].variables.budgets) == {"wa", "wb"}
        assert set(formulation.blocks[0].variables.capacities) == {"bab"}
        assert len(formulation.blocks[0].variables.start_times) == 4

    def test_budget_bounds_reflect_throughput_and_capacity(self, paper_producer_consumer):
        formulation = SocpFormulation(paper_producer_consumer)
        formulation.build()
        beta = formulation.blocks[0].variables.budgets["wa"]
        # Lower bound ̺·χ/µ = 40/10 = 4; upper bound ̺ − o − g = 39.
        assert beta.lower == pytest.approx(4.0)
        assert beta.upper == pytest.approx(39.0)

    def test_lambda_bounds(self, paper_producer_consumer):
        formulation = SocpFormulation(paper_producer_consumer)
        formulation.build()
        lam = formulation.blocks[0].variables.reciprocals["wa"]
        assert lam.upper == pytest.approx(10.0 / 40.0)
        assert lam.lower > 0.0

    def test_capacity_bounds_default_to_sound_upper_bound(self, paper_producer_consumer):
        formulation = SocpFormulation(paper_producer_consumer)
        formulation.build()
        capacity = formulation.blocks[0].variables.capacities["bab"]
        assert capacity.lower == pytest.approx(1.0)
        # Σ(̺ + µ)/µ + 1 = (50 + 50)/10 + 1 = 11 containers are always enough.
        assert capacity.upper == pytest.approx(11.0)

    def test_capacity_limits_are_applied(self, paper_producer_consumer):
        formulation = SocpFormulation(paper_producer_consumer, capacity_limits={"bab": 3})
        formulation.build()
        assert formulation.blocks[0].variables.capacities["bab"].upper == pytest.approx(3.0)

    def test_budget_limits_are_applied(self, paper_producer_consumer):
        formulation = SocpFormulation(paper_producer_consumer, budget_limits={"wa": 20.0})
        formulation.build()
        assert formulation.blocks[0].variables.budgets["wa"].upper == pytest.approx(20.0)

    def test_contradictory_budget_limit_is_infeasible(self, paper_producer_consumer):
        from repro.exceptions import InfeasibleProblemError

        formulation = SocpFormulation(paper_producer_consumer, budget_limits={"wa": 1.0})
        with pytest.raises(InfeasibleProblemError):
            formulation.build()

    def test_contradictory_capacity_limit_is_infeasible(self):
        from repro.exceptions import InfeasibleProblemError

        config = ring_configuration(stages=3, initial_tokens=2)
        formulation = SocpFormulation(config, capacity_limits={"b2": 1})
        with pytest.raises(InfeasibleProblemError):
            formulation.build()

    def test_initial_tokens_raise_capacity_lower_bound(self):
        config = ring_configuration(stages=3, initial_tokens=2)
        formulation = SocpFormulation(config)
        formulation.build()
        assert formulation.blocks[0].variables.capacities["b2"].lower == pytest.approx(2.0)


class TestConstraintCounts:
    def test_constraint_families(self, paper_chain3):
        formulation = SocpFormulation(paper_chain3)
        program = formulation.build()
        compiled = program.compile()
        # One hyperbolic constraint per task (Constraint (8)).
        assert len(compiled.hyperbolic) == 3
        linear_names = compiled.inequality_names
        # Constraint (6): one per task; Constraint (7): self-loops + data +
        # space queues = 3 + 2 + 2 = 7; Constraint (9): one per used processor.
        assert sum(name.startswith("e1[") for name in linear_names) == 3
        assert sum(name.startswith("e2[") for name in linear_names) == 7
        assert sum(name.startswith("processor[") for name in linear_names) == 3

    def test_memory_constraint_only_for_bounded_memories(self):
        unbounded = producer_consumer_configuration()
        bounded = producer_consumer_configuration(memory_capacity=16.0)
        names_unbounded = SocpFormulation(unbounded).build().compile().inequality_names
        names_bounded = SocpFormulation(bounded).build().compile().inequality_names
        assert not any(n.startswith("memory[") for n in names_unbounded)
        assert any(n.startswith("memory[") for n in names_bounded)

    def test_build_is_idempotent(self, paper_producer_consumer):
        formulation = SocpFormulation(paper_producer_consumer)
        first = formulation.build()
        second = formulation.build()
        assert first is second
        assert len(first.compile().hyperbolic) == 2


class TestSolutionExtraction:
    def test_relaxed_solution_satisfies_paper_constraints(self, paper_producer_consumer):
        formulation = SocpFormulation(
            paper_producer_consumer, weights=ObjectiveWeights.prefer_budgets()
        )
        solution = formulation.solve()
        assert solution.status is SolverStatus.OPTIMAL
        budgets = formulation.blocks[0].extract_budgets(solution)
        capacities = formulation.blocks[0].extract_capacities(solution)
        start_times = formulation.blocks[0].extract_start_times(solution)
        assert set(budgets) == {"wa", "wb"}
        assert set(capacities) == {"bab"}
        assert len(start_times) == 4
        # Constraint (8) holds at the optimum.
        lam = solution.value(formulation.blocks[0].variables.reciprocals["wa"])
        assert lam * budgets["wa"] >= 1.0 - 1e-6
        # With budget-preferring weights the buffer grows to its bound and the
        # budget falls to its throughput-implied minimum of 4 Mcycles.
        assert budgets["wa"] == pytest.approx(4.0, rel=1e-3)

    def test_weight_override_changes_solution(self):
        """Different weightings land at different ends of the trade-off curve.

        Compared on the total budget, which both optima determine, and
        checked against the scipy oracle.  Under ``prefer_budgets`` the
        buffer weight is ~1e-6 per container, so capacities there are not
        fixed at the solver tolerance and make no sound comparison.
        """
        configuration = random_dag_configuration(4, 2, seed=3)

        def total_budget(weights, backend):
            formulation = SocpFormulation(configuration, weights=weights)
            solution = formulation.solve(backend=backend)
            assert solution.is_optimal
            values = solution.by_name()
            return sum(
                values[budget.name]
                for budget in formulation.blocks[0].variables.budgets.values()
            )

        totals = {
            (name, backend): total_budget(weights, backend)
            for name, weights in (
                ("budgets", ObjectiveWeights.prefer_budgets()),
                ("buffers", ObjectiveWeights.prefer_buffers()),
            )
            for backend in ("barrier", "scipy")
        }
        for name in ("budgets", "buffers"):
            assert totals[name, "barrier"] == pytest.approx(
                totals[name, "scipy"], rel=1e-5
            )
        # Budget-first weights buy budget back with buffer space (18.54 vs
        # 20.28 total budget here).
        assert totals["budgets", "barrier"] < totals["buffers", "barrier"] - 1.0

    def test_initial_point_strictly_satisfies_hyperbolic(self, paper_chain3):
        formulation = SocpFormulation(paper_chain3)
        formulation.build()
        point = formulation.initial_point()
        for task_name, beta in formulation.blocks[0].variables.budgets.items():
            lam = formulation.blocks[0].variables.reciprocals[task_name]
            assert point[lam] * point[beta] > 1.0

    def test_multi_graph_configuration(self):
        config = (
            ConfigurationBuilder(name="two-jobs", granularity=1.0)
            .processor("p1", replenishment_interval=40.0)
            .processor("p2", replenishment_interval=40.0)
            .memory("m1")
            .task_graph("fast", period=10.0)
            .task("fa", wcet=1.0, processor="p1")
            .task("fb", wcet=1.0, processor="p2")
            .buffer("fab", source="fa", target="fb", memory="m1")
            .task_graph("slow", period=25.0)
            .task("sa", wcet=1.0, processor="p1")
            .task("sb", wcet=1.0, processor="p2")
            .buffer("sab", source="sa", target="sb", memory="m1")
            .build()
        )
        formulation = SocpFormulation(config, weights=ObjectiveWeights.prefer_budgets())
        solution = formulation.solve()
        assert solution.is_optimal
        budgets = formulation.blocks[0].extract_budgets(solution)
        # The slower job needs less budget than the faster one.
        assert budgets["sa"] < budgets["fa"] + 1e-6
