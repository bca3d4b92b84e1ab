"""Compile-time substitution of fixed variables and equality rows.

:meth:`ConeProgram.compile` emits no equality rows: a variable whose bounds
collapse is replaced by its value, and each ``add_equality`` row is solved
for its pivot and substituted into every row, hyperbolic term and the objective.
These tests pin what that must preserve: the optimum on every backend, the
block structure of workload programs, every registered variable in
``Solution.values``, infeasibility of inconsistent equalities, and
parametric right-hand sides on rows whose constant substitution shifted.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.formulation import SocpFormulation, WorkloadSocpFormulation
from repro.solver import BarrierSolver, ConeProgram, SolverStatus
from repro.taskgraph import random_workload
from repro.taskgraph.generators import producer_consumer_configuration

BACKENDS = ("barrier", "scipy", "linprog")


def relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def equality_lp() -> ConeProgram:
    """``x + y + z = 4``, ``x − z = 1`` over boxes; a bounded LP."""
    program = ConeProgram("equality-lp")
    x = program.add_variable("x", lower=0.0, upper=10.0)
    y = program.add_variable("y", lower=0.0, upper=10.0)
    z = program.add_variable("z", lower=0.0, upper=10.0)
    program.add_equality(x + y + z, 4.0)
    program.add_equality(x - z, 1.0)
    program.add_less_equal(y, 2.5, name="cap")
    program.minimize(3.0 * x + y + z)
    return program


class TestFixedVariables:
    def test_pinned_capacity_on_producer_consumer(self):
        """``capacity[bab]`` pinned to 1, the one equality the perfbench
        inputs produce: it leaves the program and comes back exactly."""
        formulation = SocpFormulation(
            producer_consumer_configuration(), capacity_limits={"bab": 1}
        )
        program = formulation.build()
        compiled = program.compile()
        capacity = program.variable("capacity[bab]")
        assert capacity not in compiled.variables
        assert set(compiled.substitutions) == {capacity}
        start = formulation.initial_point()
        barrier = program.solve(backend="barrier", initial_point=start)
        scipy = program.solve(backend="scipy", initial_point=start)
        assert barrier.is_optimal and scipy.is_optimal
        assert relative_gap(barrier.objective, scipy.objective) <= 1e-6
        assert barrier.value(capacity) == 1.0
        assert scipy.value(capacity) == 1.0

    def test_pinned_budget_keeps_the_workload_blocks(self):
        """One pinned budget in an 8-application workload drops its column,
        not the block structure; the arrow solve still matches scipy."""
        formulation = WorkloadSocpFormulation(
            random_workload(application_count=8, task_count=2, seed=1)
        )
        program = formulation.build()
        budget = program.variable("beta[app0/t0]")
        budget.lower = budget.upper = 2.0 * budget.lower
        compiled = program.compile()
        assert budget not in compiled.variables
        assert compiled.block_structure is not None
        assert compiled.block_structure.num_blocks == 8
        start = formulation.initial_point()
        barrier = program.solve(backend="barrier", initial_point=start)
        scipy = program.solve(backend="scipy", initial_point=start)
        assert barrier.is_optimal and scipy.is_optimal
        assert barrier.stats["structured"] is True
        assert relative_gap(barrier.objective, scipy.objective) <= 1e-6
        assert barrier.value(budget) == budget.lower


class TestEqualityRows:
    def test_values_list_every_registered_variable(self):
        program = equality_lp()
        solutions = {backend: program.solve(backend=backend) for backend in BACKENDS}
        reference = solutions["linprog"]
        assert reference.is_optimal
        for backend, solution in solutions.items():
            assert solution.is_optimal, backend
            assert list(solution.values) == list(program.variables), backend
            assert relative_gap(solution.objective, reference.objective) <= 1e-6
            x, y, z = (solution.value(var) for var in program.variables)
            assert x + y + z == pytest.approx(4.0, abs=1e-9)
            assert x - z == pytest.approx(1.0, abs=1e-9)

    def test_redundant_pair_is_dropped(self):
        program = ConeProgram("redundant")
        x = program.add_variable("x", lower=0.0, upper=5.0)
        y = program.add_variable("y", lower=0.0, upper=5.0)
        program.add_equality(x + y, 3.0)
        program.add_equality(2.0 * x + 2.0 * y, 6.0, name="twice")
        program.minimize(x)
        compiled = program.compile()
        assert compiled.variables == [y]
        assert "twice" not in compiled.inequality_names
        for backend in BACKENDS:
            solution = program.solve(backend=backend)
            assert solution.is_optimal, backend
            assert solution.objective == pytest.approx(0.0, abs=1e-6)
            assert solution.value(y) == pytest.approx(3.0, abs=1e-6)

    def test_inconsistent_pair_is_infeasible_on_every_backend(self):
        program = ConeProgram("inconsistent")
        x = program.add_variable("x", lower=0.0, upper=5.0)
        y = program.add_variable("y", lower=0.0, upper=5.0)
        program.add_equality(x + y, 3.0)
        program.add_equality(x + y, 4.0, name="clash")
        program.minimize(x)
        compiled = program.compile()
        row = compiled.inequality_names.index("clash")
        assert compiled.G[row].tolist() == [0.0]
        assert compiled.h[row] == pytest.approx(-1.0)
        for backend in BACKENDS:
            assert program.solve(backend=backend).status is SolverStatus.INFEASIBLE
        assert BarrierSolver().feasible_point(compiled) is None

    def test_cross_block_equality_leaves_no_structure(self):
        """Substituting ``x1 = x2`` puts block 1's column into block 0's
        hyperbolic constraint, which no block structure can hold."""
        program = ConeProgram("cross-block")
        x1 = program.add_variable("x1", lower=0.1, upper=10.0)
        y1 = program.add_variable("y1", lower=0.1, upper=10.0)
        x2 = program.add_variable("x2", lower=0.1, upper=10.0)
        y2 = program.add_variable("y2", lower=0.1, upper=10.0)
        program.add_hyperbolic(x1, y1, 4.0)
        program.add_hyperbolic(x2, y2, 1.0)
        program.add_equality(x1 - x2, 0.0)
        program.minimize(x1 + y1 + x2 + y2)
        program.declare_blocks([[x1, y1], [x2, y2]])
        compiled = program.compile()
        assert compiled.block_structure is None
        barrier = program.solve(backend="barrier")
        scipy = program.solve(backend="scipy")
        assert barrier.is_optimal and scipy.is_optimal
        assert relative_gap(barrier.objective, scipy.objective) <= 1e-6
        assert barrier.value(x1) == pytest.approx(barrier.value(x2), abs=1e-12)


class TestParametricShift:
    def test_parameter_on_a_row_with_a_pinned_variable(self):
        """``cap: x + y + w ≤ rhs`` with ``x`` pinned compiles to
        ``y + w ≤ rhs − 1``; setting the parameter must keep that shift and
        solve like a fresh compile with the new right-hand side."""

        def build(rhs: float) -> ConeProgram:
            program = ConeProgram("shifted")
            x = program.add_variable("x", lower=1.0, upper=1.0)
            y = program.add_variable("y", lower=0.1, upper=10.0)
            w = program.add_variable("w", lower=0.1, upper=10.0)
            program.add_less_equal(x + y + w, rhs, name="cap")
            program.add_hyperbolic(y, w, 2.0)
            program.minimize(-y + 0.5 * w)
            return program

        parametric = build(5.0).parametric()
        row = parametric.compiled.inequality_names.index("cap")
        assert parametric.compiled.h_shifts == {row: -1.0}
        parametric.register_rhs("cap", "cap")
        parametric.set("cap", 7.0)
        fresh = build(7.0).compile()
        np.testing.assert_array_equal(parametric.compiled.h, fresh.h)
        session_solution = BarrierSolver().solve(parametric.compiled)
        fresh_solution = BarrierSolver().solve(fresh)
        assert session_solution.is_optimal and fresh_solution.is_optimal
        assert session_solution.objective == pytest.approx(
            fresh_solution.objective, rel=1e-9
        )
        assert session_solution.by_name() == pytest.approx(
            fresh_solution.by_name(), rel=1e-9
        )
