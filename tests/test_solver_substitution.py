"""Compile-time substitution of fixed variables.

:meth:`ConeProgram.compile` emits no equality rows: a variable whose bounds
collapse is replaced by its value, folded into the constant of every row,
hyperbolic term and the objective.  These tests pin what that must
preserve: the optimum on every backend, the block structure of workload
programs, every registered variable in ``Solution.values``, infeasibility
of rows a pinned variable contradicts.
"""

from __future__ import annotations

import pytest

from program_rows import ge, hyperbolic, le, minimize
from repro.core.formulation import SocpFormulation, WorkloadSocpFormulation
from repro.solver import BarrierSolver, ConeProgram, SolverStatus
from repro.taskgraph import random_workload
from repro.taskgraph.generators import producer_consumer_configuration

BACKENDS = ("barrier", "scipy", "linprog")


def relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def pinned_lp() -> ConeProgram:
    """``x`` pinned to 1 with ``x + y + z ≤ 4`` and ``y ≤ 2.5`` over boxes;
    a bounded LP."""
    program = ConeProgram("pinned-lp")
    x = program.add_variable("x", lower=1.0, upper=1.0)
    y = program.add_variable("y", lower=0.0, upper=10.0)
    z = program.add_variable("z", lower=0.0, upper=10.0)
    le(program, {x: 1.0, y: 1.0, z: 1.0}, 4.0)
    le(program, {y: 1.0}, 2.5, name="cap")
    minimize(program, {x: 3.0, y: -2.0, z: -1.0})
    return program


def contradicted_pin() -> ConeProgram:
    """``x`` pinned to 1, ``x + y ≥ 7`` and ``y ≤ 5``: no point exists."""
    program = ConeProgram("contradicted")
    x = program.add_variable("x", lower=1.0, upper=1.0)
    y = program.add_variable("y", lower=0.0)
    ge(program, {x: 1.0, y: 1.0}, 7.0, name="need")
    le(program, {y: 1.0}, 5.0, name="cap")
    minimize(program, {y: 1.0})
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


    def test_values_list_every_registered_variable(self):
        program = pinned_lp()
        solutions = {backend: program.solve(backend=backend) for backend in BACKENDS}
        reference = solutions["linprog"]
        assert reference.is_optimal
        for backend, solution in solutions.items():
            assert solution.is_optimal, backend
            assert list(solution.values) == list(program.variables), backend
            assert relative_gap(solution.objective, reference.objective) <= 1e-6
            x, y, z = (solution.value(var) for var in program.variables)
            assert x == 1.0
            assert (y, z) == (pytest.approx(2.5, abs=1e-6), pytest.approx(0.5, abs=1e-6))

    def test_inconsistent_pin_is_infeasible_on_every_backend(self):
        program = contradicted_pin()
        compiled = program.compile()
        row = compiled.inequality_names.index("need")
        assert compiled.G[row].tolist() == [-1.0]
        assert compiled.h[row] == pytest.approx(-6.0)
        for backend in BACKENDS + ("auto",):
            assert program.solve(backend=backend).status is SolverStatus.INFEASIBLE
        assert BarrierSolver().feasible_point(compiled) is None


def test_cross_block_hyperbolic_leaves_no_structure():
    """A hyperbolic term between block 0's ``x1`` and block 1's ``y2``
    couples the blocks, which no block structure can hold."""
    program = ConeProgram("cross-block")
    x1 = program.add_variable("x1", lower=0.1, upper=10.0)
    y1 = program.add_variable("y1", lower=0.1, upper=10.0)
    x2 = program.add_variable("x2", lower=0.1, upper=10.0)
    y2 = program.add_variable("y2", lower=0.1, upper=10.0)
    hyperbolic(program, {x1: 1.0}, 0.0, {y1: 1.0}, 0.0, 4.0)
    hyperbolic(program, {x2: 1.0}, 0.0, {y2: 1.0}, 0.0, 1.0)
    hyperbolic(program, {x1: 1.0}, 0.0, {y2: 1.0}, 0.0, 9.0)
    minimize(program, {x1: 1.0, y1: 1.0, x2: 1.0, y2: 1.0})
    program.declare_blocks([[x1, y1], [x2, y2]])
    compiled = program.compile()
    assert compiled.block_structure is None
    barrier = program.solve(backend="barrier")
    scipy = program.solve(backend="scipy")
    assert barrier.is_optimal and scipy.is_optimal
    assert relative_gap(barrier.objective, scipy.objective) <= 1e-6
    assert barrier.value(x1) * barrier.value(y2) == pytest.approx(9.0, rel=1e-6)
