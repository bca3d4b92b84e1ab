"""Unit tests for the log-barrier interior-point solver.

The barrier solver is the default backend for the cone programs of
Algorithm 1, so these tests check it against problems with known analytic
optima and against the independent scipy backend.
"""

from __future__ import annotations

import math

import pytest

from program_rows import ge, hyperbolic, le, minimize
from repro.solver import BarrierSolver, ConeProgram, SolverStatus


def _solve(program, initial_point=None):
    compiled = program.compile()
    x0 = compiled.vector_from_mapping(initial_point) if initial_point else None
    return BarrierSolver().solve(compiled, initial_point=x0)


class TestLinearProgramsViaBarrier:
    def test_bounded_minimisation(self):
        program = ConeProgram()
        x = program.add_variable("x", lower=0.0, upper=10.0)
        y = program.add_variable("y", lower=0.0, upper=10.0)
        le(program, {x: 1.0, y: 1.0}, 6.0)
        minimize(program, {x: -1.0, y: -2.0})
        solution = _solve(program)
        assert solution.is_optimal
        assert solution.value(y) == pytest.approx(6.0, abs=1e-4)
        assert solution.objective == pytest.approx(-12.0, abs=1e-3)

    def test_agrees_with_lp_backend(self):
        program = ConeProgram()
        x = program.add_variable("x", lower=0.0, upper=4.0)
        y = program.add_variable("y", lower=0.0, upper=4.0)
        le(program, {x: 2.0, y: 1.0}, 5.0)
        le(program, {x: 1.0, y: 3.0}, 7.0)
        minimize(program, {x: -3.0, y: -4.0})
        barrier = program.solve(backend="barrier")
        linprog = program.solve(backend="linprog")
        assert barrier.is_optimal and linprog.is_optimal
        assert barrier.objective == pytest.approx(linprog.objective, abs=1e-4)

    def test_infeasible_linear_program(self):
        program = ConeProgram()
        x = program.add_variable("x", lower=0.0, upper=1.0)
        ge(program, {x: 1.0}, 3.0)
        minimize(program, {x: 1.0})
        solution = _solve(program)
        assert solution.status is SolverStatus.INFEASIBLE

    def test_equality_constraints_are_respected(self):
        """A pinned variable (``y = 4``) keeps its value and binds the rows
        it appears in."""
        program = ConeProgram()
        x = program.add_variable("x", lower=0.0, upper=10.0)
        y = program.add_variable("y", lower=4.0, upper=4.0)
        ge(program, {x: 1.0, y: 1.0}, 5.0)
        minimize(program, {x: 3.0, y: 1.0})
        solution = _solve(program)
        assert solution.is_optimal
        assert solution.value(x) == pytest.approx(1.0, abs=1e-4)
        assert solution.value(y) == 4.0

    def test_inconsistent_equalities(self):
        """``x`` pinned to 1 contradicts ``x + y ≥ 7`` with ``y ≤ 5``."""
        program = ConeProgram()
        x = program.add_variable("x", lower=1.0, upper=1.0)
        y = program.add_variable("y")
        ge(program, {x: 1.0, y: 1.0}, 7.0)
        le(program, {y: 1.0}, 5.0)
        minimize(program, {y: 1.0})
        solution = _solve(program)
        assert solution.status is SolverStatus.INFEASIBLE

    def test_unconstrained_nonzero_objective_is_unbounded(self):
        program = ConeProgram()
        x = program.add_variable("x")
        minimize(program, {x: 1.0})
        solution = _solve(program)
        assert solution.status is SolverStatus.UNBOUNDED


class TestHyperbolicProgramsViaBarrier:
    def test_known_geometric_optimum(self):
        """min x + y  s.t.  x·y >= 4  has the optimum x = y = 2."""
        program = ConeProgram()
        x = program.add_variable("x", lower=1e-3, upper=100.0)
        y = program.add_variable("y", lower=1e-3, upper=100.0)
        hyperbolic(program, {x: 1.0}, 0.0, {y: 1.0}, 0.0, bound=4.0)
        minimize(program, {x: 1.0, y: 1.0})
        solution = _solve(program)
        assert solution.is_optimal
        assert solution.value(x) == pytest.approx(2.0, rel=1e-3)
        assert solution.value(y) == pytest.approx(2.0, rel=1e-3)

    def test_weighted_hyperbolic_optimum(self):
        """min a·x + b·y s.t. x·y >= w  ->  x* = sqrt(w·b/a), y* = sqrt(w·a/b)."""
        a, b, w = 2.0, 8.0, 9.0
        program = ConeProgram()
        x = program.add_variable("x", lower=1e-4, upper=1e3)
        y = program.add_variable("y", lower=1e-4, upper=1e3)
        hyperbolic(program, {x: 1.0}, 0.0, {y: 1.0}, 0.0, bound=w)
        minimize(program, {x: a, y: b})
        solution = _solve(program)
        assert solution.is_optimal
        assert solution.value(x) == pytest.approx(math.sqrt(w * b / a), rel=1e-3)
        assert solution.value(y) == pytest.approx(math.sqrt(w * a / b), rel=1e-3)
        assert solution.objective == pytest.approx(2.0 * math.sqrt(a * b * w), rel=1e-3)

    def test_affine_arguments(self):
        """The hyperbolic constraint accepts affine (not just variable) sides."""
        program = ConeProgram()
        x = program.add_variable("x", lower=0.0, upper=50.0)
        hyperbolic(program, {x: 1.0}, 1.0, {x: 1.0}, 1.0, bound=16.0)
        minimize(program, {x: 1.0})
        solution = _solve(program)
        assert solution.is_optimal
        assert solution.value(x) == pytest.approx(3.0, rel=1e-3)

    def test_infeasible_hyperbolic(self):
        program = ConeProgram()
        x = program.add_variable("x", lower=0.0, upper=1.0)
        y = program.add_variable("y", lower=0.0, upper=1.0)
        hyperbolic(program, {x: 1.0}, 0.0, {y: 1.0}, 0.0, bound=4.0)
        minimize(program, {x: 1.0, y: 1.0})
        solution = _solve(program)
        assert solution.status is SolverStatus.INFEASIBLE

    def test_agrees_with_scipy_backend(self):
        program = ConeProgram()
        x = program.add_variable("x", lower=0.5, upper=40.0)
        y = program.add_variable("y", lower=0.01, upper=1.0)
        hyperbolic(program, {x: 1.0}, 0.0, {y: 1.0}, 0.0, bound=1.0)
        le(program, {x: 1.0, y: 10.0}, 20.0)
        minimize(program, {x: 1.0, y: 3.0})
        barrier = program.solve(backend="barrier")
        scipy_solution = program.solve(backend="scipy")
        assert barrier.is_optimal and scipy_solution.is_optimal
        assert barrier.objective == pytest.approx(scipy_solution.objective, rel=1e-3)


class TestWarmStartAndOptions:
    def test_warm_start_accepted(self):
        program = ConeProgram()
        x = program.add_variable("x", lower=1.0, upper=9.0)
        y = program.add_variable("y", lower=1.0, upper=9.0)
        hyperbolic(program, {x: 1.0}, 0.0, {y: 1.0}, 0.0, bound=4.0)
        minimize(program, {x: 1.0, y: 1.0})
        solution = _solve(program, initial_point={x: 3.0, y: 3.0})
        assert solution.is_optimal
        assert solution.objective == pytest.approx(4.0, rel=1e-3)

    def test_empty_problem(self):
        program = ConeProgram()
        compiled = program.compile()
        solution = BarrierSolver().solve(compiled)
        assert solution.is_optimal
        assert solution.values == {}
