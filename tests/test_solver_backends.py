"""Tests for the LP backend, the scipy backend and the auto dispatcher."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from program_rows import hyperbolic, le, minimize
from repro.exceptions import FormulationError
from repro.solver import ConeProgram, SolverStatus, barrier
from repro.solver.backends import solve_compiled
from repro.solver.linprog_backend import solve_with_linprog
from repro.solver.scipy_backend import solve_with_scipy


def _knapsack_like_program(c1: float, c2: float, limit: float) -> ConeProgram:
    program = ConeProgram()
    x = program.add_variable("x", lower=0.0, upper=10.0)
    y = program.add_variable("y", lower=0.0, upper=10.0)
    le(program, {x: 1.0, y: 1.0}, limit)
    minimize(program, {x: c1, y: c2})
    return program


def _hyperbolic_program() -> ConeProgram:
    """Minimise ``x + y`` subject to ``x·y ≥ 4`` (optimum 4 at x = y = 2)."""
    program = ConeProgram()
    x = program.add_variable("x", lower=0.1, upper=50.0)
    y = program.add_variable("y", lower=0.1, upper=50.0)
    hyperbolic(program, {x: 1.0}, 0.0, {y: 1.0}, 0.0, bound=4.0)
    minimize(program, {x: 1.0, y: 1.0})
    return program


class TestLinprogBackend:
    def test_simple_lp(self):
        program = _knapsack_like_program(-1.0, -2.0, 6.0)
        solution = solve_with_linprog(program.compile())
        assert solution.is_optimal
        assert solution.objective == pytest.approx(-12.0, abs=1e-8)
        assert solution.backend == "linprog"

    def test_rejects_cone_constraints(self):
        program = ConeProgram()
        x = program.add_variable("x", lower=0.1)
        y = program.add_variable("y", lower=0.1)
        hyperbolic(program, {x: 1.0}, 0.0, {y: 1.0}, 0.0, 1.0)
        with pytest.raises(FormulationError):
            solve_with_linprog(program.compile())

    def test_unbounded_lp(self):
        program = ConeProgram()
        x = program.add_variable("x", upper=5.0)
        minimize(program, {x: 1.0})
        solution = solve_with_linprog(program.compile())
        assert solution.status is SolverStatus.UNBOUNDED

    def test_equality_constraints(self):
        """A pinned variable (``x = 1``) reaches HiGHS as a folded constant."""
        program = ConeProgram()
        x = program.add_variable("x", lower=1.0, upper=1.0)
        y = program.add_variable("y", lower=0.0, upper=10.0)
        le(program, {x: 1.0, y: 1.0}, 3.0)
        minimize(program, {x: 1.0, y: -1.0})
        solution = solve_with_linprog(program.compile())
        assert solution.is_optimal
        assert solution.value(x) == 1.0
        assert solution.value(y) == pytest.approx(2.0, abs=1e-8)
        assert solution.objective == pytest.approx(-1.0, abs=1e-8)

    def test_empty_problem(self):
        program = ConeProgram()
        solution = solve_with_linprog(program.compile())
        assert solution.is_optimal


class TestScipyBackend:
    def test_hyperbolic_problem(self):
        program = ConeProgram()
        x = program.add_variable("x", lower=1e-3, upper=100.0)
        y = program.add_variable("y", lower=1e-3, upper=100.0)
        hyperbolic(program, {x: 1.0}, 0.0, {y: 1.0}, 0.0, bound=4.0)
        minimize(program, {x: 1.0, y: 1.0})
        solution = solve_with_scipy(program.compile())
        assert solution.is_optimal
        assert solution.objective == pytest.approx(4.0, rel=1e-3)
        assert solution.backend == "scipy"

    def test_reports_infeasibility(self):
        program = ConeProgram()
        x = program.add_variable("x", lower=0.0, upper=1.0)
        y = program.add_variable("y", lower=0.0, upper=1.0)
        hyperbolic(program, {x: 1.0}, 0.0, {y: 1.0}, 0.0, bound=9.0)
        minimize(program, {x: 1.0, y: 1.0})
        solution = solve_with_scipy(program.compile())
        assert solution.status in (SolverStatus.INFEASIBLE, SolverStatus.NUMERICAL_ERROR)
        assert not solution.is_optimal

    def test_empty_problem(self):
        program = ConeProgram()
        solution = solve_with_scipy(program.compile())
        assert solution.is_optimal


class TestAutoDispatch:
    def test_pure_lp_uses_linprog(self):
        program = _knapsack_like_program(1.0, 1.0, 4.0)
        solution = program.solve(backend="auto")
        assert solution.is_optimal
        assert solution.backend == "linprog"

    def test_cone_program_uses_barrier(self):
        solution = _hyperbolic_program().solve(backend="auto")
        assert solution.is_optimal
        assert solution.backend == "barrier"

    def test_auto_falls_back_to_scipy_when_the_barrier_stops_early(self, monkeypatch):
        """One barrier rung cannot reach OPTIMAL, so ``auto`` changes the
        method: scipy answers, on the same optimum as the default solve."""
        program = _hyperbolic_program()
        default = program.solve(backend="auto")
        monkeypatch.setattr(
            barrier, "_OPTIONS", dataclasses.replace(barrier._OPTIONS, max_outer_iterations=1)
        )
        solution = program.solve(backend="auto")
        assert solution.backend == "scipy"
        assert solution.status is SolverStatus.OPTIMAL
        assert solution.objective == pytest.approx(default.objective, abs=1e-6)

    def test_unknown_backend_rejected(self):
        program = _knapsack_like_program(1.0, 1.0, 4.0)
        with pytest.raises(FormulationError):
            solve_compiled(program.compile(), backend="gurobi")

    def test_removed_backend_lists_the_remaining_ones(self):
        program = _knapsack_like_program(1.0, 1.0, 4.0)
        with pytest.raises(FormulationError) as error:
            solve_compiled(program.compile(), backend="decomposed")
        for backend in ("auto", "barrier", "linprog", "scipy"):
            assert repr(backend) in str(error.value)

    @pytest.mark.parametrize("backend", ["auto", "barrier", "scipy"])
    def test_unknown_option_rejected(self, backend):
        # A solve takes no tuning keywords: a stale option such as a removed
        # solve mode's worker count is rejected, never silently dropped.
        from repro.core.formulation import SocpFormulation
        from repro.taskgraph.generators import chain_configuration

        formulation = SocpFormulation(chain_configuration(stages=2))
        with pytest.raises(TypeError, match="workers"):
            formulation.solve(backend=backend, workers=4)

    def test_solve_records_time(self):
        program = _knapsack_like_program(1.0, 1.0, 4.0)
        solution = program.solve()
        assert solution.solve_time >= 0.0


@settings(max_examples=25, deadline=None)
@given(
    c=st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=3, max_size=3),
    rows=st.lists(
        st.lists(st.floats(min_value=0.1, max_value=3, allow_nan=False), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    ),
    rhs=st.lists(st.floats(min_value=1.0, max_value=20.0, allow_nan=False), min_size=4, max_size=4),
)
def test_barrier_matches_linprog_on_random_bounded_lps(c, rows, rhs):
    """Property: on random bounded LPs the barrier optimum matches HiGHS.

    All variables are box-constrained to [0, 5] and all constraint
    coefficients are positive with positive right-hand sides, so the origin is
    feasible and the LP is bounded.
    """
    program = ConeProgram()
    variables = [program.add_variable(f"x{i}", lower=0.0, upper=5.0) for i in range(3)]
    for i, row in enumerate(rows):
        le(program, dict(zip(variables, row)), rhs[i])
    minimize(program, dict(zip(variables, c)))

    lp = program.solve(backend="linprog")
    barrier = program.solve(backend="barrier")
    assert lp.is_optimal and barrier.is_optimal
    scale = max(1.0, abs(lp.objective))
    assert barrier.objective == pytest.approx(lp.objective, abs=2e-3 * scale)


@settings(max_examples=20, deadline=None)
@given(
    a=st.floats(min_value=0.2, max_value=10.0, allow_nan=False),
    b=st.floats(min_value=0.2, max_value=10.0, allow_nan=False),
    w=st.floats(min_value=0.5, max_value=25.0, allow_nan=False),
)
def test_barrier_hyperbolic_matches_closed_form(a, b, w):
    """Property: min a·x + b·y s.t. x·y ≥ w has value 2·sqrt(a·b·w)."""
    import math

    program = ConeProgram()
    x = program.add_variable("x", lower=1e-4, upper=1e4)
    y = program.add_variable("y", lower=1e-4, upper=1e4)
    hyperbolic(program, {x: 1.0}, 0.0, {y: 1.0}, 0.0, bound=w)
    minimize(program, {x: a, y: b})
    solution = program.solve(backend="barrier")
    assert solution.is_optimal
    assert solution.objective == pytest.approx(2.0 * math.sqrt(a * b * w), rel=2e-3)
