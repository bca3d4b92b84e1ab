"""Unit tests for the ConeProgram container and its compilation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from program_rows import ge, hyperbolic, le, minimize, row
from repro.exceptions import FormulationError
from repro.solver import ConeProgram, Solution, SolverStatus, Variable


class TestVariableManagement:
    def test_requires_name(self):
        with pytest.raises(FormulationError):
            Variable("")

    def test_rejects_contradictory_bounds(self):
        with pytest.raises(FormulationError):
            Variable("x", lower=2.0, upper=1.0)
        with pytest.raises(FormulationError):
            ConeProgram().add_variable("x", lower=2.0, upper=1.0)

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_bounds(self, bound):
        """``None`` is the one way to leave a side unbounded: a NaN or
        infinite bound would compile into a NaN or infinite ``h``."""
        program = ConeProgram()
        with pytest.raises(FormulationError):
            program.add_variable("x", lower=bound)
        with pytest.raises(FormulationError):
            program.add_variable("y", upper=bound)
        assert program.num_variables == 0

    def test_bounds_are_stored_as_floats(self):
        var = Variable("x", lower=1, upper=3)
        assert var.lower == 1.0 and isinstance(var.lower, float)
        assert var.upper == 3.0 and isinstance(var.upper, float)

    def test_identity_based_equality(self):
        a = Variable("x")
        b = Variable("x")
        assert a == a
        assert a != b
        assert len({a, b}) == 2

    def test_duplicate_names_rejected(self):
        program = ConeProgram()
        program.add_variable("x")
        with pytest.raises(FormulationError):
            program.add_variable("x")

    def test_lookup_by_name(self):
        program = ConeProgram()
        x = program.add_variable("x")
        assert program.variable("x") is x
        with pytest.raises(FormulationError):
            program.variable("y")

    def test_foreign_variable_rejected(self):
        program = ConeProgram()
        program.add_variable("x")
        stranger = Variable("z")
        with pytest.raises(FormulationError):
            le(program, {stranger: 1.0}, 1.0)

    def test_foreign_variable_in_objective_rejected(self):
        program = ConeProgram()
        stranger = Variable("z")
        with pytest.raises(FormulationError):
            minimize(program, {stranger: 1.0})
        with pytest.raises(FormulationError):
            program.minimize([0], [1.0])


class TestRowValidation:
    def test_rows_reject_non_finite_values(self):
        program = ConeProgram()
        x = program.add_variable("x")
        with pytest.raises(FormulationError):
            le(program, {x: 1.0}, math.inf)
        with pytest.raises(FormulationError):
            le(program, {x: math.nan}, 1.0)
        with pytest.raises(FormulationError):
            minimize(program, {x: 1.0}, math.inf)

    def test_rows_need_one_name_each(self):
        program = ConeProgram()
        x = program.add_variable("x")
        with pytest.raises(FormulationError):
            program.add_rows(row(program, {x: 1.0}), ["a", "b"])

    def test_hyperbolic_bound_must_be_positive(self):
        program = ConeProgram()
        x = program.add_variable("x")
        y = program.add_variable("y")
        for bound in (0.0, -1.0, math.inf):
            with pytest.raises(FormulationError):
                hyperbolic(program, {x: 1.0}, 0.0, {y: 1.0}, 0.0, bound)


class TestCompilation:
    def test_bounds_become_inequalities(self):
        program = ConeProgram()
        program.add_variable("x", lower=0.0, upper=2.0)
        compiled = program.compile()
        assert compiled.G.shape == (2, 1)
        assert compiled.substitutions == {}

    def test_pinched_bounds_are_substituted(self):
        """lower == upper must substitute the variable out, not emit two
        inequalities."""
        program = ConeProgram()
        x = program.add_variable("x", lower=3.0, upper=3.0)
        compiled = program.compile()
        assert compiled.G.shape == (0, 0)
        assert compiled.num_variables == 0
        assert compiled.point_as_mapping(np.zeros(0)) == {x: 3.0}

    def test_linear_constraints_compile_to_rows(self):
        program = ConeProgram()
        x = program.add_variable("x", lower=1.0, upper=1.0)
        y = program.add_variable("y")
        le(program, {x: 1.0, y: 2.0}, 4.0)
        compiled = program.compile()
        # The pinned x folds into the row's constant: 2·y ≤ 3 over the one
        # free column y.
        assert compiled.variables == [y]
        assert compiled.G.tolist() == [[2.0]]
        assert compiled.h.tolist() == [3.0]
        assert compiled.substitutions == {x: 1.0}
        assert compiled.point_as_mapping(np.array([0.5])) == {x: 1.0, y: 0.5}

    def test_hyperbolic_compiles_with_offsets(self):
        program = ConeProgram()
        x = program.add_variable("x")
        y = program.add_variable("y")
        hyperbolic(program, {x: 1.0}, 1.0, {y: 1.0}, 0.0, bound=2.0)
        compiled = program.compile()
        hyp = compiled.hyperbolic
        assert len(hyp) == 1
        # One CSR row per side: (x + 1)·y ≥ 2.
        assert hyp.P.toarray().tolist() == [[1.0, 0.0]]
        assert hyp.Q.toarray().tolist() == [[0.0, 1.0]]
        assert hyp.p0.tolist() == [1.0] and hyp.q0.tolist() == [0.0]
        assert hyp.bound.tolist() == [2.0]

    def test_maximisation_negates_objective(self):
        """Maximising ``x`` is minimising ``−x``."""
        program = ConeProgram()
        x = program.add_variable("x", lower=0.0, upper=5.0)
        minimize(program, {x: -1.0})
        compiled = program.compile()
        assert compiled.c[0] == pytest.approx(-1.0)

    def test_objective_value_and_mapping_helpers(self):
        program = ConeProgram()
        x = program.add_variable("x")
        y = program.add_variable("y")
        minimize(program, {x: 2.0, y: 1.0}, 1.0)
        compiled = program.compile()
        point = np.array([1.0, 3.0])
        assert compiled.objective_value(point) == pytest.approx(6.0)
        mapping = compiled.point_as_mapping(point)
        assert mapping[x] == pytest.approx(1.0)
        assert compiled.vector_from_mapping({y: 7.0})[1] == pytest.approx(7.0)

    def test_feasibility_inspection(self):
        program = ConeProgram()
        x = program.add_variable("x", lower=0.0)
        y = program.add_variable("y", lower=0.0)
        le(program, {x: 1.0, y: 1.0}, 1.0)
        hyperbolic(program, {x: 1.0}, 0.0, {y: 1.0}, 0.0, bound=1.0)
        compiled = program.compile()
        good = np.array([2.0, 2.0])
        assert compiled.min_cone_margin(good) > 0.0
        assert compiled.max_linear_violation(good) == pytest.approx(3.0)
        # Signed: negative at a point satisfying every row strictly.
        inside = np.array([0.25, 0.5])
        assert compiled.max_linear_violation(inside) == pytest.approx(-0.25)
        assert compiled.max_linear_violation(inside) < 0.0
        assert ConeProgram().compile().max_linear_violation(np.zeros(0)) == -np.inf


class TestSolveDispatch:
    def test_unknown_backend_rejected(self):
        program = ConeProgram()
        program.add_variable("x", lower=0.0)
        with pytest.raises(FormulationError):
            program.solve(backend="cplex")

    def test_trivial_lp(self):
        program = ConeProgram()
        x = program.add_variable("x", lower=1.0, upper=10.0)
        minimize(program, {x: 1.0})
        solution = program.solve()
        assert solution.is_optimal
        assert solution.value(x) == pytest.approx(1.0, abs=1e-6)

    def test_maximisation_objective_sign(self):
        """Maximise ``2·x`` as the minimum of ``−2·x``, negated."""
        program = ConeProgram()
        x = program.add_variable("x", lower=0.0, upper=3.0)
        minimize(program, {x: -2.0})
        solution = program.solve()
        assert solution.is_optimal
        assert -solution.objective == pytest.approx(6.0, abs=1e-6)

    def test_solution_value_of_expression(self):
        program = ConeProgram()
        x = program.add_variable("x", lower=2.0, upper=2.0)
        y = program.add_variable("y", lower=1.0, upper=5.0)
        minimize(program, {y: 1.0})
        solution = program.solve()
        assert solution.value(x) + 2.0 * solution.value(y) == pytest.approx(4.0, abs=1e-5)
        assert solution.values == {x: 2.0, y: pytest.approx(1.0, abs=1e-6)}

    def test_value_requires_a_solved_variable(self):
        program = ConeProgram()
        x = program.add_variable("x", lower=1.0, upper=5.0)
        minimize(program, {x: 1.0})
        solution = program.solve()
        with pytest.raises(FormulationError):
            solution.value(Variable("stranger"))
        with pytest.raises(FormulationError):
            Solution(status=SolverStatus.INFEASIBLE).value(x)

    def test_infeasible_lp_reported(self):
        program = ConeProgram()
        x = program.add_variable("x", lower=0.0, upper=1.0)
        ge(program, {x: 1.0}, 2.0)
        minimize(program, {x: 1.0})
        solution = program.solve()
        assert solution.status is SolverStatus.INFEASIBLE

    def test_empty_program(self):
        program = ConeProgram()
        solution = program.solve()
        assert solution.is_optimal
        assert solution.objective == pytest.approx(0.0)
