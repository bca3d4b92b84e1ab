"""Unit tests for the constraint types."""

from __future__ import annotations


import pytest

from repro.exceptions import FormulationError
from repro.solver.constraints import (
    EQUAL,
    GREATER_EQUAL,
    LESS_EQUAL,
    HyperbolicConstraint,
    LinearConstraint,
)
from repro.solver.expression import Variable


class TestLinearConstraint:
    def test_less_equal_normalisation(self):
        x = Variable("x")
        constraint = LinearConstraint(x + 1.0, LESS_EQUAL, 3.0)
        # normalised to (x + 1 - 3) <= 0
        assert constraint.is_satisfied({x: 2.0})
        assert not constraint.is_satisfied({x: 2.5})

    def test_greater_equal_normalisation(self):
        x = Variable("x")
        constraint = LinearConstraint(x, GREATER_EQUAL, 5.0)
        assert constraint.is_satisfied({x: 5.0})
        assert constraint.violation({x: 3.0}) == pytest.approx(2.0)

    def test_equality(self):
        x = Variable("x")
        constraint = LinearConstraint(2.0 * x, EQUAL, 4.0)
        assert constraint.is_equality
        assert constraint.is_satisfied({x: 2.0})
        assert constraint.violation({x: 3.0}) == pytest.approx(2.0)

    def test_unknown_sense_rejected(self):
        x = Variable("x")
        with pytest.raises(FormulationError):
            LinearConstraint(x, "<", 1.0)

    def test_violation_is_zero_when_satisfied(self):
        x = Variable("x")
        constraint = LinearConstraint(x, LESS_EQUAL, 10.0)
        assert constraint.violation({x: -5.0}) == 0.0


class TestHyperbolicConstraint:
    def test_margin_and_satisfaction(self):
        x, y = Variable("x"), Variable("y")
        constraint = HyperbolicConstraint(x, y, 6.0)
        assert constraint.is_satisfied({x: 2.0, y: 3.0})
        assert constraint.margin({x: 2.0, y: 3.0}) == pytest.approx(0.0)
        assert not constraint.is_satisfied({x: 1.0, y: 3.0})

    def test_negative_branch_is_infeasible(self):
        x, y = Variable("x"), Variable("y")
        constraint = HyperbolicConstraint(x, y, 1.0)
        # (-1)·(-2) = 2 >= 1 numerically, but the constraint is restricted to
        # the positive branch of the hyperbola.
        assert not constraint.is_satisfied({x: -1.0, y: -2.0})

    def test_rejects_non_positive_bound(self):
        x, y = Variable("x"), Variable("y")
        with pytest.raises(FormulationError):
            HyperbolicConstraint(x, y, 0.0)
        with pytest.raises(FormulationError):
            HyperbolicConstraint(x, y, -1.0)

    def test_rejects_two_constants(self):
        with pytest.raises(FormulationError):
            HyperbolicConstraint(2.0, 3.0, 1.0)
