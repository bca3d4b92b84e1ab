"""Convex optimisation substrate.

This package replaces the commercial cone solver used in the paper (CPLEX)
with a self-contained modelling layer and solvers:

* :class:`~repro.solver.problem.ConeProgram` — the modelling entry point.
* :class:`~repro.solver.expression.Variable` /
  :class:`~repro.solver.expression.AffineExpression` — expression algebra.
* :class:`~repro.solver.constraints.LinearConstraint`,
  :class:`~repro.solver.constraints.HyperbolicConstraint`,
  :class:`~repro.solver.constraints.SecondOrderConeConstraint` — constraint
  families.
* :class:`~repro.solver.barrier.BarrierSolver` — from-scratch log-barrier
  interior-point method (the default backend for cone programs).
* :class:`~repro.solver.parametric.ParametricProblem` /
  :class:`~repro.solver.parametric.SolveSession` — compile-once/solve-many
  parametric re-solve with warm starts between solves.
* scipy-based LP (:mod:`~repro.solver.linprog_backend`) and NLP
  (:mod:`~repro.solver.scipy_backend`) backends.
"""

from repro.solver.constraints import (
    EQUAL,
    GREATER_EQUAL,
    LESS_EQUAL,
    HyperbolicConstraint,
    LinearConstraint,
    SecondOrderConeConstraint,
)
from repro.solver.expression import AffineExpression, Variable, linear_sum
from repro.solver.barrier import BarrierOptions, BarrierSolver
from repro.solver.parametric import ParametricProblem, SessionStats, SolveSession
from repro.solver.problem import BlockStructure, CompiledProblem, ConeProgram
from repro.solver.result import Solution, SolverStatus

__all__ = [
    "AffineExpression",
    "BarrierOptions",
    "BarrierSolver",
    "BlockStructure",
    "CompiledProblem",
    "ConeProgram",
    "ParametricProblem",
    "SessionStats",
    "SolveSession",
    "EQUAL",
    "GREATER_EQUAL",
    "LESS_EQUAL",
    "HyperbolicConstraint",
    "LinearConstraint",
    "SecondOrderConeConstraint",
    "Solution",
    "SolverStatus",
    "Variable",
    "linear_sum",
]
