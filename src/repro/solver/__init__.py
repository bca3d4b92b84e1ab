"""Convex optimisation substrate.

This package replaces the commercial cone solver used in the paper (CPLEX)
with a self-contained modelling layer and solvers:

* :class:`~repro.solver.problem.ConeProgram` — the modelling entry point.
* :class:`~repro.solver.expression.Variable` /
  :class:`~repro.solver.expression.AffineExpression` — expression algebra.
* :class:`~repro.solver.constraints.LinearConstraint`,
  :class:`~repro.solver.constraints.HyperbolicConstraint` — the two
  constraint families (a hyperbolic constraint is a rotated second-order
  cone).
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
)
from repro.solver.expression import AffineExpression, Variable, linear_sum
from repro._lazy import lazy_exports
from repro.solver.barrier import BarrierOptions, BarrierSolver
from repro.solver.problem import BlockStructure, CompiledProblem, ConeProgram

#: Parametric re-solve loads on first use: a one-shot solve never needs it.
_EXPORTS = {
    name: "repro.solver.parametric"
    for name in ("ParametricProblem", "SessionStats", "SolveSession")
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
from repro.solver.result import Solution, SolverStatus

__all__ = [
    "AffineExpression",
    "BarrierOptions",
    "BarrierSolver",
    "BlockStructure",
    "CompiledProblem",
    "ConeProgram",
    "EQUAL",
    "GREATER_EQUAL",
    "LESS_EQUAL",
    "HyperbolicConstraint",
    "LinearConstraint",
    "Solution",
    "SolverStatus",
    "Variable",
    "linear_sum",
]
__all__ += sorted(_EXPORTS)
