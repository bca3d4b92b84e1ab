"""Convex optimisation substrate.

This package replaces the commercial cone solver used in the paper (CPLEX)
with a self-contained modelling layer and solvers:

* :class:`~repro.solver.problem.ConeProgram` — the modelling entry point:
  :class:`~repro.solver.variable.Variable` handles, linear and hyperbolic
  (rotated second-order cone) constraints written as
  :class:`~repro.solver.problem.AffineRows` over variable positions, and
  an affine objective row.
* :class:`~repro.solver.barrier.BarrierSolver` — from-scratch log-barrier
  interior-point method (the default backend for cone programs), on one
  fixed schedule of constants.
* :class:`~repro.solver.parametric.SolveSession` — warm starts between
  related solves, carried over by variable name.
* scipy-based LP (:mod:`~repro.solver.linprog_backend`) and NLP
  (:mod:`~repro.solver.scipy_backend`) backends.
"""

from repro.solver.variable import Variable
from repro._lazy import lazy_exports
from repro.solver.barrier import BarrierSolver
from repro.solver.problem import AffineRows, BlockStructure, CompiledProblem, ConeProgram

#: Solve sessions load on first use: a one-shot solve never needs them.
_EXPORTS = {
    name: "repro.solver.parametric" for name in ("SessionStats", "SolveSession")
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
from repro.solver.result import Solution, SolverStatus

__all__ = [
    "AffineRows",
    "BarrierSolver",
    "BlockStructure",
    "CompiledProblem",
    "ConeProgram",
    "Solution",
    "SolverStatus",
    "Variable",
]
__all__ += sorted(_EXPORTS)
