"""Backend dispatcher for :meth:`repro.solver.problem.ConeProgram.solve`."""

from __future__ import annotations

from typing import Mapping, Optional, Union

import numpy as np

from repro.exceptions import FormulationError
from repro.solver.barrier import BarrierSolver
from repro.solver.linprog_backend import solve_with_linprog
from repro.solver.problem import CompiledProblem
from repro.solver.result import Solution, SolverStatus
from repro.solver.variable import Variable

#: Names accepted by the ``backend`` argument of :meth:`ConeProgram.solve`.
BACKENDS = ("auto", "barrier", "linprog", "scipy")


#: Warm-start forms accepted by :func:`solve_compiled`: a point keyed by
#: variable, or a dense vector already in compiled variable order (the form
#: :class:`repro.solver.parametric.SolveSession` builds from its warm point).
InitialPoint = Union[Mapping[Variable, float], np.ndarray]


def _initial_vector(
    problem: CompiledProblem, initial_point: Optional[InitialPoint]
) -> Optional[np.ndarray]:
    if initial_point is None:
        return None
    if isinstance(initial_point, np.ndarray):
        return np.asarray(initial_point, dtype=float)
    return problem.vector_from_mapping(initial_point)


def solve_compiled(
    problem: CompiledProblem,
    backend: str = "auto",
    initial_point: Optional[InitialPoint] = None,
    interior_point: Optional[np.ndarray] = None,
) -> Solution:
    """Solve a compiled problem with the requested backend.

    With ``backend="auto"`` the dispatcher uses the LP backend for pure
    linear programs, the barrier interior-point method otherwise, and falls
    back to the scipy backend when the barrier method does not reach an
    optimal status.

    ``interior_point`` is an optional well-interior hint for the barrier
    backend (see :meth:`repro.solver.barrier.BarrierSolver.solve`); the other
    backends ignore it.
    """
    if backend not in BACKENDS:
        raise FormulationError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    x0 = _initial_vector(problem, initial_point)

    if backend == "linprog":
        return solve_with_linprog(problem)
    if backend == "scipy":
        from repro.solver.scipy_backend import solve_with_scipy

        return solve_with_scipy(problem, initial_point=x0)
    if backend == "barrier":
        return BarrierSolver().solve(
            problem, initial_point=x0, interior_point=interior_point
        )
    # backend == "auto"
    if not problem.hyperbolic:
        solution = solve_with_linprog(problem)
        if solution.status in (SolverStatus.OPTIMAL, SolverStatus.INFEASIBLE, SolverStatus.UNBOUNDED):
            return solution

    solution = BarrierSolver().solve(
        problem, initial_point=x0, interior_point=interior_point
    )
    if solution.status in (SolverStatus.OPTIMAL, SolverStatus.UNBOUNDED):
        return solution

    from repro.solver.scipy_backend import solve_with_scipy

    fallback = solve_with_scipy(problem, initial_point=x0)
    if fallback.is_optimal:
        return fallback
    # Prefer a definitive infeasibility verdict over a numerical failure.
    if solution.status is SolverStatus.INFEASIBLE or fallback.status is SolverStatus.INFEASIBLE:
        return solution if solution.status is SolverStatus.INFEASIBLE else fallback
    return fallback
