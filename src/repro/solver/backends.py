"""Backend dispatcher for :meth:`repro.solver.problem.ConeProgram.solve`."""

from __future__ import annotations

from typing import Mapping, Optional

from repro.exceptions import FormulationError
from repro.solver.barrier import BarrierSolver
from repro.solver.linprog_backend import solve_with_linprog
from repro.solver.problem import CompiledProblem
from repro.solver.result import Solution, SolverStatus
from repro.solver.variable import Variable

#: Names accepted by the ``backend`` argument of :meth:`ConeProgram.solve`.
BACKENDS = ("auto", "barrier", "linprog", "scipy")


def solve_compiled(
    problem: CompiledProblem,
    backend: str = "auto",
    initial_point: Optional[Mapping[Variable, float]] = None,
) -> Solution:
    """Solve a compiled problem with the requested backend.

    With ``backend="auto"`` the dispatcher uses the LP backend for pure
    linear programs, the barrier interior-point method otherwise, and falls
    back to the scipy backend when the barrier method does not reach an
    optimal status.  ``initial_point`` is the start point keyed by variable
    (the barrier method skips phase I when it is strictly feasible).
    """
    if backend not in BACKENDS:
        raise FormulationError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    x0 = None if initial_point is None else problem.vector_from_mapping(initial_point)

    if backend == "linprog":
        return solve_with_linprog(problem)
    if backend == "scipy":
        from repro.solver.scipy_backend import solve_with_scipy

        return solve_with_scipy(problem, initial_point=x0)
    if backend == "barrier":
        return BarrierSolver().solve(problem, initial_point=x0)
    # backend == "auto"
    if not problem.hyperbolic:
        solution = solve_with_linprog(problem)
        if solution.status in (SolverStatus.OPTIMAL, SolverStatus.INFEASIBLE, SolverStatus.UNBOUNDED):
            return solution

    solution = BarrierSolver().solve(problem, initial_point=x0)
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
