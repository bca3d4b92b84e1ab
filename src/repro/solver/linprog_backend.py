"""Linear-programming backend built on :func:`scipy.optimize.linprog` (HiGHS).

Used for the pure-LP sub-problems of the library — most prominently the
buffer-sizing-for-fixed-budgets step of the two-phase baseline flow
(:mod:`repro.baselines`), which is a classical LP [Wiggers 2009].
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import FormulationError
from repro.solver.problem import CompiledProblem
from repro.solver.result import Solution, SolverStatus

_STATUS_MAP = {
    0: SolverStatus.OPTIMAL,
    1: SolverStatus.MAX_ITERATIONS,
    2: SolverStatus.INFEASIBLE,
    3: SolverStatus.UNBOUNDED,
    4: SolverStatus.NUMERICAL_ERROR,
}


def solve_with_linprog(
    problem: CompiledProblem,
    method: str = "highs",
) -> Solution:
    """Solve a compiled problem that contains no hyperbolic constraints."""
    # Imported lazily: scipy.optimize is a heavyweight import and the barrier
    # backend does not need it at all.
    from scipy.optimize import linprog

    if problem.hyperbolic:
        raise FormulationError(
            "the LP backend cannot handle hyperbolic constraints; "
            "use the barrier backend instead"
        )

    n = problem.num_variables
    if n == 0:
        return problem.constant_solution("linprog")

    A_ub: Optional[np.ndarray] = problem.G if problem.G.size else None
    b_ub: Optional[np.ndarray] = problem.h if problem.G.size else None

    result = linprog(
        c=problem.c,
        A_ub=A_ub,
        b_ub=b_ub,
        bounds=[(None, None)] * n,
        method=method,
    )

    status = _STATUS_MAP.get(result.status, SolverStatus.NUMERICAL_ERROR)
    if result.x is None:
        return Solution(status=status, backend="linprog", message=str(result.message))

    x = np.asarray(result.x, dtype=float)
    return Solution(
        status=status,
        objective=problem.objective_value(x),
        values=problem.point_as_mapping(x),
        backend="linprog",
        iterations=int(getattr(result, "nit", 0) or 0),
        message=str(result.message),
    )
