"""General non-linear programming backend built on :func:`scipy.optimize.minimize`.

This backend exists for two reasons:

* as an independent cross-check of the from-scratch barrier interior-point
  method (the test-suite solves the same programs with both backends and
  compares optima), and
* as a fallback when the barrier method fails to converge on an unusually
  ill-conditioned instance.

It handles exactly the same constraint families as the barrier solver:
linear inequalities (compilation has substituted the equalities out) and
hyperbolic constraints ``p(x)·q(x) ≥ w``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
from scipy.optimize import minimize

from repro.solver.problem import CompiledProblem
from repro.solver.result import Solution, SolverStatus

_FEASIBILITY_TOLERANCE = 1e-6
#: SLSQP's iteration cap.
_MAX_ITERATIONS = 500


def _initial_guess(problem: CompiledProblem, initial_point: Optional[np.ndarray]) -> np.ndarray:
    if initial_point is not None:
        return np.asarray(initial_point, dtype=float).copy()
    guess = np.ones(problem.num_variables)
    for i, var in enumerate(problem.variables):
        lower = var.lower if var.lower is not None else None
        upper = var.upper if var.upper is not None else None
        if lower is not None and upper is not None:
            guess[i] = 0.5 * (lower + upper)
        elif lower is not None:
            guess[i] = lower + 1.0
        elif upper is not None:
            guess[i] = upper - 1.0
    return guess


def _build_constraints(problem: CompiledProblem) -> List[dict]:
    constraints: List[dict] = []

    if problem.G.size:
        G, h = problem.G, problem.h
        constraints.append(
            {
                "type": "ineq",
                "fun": lambda x, G=G, h=h: h - G @ x,
                "jac": lambda x, G=G: -G,
            }
        )
    if len(problem.hyperbolic):
        hyp = problem.hyperbolic
        P, Q = hyp.P.toarray(), hyp.Q.toarray()

        def fun(x, P=P, Q=Q):
            return (P @ x + hyp.p0) * (Q @ x + hyp.q0) - hyp.bound

        def jac(x, P=P, Q=Q):
            p, q = P @ x + hyp.p0, Q @ x + hyp.q0
            return q[:, None] * P + p[:, None] * Q

        constraints.append({"type": "ineq", "fun": fun, "jac": jac})
    return constraints


def solve_with_scipy(
    problem: CompiledProblem,
    initial_point: Optional[np.ndarray] = None,
) -> Solution:
    """Solve a compiled problem with scipy's SLSQP."""
    if problem.num_variables == 0:
        return problem.constant_solution("scipy")

    x0 = _initial_guess(problem, initial_point)
    constraints = _build_constraints(problem)

    result = minimize(
        fun=lambda x: problem.objective_value(x),
        x0=x0,
        jac=lambda x: problem.c,
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": _MAX_ITERATIONS, "ftol": 1e-10},
    )

    x = np.asarray(result.x, dtype=float)
    linear_violation = problem.max_linear_violation(x)
    cone_margin = problem.min_cone_margin(x)
    feasible = linear_violation <= _FEASIBILITY_TOLERANCE and cone_margin >= -_FEASIBILITY_TOLERANCE

    if result.success and feasible:
        status = SolverStatus.OPTIMAL
    elif not feasible:
        status = SolverStatus.INFEASIBLE
    else:
        status = SolverStatus.NUMERICAL_ERROR

    return Solution(
        status=status,
        objective=problem.objective_value(x) if feasible else None,
        values=problem.point_as_mapping(x) if feasible else {},
        backend="scipy",
        iterations=int(getattr(result, "nit", 0) or 0),
        message=str(result.message),
    )
