"""Solver status codes and solution objects."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.exceptions import FormulationError
from repro.solver.variable import Variable


class SolverStatus(enum.Enum):
    """Termination status of an optimisation run."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    MAX_ITERATIONS = "max_iterations"
    NUMERICAL_ERROR = "numerical_error"

    @property
    def is_success(self) -> bool:
        return self is SolverStatus.OPTIMAL


@dataclass
class Solution:
    """Result of solving a :class:`~repro.solver.problem.ConeProgram`.

    Attributes
    ----------
    status:
        Termination status.
    objective:
        Objective value at the returned point (``None`` when no point is
        available, e.g. for infeasible problems).
    values:
        Mapping from :class:`Variable` to its value at the returned point.
    backend:
        Name of the backend that produced the solution.
    iterations:
        Iteration count reported by the backend (outer iterations for the
        barrier method).
    solve_time:
        Wall-clock time spent inside the backend, in seconds.
    message:
        Free-form diagnostic message from the backend.
    stats:
        Backend-specific solve statistics.  The barrier backend records
        ``phase1_skipped`` (the initial point was already strictly feasible),
        ``phase1_newton_iterations``, ``newton_iterations`` (phase II) and
        ``outer_iterations``; other backends leave the mapping empty.  All
        values are JSON-serialisable.
    """

    status: SolverStatus
    objective: Optional[float] = None
    values: Dict[Variable, float] = field(default_factory=dict)
    backend: str = ""
    iterations: int = 0
    solve_time: float = 0.0
    message: str = ""
    stats: Dict[str, object] = field(default_factory=dict)
    #: A well-interior point of the feasible region (the first-rung central
    #: point of a barrier solve), used by solve sessions as a re-centering
    #: hint for the next related solve.  Not part of the optimum.
    interior_point: Optional["np.ndarray"] = None

    @property
    def is_optimal(self) -> bool:
        return self.status.is_success

    def value(self, variable: Variable) -> float:
        """The value of ``variable`` at the solution point."""
        if not self.values:
            raise FormulationError(
                f"solution with status {self.status.value!r} carries no point"
            )
        try:
            return self.values[variable]
        except KeyError:
            raise FormulationError(
                f"no value for variable {variable.name!r} in this solution"
            ) from None

    def by_name(self) -> Dict[str, float]:
        """Return the solution point keyed by variable name."""
        return {var.name: val for var, val in self.values.items()}
