"""Warm-started solve sessions.

Trade-off sweeps and admission events solve a *family* of related cone
programs: the same subject at other capacity/budget limits, or with one
application more or less.  Each member is built and compiled on its own
(:class:`repro.core.allocator.AllocationSession` does that);
:class:`SolveSession` carries the solve-side state from one member to the
next:

* the previous optimum and the first-rung interior point, keyed by variable
  *name*, so they carry over to any later program over the same names.  The
  optimum is the next solve's start; the barrier backend skips phase I
  whenever it is still strictly feasible (see ``phase1_skipped`` in
  :attr:`~repro.solver.result.Solution.stats`), and phase II re-centers from
  the interior point.  A variable the previous solve did not have takes its
  value from the new program's own start point;
* :class:`SessionStats`, the aggregate of every solve — compilations,
  solves, warm starts, phase-I skips, Newton iterations, wall time — for
  reporting layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional

import numpy as np

from repro.obs.trace import span as obs_span
from repro.solver.problem import CompiledProblem
from repro.solver.variable import Variable
from repro.solver.result import Solution


@dataclass
class SessionStats:
    """Aggregate statistics of a :class:`SolveSession`."""

    compiles: int = 0            #: symbolic-to-numeric compilations performed
    solves: int = 0              #: solver invocations through the session
    warm_started: int = 0        #: solves seeded from the previous optimum
    phase1_skipped: int = 0      #: solves whose barrier phase I was skipped
    newton_iterations: int = 0   #: phase-II Newton iterations, summed
    phase1_newton_iterations: int = 0  #: phase-I Newton iterations, summed
    solve_time: float = 0.0      #: wall-clock seconds inside the backends
    #: solves with two or more blocks (the block + Schur arrow solve) vs
    #: one-block direct solves — the engagement split of the session
    sparse_solves: int = 0
    #: structured solves that reused the compiled problem's cached kernel
    #: layout (row entries and scatter plan) instead of building it
    sparse_pieces_reused: int = 0
    #: per-block matrix factorisations performed by the sparse path, summed
    block_factorizations: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "compiles": self.compiles,
            "solves": self.solves,
            "warm_started": self.warm_started,
            "phase1_skipped": self.phase1_skipped,
            "newton_iterations": self.newton_iterations,
            "phase1_newton_iterations": self.phase1_newton_iterations,
            "solve_time": self.solve_time,
            "sparse_solves": self.sparse_solves,
            "sparse_pieces_reused": self.sparse_pieces_reused,
            "block_factorizations": self.block_factorizations,
        }

    def record_solution(self, solution: Solution) -> None:
        """Fold one solve's work into the aggregates."""
        self.solves += 1
        self.solve_time += solution.solve_time
        if solution.stats.get("phase1_skipped"):
            self.phase1_skipped += 1
        self.newton_iterations += int(solution.stats.get("newton_iterations", 0))
        self.phase1_newton_iterations += int(
            solution.stats.get("phase1_newton_iterations", 0)
        )
        if solution.stats.get("structured"):
            self.sparse_solves += 1
        if solution.stats.get("pieces_cache_reused"):
            self.sparse_pieces_reused += 1
        self.block_factorizations += int(
            solution.stats.get("block_factorizations", 0)
        )


def _named_point(values: object) -> Optional[Dict[str, float]]:
    """A name-keyed point read from a :meth:`SolveSession.state_dict`
    document; anything but an object is no point."""
    if not isinstance(values, Mapping):
        return None
    return {str(name): float(value) for name, value in values.items()}


class SolveSession:
    """Solve related compiled problems, each warm-started from the last.

    The session keeps exactly two points, both keyed by variable name: the
    previous optimum and its first-rung interior point.  Each
    :meth:`solve` after an optimal one starts from the optimum, so the
    barrier method skips phase I whenever that point is still strictly
    feasible, and passes the interior point as the hint phase II re-centers
    from.  Phase II walks the same rung ladder as a cold solve, so a warm
    solve ends on the cold solve's rung.
    """

    def __init__(self, backend: str = "auto") -> None:
        self.backend = backend
        self.stats = SessionStats()
        self._warm: Optional[Dict[str, float]] = None
        self._interior: Optional[Dict[str, float]] = None

    def reset(self) -> None:
        """Drop the warm-start state (the next solve starts cold)."""
        self._warm = None
        self._interior = None

    def keep(self, names: Iterable[str]) -> None:
        """Forget every variable not in ``names``: an edit removed it, and a
        later variable of the same name must start afresh."""
        names = set(names)
        for point in (self._warm, self._interior):
            if point is not None:
                for name in set(point) - names:
                    del point[name]

    # -- durable state ------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """The session's warm state as a JSON-serialisable document,
        ``{"warm": …, "interior": …}`` with each point keyed by variable
        name — the form :mod:`repro.reliability.snapshot` persists."""
        return {
            "warm": None if self._warm is None else dict(self._warm),
            "interior": None if self._interior is None else dict(self._interior),
        }

    def load_state(self, state: Mapping[str, object]) -> None:
        """Re-install a :meth:`state_dict` document onto this session.

        Other keys are ignored, so documents that still carry retired
        warm-rung state restore unchanged.
        """
        warm = _named_point(state.get("warm"))
        if warm is not None:
            self._warm = warm
        interior = _named_point(state.get("interior"))
        if interior is not None:
            self._interior = interior

    # -- solving ------------------------------------------------------------
    def solve(
        self,
        compiled: CompiledProblem,
        start: Optional[Mapping[Variable, float]] = None,
    ) -> Solution:
        """Solve ``compiled``, warm-started when a previous solve was optimal.

        ``start`` is the program's own start point, keyed by variable: the
        whole start of a cold solve, and the value of every variable the
        previous optimum does not name in a warm one.
        """
        from repro.solver import backends

        x0: Optional[object] = start
        interior: Optional[np.ndarray] = None
        warmed = self._warm is not None
        if warmed:
            fill = {var.name: float(value) for var, value in (start or {}).items()}

            def vector(point: Dict[str, float]) -> np.ndarray:
                return np.array(
                    [
                        point.get(var.name, fill.get(var.name, 0.0))
                        for var in compiled.variables
                    ]
                )

            x0 = vector(self._warm)
            if self._interior is not None:
                interior = vector(self._interior)

        with obs_span("solve", backend=self.backend, warm_started=warmed) as solve_span:
            solution = backends.solve_compiled(
                compiled,
                backend=self.backend,
                initial_point=x0,
                interior_point=interior,
            )
            solve_span.set(status=solution.status.value)
        solution.solve_time = solve_span.seconds

        self.stats.record_solution(solution)
        if warmed:
            self.stats.warm_started += 1
        solution.stats = dict(solution.stats)
        solution.stats["warm_started"] = warmed

        if solution.is_optimal and solution.values:
            self._warm = {var.name: solution.values[var] for var in compiled.variables}
            if solution.interior_point is not None:
                # The first-rung central point: a far better re-centering
                # start for the next solve than the (near-boundary) optimum.
                self._interior = {
                    var.name: float(value)
                    for var, value in zip(compiled.variables, solution.interior_point)
                }
        return solution
