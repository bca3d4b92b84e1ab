"""Parametric cone programs and warm-started solve sessions.

Trade-off sweeps solve a *family* of cone programs that differ only in a few
right-hand sides (capacity bounds, budget bounds).  Rebuilding and recompiling
the symbolic program for every family member wastes most of the sweep's time;
this module provides the compile-once/solve-many counterpart of
:meth:`repro.solver.problem.ConeProgram.solve`:

* :class:`ParametricProblem` compiles a :class:`~repro.solver.problem.
  ConeProgram` **once** and exposes *named parameter slots* over the compiled
  inequality right-hand sides ``h`` — both named constraint rows and the
  variable-bound rows (``lb[x]`` / ``ub[x]``) that compilation emits.  Setting
  a parameter mutates ``h`` in place; the matrix ``G`` and the hyperbolic
  terms are shared across all solves.  Compilation substitutes fixed
  variables out, which can shift a row's constant; a parameter on such a
  row keeps that shift, so it solves like a fresh compile with the same
  value.
* :class:`SolveSession` re-solves the parametric problem after parameter
  updates.  Each solve is warm-started from the previous optimum; the barrier
  backend skips phase I entirely whenever that point is still strictly
  feasible under the new parameters (see ``phase1_skipped`` in
  :attr:`~repro.solver.result.Solution.stats`).  The session aggregates solve
  statistics — compilations, solves, warm starts, phase-I skips, Newton
  iterations, wall time — for reporting layers.

Only inequality right-hand sides are parametric.  Structural changes (adding
constraints, collapsing a bound pair so the variable is substituted out)
require a fresh compile;
callers detect those cases and rebuild (see
:meth:`repro.core.formulation.ParametricSocpFormulation.apply_limits`, the one
parametric formulation over configurations and workloads alike).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Union

import numpy as np

from repro.exceptions import FormulationError
from repro.obs.trace import span as obs_span
from repro.solver.problem import CompiledProblem, ConeProgram
from repro.solver.variable import Variable
from repro.solver.result import Solution


@dataclass
class _Slot:
    """One registered parameter: ``h[row] = scale · value + shift``.

    ``shift`` is what compilation's substitution added to the row's
    constant (:attr:`~repro.solver.problem.CompiledProblem.h_shifts`).
    """

    row: int
    scale: float
    shift: float = 0.0
    value: Optional[float] = None


class ParametricProblem:
    """A compiled cone program with named mutable right-hand-side slots."""

    def __init__(self, program: ConeProgram) -> None:
        self.program = program
        self.compiled: CompiledProblem = program.compile()
        counts = Counter(name for name in self.compiled.inequality_names if name)
        self._rows: Dict[str, int] = {}
        for index, name in enumerate(self.compiled.inequality_names):
            if name:
                self._rows.setdefault(name, index)
        # Duplicate names are ambiguous targets; registration rejects them.
        self._duplicates = {name for name, count in counts.items() if count > 1}
        self._slots: Dict[str, _Slot] = {}

    # -- registration ------------------------------------------------------
    def register_rhs(self, name: str, row_name: str, scale: float = 1.0) -> None:
        """Expose the inequality row ``row_name`` as parameter ``name``.

        After registration, ``set(name, value)`` rewrites the compiled
        right-hand side of that row to ``scale · value`` plus the row's
        substitution shift.
        """
        if name in self._slots:
            raise FormulationError(f"duplicate parameter name {name!r}")
        if row_name in self._duplicates:
            raise FormulationError(
                f"inequality row name {row_name!r} is ambiguous; parametric "
                f"rows need unique constraint names"
            )
        try:
            row = self._rows[row_name]
        except KeyError:
            raise FormulationError(
                f"no inequality row named {row_name!r} in the compiled problem "
                f"(bounds of substituted variables and unnamed constraints "
                f"cannot be parameters)"
            ) from None
        self._slots[name] = _Slot(
            row=row, scale=float(scale), shift=self.compiled.h_shifts.get(row, 0.0)
        )

    def register_upper_bound(self, name: str, variable: Variable) -> None:
        """Expose a variable's compiled upper-bound row (``x ≤ value``)."""
        self.register_rhs(name, f"ub[{variable.name}]", scale=1.0)

    def register_lower_bound(self, name: str, variable: Variable) -> None:
        """Expose a variable's compiled lower-bound row (``x ≥ value``)."""
        self.register_rhs(name, f"lb[{variable.name}]", scale=-1.0)

    # -- parameter access ---------------------------------------------------
    def set(self, name: str, value: float) -> None:
        """Set one parameter, mutating the compiled ``h`` in place."""
        try:
            slot = self._slots[name]
        except KeyError:
            raise FormulationError(f"unknown parameter {name!r}") from None
        slot.value = float(value)
        self.compiled.h[slot.row] = slot.scale * slot.value + slot.shift

    def set_many(self, values: Mapping[str, float]) -> None:
        for name, value in values.items():
            self.set(name, value)

    def value(self, name: str) -> Optional[float]:
        try:
            return self._slots[name].value
        except KeyError:
            raise FormulationError(f"unknown parameter {name!r}") from None

    @property
    def parameters(self) -> Dict[str, Optional[float]]:
        """The current parameter values (``None`` when never set)."""
        return {name: slot.value for name, slot in self._slots.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParametricProblem({self.program.name!r}, parameters={len(self._slots)})"


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
    rebuilds: int = 0            #: full rebuild fallbacks (set by callers)
    #: solves with two or more blocks (the block + Schur arrow solve) vs
    #: one-block direct solves — the engagement split of the session
    sparse_solves: int = 0
    #: structured solves that reused the compiled problem's cached kernel
    #: layout (row entries and scatter plan) instead of building it; warm
    #: re-solves of an unchanged problem reuse every time
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
            "rebuilds": self.rebuilds,
            "sparse_solves": self.sparse_solves,
            "sparse_pieces_reused": self.sparse_pieces_reused,
            "block_factorizations": self.block_factorizations,
        }

    def record_solution(self, solution: Solution) -> None:
        """Fold one solve's work into the aggregates.

        The single accounting path for both session solves and the rebuild
        fallbacks that solve outside the session
        (:meth:`repro.core.allocator.AllocationSession._rebuild_point`, for
        configuration and workload sessions alike).
        """
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


class SolveSession:
    """Re-solve a :class:`ParametricProblem` with warm starts between solves.

    The session owns the solve-side state that :meth:`ConeProgram.solve`
    recreates from scratch every call: the compiled problem (shared through
    the parametric wrapper) and exactly two warm-start vectors.  After each
    optimal solve it caches the optimum and the first-rung interior point;
    the next solve passes the optimum to the backend as the initial point,
    letting the barrier method skip phase I whenever the point is still
    strictly feasible under the updated parameters, and the interior point
    as the hint phase II re-centers from.  Phase II walks the same rung
    ladder as a cold solve, so a warm solve ends on the cold solve's rung.
    """

    def __init__(
        self,
        parametric: ParametricProblem,
        backend: str = "auto",
    ) -> None:
        self.parametric = parametric
        self.backend = backend
        self.stats = SessionStats(compiles=1)
        self._warm_vector: Optional[np.ndarray] = None
        self._interior_vector: Optional[np.ndarray] = None

    # -- warm-start management ---------------------------------------------
    @property
    def warm_vector(self) -> Optional[np.ndarray]:
        """The cached previous optimum (dense, in compiled variable order)."""
        return None if self._warm_vector is None else self._warm_vector.copy()

    def seed(self, values: Union[np.ndarray, Mapping[str, float]]) -> None:
        """Install a warm-start point: a dense vector or a name-keyed mapping.

        A mapping that does not cover every compiled variable by name is
        ignored (a partial point is worse than the heuristic).  A vector of
        the wrong length is a caller bug — it was built against a different
        problem — and raises :class:`FormulationError` rather than silently
        leaving the session cold.
        """
        compiled = self.parametric.compiled
        if isinstance(values, np.ndarray):
            if values.shape != (compiled.num_variables,):
                raise FormulationError(
                    f"warm-start vector has shape {values.shape}, expected "
                    f"({compiled.num_variables},)"
                )
            self._warm_vector = np.asarray(values, dtype=float).copy()
            return
        try:
            vector = np.array(
                [float(values[var.name]) for var in compiled.variables]
            )
        except KeyError:
            return
        self._warm_vector = vector

    def reset(self) -> None:
        """Drop the warm-start state (the next solve starts cold)."""
        self._warm_vector = None
        self._interior_vector = None

    # -- durable state ------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """The session's warm state as a JSON-serialisable document.

        Vectors are keyed by *variable name*, not position, so the state
        survives being re-applied to a freshly compiled instance of the same
        problem (compilation order is deterministic, but names are the
        contract) — the form :mod:`repro.reliability.snapshot` persists.
        """
        compiled = self.parametric.compiled

        def by_name(vector: Optional[np.ndarray]) -> Optional[Dict[str, float]]:
            if vector is None:
                return None
            return {
                var.name: float(value)
                for var, value in zip(compiled.variables, vector)
            }

        return {
            "warm": by_name(self._warm_vector),
            "interior": by_name(self._interior_vector),
        }

    def load_state(self, state: Mapping[str, object]) -> None:
        """Re-install a :meth:`state_dict` document onto this session.

        Name-keyed vectors that do not cover every compiled variable are
        dropped (same contract as :meth:`seed`): a partial warm point is
        worse than the heuristic start.  Other keys are ignored, so documents
        that still carry retired warm-rung state restore unchanged.
        """
        compiled = self.parametric.compiled

        def to_vector(mapping: object) -> Optional[np.ndarray]:
            if not isinstance(mapping, Mapping):
                return None
            try:
                return np.array(
                    [float(mapping[var.name]) for var in compiled.variables]
                )
            except KeyError:
                return None

        warm = to_vector(state.get("warm"))
        if warm is not None:
            self._warm_vector = warm
        interior = to_vector(state.get("interior"))
        if interior is not None:
            self._interior_vector = interior

    # -- solving ------------------------------------------------------------
    def solve(
        self,
        parameters: Optional[Mapping[str, float]] = None,
        initial_point: Optional[Mapping[Variable, float]] = None,
        warm_start: bool = True,
    ) -> Solution:
        """Apply parameter updates and re-solve the compiled problem.

        Parameters
        ----------
        parameters:
            Parameter updates applied before solving (``set_many``).
        initial_point:
            Heuristic starting point used when no warm-start vector is
            available (typically only the first solve).
        warm_start:
            Set to ``False`` to ignore the cached previous optimum for this
            solve (used by benchmarks to isolate the warm-start gain).
        """
        from repro.solver import backends

        if parameters:
            self.parametric.set_many(parameters)
        compiled = self.parametric.compiled

        x0: Optional[Union[np.ndarray, Mapping[Variable, float]]] = None
        warmed = False
        if warm_start and self._warm_vector is not None:
            x0 = self._warm_vector
            warmed = True
        elif initial_point is not None:
            x0 = initial_point

        with obs_span("solve", backend=self.backend, warm_started=warmed) as solve_span:
            solution = backends.solve_compiled(
                compiled,
                backend=self.backend,
                initial_point=x0,
                interior_point=self._interior_vector if warmed else None,
            )
            solve_span.set(status=solution.status.value)
        solution.solve_time = solve_span.seconds

        self.stats.record_solution(solution)
        if warmed:
            self.stats.warm_started += 1
        solution.stats = dict(solution.stats)
        solution.stats["warm_started"] = warmed

        if solution.is_optimal and solution.values:
            self._warm_vector = np.array(
                [solution.values[var] for var in compiled.variables]
            )
            if solution.interior_point is not None:
                # The first-rung central point: a far better re-centering
                # start for the next solve than the (near-boundary) optimum.
                self._interior_vector = np.asarray(
                    solution.interior_point, dtype=float
                ).copy()
        return solution
