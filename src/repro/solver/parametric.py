"""Aggregate statistics of a family of related solves.

Trade-off sweeps and admission events solve a *family* of related cone
programs: the same subject at other capacity/budget limits, or with one
application more or less.  :class:`repro.core.allocator.AllocationSession`
builds, compiles and solves each member on its own, from that member's
model-built start, and folds every solve into one :class:`SessionStats`
for the reporting layers: compilations, solves, phase-I skips, Newton
iterations, wall time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.solver.result import Solution


@dataclass
class SessionStats:
    """Aggregate statistics of an allocation session's solves."""

    compiles: int = 0            #: symbolic-to-numeric compilations performed
    solves: int = 0              #: solver invocations through the session
    #: no solve starts from another's point, so nothing counts here; kept
    #: because the benchmark harness reads it until its reference is
    #: re-recorded
    warm_started: int = 0
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
