"""Log-barrier interior-point solver for linear + hyperbolic cone programs.

This module is the from-scratch replacement for the commercial cone solver
(CPLEX) used in the paper.  It implements the classic two-phase barrier
method described in Boyd & Vandenberghe, *Convex Optimization*, chapter 11:

* **Phase I** finds a strictly feasible point by minimising a single scalar
  infeasibility ``t`` that relaxes every inequality; a hyperbolic constraint
  ``p·q ≥ w`` is relaxed by shifting both sides, ``(p + t/2)(q + t/2) ≥ w``,
  which is again hyperbolic and jointly convex in the original variables
  and ``t``.
* **Phase II** minimises ``t_barrier · cᵀx + φ(x)`` by damped Newton steps for
  a geometrically increasing barrier parameter ``t_barrier``, where ``φ`` is
  the sum of the logarithmic barriers of all constraints.

:meth:`BarrierSolver.solve` runs both phases.
:meth:`BarrierSolver.feasible_point` runs phase I alone (§11.4) and returns
the strictly feasible point it exits with, or ``None`` exactly when ``solve``
would report ``INFEASIBLE``; it answers feasibility questions, such as the
admission controller's anytime verdict, without computing an optimum.  Both
share one prefix: the kernel layout, the start point and phase I are set up
in one place.

Barrier terms used (both standard self-concordant barriers):

* linear ``G·x ≤ h``:            ``−Σ log(h_i − g_iᵀx)``
* hyperbolic ``p(x)·q(x) ≥ w``:  ``−log(p·q − w)`` on the branch ``p, q > 0``

The hyperbolic term is a rotated second-order cone: ``p·q ≥ w`` with
``p, q > 0`` is ``‖(2√w, p − q)‖ ≤ p + q``, and its barrier is that cone's
``−log((p + q)² − 4w − (p − q)²)`` up to the constant ``log 4``.

The Newton kernel works on the non-zeros of the constraint rows (see below).
Evaluating a point returns the slack *state* along with the feasibility
check and the barrier value, and the gradient and Hessian are built from
that state: the Newton loop evaluates every line-search trial point exactly
once, and the accepted trial's state is carried into the next direction.

The solver sees no equality constraints: :meth:`ConeProgram.compile
<repro.solver.problem.ConeProgram.compile>` substitutes the variables whose
bounds collapse to one value, so the barrier works on ``G``, the hyperbolic
terms and the block structure exactly as compiled, over the free columns.

The schedule is fixed: every solve reads the constants of ``_OPTIONS``
(:class:`BarrierOptions`), and no entry point accepts a tuning value.

Structured Newton solves
------------------------

A multi-application workload program carries a
:class:`~repro.solver.problem.BlockStructure`: per-application variable
ranges whose blocks are coupled only through a handful of shared linear
capacity rows.  The barrier Hessian of such a program is *block diagonal
plus low rank* — every per-application barrier term contributes to one
diagonal block, and each coupling row ``g`` adds the rank-one term
``g·gᵀ/s²``.  Equivalently, the KKT system of the Newton step is
arrow-structured, and the solver exploits it:

* each Newton step factorises the per-application diagonal blocks
  independently (one Cholesky solve each) and folds the coupling rows in
  through the Schur complement of the arrow system (a matrix of
  coupling-row dimension, typically the number of shared processors and
  memories);
* phase I, whose relaxation variable ``t`` touches every constraint, is
  solved with the same machinery by treating ``t`` as a one-column *border*
  of the arrow.

Every solve runs this one pipeline.  A program compiled without a block
structure is solved as a single block, so the layout, phase I, the
phase-II start choice and the Newton loop each exist once, and one kernel,
:class:`_StructuredWorkspace`, computes every Newton direction.  Only the
final linear solve follows the layout, never an option:

* a layout with one block, no border and no coupling — every one-block
  program, phase I included, since there ``t`` is simply the block's last
  coordinate — solves its assembled block with one Cholesky solve;
* every other layout takes the arrow solve (block factorisations + Schur
  complements).

When a factorisation of the arrow solve fails, that iteration takes one
dense step on the assembled ``k×k`` system; when a ``k×k`` Cholesky fails,
the step is a least-squares solve.

Sparse backend
--------------

The kernel never densifies a row, so its cost follows the non-zeros:

* the compiled constraint matrix and the hyperbolic terms arrive as numpy
  CSR records (:class:`~repro.solver.problem.CsrMatrix`:
  :attr:`~repro.solver.problem.CompiledProblem.G_sparse`,
  :class:`~repro.solver.problem.CompiledHyperbolic`) and are stacked into
  one *kernel layout* per compiled problem (:class:`_KernelLayout`, cached
  as :attr:`~repro.solver.problem.CompiledProblem.kernel_layout`): per
  phase, the entries of every barrier row in row order (phase I's with
  the ``t`` column and the lower-bound row) and a *scatter plan*, which
  lists for every ordered pair of non-zeros of a block's row (or of a
  hyperbolic term's ``[P; Q]``) its position in one flat buffer of
  bordered block Hessians, its coefficient product and its weight slot.
  Each phase's layout is built, vectorised, the first time that phase
  runs;
* ``h`` is the one array callers edit in place (admission's anytime
  verdict tightens shared rows), so the layout never reads it: each centering run owns a :class:`_StructuredWorkspace` that
  copies the current ``h`` and allocates the scratch buffers (the flat
  Hessian buffer, right-hand sides and solutions) — it copies no row;
* a line-search trial is one ``np.bincount`` over the row entries (the
  product ``R·z``) plus one ``min``/``log`` pass over the flat slack
  vectors; a Newton step forms one weight vector (``1/s²`` per row; ``a²``,
  ``β``, ``b²`` per hyperbolic term) from the carried state, then its
  gradient is one ``np.bincount`` over the row entries (``Rᵀ·g``) and all
  block Hessians one gather-multiply and one ``np.bincount`` over the plan;
* each block is factorised and solved by one Cholesky solve
  (:func:`_spd_solve`, whose pivot check is the positive-definiteness
  test) of its rows of one right-hand-side array — blocks are contiguous
  column ranges, so no block data is copied — and so is the coupling Schur
  matrix.  The solve is LAPACK's ``dposv`` from scipy's compiled extension
  ``scipy.linalg._flapack``, loaded without the ``scipy.linalg`` package
  (:func:`_lapack_dposv`), so the module imports numpy, the bare ``scipy``
  package and that extension only.

Per-iteration cost is therefore linear in the number of applications; the
``benchmarks/test_bench_block_newton.py`` scaling curve pins this.
"""

from __future__ import annotations

import importlib.util
import math
import sys
import time
from dataclasses import dataclass
from functools import cached_property
from importlib.machinery import PathFinder
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import NumericalError
from repro.obs.metrics import get_registry as _metrics_registry
from repro.obs.trace import span as obs_span
from repro.reliability.faults import maybe_fail as _maybe_fail
from repro.solver.problem import BlockStructure, CompiledProblem
from repro.solver.result import Solution, SolverStatus


def _lapack_dposv():
    """scipy's LAPACK ``dposv``, loaded from its compiled extension.

    ``scipy.linalg.lapack`` exports the ``dposv`` of the extension
    ``scipy.linalg._flapack``, but importing it runs ``scipy/linalg/__init__.py``,
    which loads most of ``scipy.linalg`` and, through ``scipy._lib._util``,
    ``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``: a few hundred
    milliseconds of start-up for one routine.  The extension itself needs
    only numpy.  So it is located with the import system's own finders
    (``find_spec`` of a submodule imports the bare ``scipy`` package only)
    and loaded under its full name, where a later ``import scipy.linalg``
    finds it.  Where it cannot be found, the public import is the fallback.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        package = importlib.util.find_spec("scipy.linalg")
        locations = package.submodule_search_locations if package else None
        spec = PathFinder.find_spec(name, locations) if locations else None
        if spec is None:
            from scipy.linalg.lapack import dposv

            return dposv
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module.dposv


_dposv = _lapack_dposv()

#: Widest system :func:`_spd_solve` hands to scipy's LAPACK ``dposv``.  The
#: OpenBLAS bundled with scipy factorises narrower matrices on one thread;
#: wider ones go parallel, and its thread pool then competes for the cores
#: with numpy's (a separate OpenBLAS, which runs the Hessian assembly's
#: matmuls) — measured ~11 ms per solve on 2 cores from 128 columns up.
_DPOSV_MAX_WIDTH = 127


def _spd_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a symmetric positive-definite system for a (multi-column) rhs.

    One LAPACK Cholesky solve (``dposv``) up to ``_DPOSV_MAX_WIDTH``
    columns; wider systems take numpy's Cholesky as the check and its LU
    solve.  Raises :class:`numpy.linalg.LinAlgError` when the matrix is not
    positive definite: a ``k×k`` system then takes a least-squares step, an
    arrow block the dense step.
    """
    width = matrix.shape[0]
    if width == 0:
        return np.zeros_like(rhs)
    if width > _DPOSV_MAX_WIDTH:
        np.linalg.cholesky(matrix)
        return np.linalg.solve(matrix, rhs)
    _, solution, info = _dposv(matrix, rhs, lower=1)
    if info:
        raise np.linalg.LinAlgError("matrix is not positive definite")
    return solution


@dataclass(frozen=True)
class BarrierOptions:
    """The barrier solver's fixed schedule (Boyd & Vandenberghe, §11.3).

    One configuration serves every solve: the solver reads these constants
    through the module instance ``_OPTIONS`` at call time and accepts no
    tuning value.  The values are deliberately conservative; the problem
    instances from the paper's experiments solve in a handful of outer
    iterations regardless.
    """

    tolerance: float = 1e-7           #: relative duality-gap target m / (t_barrier·max(1, |obj|))
    feasibility_margin: float = 1e-9  #: required strict slack at the phase-I exit
    initial_barrier: float = 1.0      #: initial barrier parameter t_barrier
    barrier_increase: float = 25.0    #: geometric growth factor of t_barrier
    max_outer_iterations: int = 60
    max_newton_iterations: int = 60
    #: Stop a centering run when ``λ²/2 ≤ newton_tolerance · max(1, t_barrier)``.
    #: The scaling matters: the gradient of the merit function grows with the
    #: barrier parameter, so an absolute decrement target that is reachable at
    #: ``t = 1`` lies below the floating-point noise floor at ``t ≈ 10⁷`` —
    #: without the scaling the final rungs burn the whole Newton budget making
    #: no progress.  At the scaled target the Newton decrement ``λ`` is still
    #: ≪ 1, i.e. the point is well inside the quadratic-convergence region and
    #: the ``m/t`` duality-gap bound remains valid.
    newton_tolerance: float = 1e-9
    line_search_alpha: float = 0.05
    line_search_beta: float = 0.6
    regularization: float = 1e-11     #: Tikhonov term added to the Newton system
    unbounded_threshold: float = 1e12 #: |objective| beyond which we declare unboundedness


#: The one barrier configuration every solve reads.
_OPTIONS = BarrierOptions()


def _kernel_stats() -> Dict[str, float]:
    """Fresh per-solve Newton-kernel accounting, shared by every workspace."""
    return {
        "assembly_time": 0.0,
        "factorization_time": 0.0,
        "schur_time": 0.0,
        "block_factorizations": 0,
        "fallback_iterations": 0,
        "lstsq_steps": 0,
    }


def _attach_kernel_stats(
    stats: Dict[str, object],
    problem: CompiledProblem,
    kernel: Dict[str, float],
    layout_reused: bool,
) -> None:
    """Fold one solve's Newton-kernel accounting into its stats dict.

    ``sparse_nnz`` (constraint-matrix nonzeros), ``lstsq_steps`` (Newton
    directions whose ``k×k`` Cholesky failed and took least squares), the
    assembly/factorisation/Schur time split and the block-factorisation
    count are reported for every solve; the dense-step count and the layout
    reuse flag (``pieces_cache_reused``) only for ``stats["structured"]``
    (two or more blocks) solves.
    """
    stats["sparse_nnz"] = int(problem.constraint_nnz)
    stats["lstsq_steps"] = int(kernel["lstsq_steps"])
    stats["assembly_time"] = float(kernel["assembly_time"])
    stats["factorization_time"] = float(kernel["factorization_time"])
    stats["schur_time"] = float(kernel["schur_time"])
    stats["block_factorizations"] = int(kernel["block_factorizations"])
    if not stats["structured"]:
        return
    # Directions that took the dense step because an arrow
    # factorisation failed (0 in the common case).
    stats["structured_fallback_iterations"] = int(kernel["fallback_iterations"])
    stats["pieces_cache_reused"] = bool(layout_reused)


def _single_block(problem: CompiledProblem) -> BlockStructure:
    """The one-block partition of a program compiled without a structure."""
    return BlockStructure(
        ranges=[(0, problem.num_variables)],
        row_blocks=np.zeros(problem.h.shape[0], dtype=int),
        hyperbolic_blocks=np.zeros(len(problem.hyperbolic), dtype=int),
    )


def _frozen(*arrays: np.ndarray) -> None:
    """Mark layout arrays read-only: every workspace shares them."""
    for array in arrays:
        array.flags.writeable = False


@dataclass(frozen=True)
class _PhaseLayout:
    """The kernel layout of one phase: its rows and its scatter plan.

    Phase II works on the free columns.  Phase I works on ``(x, t)``: every
    linear row gains a ``−1`` in the ``t`` column and every hyperbolic
    term's ``P`` and ``Q`` a ``½`` (``(p + t/2)(q + t/2) ≥ w``), and the
    lower-bound row ``−t ≤ −lower_bound``, homed in block 0, follows the
    rows of ``G``.  ``t`` is the arrow's one-column ``border``, except in a
    one-block program, where it is the block's last coordinate.

    The stacked matrix ``R`` of every barrier row — the ``linear`` rows
    (``G``, then the lower-bound row), then each hyperbolic term's ``P`` row
    and ``Q`` row — is kept as its entries ``(row, column, value)`` in row
    order, so ``R·z`` and ``Rᵀ·g`` are one ``bincount`` each.
    The Hessian of every block, bordered by the border coordinates (block
    columns first), is stored row-major at ``offsets[b]`` of one flat buffer
    of ``hess_size`` entries.  The scatter plan adds ``coef·weights[slot]``
    into ``hess[target]`` for every ordered pair of non-zeros of an owned
    row (weight ``1/s²``) and of a hyperbolic term's ``[P; Q]`` (weight
    ``a²``, ``β`` or ``b²``, see :meth:`_StructuredWorkspace.assemble`), so
    its length is the structural pair count of the rows, never a dense
    block's.  Coupling rows stay out of the plan: the arrow solve folds them
    in through their Schur complement.  Every array is read-only.
    """

    k: int                   #: coordinates of the solver vector
    border: int              #: trailing coordinates shared by all blocks
    starts: np.ndarray       #: first column of each block
    widths: np.ndarray       #: columns of each block (phase I's folded ``t`` included)
    offsets: np.ndarray      #: each bordered block's position in the flat buffer
    hess_size: int           #: entries of the flat buffer
    row: np.ndarray          #: ``R``'s entries: row
    column: np.ndarray       #: ``R``'s entries: column
    value: np.ndarray        #: ``R``'s entries: value
    linear: int              #: linear rows at the top of ``R``
    pq0: np.ndarray          #: ``(T, 2)``: ``p0`` and ``q0``
    w: np.ndarray            #: ``(T,)``: the hyperbolic bounds
    target: np.ndarray       #: scatter plan: flat-buffer position
    coef: np.ndarray         #: scatter plan: coefficient product
    slot: np.ndarray         #: scatter plan: weight index
    diagonal: np.ndarray     #: flat positions of every bordered block's diagonal
    block_diagonal: np.ndarray  #: the block part of it
    cross: np.ndarray        #: ``(k − border, border)`` block–border positions
    corner: np.ndarray       #: ``(blocks, border, border)`` border–border positions
    coupling_rows: np.ndarray  #: the linear rows that couple blocks
    coupling: np.ndarray     #: their dense rows, ``k`` columns each
    coupling_sq: np.ndarray  #: each coupling row's squared norm

    @property
    def blocks(self) -> int:
        return int(self.starts.size)

    @property
    def m(self) -> int:
        """Barrier terms, the ``m`` of the ``m/t`` gap."""
        return self.linear + self.w.size

    def rows_at(self, z: np.ndarray) -> np.ndarray:
        """``R·z``: every barrier row's affine part at ``z``."""
        height = self.linear + 2 * self.w.size
        return np.bincount(self.row, weights=self.value * z[self.column], minlength=height)

    def rows_transposed(self, g: np.ndarray) -> np.ndarray:
        """``Rᵀ·g``: the rows weighted by ``g`` and summed."""
        return np.bincount(self.column, weights=self.value * g[self.row], minlength=self.k)

    def coordinates(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(row, column)`` solver coordinates of every flat position."""
        k, border = self.k, self.border
        n = self.widths + border
        block = np.repeat(np.arange(self.blocks), n * n)
        position = np.arange(self.hess_size) - np.repeat(self.offsets, n * n)
        widths, starts = self.widths[block], self.starts[block]
        local = np.divmod(position, n[block])
        return tuple(
            np.where(part < widths, starts + part, k - border + part - widths)
            for part in local
        )


class _KernelLayout:
    """The Newton kernel's read-only view of one compiled problem.

    It depends only on ``G``, the hyperbolic terms and the block structure:
    never on ``h``, the one array callers edit in place, nor on phase
    I's lower bound, which each workspace gathers.  So it is built once per
    compiled problem and cached on it
    (:attr:`~repro.solver.problem.CompiledProblem.kernel_layout`).  Each
    phase's :class:`_PhaseLayout` is built from the entries of the CSR
    records the first time that phase runs, so warm solves that skip phase
    I never build its layout.
    """

    def __init__(self, problem: CompiledProblem) -> None:
        structure = problem.block_structure or _single_block(problem)
        self.k = problem.num_variables
        ranges = np.array(structure.ranges, dtype=np.intp).reshape(-1, 2)
        self.blocks = ranges.shape[0]
        self.starts = ranges[:, 0]
        self.widths = ranges[:, 1] - ranges[:, 0]
        #: the block of each linear row (``-1``: a coupling row) and term
        self.row_block = np.asarray(structure.row_blocks, dtype=np.intp)
        self.term_block = np.asarray(structure.hyperbolic_blocks, dtype=np.intp)
        hyp = problem.hyperbolic
        #: the entries of ``G``, ``P`` and ``Q``
        self.entries = [matrix.entries() for matrix in (problem.G_sparse, hyp.P, hyp.Q)]
        self.pq0 = np.column_stack([hyp.p0, hyp.q0]).reshape(-1, 2)
        self.bound = np.asarray(hyp.bound, dtype=float)
        self.coupling_rows = structure.coupling_rows
        self.coupling = problem.G_sparse.dense_rows(self.coupling_rows)
        _frozen(self.starts, self.pq0, self.bound, self.coupling_rows, self.coupling)

    @cached_property
    def phase_two(self) -> _PhaseLayout:
        return self._build(phase_one=False)

    @cached_property
    def phase_one(self) -> _PhaseLayout:
        return self._build(phase_one=True)

    def _build(self, phase_one: bool) -> _PhaseLayout:
        phase_one = int(phase_one)
        k = self.k + phase_one
        # A one-block program has no arrow to border: t is its last column.
        fold = int(phase_one and self.blocks == 1)
        border = phase_one - fold
        core = k - border
        widths = self.widths + fold
        terms = self.bound.size
        linear = self.row_block.size + phase_one
        height = linear + 2 * terms
        # The stacked rows: G, phase I's lower-bound row, then the P row and
        # the Q row of every term, so the rows of a term are adjacent.
        g, p, q = self.entries
        pieces = [g, (linear + 2 * p[0],) + p[1:], (linear + 1 + 2 * q[0],) + q[1:]]
        if phase_one:
            t_value = np.repeat([-1.0, 0.5], [linear, 2 * terms])
            pieces.append((np.arange(height), np.full(height, k - 1), t_value))
        row, column, value = (np.concatenate(part) for part in zip(*pieces))
        order = np.argsort(row, kind="stable")
        entries = row[order], column[order].astype(np.intp), value[order]

        # The scatter plan.  Each owned linear row is one unit, and so is
        # each term (its P row's entries, then its Q row's); a unit adds
        # every ordered pair of its entries into its block's bordered
        # Hessian.  Weights: 1/s² of linear row r at slot r; a², β and b² of
        # term i at linear + i, linear + T + i and linear + 2T + i.
        owner = np.concatenate(
            [self.row_block, np.zeros(phase_one, np.intp), np.repeat(self.term_block, 2)]
        )
        row, column, value = entries
        owned = owner[row] >= 0
        row, column, value = row[owned], column[owned], value[owned]
        block = owner[row]
        local = np.where(
            column < core, column - self.starts[block], widths[block] + column - core
        )
        hyperbolic = row >= linear
        unit = np.where(hyperbolic, (row + linear) // 2, row)
        side = terms * (hyperbolic & ((row - linear) % 2 == 1))
        n = widths + border
        offsets = np.cumsum(n * n) - n * n
        counts = np.bincount(unit)[unit]
        # Entry e pairs with the counts[e] entries of its unit, in order.
        ends = np.cumsum(counts)
        second = np.arange(counts.sum()) - np.repeat(
            ends - counts - np.searchsorted(unit, unit), counts
        )
        target = np.repeat(offsets[block] + local * n[block], counts) + local[second]
        coef = np.repeat(value, counts) * value[second]
        slot = np.repeat(np.where(hyperbolic, unit, row) + side, counts) + side[second]

        # Diagonal entry i of every bordered block; i < width is the block part.
        index = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        diagonal = np.repeat(offsets, n) + index * (np.repeat(n, n) + 1)
        block_diagonal = diagonal[index < np.repeat(widths, n)]
        column_block = np.repeat(np.arange(self.blocks), widths)
        within = np.arange(core) - self.starts[column_block]
        spare = np.arange(border)
        cross = (
            offsets[column_block, None]
            + within[:, None] * n[column_block, None]
            + widths[column_block, None]
            + spare
        )
        corner = (
            offsets[:, None, None]
            + (widths[:, None, None] + spare[:, None]) * n[:, None, None]
            + widths[:, None, None]
            + spare
        )

        coupling = self.coupling
        if phase_one:
            coupling = np.hstack([coupling, -np.ones((coupling.shape[0], 1))])
        coupling_sq = np.einsum("ij,ij->i", coupling, coupling)
        _frozen(
            *entries, widths, offsets, target, coef, slot, diagonal, block_diagonal,
            cross, corner, coupling, coupling_sq,
        )
        return _PhaseLayout(
            k=k,
            border=border,
            starts=self.starts,
            widths=widths,
            offsets=offsets,
            hess_size=int((n * n).sum()),
            row=entries[0],
            column=entries[1],
            value=entries[2],
            linear=linear,
            pq0=self.pq0,
            w=self.bound,
            target=target,
            coef=coef,
            slot=slot,
            diagonal=diagonal,
            block_diagonal=block_diagonal,
            cross=cross,
            corner=corner,
            coupling_rows=self.coupling_rows,
            coupling=coupling,
            coupling_sq=coupling_sq,
        )


@dataclass
class _CenteringResult:
    """Outcome of one :meth:`BarrierSolver._barrier_minimise` run."""

    z: np.ndarray
    status: SolverStatus
    outer: int                 #: outer (centering) iterations
    newton: int                #: Newton iterations summed over the rungs
    final_barrier: float       #: barrier parameter at exit
    #: the centered point of the first (``initial_barrier``) rung — the
    #: warm-start "interior hint" for related solves
    first_center: Optional[np.ndarray] = None
    #: whether the last centering met its decrement target (as opposed to
    #: exhausting the Newton budget); the ``m/t`` gap bound assumes it did
    converged: bool = True
    #: rungs whose centering exhausted the Newton budget
    nonconverged_rungs: int = 0


class _StructuredWorkspace:
    """The Newton kernel: flat evaluation and scatter assembly.

    Owns the scratch buffers of one centering run around a read-only
    :class:`_PhaseLayout`, and copies the current ``h`` (with phase I's
    lower-bound constant) once.  :meth:`evaluate` computes every barrier
    row at a point with one ``bincount`` and returns the slack state with the
    merit; :meth:`direction` builds the gradient and the flat buffer of
    bordered block Hessians from that carried state (:meth:`assemble`) —
    it never re-evaluates a slack — with the trace-scaled Tikhonov term.
    The step is then solved one of two ways, picked from the layout:

    * a layout with one block, no border and no coupling (every one-block
      program, phase I included: its ``t`` is a coordinate of the block)
      solves its assembled block with one Cholesky solve (:func:`_spd_solve`);
    * every other layout takes the arrow solve (:meth:`_arrow_direction`):
      one Cholesky solve per block plus the Schur complements of the border
      and the coupling rows.  Each block reads its right-hand sides as a
      row slice of one ``[gradient | Gcᵀ | block–border columns]`` array,
      whose coupling columns ``Gcᵀ`` are written **once**.

    When a factorisation of the arrow solve fails, that iteration's
    direction comes from one ``k×k`` system assembled from the same block
    Hessians (:meth:`_dense_step`, counted in
    ``stats["fallback_iterations"]``).  A failed Cholesky of a ``k×k``
    system is a least-squares step instead, counted in
    ``stats["lstsq_steps"]``; a system with an inf or NaN entry raises
    :class:`~repro.exceptions.NumericalError` instead.
    """

    def __init__(
        self,
        layout: _PhaseLayout,
        h: np.ndarray,
        stats: Dict[str, float],
        lower_bound: float = 0.0,
    ) -> None:
        self.layout = layout
        self.stats = stats
        self.k = k = layout.k
        self.border = border = layout.border
        core = k - border
        #: the right-hand sides of the linear rows: ``h``, then phase I's
        #: lower-bound row ``−t ≤ −lower_bound``
        self.h = np.append(h, [-lower_bound] * (layout.linear - h.size))
        #: the coupling rows and their count
        self.Gc = layout.coupling
        self.m = self.Gc.shape[0]
        #: one block, no border, no coupling: a direct solve of that block
        self.direct = layout.blocks == 1 and not border and not self.m
        cols = 1 + self.m
        self.cols = cols
        #: the bordered block Hessians, written by :meth:`assemble`
        self.hess = np.empty(layout.hess_size)
        #: ``[gradient | Gcᵀ | block–border columns]`` of the block rows, and
        #: the border's ``[gradient | Gcᵀ]``
        self.rhs = np.empty((core, cols + border))
        self.rhs[:, 1:cols] = self.Gc[:, :core].T
        self.border_rhs = np.empty((border, cols))
        self.border_rhs[:, 1:] = self.Gc[:, core:].T
        self.solved = np.empty((k, cols + border))
        #: ``1/s²`` over the coupling slacks of the last assembled point
        self.weights = np.zeros(self.m)
        #: each non-empty block's rows and its Hessian, a view of ``hess``
        self.blocks = []
        for start, width, offset in zip(
            layout.starts.tolist(), layout.widths.tolist(), layout.offsets.tolist()
        ):
            if width:
                size = width + border
                square = self.hess[offset : offset + size * size].reshape(size, size)
                self.blocks.append((slice(start, start + width), square[:width, :width]))

    def evaluate(self, z: np.ndarray) -> Tuple[Optional[tuple], float]:
        """The slack state ``(s, [p | q], p·q − w)`` at ``z``, with ``φ(z)``.

        ``(None, +inf)`` as soon as a slack is not positive (or NaN): an
        infeasible point's slacks never reach ``log`` or ``1/s``.  The
        linear merit part is handled by the caller in difference form, so
        only the barrier sum is evaluated here.
        """
        layout = self.layout
        values = layout.rows_at(z)
        s = self.h - values[: layout.linear]
        pq = values[layout.linear :].reshape(-1, 2) + layout.pq0
        # A hyperbolic side off the positive branch is rejected before p·q.
        if not (s.min(initial=math.inf) > 0.0 and pq.min(initial=math.inf) > 0.0):
            return None, math.inf
        f = pq[:, 0] * pq[:, 1] - layout.w
        if not f.min(initial=math.inf) > 0.0:
            return None, math.inf
        return (s, pq, f), -float(np.log(s).sum() + np.log(f).sum())

    def assemble(self, grad_objective: np.ndarray, state: tuple) -> Tuple[np.ndarray, float]:
        """The gradient, and the bordered block Hessians into :attr:`hess`.

        A linear row ``g`` with slack ``s`` has gradient ``g/s`` and Hessian
        ``g·gᵀ/s²``.  A hyperbolic term with ``f = p·q − w`` has gradient
        ``−(a·P + b·Q)`` and Hessian ``[P; Q]ᵀ [[a², β], [β, b²]] [P; Q]``,
        with ``a = q/f``, ``b = p/f`` and ``β = ab − 1/f``.  So the gradient
        is one weighted ``bincount`` over the row entries and the Hessians
        one over the scatter plan.  Adds the trace-scaled Tikhonov
        term to the block diagonals and returns it with the gradient.
        """
        s, pq, f = state
        layout = self.layout
        inv = 1.0 / s
        neg_inv = -1.0 / f
        coefficients = pq[:, ::-1] * neg_inv[:, None]  # −a, −b
        grad = grad_objective + layout.rows_transposed(
            np.concatenate([inv, coefficients.ravel()])
        )
        minus_a, minus_b = coefficients.T
        squares = inv * inv
        weights = np.concatenate(
            [squares, minus_a * minus_a, minus_a * minus_b + neg_inv, minus_b * minus_b]
        )
        hess = self.hess
        hess[:] = np.bincount(
            layout.target, weights=layout.coef * weights[layout.slot], minlength=hess.size
        )
        trace = float(hess[layout.diagonal].sum())
        if self.m:
            self.weights = squares[layout.coupling_rows]
            trace += float(self.weights @ layout.coupling_sq)
        reg = _OPTIONS.regularization * (1.0 + trace / max(self.k, 1))
        hess[layout.block_diagonal] += reg
        return grad, reg

    def direction(
        self, grad_objective: np.ndarray, states: tuple
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The gradient and Newton direction of ``grad_objective·z + φ(z)``.

        ``states`` is :meth:`evaluate`'s output at ``z``.  The Hessian is
        ``H = H₀ + Gcᵀ·W·Gc`` with ``H₀`` bordered block diagonal
        (per-application blocks, plus the phase-I relaxation column as a
        border) and ``W = diag(1/s²)`` over the coupling-row slacks;
        :meth:`assemble` builds ``H₀``'s bordered blocks.
        """
        assembly_start = time.perf_counter()
        grad, reg = self.assemble(grad_objective, states)
        self.stats["assembly_time"] += time.perf_counter() - assembly_start

        if self.direct:
            factor_start = time.perf_counter()
            k = self.k
            direction = -self._dense_solve(self.hess.reshape(k, k), grad)
            self.stats["block_factorizations"] += 1
            self.stats["factorization_time"] += time.perf_counter() - factor_start
            return grad, direction
        try:
            return grad, self._arrow_direction(grad, reg)
        except np.linalg.LinAlgError:
            self.stats["fallback_iterations"] += 1
            return grad, self._dense_step(grad, reg)

    def _arrow_direction(self, grad: np.ndarray, reg: float) -> np.ndarray:
        """The Newton direction via block factorisations and Schur
        complements of the assembled arrow system.

        ``H₀⁻¹`` is applied through per-block factorisations and the
        border's Schur complement; the coupling's low-rank term is folded in
        through the matrix-inversion lemma — its Schur matrix has
        coupling-row dimension (the number of shared processors and
        memories), so the cost per step is the sum of the per-block
        factorisations instead of one cube of the full size.  Every block
        takes one Cholesky solve (:func:`_spd_solve`), which is also its
        positive-definiteness check, of the rows of the right-hand-side
        array it covers.  The border and the coupling Schur matrices are
        symmetric positive definite too and take one Cholesky solve each.

        Raises :class:`numpy.linalg.LinAlgError` when any block or Schur
        matrix is not positive definite, which :meth:`direction` catches to
        take the dense step instead.
        """
        layout = self.layout
        k, border, m, cols = self.k, self.border, self.m, self.cols
        core = k - border
        rhs, solved = self.rhs, self.solved
        rhs[:, 0] = grad[:core]

        factor_start = time.perf_counter()
        # Chaos site: an armed ``newton.linalg`` fault raises the same
        # LinAlgError a failed block factorisation would.
        _maybe_fail("newton.linalg")
        if border:
            rhs[:, cols:] = self.hess[layout.cross]
        for rows, block in self.blocks:
            solved[rows] = _spd_solve(block, rhs[rows])
        self.stats["block_factorizations"] += len(self.blocks)
        self.stats["factorization_time"] += time.perf_counter() - factor_start

        schur_start = time.perf_counter()
        if border:
            cross, block_solved = rhs[:, cols:], solved[:core]
            # Border-border curvature of every block (including width-0
            # blocks, e.g. the phase-I lower-bound row on t).
            schur = self.hess[layout.corner].sum(axis=0) + reg * np.eye(border)
            schur -= cross.T @ block_solved[:, cols:]
            self.border_rhs[:, 0] = grad[core:]
            border_solution = _spd_solve(
                schur, self.border_rhs - cross.T @ block_solved[:, :cols]
            )
            block_solved[:, :cols] -= block_solved[:, cols:] @ border_solution
            solved[core:, :cols] = border_solution
        if m:
            base = solved[:, 0]
            lifted = solved[:, 1:cols]
            Gc = self.Gc
            # Matrix-inversion lemma: (W⁻¹ + Gc·H₀⁻¹·Gcᵀ) is the coupling
            # Schur complement of the arrow-structured KKT system.
            schur_c = np.diag(1.0 / self.weights) + Gc @ lifted
            multipliers = _spd_solve(schur_c, Gc @ base)
            direction = -(base - lifted @ multipliers)
        else:
            direction = -solved[:, 0]
        self.stats["schur_time"] += time.perf_counter() - schur_start
        return direction

    def _assembled(self, reg: float) -> np.ndarray:
        """The ``k×k`` Newton Hessian: the assembled bordered blocks
        scattered into place plus ``Gcᵀ·W·Gc``, no re-evaluation."""
        k = self.k
        rows, columns = self.layout.coordinates()
        hess = np.bincount(rows * k + columns, weights=self.hess, minlength=k * k)
        hess = hess.reshape(k, k)
        # The block diagonals already carry the regularization; the border's
        # is a sum over the blocks, so it is added here once.
        hess.reshape(-1)[(k - self.border) * (k + 1) :: k + 1] += reg
        if self.m:
            hess += (self.Gc.T * self.weights) @ self.Gc
        return hess

    def _dense_step(self, grad: np.ndarray, reg: float) -> np.ndarray:
        """The Newton direction from one ``k×k`` system (:meth:`_assembled`)."""
        return -self._dense_solve(self._assembled(reg), grad)

    def _dense_solve(self, hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """``hess⁻¹·grad`` by one Cholesky solve; least squares when it fails."""
        try:
            # Chaos site: an armed ``newton.linalg`` fault raises the same
            # LinAlgError a singular system would, forcing the lstsq step.
            _maybe_fail("newton.linalg")
            return _spd_solve(hess, grad)
        except np.linalg.LinAlgError:
            if not np.isfinite(hess).all():
                # LAPACK's least-squares SVD may never return on inf/NaN.
                raise NumericalError("non-finite Newton system") from None
            self.stats["lstsq_steps"] += 1
            return np.linalg.lstsq(hess, grad, rcond=None)[0]


@dataclass
class _PhaseOneStart:
    """Where the prefix shared by ``solve`` and ``feasible_point`` ends.

    ``decided`` is set when the program is settled without phase II: no
    free columns, no constraints, or phase I ending infeasible.  ``point``
    is then a feasible point, or ``None`` when ``decided`` is
    ``INFEASIBLE``.  Otherwise ``z`` is the strictly feasible point phase I
    exits with (the start point when it was skipped), ``z_interior`` the
    interior hint, ``stats`` the phase-I statistics, ``kernel`` the
    Newton-kernel accounting (:func:`_kernel_stats`) every workspace of the
    solve adds to, and ``layout_reused`` whether the kernel layout came from
    the compiled problem's cache.
    """

    decided: Optional[Solution] = None
    point: Optional[np.ndarray] = None
    layout: Optional[_KernelLayout] = None
    z: Optional[np.ndarray] = None
    z_interior: Optional[np.ndarray] = None
    stats: Optional[Dict[str, object]] = None
    kernel: Optional[Dict[str, float]] = None
    layout_reused: bool = False


class BarrierSolver:
    """Two-phase log-barrier interior-point solver.

    Stateless: every solve reads the fixed schedule ``_OPTIONS`` and carries
    its own accounting, so one instance may serve any number of solves.
    """

    # -- public entry points ------------------------------------------------
    def solve(
        self,
        problem: CompiledProblem,
        initial_point: Optional[np.ndarray] = None,
        interior_point: Optional[np.ndarray] = None,
    ) -> Solution:
        """Solve ``problem``; both hint points are optional.

        ``initial_point`` is the primary start (warm-start or heuristic):
        phase I is skipped when it is strictly feasible.  ``interior_point``
        is a well-interior hint — typically the first-rung central point of a
        related previous solve: it is tried for the phase-I skip when
        ``initial_point`` is infeasible, and when phase I was skipped phase II
        re-centers from it instead of from the (near-boundary) start point.
        Phase II always walks the cold rung ladder from ``initial_barrier``,
        so a warm solve stops on the same rung as a cold one.
        """
        start = self._phase_one_prefix(problem, initial_point, interior_point)
        if start.decided is not None:
            return start.decided
        stats, z_interior = start.stats, start.z_interior
        workspace = _StructuredWorkspace(start.layout.phase_two, problem.h, start.kernel)

        # Phase II re-centers from the interior hint when phase I was skipped
        # off a warm point: re-centering from a well-interior point is far
        # cheaper than crawling away from the boundary the previous optimum
        # sits on.
        z_start = start.z
        if (
            stats["phase1_skipped"]
            and z_interior is not None
            and not np.array_equal(z_interior, z_start)
            and workspace.evaluate(z_interior)[1] < math.inf
        ):
            z_start = z_interior

        with obs_span("centering") as centering_span:
            result = self._barrier_minimise(problem.c, workspace, z_start)
            centering_span.set(
                rungs=int(result.outer), newton_iterations=int(result.newton)
            )
        stats["centering_time"] = centering_span.seconds

        stats["newton_iterations"] = int(result.newton)
        stats["outer_iterations"] = int(result.outer)
        stats["nonconverged_rungs"] = int(result.nonconverged_rungs)
        stats["final_barrier"] = float(result.final_barrier)
        _attach_kernel_stats(stats, problem, start.kernel, start.layout_reused)
        objective = problem.objective_value(result.z)

        if abs(objective) > _OPTIONS.unbounded_threshold:
            self._record_metrics(stats, optimal=False)
            return Solution(
                status=SolverStatus.UNBOUNDED,
                backend="barrier",
                message="objective diverged during the barrier iterations",
                stats=stats,
            )

        self._record_metrics(stats, optimal=result.status is SolverStatus.OPTIMAL)
        return Solution(
            status=result.status,
            objective=objective,
            values=problem.point_as_mapping(result.z),
            backend="barrier",
            iterations=result.outer,
            stats=stats,
            interior_point=result.first_center,
        )

    def feasible_point(
        self,
        problem: CompiledProblem,
        initial_point: Optional[np.ndarray] = None,
    ) -> Optional[np.ndarray]:
        """A strictly feasible point of ``problem``, or ``None`` if infeasible.

        Runs only the prefix :meth:`solve` starts with — phase I from
        ``initial_point`` — and returns the point phase I exits with
        (``initial_point`` itself when phase I is skipped).  ``None`` comes
        back exactly when :meth:`solve` would report ``INFEASIBLE``: phase I
        ending with positive infeasibility, or a violated constant row (such
        as a row left infeasible once compile substituted the collapsed
        bounds).  A program without constraints is feasible.  The phase-I
        statistics are published to the metrics registry like any solve's,
        with zero phase-II iterations.
        """
        start = self._phase_one_prefix(problem, initial_point)
        if start.decided is not None:
            return start.point
        stats = start.stats
        _attach_kernel_stats(stats, problem, start.kernel, start.layout_reused)
        self._record_metrics(stats, optimal=False)
        return start.z

    def _phase_one_prefix(
        self,
        problem: CompiledProblem,
        initial_point: Optional[np.ndarray],
        interior_point: Optional[np.ndarray] = None,
    ) -> _PhaseOneStart:
        """The kernel layout and phase I: up to a feasible start.

        The one place phase I is set up, for both :meth:`solve` and
        :meth:`feasible_point`.  A phase-I infeasibility verdict is published
        to the metrics registry here, since it ends either caller.
        """
        if problem.num_variables == 0:
            decided = problem.constant_solution("barrier")
            return _PhaseOneStart(
                decided=decided, point=np.zeros(0) if decided.is_optimal else None
            )

        z0 = np.zeros(problem.num_variables)
        if initial_point is not None:
            z0 = np.array(initial_point, dtype=float)
        if not (problem.h.size or problem.hyperbolic):
            # Unconstrained affine minimisation: bounded only if c == 0.
            if np.allclose(problem.c, 0.0):
                x = np.zeros(problem.num_variables)
                decided = Solution(
                    status=SolverStatus.OPTIMAL,
                    objective=problem.objective_value(x),
                    values=problem.point_as_mapping(x),
                    backend="barrier",
                )
            else:
                decided = Solution(
                    status=SolverStatus.UNBOUNDED,
                    backend="barrier",
                    message="no constraints and a non-zero objective",
                )
            return _PhaseOneStart(decided=decided, point=z0)

        # Newton-kernel accounting shared by every workspace of this solve
        # (phase I and phase II).
        kernel = _kernel_stats()
        # Whether this solve reuses the cached layout (surfaced as the
        # ``pieces_cache_reused`` stat → SessionStats sparse reuse).
        layout_reused = problem.kernel_layout is not None
        layout = self._layout(problem)
        z_interior: Optional[np.ndarray] = None
        if interior_point is not None:
            z_interior = np.array(interior_point, dtype=float)
        fallbacks = [z_interior] if z_interior is not None else []
        with obs_span("phase1") as phase1_span:
            z_feasible, feasibility, phase1 = self._phase_one(
                problem, layout, kernel, z0, fallbacks=fallbacks
            )
            phase1_span.set(
                skipped=bool(phase1["skipped"]),
                newton_iterations=int(phase1["newton_iterations"]),
            )
        stats: Dict[str, object] = {
            "phase1_skipped": bool(phase1["skipped"]),
            "phase1_newton_iterations": int(phase1["newton_iterations"]),
            "newton_iterations": 0,
            "outer_iterations": 0,
            "structured": layout.blocks >= 2,
            "phase1_time": phase1_span.seconds,
            "centering_time": 0.0,
        }
        if z_feasible is None:
            _attach_kernel_stats(stats, problem, kernel, layout_reused)
            self._record_metrics(stats, optimal=False)
            return _PhaseOneStart(
                decided=Solution(
                    status=SolverStatus.INFEASIBLE,
                    backend="barrier",
                    message=f"phase I ended with infeasibility {feasibility:.3e}",
                    stats=stats,
                )
            )
        return _PhaseOneStart(
            layout=layout,
            z=z_feasible,
            z_interior=z_interior,
            stats=stats,
            kernel=kernel,
            layout_reused=layout_reused,
        )

    # -- telemetry ------------------------------------------------------------
    def _record_metrics(self, stats: Dict[str, object], optimal: bool) -> None:
        """Publish one solve's statistics to the metrics registry.

        A single early-return keeps the disabled-telemetry cost at one
        attribute check per solve; with telemetry on, the per-solve stats
        dict feeds the cross-solve counters and iteration histograms that
        ``repro-map sweep --stats`` and the batch aggregation report.
        """
        registry = _metrics_registry()
        if not registry.enabled:
            return
        registry.counter("solver.solves").inc()
        if optimal:
            registry.counter("solver.optimal").inc()
        if stats.get("phase1_skipped"):
            registry.counter("solver.phase1_skipped").inc()
        if stats.get("structured"):
            registry.counter("solver.sparse_solves").inc()
        else:
            registry.counter("solver.dense_solves").inc()
        if stats.get("pieces_cache_reused"):
            registry.counter("solver.pieces_cache_reused").inc()
        if "sparse_nnz" in stats:
            registry.histogram("solver.sparse_nnz").observe(
                float(stats["sparse_nnz"])
            )
        if "factorization_time" in stats:
            registry.histogram("solver.assembly_seconds").observe(
                float(stats["assembly_time"])
            )
            registry.histogram("solver.factorization_seconds").observe(
                float(stats["factorization_time"])
            )
            registry.histogram("solver.schur_seconds").observe(
                float(stats["schur_time"])
            )
            registry.counter("solver.block_factorizations").inc(
                float(stats.get("block_factorizations", 0))
            )
        registry.counter("solver.lstsq_steps").inc(
            float(stats.get("lstsq_steps", 0))
        )
        registry.histogram("solver.newton_iterations").observe(
            float(stats.get("newton_iterations", 0))
        )
        registry.histogram("solver.phase1_newton_iterations").observe(
            float(stats.get("phase1_newton_iterations", 0))
        )
        registry.histogram("solver.rungs").observe(
            float(stats.get("outer_iterations", 0))
        )
        # Phase-II rungs that exhausted the Newton budget: their ``m/t`` gap
        # bound is not certified.
        registry.counter("solver.rungs_nonconverged").inc(
            float(stats.get("nonconverged_rungs", 0))
        )

    # -- setup ----------------------------------------------------------------
    def _layout(self, problem: CompiledProblem) -> _KernelLayout:
        """The kernel layout of ``problem``, cached on it.

        The layout depends only on ``G``, the hyperbolic terms and the
        block structure, so it is built once per compiled problem; each
        workspace gathers only the ``h`` rows, the one array callers edit
        in place.
        """
        layout = problem.kernel_layout
        if layout is None:
            layout = problem.kernel_layout = _KernelLayout(problem)
        return layout

    # -- phase I -----------------------------------------------------------------
    def _phase_one(
        self,
        problem: CompiledProblem,
        layout: _KernelLayout,
        kernel: Dict[str, float],
        z0: np.ndarray,
        fallbacks: Sequence[np.ndarray] = (),
    ) -> Tuple[Optional[np.ndarray], float, Dict[str, object]]:
        """Find a strictly feasible point, or report infeasibility.

        ``z0`` and then each entry of ``fallbacks`` is checked for strict
        feasibility; the first hit skips the phase entirely.  Otherwise the
        auxiliary relaxation program runs from ``z0`` on the same Newton
        kernel as phase II; the relaxation variable ``t`` becomes the
        one-column *border* of the arrow system, since every relaxed
        constraint touches it (in a one-block program it is simply the
        block's last coordinate).  Its workspace adds to the solve's
        ``kernel`` accounting.

        Returns the feasible point (or ``None``), the final
        infeasibility measure, and phase-I statistics (whether the phase was
        skipped because a candidate was already strictly feasible, and how
        many Newton iterations the auxiliary program took).

        The phase-I program is ``min t`` over ``(z, t)`` subject to every
        constraint relaxed by ``t``:

        * linear:      ``g·x − h ≤ t``
        * hyperbolic:  ``(p + t/2)(q + t/2) ≥ w``

        The hyperbolic relaxation is the rotated cone
        ``‖(2√w, p − q)‖ ≤ p + q + t`` (Boyd & Vandenberghe, §11.4): the
        identity ``(p + q + t)² − 4w − (p − q)² = 4·((p + t/2)(q + t/2) − w)``
        makes the two barriers differ by the constant ``log 4`` only.
        """
        margin = _OPTIONS.feasibility_margin
        needed = self._required_relaxation(problem, z0)
        if needed < -margin:
            return z0, needed, {"skipped": True, "newton_iterations": 0}
        for candidate in fallbacks:
            required = self._required_relaxation(problem, candidate)
            if required < -margin:
                return candidate, required, {"skipped": True, "newton_iterations": 0}

        k = problem.num_variables
        # Keep the phase-I objective bounded below.
        lower_bound = -max(1.0, abs(needed))
        workspace = _StructuredWorkspace(
            layout.phase_one, problem.h, kernel, lower_bound=lower_bound
        )

        t0 = needed + max(1.0, 0.1 * abs(needed))
        zt = np.concatenate([z0, [t0]])
        c_phase = np.concatenate([np.zeros(k), [1.0]])

        # Stop as soon as the point is comfortably interior; a modest negative
        # slack is enough for phase II, and insisting on a large one would
        # never terminate early on problems whose feasible region is thin.
        target = -max(1e-3, 1e3 * margin)

        def early_stop(point: np.ndarray) -> bool:
            return point[-1] < target

        phase_result = self._barrier_minimise(
            c_phase,
            workspace,
            zt,
            early_stop=early_stop,
            gap_tolerance=1e-3,
        )
        zt_opt = phase_result.z
        stats = {"skipped": False, "newton_iterations": phase_result.newton}
        t_final = float(zt_opt[-1])
        if t_final < -margin:
            return zt_opt[:-1], t_final, stats
        return None, t_final, stats

    def _required_relaxation(self, problem: CompiledProblem, x: np.ndarray) -> float:
        """Smallest ``t`` that makes ``x`` strictly feasible for the relaxed problem."""
        needed = problem.max_linear_violation(x)
        if len(problem.hyperbolic):
            # The smallest t with (p + t/2)(q + t/2) ≥ w is the cone form's
            # ‖(2√w, p − q)‖ − (p + q).  The norm is math.hypot term by term:
            # numpy's hypot rounds differently in the last bit, which would
            # move phase I's start.
            p, q = problem.hyperbolic_sides(x)
            norms = map(
                math.hypot,
                (2.0 * np.sqrt(problem.hyperbolic.bound)).tolist(),
                (p - q).tolist(),
            )
            needed = max(needed, max(map(float.__sub__, norms, (p + q).tolist())))
        if needed == -math.inf:
            needed = -1.0
        return needed

    # -- core barrier loop -----------------------------------------------------------
    def _barrier_minimise(
        self,
        c: np.ndarray,
        workspace: _StructuredWorkspace,
        z0: np.ndarray,
        early_stop=None,
        gap_tolerance: Optional[float] = None,
    ) -> _CenteringResult:
        """Minimise ``c·z`` over the strictly feasible region of the workspace's layout.

        The rung schedule starts at ``initial_barrier`` and grows by
        ``barrier_increase`` until the ``m/t`` gap bound meets the tolerance.
        The feasibility check of ``z0`` is also the first rung's evaluation,
        and every rung starts from the previous rung's last accepted point
        and its carried evaluation.
        """
        opts = _OPTIONS
        tolerance = opts.tolerance if gap_tolerance is None else gap_tolerance
        m = workspace.layout.m
        z = np.asarray(z0, dtype=float).copy()

        states, phi = workspace.evaluate(z)
        if phi == math.inf:
            # The caller is responsible for strict feasibility of z0.
            return _CenteringResult(
                z, SolverStatus.NUMERICAL_ERROR, 0, 0, opts.initial_barrier
            )

        t_barrier = opts.initial_barrier
        outer = 0
        newton_total = 0
        first_center: Optional[np.ndarray] = None
        converged = True
        nonconverged_rungs = 0
        status = SolverStatus.MAX_ITERATIONS
        while outer < opts.max_outer_iterations:
            outer += 1
            with obs_span("rung") as rung_span:
                z, states, phi, newton, converged = self._newton_minimise(
                    c, workspace, z, states, phi, t_barrier, early_stop
                )
                rung_span.set(
                    barrier=float(t_barrier),
                    newton_iterations=int(newton),
                    converged=bool(converged),
                )
            newton_total += newton
            nonconverged_rungs += not converged
            if outer == 1:
                first_center = z.copy()
            if early_stop is not None and early_stop(z):
                status = SolverStatus.OPTIMAL
                break
            # The sub-optimality of the central-path point is bounded by
            # m / t_barrier; the target is relative to the objective scale.
            gap_target = tolerance * max(1.0, abs(float(c @ z)))
            if m / t_barrier < gap_target:
                status = SolverStatus.OPTIMAL
                break
            t_barrier *= opts.barrier_increase
        return _CenteringResult(
            z,
            status,
            outer,
            newton_total,
            t_barrier,
            first_center,
            converged,
            nonconverged_rungs,
        )

    def _newton_minimise(
        self,
        c: np.ndarray,
        workspace: _StructuredWorkspace,
        z: np.ndarray,
        states: object,
        phi: float,
        t_barrier: float,
        early_stop=None,
    ) -> Tuple[np.ndarray, object, float, int, bool]:
        """Damped Newton minimisation of ``t_barrier·c·z + Σ −log(slack_i)``.

        ``states`` and ``phi`` are ``workspace.evaluate(z)``.  The
        workspace's kernel supplies each Newton direction from the carried
        states of the current point, so each trial point of the
        backtracking line search is evaluated exactly once: that one
        evaluation folds the strict-feasibility check, the barrier value and
        the term states together, and the accepted trial's states and merit
        become the next iteration's.  The line search compares merit
        *differences* rather than absolute merits: the linear part of the
        merit is ``t_barrier·cᵀz`` — at the final barrier rungs its
        magnitude dwarfs the per-step improvement, so the absolute
        comparison drowns in floating-point cancellation and the centering
        stalls short of its decrement target.  The difference form
        ``t·step·(cᵀd) + Δφ`` is cancellation-free.

        Returns the final point with its states and merit, the number of
        Newton iterations spent, and whether the run converged (met its
        decrement target or stalled in the line search) rather than
        exhausting the iteration budget.
        """
        opts = _OPTIONS
        for iteration in range(opts.max_newton_iterations):
            grad, direction = workspace.direction(t_barrier * c, states)
            decrement = float(-grad @ direction)
            if decrement / 2.0 <= opts.newton_tolerance * max(1.0, t_barrier):
                return z, states, phi, iteration, True

            # Backtracking line search maintaining strict feasibility; an
            # infeasible trial point has barrier value +inf and is rejected
            # by the sufficient-decrease test.
            linear_slope = t_barrier * float(c @ direction)
            step = 1.0
            while step > 1e-14:
                candidate = z + step * direction
                candidate_states, candidate_phi = workspace.evaluate(candidate)
                delta = step * linear_slope + (candidate_phi - phi)
                if delta <= -opts.line_search_alpha * step * decrement:
                    break
                step *= opts.line_search_beta
            else:
                return z, states, phi, iteration + 1, True
            z, states, phi = candidate, candidate_states, candidate_phi
            if early_stop is not None and early_stop(z):
                return z, states, phi, iteration + 1, True
        return z, states, phi, opts.max_newton_iterations, False
