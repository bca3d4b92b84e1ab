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

The Newton kernel stacks the terms of equal-shaped blocks into padded
tensors (see below).  Evaluating a point returns the slack *state* along
with the feasibility check and the barrier value, and the gradient and
Hessian are built from that state: the Newton loop evaluates every
line-search trial point exactly once, and the accepted trial's state is
carried into the next direction.

The solver sees no equality constraints: :meth:`ConeProgram.compile
<repro.solver.problem.ConeProgram.compile>` substitutes fixed variables and
equality rows out, so the barrier works on ``G``, the hyperbolic terms and
the block structure exactly as compiled, over the free columns.

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

The structured path is built to scale to hundreds of applications:

* the compiled constraint matrix and the hyperbolic terms arrive in CSR
  form (:attr:`~repro.solver.problem.CompiledProblem.G_sparse`,
  :class:`~repro.solver.problem.CompiledHyperbolic`) and are scattered,
  without densifying the full matrix, into one *kernel layout* per compiled
  problem (:class:`_KernelLayout`, cached as
  :attr:`~repro.solver.problem.CompiledProblem.kernel_layout`): blocks of
  equal width and term kinds form a group whose affine rows ``R`` sit in
  one read-only, padded ``(B, R, n)`` tensor, so a line-search trial costs
  one batched matvec per group.  Each phase's layout is built the first
  time that phase runs; phase I's carries the ``t`` column and the
  lower-bound row;
* ``h`` is the one array parametric re-solves mutate, so the layout never
  reads it: each centering run owns a :class:`_StructuredWorkspace` that
  gathers the current ``h`` rows into the padded positions and allocates
  the scratch buffers (weighted rows, gradient and Hessian stacks,
  right-hand sides and solutions) — it copies no member's rows;
* every member's barrier Hessian is the weighted Gram ``Rᵀ·W·R`` with a
  block-diagonal ``W`` (one small block per term) and its gradient
  ``Rᵀ·g``: each Newton step writes the row weights from the carried
  states, then assembles all members' gradients and Hessian blocks in one
  batched matmul each;
* each member block is factorised and solved by one Cholesky solve
  (:func:`_spd_solve`, whose pivot check is the positive-definiteness
  test), and so is the coupling Schur matrix.

Per-iteration cost is therefore linear in the number of applications; the
``benchmarks/test_bench_block_newton.py`` scaling curve pins this.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg.lapack import dposv as _dposv

from repro.exceptions import NumericalError
from repro.obs.metrics import get_registry as _metrics_registry
from repro.obs.trace import span as obs_span
from repro.reliability.faults import maybe_fail as _maybe_fail
from repro.solver.problem import BlockStructure, CompiledProblem
from repro.solver.result import Solution, SolverStatus

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


@dataclass
class BarrierOptions:
    """Tuning knobs of the barrier solver.

    The defaults are deliberately conservative; the problem instances from the
    paper's experiments solve in a handful of outer iterations regardless.
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


def _batched_matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``M[j] @ x[j]`` for every batch row ``j`` of a ``(B, r, n)`` stack
    (or ``M @ x`` for an unbatched one)."""
    if x.ndim == 1:
        return M @ x
    return np.matmul(M, x[:, :, None])[:, :, 0]


def _members(array: np.ndarray) -> np.ndarray:
    """``array`` without its member axis when it has one member.

    The stack math is written for both ranks, and a group of one — every
    one-block program — then runs plain 2-D numpy calls, which cost less
    than their batched forms.
    """
    return array[0] if array.shape[0] == 1 else array


class _LinearStack:
    """The linear rows ``G·x ≤ h`` of a block group, padded to one row count.

    ``G`` is a view into the group's row tensor: member ``j``'s rows fill
    ``G[j, :count]``; padding rows are ``0·x ≤ 1`` (slack 1), so they add
    exact zeros to the gradient and Hessian.  The state is the slack stack.
    """

    def __init__(
        self,
        layout: "_GroupLayout",
        h: np.ndarray,
        wrows: np.ndarray,
        wgrad: np.ndarray,
    ) -> None:
        self.span = slice(0, layout.linear)
        self.G = _members(layout.rows[:, self.span])
        self.h = _members(h)
        self.wG = _members(wrows[:, self.span])
        self.g = _members(wgrad[:, self.span])

    def evaluate(self, values: np.ndarray) -> Tuple[object, float]:
        s = self.h - values[..., self.span]
        if not s.min() > 0.0:
            return None, math.inf
        return s, -float(np.log(s).sum())

    def weigh(self, s: np.ndarray) -> None:
        """Row gradients ``1/s`` and weighted rows ``G/s²``."""
        np.divide(1.0, s, out=self.g)
        # einsum fills a strided view of many short rows about twice as fast
        # as the equivalent broadcast multiply.
        np.einsum("...rn,...r->...rn", self.G, self.g * self.g, out=self.wG)


class _HyperbolicStack:
    """The hyperbolic terms ``(P·x + p0)(Q·x + q0) ≥ w`` of a block group,
    padded to one term count; each term's barrier is ``−log(p·q − w)`` on
    the branch ``p, q > 0``.

    The ``P`` rows followed by the ``Q`` rows are one view into the group's
    row tensor, ``PQ``, with ``PQ[..., 0, :, :]`` = ``P`` and
    ``PQ[..., 1, :, :]`` = ``Q``.  Padding rows are ``(0·x + 1)(0·x + 1) ≥
    0`` (slack 1, zero gradient and Hessian).  The state is the pair
    ``(pq, p·q − w)`` with ``pq[..., 0, :]`` = ``p`` and ``pq[..., 1, :]`` =
    ``q``.
    """

    def __init__(
        self, layout: "_GroupLayout", wrows: np.ndarray, wgrad: np.ndarray
    ) -> None:
        count = layout.hyperbolic
        size, _, n = layout.rows.shape
        self.span = slice(layout.linear, layout.linear + 2 * count)
        self.PQ = _members(layout.rows[:, self.span].reshape(size, 2, count, n))
        self.pq0, self.w = _members(layout.pq0), _members(layout.w)
        self.wPQ = _members(wrows[:, self.span].reshape(size, 2, count, n))
        self.gPQ = _members(wgrad[:, self.span].reshape(size, 2, count))

    def evaluate(self, values: np.ndarray) -> Tuple[object, float]:
        pq = values[..., self.span].reshape(self.pq0.shape) + self.pq0
        if not pq.min() > 0.0:
            return None, math.inf  # off the positive branch
        f = pq[..., 0, :] * pq[..., 1, :] - self.w
        if not f.min() > 0.0:
            return None, math.inf
        return (pq, f), -float(np.log(f).sum())

    def weigh(self, state: Tuple[np.ndarray, ...]) -> None:
        """Gradient and Hessian of ``−log(p·q − w)`` as row weights.

        With ``f = p·q − w`` the gradient is ``−(q·P + p·Q)/f`` and the
        Hessian ``Σ ∇f∇fᵀ/f² − Σ (P·Qᵀ + Q·Pᵀ)/f``.  With ``a = q/f``,
        ``b = p/f`` and ``β = ab − 1/f`` these are ``−(a·P + b·Q)`` and
        ``[P; Q]ᵀ [[a², β], [β, b²]] [P; Q]``.
        """
        pq, f = state
        neg_inv = np.divide(-1.0, f)
        g = self.gPQ
        np.multiply(pq[..., ::-1, :], neg_inv[..., None, :], out=g)  # −a, −b
        beta = g[..., 0, :] * g[..., 1, :] + neg_inv
        np.multiply(self.PQ, (g * g)[..., None], out=self.wPQ)
        self.wPQ += self.PQ[..., ::-1, :, :] * beta[..., None, :, None]  # β·[Q; P]


class _BlockGroup:
    """Blocks of equal width and term kinds, evaluated and assembled as one batch.

    Each member contributes one row of every stacked tensor; ``index[j]``
    gathers member ``j``'s coordinates (its block followed by the border)
    from the solver vector.  All stacks' affine rows live in one ``(B, R,
    n)`` tensor, :attr:`rows` (the stacks hold views into it), so
    :meth:`evaluate` costs one batched matvec per trial point.  The barrier
    Hessian of every member is a weighted Gram ``Rᵀ·W·R`` of its rows with a
    block-diagonal ``W`` (one small block per term), and its gradient
    ``Rᵀ·g``: each stack writes its rows' weights into :attr:`wrows`
    (``W·R``) and :attr:`wgrad` (``g``), and :meth:`assemble` builds the
    ``(B, n)`` gradient and ``(B, n, n)`` Hessian stacks of all members in one
    batched matmul each.  A group of one drops the member axis of its stack
    tensors (:func:`_members`).  The members, ``index`` and :attr:`rows` are
    the phase layout's :class:`_GroupLayout`, read-only and not copied.
    """

    def __init__(
        self,
        layout: "_GroupLayout",
        h: np.ndarray,
        rhs: np.ndarray,
        border: int,
    ) -> None:
        size, height, n = layout.rows.shape
        width = layout.width
        cols = rhs.shape[1]
        self.size = size
        self.width = width
        self.index = layout.index
        #: the members' block coordinates, one row per member; for a group of
        #: one a basic slice, so reading and writing them makes no copy
        self.block_index = (
            (None, layout.slices[0]) if size == 1 else layout.index[:, :width]
        )
        #: ``W·R`` and ``g``: each stack writes its rows' Hessian weights and
        #: gradient coefficients through its spans; padding rows of ``rows``
        #: are zero, so whatever they weigh adds exact zeros
        wrows = np.zeros((size, height, n))
        wgrad = np.zeros((size, height))
        self.stacks: List[object] = []
        if layout.linear:
            self.stacks.append(_LinearStack(layout, h, wrows, wgrad))
        if layout.hyperbolic:
            self.stacks.append(_HyperbolicStack(layout, wrows, wgrad))
        self.rows = _members(layout.rows)
        self.wrows, self.wgrad = _members(wrows), _members(wgrad)
        self._rows_t = self.rows.swapaxes(-1, -2)
        #: gathers the members' coordinates (border included) from ``z``
        self.gather = _members(self.index)
        self.grad = np.empty((size, n))
        self.hess = np.empty((size, n, n))
        #: views of the two without the member axis of a group of one, which
        #: :meth:`assemble` writes at the cost of plain 2-D calls
        self._grad_out = _members(self.grad)[..., None]
        self._hess_out = _members(self.hess)
        diagonals = _members(self.hess.reshape(size, n * n)[:, :: n + 1])
        #: strided view of every diagonal entry ``hess[:, i, i]``
        self.trace = diagonals
        #: the block part of it, ``i < width``
        self.diagonal = diagonals[..., :width]
        #: per-member right-hand sides ``[gradient | Gcᵀ rows | Hessian border
        #: columns]``; the coupling columns are constant, written once here
        self.rhs = np.empty((size, width, cols + border))
        self.rhs[:, :, :cols] = rhs[self.block_index]
        #: per member: its block's coordinates, its Hessian block (without
        #: the border) and its right-hand sides, as views into the buffers
        self.members = [
            (slc, self.hess[j, :width, :width], self.rhs[j])
            for j, slc in enumerate(layout.slices)
        ]
        #: the members' stacked solutions, used when there is a border
        self.sol = np.empty_like(self.rhs) if border else None

    def evaluate(self, z: np.ndarray) -> Tuple[Optional[List[object]], float]:
        """Per-stack states and the members' summed barrier value at ``z``.

        ``(None, +inf)`` as soon as a stack has a non-positive (or NaN)
        slack: an infeasible point's slacks never reach ``log`` or ``1/s``.
        """
        values = _batched_matvec(self.rows, z[self.gather])
        states: List[object] = []
        total = 0.0
        for stack in self.stacks:
            state, value = stack.evaluate(values)
            if state is None:
                return None, math.inf
            states.append(state)
            total += value
        return states, total

    def assemble(self, states: Sequence[object]) -> None:
        """Fill :attr:`grad` and :attr:`hess` from :meth:`evaluate`'s states:
        ``Rᵀ·g`` and ``Rᵀ·(W·R)`` in one matmul each."""
        for stack, state in zip(self.stacks, states):
            stack.weigh(state)
        np.matmul(self._rows_t, self.wgrad[..., None], out=self._grad_out)
        np.matmul(self._rows_t, self.wrows, out=self._hess_out)


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


def _ranks(owner: np.ndarray, blocks: int) -> Tuple[np.ndarray, np.ndarray]:
    """Each item's position among its block's items (in item order), and
    each block's item count.

    ``owner[i]`` is the block of item ``i``; ``-1`` (a coupling row) is in
    no block, and its rank is ``-1``.
    """
    order = np.argsort(owner, kind="stable")
    sorted_owner = owner[order]
    owned = sorted_owner >= 0
    first = np.searchsorted(sorted_owner, np.arange(blocks))
    rank = np.full(owner.size, -1, dtype=np.intp)
    rank[order[owned]] = np.flatnonzero(owned) - first[sorted_owner[owned]]
    return rank, np.bincount(sorted_owner[owned], minlength=blocks)


def _entries(
    matrix: object, owner: np.ndarray, rank: np.ndarray, starts: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """Every stored entry of the CSR ``matrix`` in a row some block owns,
    in storage order: its block, its row's rank in the block (:func:`_ranks`),
    its column within the block and its value."""
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    kept = owner[rows] >= 0
    rows = rows[kept]
    block = owner[rows]
    return block, rank[rows], matrix.indices[kept] - starts[block], matrix.data[kept]


@dataclass(frozen=True)
class _GroupLayout:
    """One block group of a phase: blocks of equal width and term kinds.

    Member ``j`` is the block with columns ``slices[j]``; ``index[j]``
    gathers its coordinates (the block followed by the border) from the
    solver vector.  ``rows`` is the members' ``(B, R, n)`` row tensor: the
    ``linear`` rows ``G`` first, padded with ``0·x ≤ 1``, then the
    ``hyperbolic`` terms' ``P`` rows and their ``Q`` rows, padded with
    ``(0·x + 1)(0·x + 1) ≥ 0``.  ``h_map`` places each linear row's
    right-hand side: an index into ``h`` extended by the padding's ``1`` and
    phase I's lower-bound constant (:meth:`_StructuredWorkspace.__init__`).
    Every array is read-only.
    """

    slices: Tuple[slice, ...]
    width: int
    index: np.ndarray    #: ``(B, n)`` member coordinates
    rows: np.ndarray     #: ``(B, linear + 2·hyperbolic, n)``
    linear: int          #: padded linear rows per member
    hyperbolic: int      #: padded hyperbolic terms per member
    h_map: np.ndarray    #: ``(B, linear)`` positions in the extended ``h``
    pq0: np.ndarray      #: ``(B, 2, hyperbolic)``: ``p0`` and ``q0``, padding 1
    w: np.ndarray        #: ``(B, hyperbolic)``: the bounds, padding 0


@dataclass(frozen=True)
class _PhaseLayout:
    """The kernel layout of one phase: its block groups and coupling rows.

    Phase II works on the free columns.  Phase I works on ``(x, t)``: every
    linear row gains a ``−1`` in the ``t`` column and every hyperbolic
    term's ``P`` and ``Q`` a ``½`` (``(p + t/2)(q + t/2) ≥ w``), and block
    0 homes the lower-bound row ``−t ≤ −lower_bound`` after its own rows.
    ``t`` is the arrow's one-column ``border``, except in a one-block
    program, where it is the block's last coordinate.
    """

    k: int                          #: coordinates of the solver vector
    border: int                     #: trailing coordinates shared by all blocks
    blocks: int                     #: number of structure blocks
    groups: Tuple[_GroupLayout, ...]
    coupling_rows: np.ndarray       #: the rows of ``h`` that couple blocks
    coupling: np.ndarray            #: their dense rows, ``k`` columns each
    coupling_sq: np.ndarray         #: each coupling row's squared norm
    m: int                          #: barrier terms, the ``m`` of the ``m/t`` gap


class _KernelLayout:
    """The Newton kernel's read-only view of one compiled problem.

    It depends only on ``G``, the hyperbolic terms and the block structure:
    never on ``h``, the one array parametric re-solves mutate, nor on phase
    I's lower bound, which each workspace gathers.  So it is built once per
    compiled problem and cached on it
    (:attr:`~repro.solver.problem.CompiledProblem.kernel_layout`).  Each
    phase's :class:`_PhaseLayout` is scattered straight from the CSR
    matrices the first time that phase runs, so warm solves that skip phase
    I never build its layout.
    """

    def __init__(self, problem: CompiledProblem) -> None:
        structure = problem.block_structure or _single_block(problem)
        hyp = problem.hyperbolic
        self.blocks = structure.num_blocks
        self.k = problem.num_variables
        self.h_size = int(problem.h.size)
        ranges = np.array(structure.ranges, dtype=np.intp).reshape(-1, 2)
        self.starts = ranges[:, 0]
        self.widths = ranges[:, 1] - ranges[:, 0]
        #: per linear row and per hyperbolic term: its block (``-1``: a
        #: coupling row) and its rank among its block's rows or terms
        self.row_block = structure.row_blocks
        self.row_rank, self.row_count = _ranks(self.row_block, self.blocks)
        self.term_block = structure.hyperbolic_blocks
        self.term_rank, self.term_count = _ranks(self.term_block, self.blocks)
        self.G_entries = _entries(
            problem.G_sparse, self.row_block, self.row_rank, self.starts
        )
        self.PQ_entries = [
            _entries(side, self.term_block, self.term_rank, self.starts)
            for side in (hyp.P, hyp.Q)
        ]
        self.p0, self.q0, self.bound = hyp.p0, hyp.q0, hyp.bound
        self.coupling_rows = structure.coupling_rows
        self.coupling = problem.G_sparse[self.coupling_rows].toarray()
        _frozen(self.coupling_rows, self.coupling)

    @cached_property
    def phase_two(self) -> _PhaseLayout:
        return self._build(phase_one=False)

    @cached_property
    def phase_one(self) -> _PhaseLayout:
        return self._build(phase_one=True)

    def _build(self, phase_one: bool) -> _PhaseLayout:
        k = self.k + phase_one
        # A one-block program has no arrow to border: t is its last column.
        fold = phase_one and self.blocks == 1
        border = int(phase_one and not fold)
        widths = self.widths + fold
        linear_count = self.row_count.copy()
        linear_count[0] += phase_one  # the lower-bound row, homed in block 0
        members: Dict[Tuple[int, bool, bool], List[int]] = {}
        kinds = zip(
            widths.tolist(), (linear_count > 0).tolist(), (self.term_count > 0).tolist()
        )
        for block, key in enumerate(kinds):
            members.setdefault(key, []).append(block)
        group_of = np.empty(self.blocks, dtype=np.intp)
        member_of = np.empty(self.blocks, dtype=np.intp)
        for group, indices in enumerate(members.values()):
            group_of[indices] = group
            member_of[indices] = np.arange(len(indices))
        groups = tuple(
            self._group(np.array(indices), group_of, member_of, border, k, linear_count)
            for indices in members.values()
        )
        coupling = self.coupling
        if phase_one:
            coupling = np.hstack([coupling, -np.ones((coupling.shape[0], 1))])
        coupling_sq = np.einsum("ij,ij->i", coupling, coupling)
        _frozen(coupling, coupling_sq)
        return _PhaseLayout(
            k=k,
            border=border,
            blocks=self.blocks,
            groups=groups,
            coupling_rows=self.coupling_rows,
            coupling=coupling,
            coupling_sq=coupling_sq,
            m=int(linear_count.sum() + self.term_count.sum()) + coupling.shape[0],
        )

    def _group(
        self,
        indices: np.ndarray,
        group_of: np.ndarray,
        member_of: np.ndarray,
        border: int,
        k: int,
        linear_count: np.ndarray,
    ) -> _GroupLayout:
        """Scatter the rows of the blocks ``indices`` into one padded tensor.

        A phase-I layout (``k`` counts ``t``) writes ``t``'s column, the
        last of each member's ``n`` coordinates, and block 0's lower-bound
        row.
        """
        group = group_of[indices[0]]
        phase_one = k > self.k
        size = indices.size
        width = int(self.widths[indices[0]]) + (phase_one and not border)
        n = width + border
        linear = int(linear_count[indices].max())
        count = int(self.term_count[indices].max())
        rows = np.zeros((size, linear + 2 * count, n))

        def scatter(entries: Tuple[np.ndarray, ...], offset: int) -> None:
            block, rank, column, value = entries
            here = group_of[block] == group
            block, rank, column = block[here], rank[here], column[here]
            rows[member_of[block], offset + rank, column] = value[here]

        owned = np.flatnonzero(
            (self.row_block >= 0) & (group_of[self.row_block] == group)
        )
        member, rank = member_of[self.row_block[owned]], self.row_rank[owned]
        h_map = np.full((size, linear), self.h_size, dtype=np.intp)
        h_map[member, rank] = owned
        scatter(self.G_entries, 0)
        if phase_one:
            rows[member, rank, n - 1] = -1.0
            if group_of[0] == group:
                bound_row = member_of[0], self.row_count[0]
                rows[bound_row + (n - 1,)] = -1.0
                h_map[bound_row] = self.h_size + 1

        terms = np.flatnonzero(group_of[self.term_block] == group)
        member, rank = member_of[self.term_block[terms]], self.term_rank[terms]
        pq0, w = np.ones((size, 2, count)), np.zeros((size, count))
        pq0[member, 0, rank] = self.p0[terms]
        pq0[member, 1, rank] = self.q0[terms]
        w[member, rank] = self.bound[terms]
        for side, entries in enumerate(self.PQ_entries):
            scatter(entries, linear + side * count)
            if phase_one:
                rows[member, linear + side * count + rank, n - 1] = 0.5

        starts = self.starts[indices]
        index = np.hstack(
            [
                starts[:, None] + np.arange(width, dtype=np.intp),
                np.broadcast_to(np.arange(k - border, k), (size, border)),
            ]
        )
        _frozen(rows, h_map, pq0, w, index)
        return _GroupLayout(
            slices=tuple(slice(start, start + width) for start in starts.tolist()),
            width=width,
            index=index,
            rows=rows,
            linear=linear,
            hyperbolic=count,
            h_map=h_map,
            pq0=pq0,
            w=w,
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
    """The Newton kernel: stacked block-group evaluation and assembly.

    Owns the scratch buffers of one centering run around a read-only
    :class:`_PhaseLayout`, one :class:`_BlockGroup` per layout group, and
    gathers the current ``h`` rows (and phase I's lower-bound constant) into
    their padded positions
    once.  :meth:`evaluate` runs every group once at a point and returns the
    group states and the coupling slacks with the merit; :meth:`direction`
    builds the gradient and the group Hessian stacks from those carried
    states — it never re-evaluates a slack — and adds the trace-scaled
    Tikhonov term.  The step is then solved one of two ways, picked from the
    layout:

    * a layout with one block, no border and no coupling (every one-block
      program, phase I included: its ``t`` is a coordinate of the block)
      solves its assembled block with one Cholesky solve (:func:`_spd_solve`);
    * every other layout takes the arrow solve (:meth:`_arrow_direction`):
      one Cholesky solve per block plus the Schur complements of the border
      and the coupling rows.  The right-hand-side / solution buffers are
      preallocated and the coupling columns ``Gcᵀ`` written **once**.

    When a factorisation of the arrow solve fails, that iteration's
    direction comes from one ``k×k`` system assembled from the same group
    blocks (:meth:`_dense_step`, counted in ``stats["fallback_iterations"]``).
    A failed Cholesky of a ``k×k`` system is a least-squares step instead,
    counted in ``stats["lstsq_steps"]``; a system with an inf or NaN entry
    raises :class:`~repro.exceptions.NumericalError` instead.
    """

    def __init__(
        self,
        layout: _PhaseLayout,
        h: np.ndarray,
        options: BarrierOptions,
        stats: Dict[str, float],
        lower_bound: float = 0.0,
    ) -> None:
        self.layout = layout
        self.options = options
        self.stats = stats
        self.k = k = layout.k
        self.border = layout.border
        #: the coupling rows, their right-hand sides and their count
        self.Gc = layout.coupling
        self.hc = h[layout.coupling_rows]
        self.m = self.hc.size
        #: one block, no border, no coupling: a direct solve of that block
        self.direct = layout.blocks == 1 and not self.border and not self.m
        cols = 1 + self.m
        self.cols = cols
        self.rhs = np.empty((k, cols))
        self.rhs[:, 1:] = self.Gc.T
        self.solved = np.empty((k, cols))
        #: ``1/s²`` over the coupling slacks of the last assembled point
        self.weights = np.zeros(self.m)
        # ``h`` extended by the padding rows' 1 and the constant of phase I's
        # lower-bound row ``−t ≤ −lower_bound``, the two targets of ``h_map``
        extended = np.concatenate([h, [1.0, -lower_bound]])
        self.groups = [
            _BlockGroup(group, extended[group.h_map], self.rhs, self.border)
            for group in layout.groups
        ]

    def evaluate(self, z: np.ndarray) -> Tuple[Optional[tuple], float]:
        """Group states and coupling slacks at ``z``, with ``φ(z)``.

        ``(None, +inf)`` as soon as a slack is not positive.  The linear
        merit part is handled by the caller in difference form, so only the
        barrier sum is evaluated here.
        """
        group_states: List[object] = []
        total = 0.0
        for group in self.groups:
            state, value = group.evaluate(z)
            if state is None:
                return None, math.inf
            group_states.append(state)
            total += value
        slacks = None
        if self.m:
            slacks = self.coupling_slacks(z)
            if not slacks.min() > 0.0:
                return None, math.inf
            total -= float(np.log(slacks).sum())
        return (group_states, slacks), total

    def coupling_slacks(self, z: np.ndarray) -> np.ndarray:
        """The coupling rows' slacks ``hc − Gc·z``."""
        return self.hc - self.Gc @ z

    def direction(
        self, grad_objective: np.ndarray, states: tuple
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The gradient and Newton direction of ``grad_objective·z + φ(z)``.

        ``states`` is :meth:`evaluate`'s output at ``z``.  The Hessian is
        ``H = H₀ + Gcᵀ·W·Gc`` with ``H₀`` bordered block diagonal
        (per-application blocks, plus the phase-I relaxation column as a
        border) and ``W = diag(1/s²)`` over the coupling-row slacks.  Each
        block group assembles its members' bordered blocks of ``H₀`` (and
        gradients) as one weighted Gram of its rows
        (:meth:`_BlockGroup.assemble`).
        """
        group_states, slacks = states
        k, border = self.k, self.border
        blocks_end = k - border
        assembly_start = time.perf_counter()
        grad = grad_objective.copy()
        trace = 0.0
        for group, state in zip(self.groups, group_states):
            group.assemble(state)
            grad[group.block_index] += group.grad[:, : group.width]
            if border:
                grad[blocks_end:] += group.grad[:, group.width :].sum(axis=0)
            trace += float(group.trace.sum())
        if self.m:
            inv = 1.0 / slacks
            grad += self.Gc.T @ inv
            self.weights = inv * inv
            trace += float(self.weights @ self.layout.coupling_sq)
        reg = self.options.regularization * (1.0 + trace / max(k, 1))
        for group in self.groups:
            group.diagonal += reg
        self.stats["assembly_time"] += time.perf_counter() - assembly_start

        if self.direct:
            factor_start = time.perf_counter()
            direction = -self._dense_solve(self.groups[0].hess[0], grad)
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
        factorisations instead of one cube of the full size.  Every member
        block takes one Cholesky solve (:func:`_spd_solve`), which is also
        its positive-definiteness check; in phase II (no border) the
        solution is written straight into the member's rows of the solution
        buffer.  The border and the coupling Schur matrices are symmetric
        positive definite too and take one Cholesky solve each.

        Raises :class:`numpy.linalg.LinAlgError` when any block or Schur
        matrix is not positive definite, which :meth:`direction` catches to
        take the dense step instead.
        """
        k, border, m, cols = self.k, self.border, self.m, self.cols
        blocks_end = k - border
        rhs = self.rhs
        rhs[:, 0] = grad
        solved = self.solved

        factor_start = time.perf_counter()
        # Chaos site: an armed ``newton.linalg`` fault raises the same
        # LinAlgError a failed block factorisation would.
        _maybe_fail("newton.linalg")
        if border:
            schur = reg * np.eye(border)
            cross_rhs = np.zeros((border, cols))
        border_parts: List[Tuple[np.ndarray, np.ndarray]] = []
        for group in self.groups:
            width, H, R = group.width, group.hess, group.rhs
            if border:
                # Border-border curvature of every block (including width-0
                # blocks, e.g. the phase-I lower-bound row on t).
                schur += H[:, width:, width:].sum(axis=0)
            if width == 0:
                continue
            R[:, :, 0] = grad[group.block_index]
            R[:, :, cols:] = H[:, :width, width:]
            if border:
                sol = group.sol
                for j, (_, block, member_rhs) in enumerate(group.members):
                    sol[j] = _spd_solve(block, member_rhs)
                solved[group.block_index] = sol[:, :, :cols]
                cross = R[:, :, cols:]
                cross_rhs += np.einsum("bwj,bwc->jc", cross, sol[:, :, :cols])
                schur -= np.einsum("bwj,bwl->jl", cross, sol[:, :, cols:])
                border_parts.append((group.block_index, sol[:, :, cols:]))
            else:
                for slc, block, member_rhs in group.members:
                    solved[slc] = _spd_solve(block, member_rhs)
            self.stats["block_factorizations"] += group.size
        self.stats["factorization_time"] += time.perf_counter() - factor_start

        schur_start = time.perf_counter()
        if border:
            border_solution = _spd_solve(schur, rhs[blocks_end:] - cross_rhs)
            for block_index, q_part in border_parts:
                solved[block_index] -= q_part @ border_solution
            solved[blocks_end:] = border_solution
        if m:
            base = solved[:, 0]
            lifted = solved[:, 1:]
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

    def _dense_step(self, grad: np.ndarray, reg: float) -> np.ndarray:
        """The Newton direction from one ``k×k`` system: the assembled group
        blocks scattered into place plus ``Gcᵀ·W·Gc``, no re-evaluation."""
        k = self.k
        hess = np.zeros((k, k))
        for group in self.groups:
            index = group.index
            np.add.at(hess, (index[:, :, None], index[:, None, :]), group.hess)
        # The block diagonals already carry the regularization; the border's
        # is a sum over the groups, so it is added here once.
        hess.reshape(-1)[(k - self.border) * (k + 1) :: k + 1] += reg
        if self.m:
            hess += (self.Gc.T * self.weights) @ self.Gc
        return -self._dense_solve(hess, grad)

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
    interior hint, and ``stats`` the phase-I statistics.
    """

    decided: Optional[Solution] = None
    point: Optional[np.ndarray] = None
    layout: Optional[_KernelLayout] = None
    z: Optional[np.ndarray] = None
    z_interior: Optional[np.ndarray] = None
    stats: Optional[Dict[str, object]] = None


class BarrierSolver:
    """Two-phase log-barrier interior-point solver."""

    def __init__(self, options: Optional[BarrierOptions] = None) -> None:
        self.options = options or BarrierOptions()

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
        opts = self.options
        start = self._phase_one_prefix(problem, initial_point, interior_point)
        if start.decided is not None:
            return start.decided
        stats, z_interior = start.stats, start.z_interior
        workspace = _StructuredWorkspace(
            start.layout.phase_two, problem.h, self.options, self._kernel_stats
        )

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
        self._attach_kernel_stats(stats, problem)
        objective = problem.objective_value(result.z)

        if abs(objective) > opts.unbounded_threshold:
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
        as an inconsistent equality).  A program without constraints is
        feasible.  The phase-I statistics are published to the metrics
        registry like any solve's, with zero phase-II iterations.
        """
        start = self._phase_one_prefix(problem, initial_point)
        if start.decided is not None:
            return start.point
        stats = start.stats
        self._attach_kernel_stats(stats, problem)
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

        #: Newton-kernel accounting shared by every workspace of this solve
        #: (phase I and phase II); reset per solve.
        self._kernel_stats = _kernel_stats()
        layout = self._layout(problem)
        z_interior: Optional[np.ndarray] = None
        if interior_point is not None:
            z_interior = np.array(interior_point, dtype=float)
        fallbacks = [z_interior] if z_interior is not None else []
        with obs_span("phase1") as phase1_span:
            z_feasible, feasibility, phase1 = self._phase_one(
                problem, layout, z0, fallbacks=fallbacks
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
            self._attach_kernel_stats(stats, problem)
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
        )

    # -- telemetry ------------------------------------------------------------
    def _attach_kernel_stats(
        self, stats: Dict[str, object], problem: CompiledProblem
    ) -> None:
        """Fold this solve's Newton-kernel accounting into its stats dict.

        ``sparse_nnz`` (constraint-matrix nonzeros), ``lstsq_steps`` (Newton
        directions whose ``k×k`` Cholesky failed and took least squares),
        the assembly/factorisation/Schur time split and the
        block-factorisation count are reported for every solve; the
        dense-step count and the layout reuse flag (``pieces_cache_reused``)
        only for ``stats["structured"]`` (two or more blocks) solves.
        """
        kernel = self._kernel_stats
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
        stats["structured_fallback_iterations"] = int(
            kernel["fallback_iterations"]
        )
        stats["pieces_cache_reused"] = bool(self._layout_reused)

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
        workspace gathers only the ``h`` rows, the one array parametric
        re-solves mutate.
        """
        layout = problem.kernel_layout
        #: whether this solve reused the cached layout (surfaced as the
        #: ``pieces_cache_reused`` stat → SessionStats sparse reuse)
        self._layout_reused = layout is not None
        if layout is None:
            layout = problem.kernel_layout = _KernelLayout(problem)
        return layout

    # -- phase I -----------------------------------------------------------------
    def _phase_one(
        self,
        problem: CompiledProblem,
        layout: _KernelLayout,
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
        block's last coordinate).

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
        opts = self.options
        needed = self._required_relaxation(problem, z0)
        if needed < -opts.feasibility_margin:
            return z0, needed, {"skipped": True, "newton_iterations": 0}
        for candidate in fallbacks:
            required = self._required_relaxation(problem, candidate)
            if required < -opts.feasibility_margin:
                return candidate, required, {"skipped": True, "newton_iterations": 0}

        k = problem.num_variables
        # Keep the phase-I objective bounded below.
        lower_bound = -max(1.0, abs(needed))
        workspace = _StructuredWorkspace(
            layout.phase_one,
            problem.h,
            self.options,
            self._kernel_stats,
            lower_bound=lower_bound,
        )

        t0 = needed + max(1.0, 0.1 * abs(needed))
        zt = np.concatenate([z0, [t0]])
        c_phase = np.concatenate([np.zeros(k), [1.0]])

        # Stop as soon as the point is comfortably interior; a modest negative
        # slack is enough for phase II, and insisting on a large one would
        # never terminate early on problems whose feasible region is thin.
        target = -max(1e-3, 1e3 * opts.feasibility_margin)

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
        if t_final < -opts.feasibility_margin:
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
        opts = self.options
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
        opts = self.options
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


def solve_with_barrier(
    problem: CompiledProblem,
    initial_point: Optional[np.ndarray] = None,
    options: Optional[BarrierOptions] = None,
    interior_point: Optional[np.ndarray] = None,
) -> Solution:
    """Convenience wrapper used by the backend dispatcher."""
    solver = BarrierSolver(options)
    return solver.solve(
        problem, initial_point=initial_point, interior_point=interior_point
    )
